"""Measurement-file parsing and signal assembly.

Reads emonTx-style CSV recordings (12 Hz RMS current/voltage, power,
power factor, UTC timestamps) into one column per field, resamples one
channel onto a uniform index grid by zero-order hold, and reads and
writes signals in the `k,value` form.

Both CSV readers hand a plain ASCII file to ``np.loadtxt`` by name, so
numpy reads it from disk in chunks with its C reader and no copy of the
text is held.  Any other file, and any body numpy rejects, is read line
by line with Python's ``int`` and ``float``: that reader is the
reference, and it names the first bad line.  A spelling those accept and
numpy does not (``1_0``), and a whitespace-only line, are read on that
path, so they still parse.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import cycle
from pathlib import Path
from typing import Callable, Iterator, NamedTuple
from urllib.parse import urlparse

import numpy as np

from .errors import ValidationError, check_number
from .series import SignalSeries

EMONTX_HEADER = "timestamp_utc,irms,vrms,pva,pw,pf"
CHANNELS = ("irms", "pw", "pva")
PF_TOL = 1e-6

# Grid-length arithmetic tolerance for timestamps that are "exactly" on
# a sample boundary up to float rounding.
_GRID_EPS = 1e-9

_FIELDS = tuple(EMONTX_HEADER.split(","))
_EMONTX_DTYPE = np.dtype([(name, float) for name in _FIELDS])
_SIGNAL_DTYPE = np.dtype([("k", np.int64), ("value", float)])
# Bytes per read while scanning a file before numpy streams it.
_SCAN_CHUNK = 1 << 16
# ASCII bytes that keep a file off the streamed path: line ends for
# str.splitlines() that numpy's reader does not split at (\x0b, \x0c,
# \x1c-\x1e), a byte numpy reads as a blank (\x1f), and NUL.  Non-ASCII
# bytes keep it off too: numpy reads some letters as digits where int()
# and float() do not.
_UNSTREAMED_BYTES = tuple(bytes([b]) for b in b"\x00\x0b\x0c\x1c\x1d\x1e\x1f")
# Suffixes that numpy's loader opens through a decompressor.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")
# Rows per block of signal text.  Six files written together, one block at a
# time, peak at 0.25 MB under tracemalloc at T = 7,200 and at T = 115,200.
ROW_BLOCK = 1024


class GapWarning(UserWarning):
    """A recording contains a hole longer than the configured limit."""


class _RowError(ValidationError):
    """A recording row breaks a rule; rows count from 0."""

    def __init__(self, row: int, reason: str):
        self.row = row
        self.reason = reason
        super().__init__(f"row {row}: {reason}")


@dataclass(frozen=True, eq=False)
class EmonRecording:
    """Rows from an energy-monitor node, one read-only float column per field.

    Row i is (timestamp_utc[i], irms[i], vrms[i], pva[i], pw[i], pf[i]).
    Every value is finite, irms, vrms and pva are nonnegative,
    |pf| <= 1 + PF_TOL and the timestamps strictly increase; the first
    row that breaks a rule raises ValidationError naming the row.
    """

    timestamp_utc: np.ndarray
    irms: np.ndarray
    vrms: np.ndarray
    pva: np.ndarray
    pw: np.ndarray
    pf: np.ndarray

    def __post_init__(self):
        columns = [np.array(getattr(self, name), dtype=float) for name in _FIELDS]
        if any(c.ndim != 1 or len(c) != len(columns[0]) for c in columns):
            raise ValidationError("recording columns must be 1-D and of equal length")
        _check_rows(*columns)
        for name, column in zip(_FIELDS, columns):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.timestamp_utc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmonRecording):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _FIELDS
        )


def _check_rows(ts, irms, vrms, pva, pw, pf) -> None:
    """Raise _RowError for the first row that breaks a recording rule.

    Within that row the rules are tried in this order: finite, nonnegative,
    power factor, timestamp after the previous row's.
    """
    nonfinite = ~np.isfinite(np.stack((ts, irms, vrms, pva, pw, pf))).all(axis=0)
    negative = (irms < 0) | (vrms < 0) | (pva < 0)
    bad_pf = np.abs(pf) > 1.0 + PF_TOL
    not_after = np.zeros(len(ts), dtype=bool)
    not_after[1:] = ts[1:] <= ts[:-1]
    bad = nonfinite | negative | bad_pf | not_after
    if not bad.any():
        return
    i = int(np.argmax(bad))
    if nonfinite[i]:
        reason = "non-finite field in record"
    elif negative[i]:
        reason = "irms, vrms and pva must be nonnegative"
    elif bad_pf[i]:
        reason = f"power factor {float(pf[i])} outside [-1, 1]"
    else:
        reason = f"timestamp {float(ts[i])!r} not after {float(ts[i - 1])!r}"
    raise _RowError(i, reason)


class Gap(NamedTuple):
    """A hole between consecutive records, measured in sample periods."""

    start_k: int
    periods: int


def _load_streamed(path: str | Path, header: str, dtype: np.dtype) -> np.ndarray | None:
    """The body of a plain ASCII file as np.loadtxt reads it by name, or None.

    numpy opens the file itself and reads it in chunks, so no copy of the
    text is held.  Both sides read in universal-newline mode, so CR and
    CRLF line ends take this path.  None declines: a name numpy would open
    through a decompressor or as a URL; a first line that is not header;
    a body with no non-blank byte; a file holding a non-ASCII byte or one
    of _UNSTREAMED_BYTES, found by a scan in bounded chunks; or a body
    numpy rejects.  A declined file is read line by line by _read_body.
    """
    name = os.fspath(path)
    try:
        url = urlparse(name)
    except ValueError:
        return None
    if name.endswith(_COMPRESSED_SUFFIXES) or (url.scheme and url.netloc):
        return None
    with Path(path).open("rb") as f:
        chunk = f.read(_SCAN_CHUNK)
        line_end = re.search(rb"[\r\n]", chunk)
        if line_end is None or chunk[: line_end.start()].strip() != header.encode():
            return None
        has_row = bool(chunk[line_end.end() :].strip())
        while chunk:
            if not chunk.isascii() or any(b in chunk for b in _UNSTREAMED_BYTES):
                return None
            chunk = f.read(_SCAN_CHUNK)
            has_row = has_row or bool(chunk.strip())
    if not has_row:
        return None
    try:
        return np.loadtxt(
            name, dtype=dtype, delimiter=",", comments=None, skiprows=1, ndmin=1
        )
    except ValueError:
        return None


def _read_table(
    path: str | Path, header: str, what: str, dtype: np.dtype,
    parse_row: Callable[[str], tuple],
) -> tuple[np.ndarray, ValidationError | None]:
    """The body of a file whose first line is header, streamed if possible.

    Otherwise the file is read as lines, an undecodable byte becoming
    U+FFFD so that _read_body rejects its line, and checked for its header,
    whose absence raises ValidationError naming what was expected.
    """
    table = _load_streamed(path, header, dtype)
    if table is not None:
        return table, None
    lines = Path(path).read_text(errors="replace").splitlines()
    if not lines or lines[0].strip() != header:
        raise ValidationError(f"bad {what} in {path}: expected '{header}'")
    return _read_body(lines, dtype, parse_row)


def _read_body(
    lines: list[str], dtype: np.dtype, parse_row: Callable[[str], tuple]
) -> tuple[np.ndarray, ValidationError | None]:
    """The non-blank lines after the header as a structured array.

    This is the reference reader.  The lines are read one by one with
    parse_row up to the first it rejects: the result is the rows before
    that line and an error naming it (None when every line parses).  An
    integer column keeps Python's unbounded ints.
    """
    by_line = np.dtype([
        (name, object if dtype[name].kind == "i" else dtype[name]) for name in dtype.names
    ])
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rows.append(parse_row(line))
        except ValueError as exc:
            return np.array(rows, dtype=by_line), ValidationError(f"line {lineno}: {exc}")
    return np.array(rows, dtype=by_line), None


def _line_number(path: str | Path, row: int) -> int:
    """File line number (from 1) of the row-th non-blank line after the header."""
    lines = Path(path).read_text(errors="replace").splitlines()
    return [n for n, line in enumerate(lines[1:], start=2) if line.strip()][row]


def _emontx_row(line: str) -> tuple[float, ...]:
    fields = line.split(",")
    if len(fields) != len(_FIELDS):
        raise ValueError(f"expected {len(_FIELDS)} fields, got {len(fields)}")
    return tuple(map(float, fields))


def parse_emontx_csv(path: str | Path) -> EmonRecording:
    """Parse a full recording, reporting the line number of any bad row.

    Blank lines are skipped but counted.
    """
    table, error = _read_table(path, EMONTX_HEADER, "header", _EMONTX_DTYPE, _emontx_row)
    # A bad row before the first line that does not parse comes first.
    try:
        recording = EmonRecording(*(table[name] for name in _FIELDS))
    except _RowError as exc:
        raise ValidationError(
            f"line {_line_number(path, exc.row)}: {exc.reason}"
        ) from exc
    if error is not None:
        raise error
    return recording


def find_gaps(
    recording: EmonRecording, nominal_rate: float, gap_periods: float = 10.0
) -> list[Gap]:
    """Holes between consecutive records longer than gap_periods."""
    check_number("nominal_rate", nominal_rate)
    ts = recording.timestamp_utc
    periods = np.diff(ts) * nominal_rate
    return [
        Gap(start_k=round(ts[i].item() * nominal_rate), periods=round(periods[i].item()))
        for i in np.flatnonzero(periods > gap_periods).tolist()
    ]


def to_signal(
    recording: EmonRecording,
    channel: str = "irms",
    nominal_rate: float = 12.0,
    gap_periods: float = 10.0,
) -> SignalSeries:
    """Resample one channel onto a uniform grid by zero-order hold.

    The grid starts at the first record and the start index encodes
    absolute time (round(t_first * rate)) so that signals from separate
    recordings sharing a clock stay aligned.  Gaps longer than
    gap_periods sample periods raise a GapWarning.  nominal_rate must be
    finite and > 0 (find_gaps checks it).
    """
    if len(recording) < 2:
        raise ValidationError("need at least 2 records to build a signal")
    if channel not in CHANNELS:
        raise ValidationError(f"unknown channel '{channel}', expected one of {CHANNELS}")
    for gap in find_gaps(recording, nominal_rate, gap_periods):
        warnings.warn(
            f"gap of {gap.periods} sample periods at k={gap.start_k}", GapWarning,
            stacklevel=2,
        )
    ts = recording.timestamp_utc
    vals = getattr(recording, channel)
    span = ts[-1] - ts[0]
    length = int(math.ceil(span * nominal_rate - _GRID_EPS)) + 1
    grid = ts[0] + np.arange(length) / nominal_rate
    src = np.searchsorted(ts, grid + _GRID_EPS, side="right") - 1
    start_index = round(ts[0] * nominal_rate)
    return SignalSeries(
        vals[src], sample_period=1.0 / nominal_rate, start_index=start_index
    )


def _signal_blocks(signals, prefix: str = "") -> Iterator[str]:
    """Each signal's `k,value` text per ROW_BLOCK rows, signal by signal.

    The signals share one index range, so a block's keys are formed once.
    """
    start, length = signals[0].start_index, len(signals[0])
    for a in range(0, length, ROW_BLOCK):
        n = min(ROW_BLOCK, length - a)
        fields = ["", "", "\n"] * n
        fields[0::3] = [f"{prefix}{k}," for k in range(start + a, start + a + n)]
        for block in (signal.values[a : a + n] for signal in signals):
            bits = block.view(np.int64)  # one `repr` per run; -0.0 is not 0.0
            starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
            texts = np.array(list(map(repr, block[starts].tolist())), dtype=object)
            fields[1::3] = np.repeat(texts, np.diff(starts, append=n)).tolist()
            yield "".join(fields)


def signal_rows(signal: SignalSeries, prefix: str = "") -> Iterator[str]:
    """A signal's `k,value` lines in blocks of ROW_BLOCK rows, each prefix as it is."""
    return _signal_blocks((signal,), prefix)


def _write_signal_csvs(pairs) -> None:
    """Write (signal, path) pairs together, once they share a range and no path repeats."""
    paths = [Path(path) for _, path in pairs]
    ranges = sorted({(signal.start_index, signal.end_index) for signal, _ in pairs})
    if len(ranges) > 1:
        raise ValidationError(f"signals to write span different index ranges {ranges}")
    if len(set(paths)) < len(paths):
        raise ValidationError(f"{max(paths, key=paths.count)} is named twice")
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "w")) for path in paths]
        for f in files:
            f.write("k,value\n")
        for f, text in zip(cycle(files), _signal_blocks([s for s, _ in pairs])):
            f.write(text)


def write_signal_csv(signal: SignalSeries, path: str | Path) -> None:
    """Write the `k,value` form; floats round-trip exactly."""
    _write_signal_csvs([(signal, path)])


def _signal_row(line: str) -> tuple[int, float]:
    k_str, v_str = line.split(",")
    return int(k_str), float(v_str)


def read_signal_csv(path: str | Path) -> SignalSeries:
    """Read the `k,value` form; k must be an integer counting up by one."""
    table, error = _read_table(path, "k,value", "signal header", _SIGNAL_DTYPE, _signal_row)
    if error is not None:
        raise error
    if not len(table):
        raise ValidationError(f"no samples in {path}")
    ks = table["k"]
    # The first test also catches a step whose int64 difference wraps.
    bad = np.flatnonzero((ks[1:] <= ks[:-1]) | (np.diff(ks) != 1))
    if bad.size:
        i = bad[0]
        raise ValidationError(f"non-contiguous index {ks[i + 1]} after {ks[i]}")
    return SignalSeries(table["value"], start_index=int(ks[0]))
