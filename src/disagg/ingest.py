"""Measurement-file parsing and signal assembly.

Reads emonTx-style CSV recordings (12 Hz RMS current/voltage, power,
power factor, UTC timestamps) into one column per field, resamples one
channel onto a uniform index grid by zero-order hold, and reads and
writes signals in the `k,value` form.

Both CSV readers parse the whole body in one numpy pass.  Only a body
that numpy rejects is read again line by line with Python's ``int`` and
``float``, which names the first bad line; a spelling those accept and
numpy does not (``1_0``) is read on the same path, so it still parses.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import ValidationError
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
# Rows per block of signal text.  Writing one block at a time holds about
# 0.2 MB at any T, where the text of a whole 7,200-row file held 1 MB.
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


def _read_body(
    lines: list[str], dtype: np.dtype, parse_row: Callable[[str], tuple]
) -> tuple[np.ndarray, ValidationError | None]:
    """The non-blank lines after the header as a structured array.

    An ASCII body numpy accepts is read in one pass.  Otherwise the
    lines are read one by one with parse_row up to the first it rejects:
    the result is the rows before that line and an error naming it (None
    when every line parses).  Read that way, an integer column keeps
    Python's unbounded ints.
    """
    body = [line for line in lines[1:] if line.strip()]
    # numpy takes "\x1f" for a blank and reads some non-ASCII letters as
    # digits, where int() and float() reject both.
    joined = "".join(body)
    if body and joined.isascii() and "\x1f" not in joined:
        try:
            table = np.loadtxt(body, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except ValueError:
            pass
        else:
            return table, None
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


def _line_number(lines: list[str], row: int) -> int:
    """File line number (from 1) of the row-th non-blank line after the header."""
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
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != EMONTX_HEADER:
        raise ValidationError(
            f"bad header in {path}: expected '{EMONTX_HEADER}'"
        )
    table, error = _read_body(lines, _EMONTX_DTYPE, _emontx_row)
    # A bad row before the first line that does not parse comes first.
    try:
        recording = EmonRecording(*(table[name] for name in _FIELDS))
    except _RowError as exc:
        raise ValidationError(
            f"line {_line_number(lines, exc.row)}: {exc.reason}"
        ) from exc
    if error is not None:
        raise error
    return recording


def find_gaps(
    recording: EmonRecording, nominal_rate: float, gap_periods: float = 10.0
) -> list[Gap]:
    """Holes between consecutive records longer than gap_periods."""
    if not (math.isfinite(nominal_rate) and nominal_rate > 0):
        raise ValidationError(f"nominal_rate must be finite and > 0, got {nominal_rate!r}")
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


def signal_rows(signal: SignalSeries, prefix: str = "") -> Iterator[str]:
    """The `k,value` lines of a signal, each prefixed, in blocks of text.

    Floats round-trip exactly.  Signals hold long runs of one value (a
    device's output is zero while it is off), so each run is formatted
    once; runs are split on the bit pattern, which keeps -0.0 apart from
    0.0.  A block holds ROW_BLOCK rows, which bounds the text held at once,
    and is formatted by one `%` over its fields, prefix, k and value
    interleaved.  The prefix is a field, never part of the format, so a
    `%` in it is written as it is.
    """
    values = signal.values
    for a in range(0, len(values), ROW_BLOCK):
        block = values[a : a + ROW_BLOCK]
        n = len(block)
        bits = block.view(np.int64)
        starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
        texts = np.array(list(map(repr, block[starts].tolist())), dtype=object)
        k0 = signal.start_index + a
        fields: list = [prefix] * (3 * n)
        fields[1::3] = range(k0, k0 + n)
        fields[2::3] = np.repeat(texts, np.diff(starts, append=n)).tolist()
        yield ("%s%d,%s\n" * n) % tuple(fields)


def write_signal_csv(signal: SignalSeries, path: str | Path) -> None:
    """Write the `k,value` form; floats round-trip exactly."""
    with open(path, "w") as f:
        f.write("k,value\n")
        f.writelines(signal_rows(signal))


def _signal_row(line: str) -> tuple[int, float]:
    k_str, v_str = line.split(",")
    return int(k_str), float(v_str)


def read_signal_csv(path: str | Path, sample_period: float = 1.0) -> SignalSeries:
    """Read the `k,value` form; k must be an integer counting up by one."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != "k,value":
        raise ValidationError(f"bad signal header in {path}: expected 'k,value'")
    table, error = _read_body(lines, _SIGNAL_DTYPE, _signal_row)
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
    return SignalSeries(table["value"], sample_period=sample_period, start_index=int(ks[0]))
