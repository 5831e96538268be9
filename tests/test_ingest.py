import itertools
import math
import os
import re
import tracemalloc
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import disagg.ingest as ingest
from disagg import (
    EmonRecording,
    Gap,
    GapWarning,
    ValidationError,
    find_gaps,
    parse_emontx_csv,
    read_signal_csv,
    to_signal,
    write_signal_csv,
)
from disagg.ingest import GAP_PERIODS, PF_TOL, ROW_BLOCK
from disagg.series import MAX_HORIZON
from conftest import series

HEADER = "timestamp_utc,irms,vrms,pva,pw,pf"


def _write(tmp_path, rows, name="rec.csv"):
    path = tmp_path / name
    path.write_text("\n".join([HEADER] + rows) + "\n")
    return path


def _recording(rows):
    """A recording from (timestamp_utc, irms, vrms, pva, pw, pf) rows."""
    return EmonRecording(*np.array(rows, dtype=float).reshape(-1, 6).T)


def _steady_rows(n, rate=12.0, t0=0.0, irms=4.25):
    return [(t0 + i / rate, irms, 120.1, 510.4, 505.2, 0.99) for i in range(n)]


def _steady_records(n, rate=12.0, t0=0.0, irms=4.25):
    return _recording(_steady_rows(n, rate, t0, irms))


# ------------------------------------------------------------------ parsing

def test_parse_single_row(tmp_path):
    path = _write(tmp_path, ["1370000000.083,4.25,120.1,510.4,505.2,0.99"])
    recording = parse_emontx_csv(path)
    assert len(recording) == 1
    assert recording.irms[0] == 4.25
    assert recording.pf[0] == 0.99
    assert recording.timestamp_utc[0] == 1370000000.083


def test_parse_rejects_bad_power_factor_with_line(tmp_path):
    path = _write(tmp_path, [
        "100.0,1.0,120.0,120.0,118.0,0.98",
        "100.1,1.0,120.0,120.0,118.0,1.5",
    ])
    with pytest.raises(ValidationError, match="line 3"):
        parse_emontx_csv(path)


def test_parse_rejects_equal_timestamps(tmp_path):
    path = _write(tmp_path, [
        "100.0,1.0,120.0,120.0,118.0,0.98",
        "100.0,1.0,120.0,120.0,118.0,0.98",
    ])
    with pytest.raises(ValidationError, match="line 3"):
        parse_emontx_csv(path)


def test_parse_rejects_malformed_row_with_line(tmp_path):
    path = _write(tmp_path, ["100.0,1.0,120.0,120.0,118.0"])
    with pytest.raises(ValidationError, match="line 2"):
        parse_emontx_csv(path)


def test_parse_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,current\n1,2\n")
    with pytest.raises(ValidationError, match="header"):
        parse_emontx_csv(path)


def _reference_error(text):
    """The message the line-by-line emonTx reader gives for text, or None.

    A per-line reference written from the file format: blank lines are
    skipped but counted, and each row's checks run in order.
    """
    last_ts = None
    for lineno, line in enumerate(text.splitlines()[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 6:
            return f"line {lineno}: expected 6 fields, got {len(fields)}"
        try:
            ts, irms, vrms, pva, pw, pf = (float(f) for f in fields)
        except ValueError as exc:
            return f"line {lineno}: {exc}"
        if not all(math.isfinite(v) for v in (ts, irms, vrms, pva, pw, pf)):
            return f"line {lineno}: non-finite field in record"
        if irms < 0 or vrms < 0 or pva < 0:
            return f"line {lineno}: irms, vrms and pva must be nonnegative"
        if abs(pf) > 1.0 + PF_TOL:
            return f"line {lineno}: power factor {pf} outside [-1, 1]"
        if last_ts is not None and ts <= last_ts:
            return f"line {lineno}: timestamp {ts!r} not after {last_ts!r}"
        last_ts = ts
    return None


def _reference_columns(text):
    """float() of every field of every non-blank row, as six columns."""
    rows = [
        [float(f) for f in line.split(",")]
        for line in text.splitlines()[1:]
        if line.strip()
    ]
    return np.array(rows, dtype=float).reshape(-1, 6).T


GOOD = "100.0,1.0,120.0,120.0,118.0,0.98"
# NUL, the line ends of str.splitlines() that numpy does not split at
# (\x0b, \x0c, \x1c-\x1e), a lone CR, and bytes numpy reads differently.
FIELD_CHARS = (
    "0123456789+-.eEinfatyINFATY_, \t\x00\x0b\x0c\x1c\x1d\x1e\x1f\r\xa0\u2003\u0663"
)
# Lines that are blank to the line reference, whitespace-only ones included.
BLANK_LINES = ["", " ", "\t \t", "\u3000", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
# Names of plain-text files: numpy's loader would open the first four
# through a decompressor and the next, a relative path, as a URL; urlparse
# raises ValueError on the last.
PLAIN_NAMES = [
    "rec.csv.gz", "rec.bz2", "rec.xz", "rec.lzma", "http://x/s.csv", "http://[x/s.csv",
]


@pytest.fixture
def streamed(tmp_path, monkeypatch):
    """Names read on the streamed path, for a property working in tmp_path.

    tmp_path becomes the working directory, so "http://x/s.csv" names a
    file there; opening it as a URL fails the test rather than reaching
    the network.
    """
    monkeypatch.chdir(tmp_path)
    for host in ("x", "[x"):
        (tmp_path / "http:" / host).mkdir(parents=True)

    def no_network(*args, **kwargs):
        raise AssertionError("a file name was opened as a URL")

    monkeypatch.setattr(urllib.request, "urlopen", no_network)
    names = []
    load = ingest._load_streamed

    def counting(path, header, dtype):
        table = load(path, header, dtype)
        if table is not None:
            names.append(os.fspath(path))
        return table

    monkeypatch.setattr(ingest, "_load_streamed", counting)
    return names


def _assert_streamed_only_plain_names(names, plain):
    """Some files were streamed, and only under the plain name."""
    assert names, "no file took the streamed path"
    assert set(names) == {plain}


@pytest.mark.parametrize("bad_row, message", [
    ("100.5,1.0,120.0,120.0,118.0", "expected 6 fields, got 5"),
    ("100.5,1.0,120.0,120.0,118.0,0.9,1", "expected 6 fields, got 7"),
    ("100.5,1.0,12O.0,120.0,118.0,0.98", "could not convert string to float: '12O.0'"),
    ("100.5,1.0,120.0,,118.0,0.98", "could not convert string to float: ''"),
    # numpy alone reads "\x1f" as a blank.
    ("100.5,1.0\x1f,120.0,120.0,118.0,0.98", "could not convert string to float: '1.0\\x1f'"),
    ("100.5,nan,120.0,120.0,118.0,0.98", "non-finite field in record"),
    ("100.5,1.0,120.0,120.0,-inf,0.98", "non-finite field in record"),
    ("100.5,1.0,120.0,120.0,1e999,0.98", "non-finite field in record"),
    ("100.5,-1.0,120.0,120.0,118.0,0.98", "irms, vrms and pva must be nonnegative"),
    ("100.5,1.0,120.0,-0.5,118.0,0.98", "irms, vrms and pva must be nonnegative"),
    ("100.5,1.0,120.0,120.0,118.0,1.5", "power factor 1.5 outside [-1, 1]"),
    ("100.5,1.0,120.0,120.0,118.0,-1.0000011", "power factor -1.0000011 outside [-1, 1]"),
    ("100.1,1.0,120.0,120.0,118.0,0.98", "timestamp 100.1 not after 100.2"),
    ("100.2,1.0,120.0,120.0,118.0,0.98", "timestamp 100.2 not after 100.2"),
    # A row breaking several rules reports the first in the per-row order.
    ("100.5,-1.0,120.0,nan,118.0,1.5", "non-finite field in record"),
    ("100.5,1.0,-120.0,120.0,118.0,1.5", "irms, vrms and pva must be nonnegative"),
    ("100.0,1.0,120.0,120.0,118.0,1.5", "power factor 1.5 outside [-1, 1]"),
])
@pytest.mark.parametrize("tail", [[], ["x"]], ids=["parses", "malformed-later"])
def test_parse_names_the_line_of_each_rejection_after_blank_lines(
    tmp_path, bad_row, message, tail,
):
    # Lines: 1 header, 2 row, 3 blank, 4 row, 5 whitespace, 6 bad, 7 row, then
    # with one tail a malformed line 8, so that the numpy pass rejects the body.
    rows = [GOOD, "", "100.2,1.0,120.0,120.0,118.0,0.98", " \t ", bad_row,
            "100.9,1.0,120.0,120.0,118.0,0.98", *tail]
    path = _write(tmp_path, rows)
    with pytest.raises(ValidationError) as err:
        parse_emontx_csv(path)
    assert str(err.value) == f"line 6: {message}"
    assert str(err.value) == _reference_error(path.read_text())


def test_parse_keeps_spellings_float_accepts(tmp_path):
    # numpy's reader rejects these; the line-by-line pass reads them as float() does.
    path = _write(tmp_path, [GOOD, "1_00.5,1_0,120.0,120.0,118.0,0.98", "101.0,\u0663,120,120,118,.5"])
    recording = parse_emontx_csv(path)
    np.testing.assert_array_equal(recording.timestamp_utc, [100.0, 100.5, 101.0])
    np.testing.assert_array_equal(recording.irms, [1.0, 10.0, 3.0])


def test_parse_header_only_gives_an_empty_recording(tmp_path):
    path = _write(tmp_path, ["", "  "])
    recording = parse_emontx_csv(path)
    assert len(recording) == 0
    assert recording.timestamp_utc.dtype == float


def test_recording_columns_are_read_only_copies():
    ts = np.array([0.0, 0.5])
    recording = EmonRecording(ts, *(np.ones(2) for _ in range(5)))
    assert not recording.irms.flags.writeable
    ts[0] = 9.0
    assert recording.timestamp_utc[0] == 0.0


def test_recording_rejects_unequal_columns_and_names_a_bad_row():
    with pytest.raises(ValidationError, match="equal length"):
        EmonRecording(np.arange(3.0), *(np.ones(2) for _ in range(5)))
    with pytest.raises(ValidationError, match="row 1: timestamp 0.0 not after 0.0"):
        EmonRecording(np.zeros(2), *(np.ones(2) for _ in range(5)))


def _stacked_row_error(columns):
    """(row, reason) of the first bad row, None if none: the reference.

    Finiteness is tested on the stacked (6, N) array, one row at a time.
    """
    finite = np.isfinite(np.stack(columns)).all(axis=0)
    ts, irms, vrms, pva, _, pf = columns
    for i in range(len(ts)):
        if not finite[i]:
            return i, "non-finite field in record"
        if irms[i] < 0 or vrms[i] < 0 or pva[i] < 0:
            return i, "irms, vrms and pva must be nonnegative"
        if abs(pf[i]) > 1.0 + PF_TOL:
            return i, f"power factor {float(pf[i])} outside [-1, 1]"
        if i and ts[i] <= ts[i - 1]:
            return i, f"timestamp {float(ts[i])!r} not after {float(ts[i - 1])!r}"
    return None


def test_row_checks_match_the_stacked_reference_property():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    # (row, column, value) faults: non-finite, negative, power factor
    # out of range, and timestamps that repeat or go back.
    faults = st.tuples(
        st.integers(0, 29), st.integers(0, 5),
        st.sampled_from([
            math.nan, math.inf, -math.inf, -1.0, -5e-324, 1.0 + 2 * PF_TOL,
            1.0 + PF_TOL, -1.5, 0.0, "repeat",
        ]),
    )

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 30), st.lists(faults, max_size=4))
    def check(n, planted):
        columns = [np.array(c) for c in zip(*_steady_rows(n))]
        for row, column, value in planted:
            row %= n
            if value == "repeat":
                columns[0][row] = columns[0][row - 1] if row else columns[0][row]
            else:
                columns[column][row] = value
        expected = _stacked_row_error(columns)
        if expected is None:
            assert len(EmonRecording(*columns)) == n
            return
        with pytest.raises(ValidationError) as err:
            EmonRecording(*columns)
        assert (err.value.row, err.value.reason) == expected

    check()


def _spell(rng, value, exact):
    """One of the spellings float() reads back as value (exactly, if exact)."""
    spellings = [repr(value), f"{value:.17g}", f"{value:.17e}", f"+{value!r}".replace("+-", "-")]
    if not exact:
        spellings += [f"{value:.3f}", f"{value:g}", f"{value:.2E}"]
    if value == int(value) and abs(value) < 1e15:
        spellings.append(f"{int(value):_}")
    pad = ["", " ", "\t", "  "]
    return rng.choice(pad) + rng.choice(spellings) + rng.choice(pad)


def test_parse_equals_float_reference_property(streamed):
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    finite = dict(allow_nan=False, allow_infinity=False)
    level = st.floats(0.0, 1e6, **finite)
    row = st.tuples(level, level, level, st.floats(-1e6, 1e6, **finite), st.floats(-1.0, 1.0))

    @st.composite
    def recordings(draw):
        # Each row's stamp is drawn with its values, and the spellings and
        # blank lines come from one seeded Random: an example then takes a
        # few choices per row, not dozens, and stays within hypothesis's
        # entropy budget.
        stamp = st.floats(0, 2e9, **finite)
        rows = sorted(draw(st.lists(st.tuples(stamp, row), max_size=25, unique_by=lambda r: r[0])))
        rng = draw(st.randoms(use_true_random=True))
        lines = [HEADER]
        for ts, values in rows:
            fields = [_spell(rng, ts, exact=True)]
            fields += [_spell(rng, v, exact=False) for v in values[:4]]
            fields.append(_spell(rng, values[4], exact=True))
            lines.append(",".join(fields))
            while rng.random() < 0.2:
                lines.append(rng.choice(BLANK_LINES))
        newline = rng.choice(["\n", "\r\n", "\r"])
        return newline.join(lines) + rng.choice(["", newline])

    @settings(max_examples=100, deadline=None)
    @given(recordings(), st.sampled_from(["rec.csv"] + PLAIN_NAMES))
    @example(text=f"{HEADER}\n{GOOD}\n", name="rec.csv")
    def check(text, name):
        Path(name).write_text(text, newline="")
        assert _reference_error(text) is None
        recording = parse_emontx_csv(name)
        expected = _reference_columns(text)
        for field, column in zip(HEADER.split(","), expected):
            assert getattr(recording, field).tobytes() == column.tobytes(), field

    check()
    _assert_streamed_only_plain_names(streamed, "rec.csv")


def test_parse_rejections_match_line_reference_property(streamed):
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    faults = {
        "fields": lambda f: f[:-1] if len(f) % 2 else f + ["1.0"],
        "float": lambda f: f[:2] + ["1.2.3"] + f[3:],
        "nonfinite": lambda f: f[:4] + ["nan"] + f[5:],
        "inf": lambda f: ["inf"] + f[1:],
        "negative": lambda f: f[:3] + ["-2.5"] + f[4:],
        "pf": lambda f: f[:5] + ["-1.25"],
    }

    @st.composite
    def bad_recordings(draw):
        n = draw(st.integers(1, 20))
        rows = [
            [f"{100 + 0.125 * i!r}", "1.5", "230.0", "345.0", "327.75", "0.95"]
            for i in range(n)
        ]
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, n - 1))
            kind = draw(st.sampled_from(sorted(faults) + ["equal", "earlier", "text"]))
            if kind in ("equal", "earlier") and i > 0:
                step = 0.0 if kind == "equal" else 0.5
                rows[i][0] = repr(100 + 0.125 * (i - 1) - step)
            elif kind == "text":
                # Any spelling: float() and the parser must agree on it.
                rows[i][draw(st.integers(0, 5))] = draw(st.text(FIELD_CHARS, max_size=7))
            elif kind in faults:
                rows[i] = faults[kind](rows[i])
        lines = [HEADER]
        for row in rows:
            while draw(st.integers(0, 3)) == 3:
                lines.append(draw(st.sampled_from(BLANK_LINES)))
            lines.append(",".join(row))
        newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        return newline.join(lines) + newline

    @settings(max_examples=200, deadline=None)
    @given(bad_recordings(), st.sampled_from(["rec.csv"] + PLAIN_NAMES))
    @example(text=f"{HEADER}\n{GOOD}\n", name="rec.csv")
    def check(text, name):
        Path(name).write_text(text, newline="")
        expected = _reference_error(text)
        if expected is None:
            assert len(parse_emontx_csv(name)) == len(_reference_columns(text)[0])
            return
        with pytest.raises(ValidationError) as err:
            parse_emontx_csv(name)
        assert str(err.value) == expected

    check()
    _assert_streamed_only_plain_names(streamed, "rec.csv")


# --------------------------------------------------------------- resampling

def test_find_gaps_matches_pairwise_reference():
    rng = np.random.default_rng(4)
    for trial in range(50):
        steps = rng.choice([1 / 12, 0.3, 0.9, 2.5], size=40, p=[0.85, 0.05, 0.05, 0.05])
        ts = 1000.0 + np.cumsum(steps * rng.uniform(0.6, 1.4, size=40))
        recording = _recording([(t, 1.0, 120.0, 120.0, 118.0, 0.98) for t in ts])
        rate = float(rng.choice([12.0, 10.0]))
        expected = []
        for prev, cur in zip(ts.tolist(), ts.tolist()[1:]):
            if (cur - prev) * rate > GAP_PERIODS:
                expected.append((round(prev * rate), round((cur - prev) * rate)))
        assert find_gaps(recording, rate) == expected, trial


def test_to_signal_rate_and_period():
    records = _steady_records(24)
    s = to_signal(records, channel="irms", nominal_rate=12.0)
    assert s.sample_period == pytest.approx(1 / 12)
    assert len(s) == 24
    np.testing.assert_array_equal(s.values, np.full(24, 4.25))


def test_to_signal_length_invariant():
    for n in (2, 7, 24, 100):
        records = _steady_records(n)
        s = to_signal(records, nominal_rate=12.0)
        span = records.timestamp_utc[-1] - records.timestamp_utc[0]
        assert len(s) == int(np.ceil(span * 12.0 - 1e-9)) + 1


def test_to_signal_on_rate_copies_values():
    rng = np.random.default_rng(0)
    vals = np.abs(rng.normal(5, 1, size=30))
    records = _recording([
        (i / 12.0, v, 120.0, 600.0, 590.0, 0.98)
        for i, v in enumerate(vals)
    ])
    s = to_signal(records, channel="irms", nominal_rate=12.0)
    np.testing.assert_allclose(s.values, vals)


def _holed_records(hole_s):
    before = _steady_rows(3)
    t_resume = before[-1][0] + hole_s
    after = [
        (t_resume + i / 12.0, 1.0, 120.0, 120.0, 118.0, 0.98)
        for i in range(3)
    ]
    return _recording(before + after)


def test_to_signal_gap_held_and_flagged():
    # Records at 12 Hz with one 1 s hole: the hold spans 12 periods, more
    # than GAP_PERIODS.
    records = _holed_records(1.0)
    gaps = find_gaps(records, nominal_rate=12.0)
    assert len(gaps) == 1
    assert gaps[0].periods == 12
    with pytest.warns(GapWarning):
        s = to_signal(records, nominal_rate=12.0)
    # Held samples carry the last value before the hole.
    np.testing.assert_array_equal(s.values[2:14], np.full(12, 4.25))
    assert s.values[14] == 1.0
    # A hole of exactly GAP_PERIODS periods is not a gap.
    assert find_gaps(_holed_records(GAP_PERIODS / 12.0), nominal_rate=12.0) == []


def _records_at(periods, rate=12.0):
    """Records stamped at the given multiples of the period, irms 1, 2, ..."""
    return _recording([
        (t / rate, i + 1.0, 120.0, 120.0, 118.0, 0.98) for i, t in enumerate(periods)
    ])


def test_to_signal_takes_a_late_record_at_its_own_grid_point():
    # The third record is 0.4 of a period late: nearer its own grid point
    # than the second record, which is held there under zero-order hold.
    s = to_signal(_records_at([0, 1, 2.4, 3]), nominal_rate=12.0)
    np.testing.assert_array_equal(s.values, [1.0, 2.0, 3.0, 4.0])


def test_to_signal_keeps_the_earlier_record_at_exactly_half_a_period():
    s = to_signal(_records_at([0, 1, 2.5, 3]), nominal_rate=12.0)
    np.testing.assert_array_equal(s.values, [1.0, 2.0, 2.0, 4.0])


def test_to_signal_recovers_records_jittered_under_half_a_period():
    # The benchmark's plug recordings: first and last stamp on the grid,
    # every other one up to 0.45 of a period early or late.
    rng = np.random.default_rng(8)
    for trial in range(20):
        jitter = rng.uniform(-0.45, 0.45, size=60)
        jitter[[0, -1]] = 0.0
        s = to_signal(_records_at(np.arange(60) + jitter), nominal_rate=12.0)
        np.testing.assert_array_equal(s.values, np.arange(1.0, 61.0), err_msg=str(trial))


def _to_signal_reference(recording, rate):
    """to_signal's irms values by the rule's own np.searchsorted over the bounds."""
    ts = recording.timestamp_utc
    length = int(math.ceil((ts[-1] - ts[0]) * rate - ingest._GRID_EPS)) + 1
    grid = ts[0] + np.arange(length) / rate
    bound = np.maximum(0.5 * (ts[:-1] + ts[1:]), ts[1:] - (0.5 / rate - ingest._GRID_EPS))
    return recording.irms[np.searchsorted(bound, grid, side="left")]


def test_to_signal_equals_the_searchsorted_reference_property():
    # Stamps jittered under half a period, on a grid point (jitter 0) or
    # on a bound (jitter +-0.5), skipped periods, and an epoch near 1.7e9 s,
    # where a stamp's rounding makes bounds repeat and meet grid points.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    jitters = st.floats(-0.49, 0.49) | st.sampled_from([0.0, 0.5, -0.5])

    @settings(max_examples=300, deadline=None)
    @given(
        steps=st.lists(st.integers(1, 3), min_size=1, max_size=40),
        data=st.data(),
        t0=st.sampled_from([0.0, 1.7e9, 1_700_000_123.0625]) | st.floats(1.6e9, 1.8e9),
    )
    def check(steps, data, t0):
        periods = np.cumsum([0, *steps], dtype=float)
        periods += data.draw(st.lists(jitters, min_size=periods.size, max_size=periods.size))
        ts = np.unique(t0 + periods / 12.0)  # strictly increasing after rounding
        if ts.size < 2:
            return
        ones = np.ones(ts.size)
        recording = EmonRecording(ts, np.arange(1.0, ts.size + 1.0), *(ones for _ in range(4)))
        s = to_signal(recording, nominal_rate=12.0)
        np.testing.assert_array_equal(s.values, _to_signal_reference(recording, 12.0))

    check()


def test_to_signal_default_gap_threshold_tolerates_small_holes():
    before = _steady_rows(3)
    t_resume = before[-1][0] + 0.5
    after = [
        (t_resume + i / 12.0, 1.0, 120.0, 120.0, 118.0, 0.98)
        for i in range(3)
    ]
    assert find_gaps(_recording(before + after), nominal_rate=12.0) == []


def test_to_signal_needs_two_records():
    with pytest.raises(ValidationError):
        to_signal(_steady_records(1))


def test_to_signal_unknown_channel():
    with pytest.raises(ValidationError):
        to_signal(_steady_records(5), channel="volts")


@pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -12.0])
def test_to_signal_and_find_gaps_reject_bad_rate(rate):
    records = _steady_records(5)
    for convert in (to_signal, find_gaps):
        with pytest.raises(ValidationError, match="nominal_rate must be finite and > 0"):
            convert(records, nominal_rate=rate)


def _span_error(span: str) -> str:
    return f"^recording must span < {MAX_HORIZON} sample periods, got {re.escape(span)}$"


@pytest.mark.parametrize("times, rate, span", [
    ([0.0, 1e17], 12.0, "1.2e+18"),  # a long recording
    ([0.0, 1.0], 1e308, "1e+308"),  # a high rate
    ([0.0, 2.0], 1e308, "inf"),  # a span whose periods overflow
    ([0.0, 2.0], np.float64(1e308), "inf"),  # a numpy rate, whose overflow warns
])
def test_to_signal_and_find_gaps_reject_a_span_of_max_horizon_periods(times, rate, span):
    records = _recording([(t, 4.25, 120.1, 510.4, 505.2, 0.99) for t in times])
    for convert in (to_signal, find_gaps):
        with pytest.raises(ValidationError, match=_span_error(span)):
            convert(records, nominal_rate=rate)


def test_find_gaps_takes_a_span_just_below_max_horizon_periods():
    # 2**60 = MAX_HORIZON + 1; the float below it lies 256 lower.
    records = _recording([(t, 4.25, 120.1, 510.4, 505.2, 0.99) for t in (0.0, 1.0)])
    rate = 2.0**60 - 256
    assert find_gaps(records, nominal_rate=rate) == [Gap(0, int(rate))]
    with pytest.raises(ValidationError, match=_span_error(repr(2.0**60))):
        find_gaps(records, nominal_rate=2.0**60)


def test_to_signal_start_index_encodes_absolute_time():
    a = to_signal(_steady_records(12, t0=100.0), nominal_rate=12.0)
    b = to_signal(_steady_records(12, t0=100.5), nominal_rate=12.0)
    assert b.start_index - a.start_index == 6


# ---------------------------------------------------------------- summation

def test_sum_of_plug_signals_matches_joint_simulation():
    # The rendered aggregate (no noise) is the device-order sum of the
    # per-device truths, bit for bit.
    from disagg import reference_scenario, render
    from dataclasses import replace

    sc = replace(reference_scenario(3), noise_std=0.0)
    aggregate, truths = render(sc)
    summed = np.zeros(sc.horizon)
    for truth in truths:
        summed = summed + truth.values
    assert np.array_equal(summed, aggregate.values)


# ------------------------------------------------------------- signal files

def test_signal_csv_round_trip(tmp_path):
    s = series([0.1, -2.5, 3.25e-7, 1e9], start=17)
    path = tmp_path / "sig.csv"
    write_signal_csv(s, path)
    loaded = read_signal_csv(path)
    assert loaded.start_index == 17
    np.testing.assert_array_equal(loaded.values, s.values)
    write_signal_csv(loaded, tmp_path / "sig2.csv")
    assert (tmp_path / "sig.csv").read_bytes() == (tmp_path / "sig2.csv").read_bytes()


def test_signal_csv_rejects_gap_in_index(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("k,value\n0,1.0\n2,2.0\n")
    with pytest.raises(ValidationError):
        read_signal_csv(path)


def test_write_signal_csv_matches_per_sample_format(tmp_path):
    # Repeats and both zeros: values are formatted once per bit pattern,
    # within blocks of rows that the long signal crosses.
    short = [0.1, -0.0, 5e-324, -2.5e300, 1 / 3, 7.0, 0.0, 0.1, -0.0, 0.0]
    for values in (short, short * 300):
        s = series(values, start=-3)
        path = tmp_path / "sig.csv"
        write_signal_csv(s, path)
        expected = ["k,value"] + [f"{-3 + p},{float(v)!r}" for p, v in enumerate(values)]
        assert path.read_text() == "\n".join(expected) + "\n"


def test_grouped_signal_writer_matches_per_row_oracle_property(tmp_path):
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    # Runs long enough to straddle block edges, of both zeros, subnormals,
    # repeated values or any float.
    value = st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1 / 3, 7.0]) | st.floats(
        allow_nan=False, allow_infinity=False
    )
    lengths = st.sampled_from([0, 1, ROW_BLOCK - 1, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1])

    @st.composite
    def signal_sets(draw):
        n, start = draw(lengths), draw(st.integers(-(2**40), 2**40))
        signals = []
        for _ in range(draw(st.integers(1, 6))):
            runs = draw(st.lists(st.tuples(value, st.integers(1, ROW_BLOCK + 3)), min_size=1))
            values = np.concatenate([np.full(length, v) for v, length in runs])
            signals.append(series(np.resize(values, n), start=start))
        return signals

    directories = itertools.count()

    @settings(max_examples=60, deadline=None)
    @given(signal_sets(), st.sampled_from(["start", "length", "path"]))
    # A run of 0.0 meets a run of -0.0, which straddles the first block edge.
    @example([series([0.0] * 1000 + [-0.0] * (ROW_BLOCK + 25), start=-7)] * 2, "start")
    def check(signals, fault):
        out = tmp_path / str(next(directories))
        out.mkdir()
        pairs = [(s, out / f"sig{i}.csv") for i, s in enumerate(signals)]
        ingest._write_signal_csvs(pairs)
        for s, path in pairs:
            rows = (f"{s.start_index + p},{v!r}\n" for p, v in enumerate(s.values.tolist()))
            assert path.read_bytes() == ("k,value\n" + "".join(rows)).encode()
        bad = tmp_path / f"{out.name}-bad"
        bad.mkdir()
        first = signals[0]
        extra = {
            "start": (series(first.values, start=first.start_index - 1), bad / "extra.csv"),
            "length": (series(np.append(first.values, 1.0), start=first.start_index),
                       bad / "extra.csv"),
            "path": (first, bad / "sig0.csv"),
        }[fault]
        with pytest.raises(ValidationError):
            ingest._write_signal_csvs(
                [(s, bad / f"sig{i}.csv") for i, s in enumerate(signals)] + [extra]
            )
        assert not any(bad.iterdir())

    check()


@pytest.mark.parametrize("body, message", [
    ("0,1.0\n\n1.5,2.0\n", "line 4: invalid literal for int() with base 10: '1.5'"),
    # numpy alone reads this Devanagari sign as a digit.
    ("0,1.0\n\u0903,2.0\n", "line 3: invalid literal for int() with base 10: '\u0903'"),
    ("0,1.0\n  \n1,x\n", "line 4: could not convert string to float: 'x'"),
    ("0,1.0\n1,2.0,3.0\n", "line 3: too many values to unpack (expected 2)"),
    ("\n0\n", "line 3: not enough values to unpack (expected 2, got 1)"),
    ("0,1.0\n2,2.0\n", "non-contiguous index 2 after 0"),
    ("5,1.0\n6,2.0\n6,2.0\n", "non-contiguous index 6 after 6"),
    ("5,1.0\n4,2.0\n", "non-contiguous index 4 after 5"),
    ("9223372036854775807,1.0\n-9223372036854775808,2.0\n",
     "non-contiguous index -9223372036854775808 after 9223372036854775807"),
    ("\n \n", "no samples in"),
])
def test_read_signal_csv_rejections(tmp_path, body, message):
    path = tmp_path / "sig.csv"
    path.write_text("k,value\n" + body)
    with pytest.raises(ValidationError) as err:
        read_signal_csv(path)
    assert str(err.value).startswith(message)


def test_read_signal_csv_keeps_spellings_int_accepts(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("k,value\n1_0, 1.5\n+11,2_5\n")
    loaded = read_signal_csv(path)
    assert loaded.start_index == 10
    np.testing.assert_array_equal(loaded.values, [1.5, 25.0])
    big = 2**70
    path.write_text(f"k,value\n{big},1.0\n{big + 1},2.0\n")
    assert read_signal_csv(path).start_index == big


def _reference_signal(text):
    """(start_index, values) or the message of a per-line `k,value` reader."""
    ks, values = [], []
    for lineno, line in enumerate(text.splitlines()[1:], start=2):
        if not line.strip():
            continue
        try:
            k_str, v_str = line.split(",")
            ks.append(int(k_str))
            values.append(float(v_str))
        except ValueError as exc:
            return f"line {lineno}: {exc}"
    if not ks:
        return "no samples"
    for prev, cur in zip(ks, ks[1:]):
        if cur != prev + 1:
            return f"non-contiguous index {cur} after {prev}"
    for k, v in zip(ks, values):
        if not math.isfinite(v):
            return f"non-finite sample at k={k}"
    return ks[0], values


def test_read_signal_csv_matches_line_reference_property(streamed):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def signal_files(draw):
        k0 = draw(st.integers(-(2**64), 2**64))
        n = draw(st.integers(0, 12))
        rows = [[str(k0 + i), repr(draw(st.floats(allow_nan=False)))] for i in range(n)]
        for _ in range(draw(st.integers(0, 2))):
            if rows:
                rows[draw(st.integers(0, n - 1))][draw(st.integers(0, 1))] = draw(
                    st.text(FIELD_CHARS, max_size=7)
                )
        lines = ["k,value"]
        for row in rows:
            if draw(st.integers(0, 4)) == 4:
                lines.append(draw(st.sampled_from(BLANK_LINES)))
            lines.append(",".join(row))
        newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        return newline.join(lines) + newline

    @settings(max_examples=200, deadline=None)
    @given(signal_files(), st.sampled_from(["sig.csv"] + PLAIN_NAMES))
    def check(text, name):
        Path(name).write_text(text, newline="")
        expected = _reference_signal(text)
        if isinstance(expected, str):
            with pytest.raises(ValidationError) as err:
                read_signal_csv(name)
            assert str(err.value).startswith(expected)
            return
        loaded = read_signal_csv(name)
        assert loaded.start_index == expected[0]
        assert loaded.values.tobytes() == np.array(expected[1], dtype=float).tobytes()

    check()
    _assert_streamed_only_plain_names(streamed, "sig.csv")


def test_read_signal_csv_peak_memory_is_near_its_table(tmp_path):
    # The streamed read holds no copy of the text: the list-of-lines
    # reader peaked at about 8 times the (k, value) table.
    n = 100_000
    path = tmp_path / "sig.csv"
    write_signal_csv(series(np.sin(np.arange(n) / 7.0), start=-5), path)
    tracemalloc.start()
    try:
        loaded = read_signal_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(loaded) == n
    assert peak < 2.5 * n * ingest._SIGNAL_DTYPE.itemsize
