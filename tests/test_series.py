import math

import numpy as np
import pytest

from disagg import (
    PiecewiseInput, SignalSeries, ValidationError, disaggregate, reference_scenario, render,
)
from disagg.cli import load_result, save_result
from conftest import hold


def test_signal_basic_indexing():
    s = SignalSeries(np.array([1.0, 2.0, 3.0]), sample_period=0.5, start_index=10)
    assert len(s) == 3
    assert s.end_index == 13
    assert s.values[11 - s.start_index] == 2.0
    np.testing.assert_array_equal(s.values, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("period", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_signal_rejects_bad_period(period):
    with pytest.raises(ValidationError, match="sample_period must be finite and > 0"):
        SignalSeries(np.array([1.0]), sample_period=period)


def test_signal_rejects_2d_values():
    with pytest.raises(ValidationError, match=r"^signal must be 1-D, got shape \(2, 3\)$"):
        SignalSeries(np.zeros((2, 3)))


def test_signal_immutable():
    s = SignalSeries(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        s.values[0] = 5.0


def test_signal_equality_is_by_value():
    a = SignalSeries(np.array([1.0, 2.0]), start_index=3)
    b = SignalSeries(np.array([1.0, 2.0]), start_index=3)
    c = SignalSeries(np.array([1.0, 2.0]), start_index=4)
    assert a == b
    assert a != c


def test_hold_is_zero_order():
    u = PiecewiseInput(((2, 5.0), (5, 0.0)))
    s = hold(u, 0, 8)
    np.testing.assert_array_equal(s.values, [0, 0, 5, 5, 5, 0, 0, 0])


def test_hold_window_offsets():
    u = PiecewiseInput(((2, 5.0), (5, 0.0), (7, 1.5)))
    s = hold(u, 3, 6)
    np.testing.assert_array_equal(s.values, [5, 5, 0, 0, 1.5, 1.5])
    assert s.start_index == 3


def test_piecewise_empty_is_all_zero():
    s = hold(PiecewiseInput(), 0, 4)
    np.testing.assert_array_equal(s.values, [0, 0, 0, 0])


def test_piecewise_level_at():
    u = PiecewiseInput(((2, 5.0), (5, 0.0)))
    s = hold(u, 0, 8)
    assert s.values[1] == 0.0
    assert s.values[2] == 5.0
    assert s.values[4] == 5.0
    assert s.values[5] == 0.0


def test_hold_jumps_at_event_times():
    u = PiecewiseInput(((2, 5.0), (5, 0.0)))
    event_times = tuple(k for k, _ in u.events)
    assert event_times == (2, 5)
    held = hold(u, 0, 8)
    jumps = tuple(int(k) + 1 for k in np.flatnonzero(np.diff(held.values)))
    assert jumps == event_times


def test_piecewise_rejects_unordered_events():
    with pytest.raises(ValidationError):
        PiecewiseInput(((5, 1.0), (5, 0.0)))
    with pytest.raises(ValidationError):
        PiecewiseInput(((5, 1.0), (3, 0.0)))


def test_piecewise_rejects_null_events():
    with pytest.raises(ValidationError):
        PiecewiseInput(((2, 1.0), (4, 1.0)))
    with pytest.raises(ValidationError):
        PiecewiseInput(((2, 0.0),))


def test_piecewise_rejects_negative_levels():
    with pytest.raises(ValidationError):
        PiecewiseInput(((2, -1.0),))


def test_piecewise_rejects_non_finite_levels():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="at k=4"):
            PiecewiseInput(((2, 1.0), (4, bad)))


def test_piecewise_level_follows_the_file_rule():
    # A string level is rejected as in a scenario file, not parsed by float().
    with pytest.raises(ValidationError, match="^event level must be a number, got '2.0'$"):
        PiecewiseInput(((1, "2.0"),))


def test_signal_start_index_is_a_python_int():
    s = SignalSeries(np.array([1.0, 2.0]), start_index=np.int64(5))
    assert type(s.start_index) is int and s.start_index == 5
    assert type(s.end_index) is int


@pytest.mark.parametrize("start", [0.5, 5.0, True, "5", None])
def test_signal_rejects_non_integer_start_index(start):
    with pytest.raises(ValidationError, match="start_index must be an integer"):
        SignalSeries(np.array([1.0, 2.0]), start_index=start)


def test_numpy_start_index_saves_a_result(tmp_path):
    aggregate, _ = render(reference_scenario(0))
    shifted = SignalSeries(aggregate.values, start_index=np.int64(5))
    result = disaggregate(shifted, list(reference_scenario(0).models))
    assert result.events and all(type(e.k) is int for e in result.events)
    save_result(result, tmp_path)
    assert load_result(tmp_path).events == result.events
