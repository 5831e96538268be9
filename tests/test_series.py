import numpy as np
import pytest

from disagg import PiecewiseInput, SignalSeries, ValidationError


def test_signal_basic_indexing():
    s = SignalSeries(np.array([1.0, 2.0, 3.0]), sample_period=0.5, start_index=10)
    assert len(s) == 3
    assert s.end_index == 13
    assert s.value_at(11) == 2.0
    np.testing.assert_array_equal(s.window(10, 12), [1.0, 2.0, 3.0])


def test_signal_rejects_bad_period():
    with pytest.raises(ValidationError):
        SignalSeries(np.array([1.0]), sample_period=0.0)


def test_signal_immutable():
    s = SignalSeries(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        s.values[0] = 5.0


def test_signal_out_of_range():
    s = SignalSeries(np.array([1.0, 2.0]), start_index=5)
    with pytest.raises(IndexError):
        s.value_at(7)


def test_signal_equality_is_by_value():
    a = SignalSeries(np.array([1.0, 2.0]), start_index=3)
    b = SignalSeries(np.array([1.0, 2.0]), start_index=3)
    c = SignalSeries(np.array([1.0, 2.0]), start_index=4)
    assert a == b
    assert a != c


def test_piecewise_expand_zero_order_hold():
    u = PiecewiseInput(((2, 5.0), (5, 0.0)))
    s = u.expand(0, 8)
    np.testing.assert_array_equal(s.values, [0, 0, 5, 5, 5, 0, 0, 0])


def test_piecewise_expand_window_offsets():
    u = PiecewiseInput(((2, 5.0), (5, 0.0), (7, 1.5)))
    s = u.expand(3, 6)
    np.testing.assert_array_equal(s.values, [5, 5, 0, 0, 1.5, 1.5])
    assert s.start_index == 3


def test_piecewise_empty_is_all_zero():
    s = PiecewiseInput().expand(0, 4)
    np.testing.assert_array_equal(s.values, [0, 0, 0, 0])


def test_piecewise_level_at():
    u = PiecewiseInput(((2, 5.0), (5, 0.0)))
    assert u.level_at(1) == 0.0
    assert u.level_at(2) == 5.0
    assert u.level_at(4) == 5.0
    assert u.level_at(5) == 0.0


def test_piecewise_expand_jumps_at_event_times():
    u = PiecewiseInput(((2, 5.0), (5, 0.0)))
    event_times = tuple(k for k, _ in u.events)
    assert event_times == (2, 5)
    expanded = u.expand(0, 8)
    jumps = tuple(int(k) + 1 for k in np.flatnonzero(np.diff(expanded.values)))
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
