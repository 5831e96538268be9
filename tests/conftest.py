import numpy as np
import pytest

from disagg import DeviceModel, SignalSeries


@pytest.fixture
def lag_model():
    """First-order low-pass with unit DC gain."""
    return DeviceModel("lag", A=[[0.5]], b=[0.5], c=[1.0])


@pytest.fixture
def lag_model_instant():
    return DeviceModel("lag_io", A=[[0.5]], b=[0.5], c=[1.0], instant_off=True)


@pytest.fixture
def delay_model():
    """Pure one-sample delay with unit gain."""
    return DeviceModel("delay", A=[[0.0]], b=[1.0], c=[1.0])


def series(values, start=0, period=1.0) -> SignalSeries:
    return SignalSeries(np.asarray(values, dtype=float), sample_period=period, start_index=start)


def hold(inp, start, length, period=1.0) -> SignalSeries:
    """A PiecewiseInput held from event to event over [start, start + length).

    The level is 0 before the first event; each event sets every sample
    from its index on, so a later event overrides an earlier one.
    """
    values = np.zeros(length)
    for k, level in inp.events:
        values[max(k - start, 0) :] = level
    return series(values, start, period)
