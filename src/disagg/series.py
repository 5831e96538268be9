"""Uniformly sampled series, piecewise-constant switch inputs, and noise level.

Sample positions are addressed by an integer step index k, never by a
floating-point time key: a series knows its first index and its sample
period, and ``position = k - start_index`` is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, check_count, check_number, check_real

MAD_CONSISTENCY = 0.6745
# The longest float64 array numpy can shape; a longer series cannot be built.
MAX_HORIZON = np.iinfo(np.intp).max // np.dtype(float).itemsize


@dataclass(frozen=True)
class SignalSeries:
    """Immutable uniformly sampled scalar signal.

    Every sample is finite: the constructor is the one finiteness rule for
    samples, so a meter signal, a device's input or output and an estimate
    meet the same check and the same message.
    """

    values: np.ndarray
    sample_period: float = 1.0
    start_index: int = 0

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise ValidationError(f"signal must be 1-D, got shape {arr.shape}")
        period = check_number("sample_period", self.sample_period)
        object.__setattr__(self, "sample_period", period)
        start = check_count("start_index", self.start_index)
        object.__setattr__(self, "start_index", start)
        arr = arr.copy()
        finite = np.isfinite(arr)
        if not finite.all():
            raise ValidationError(f"non-finite sample at k={start + int(np.argmin(finite))}")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end_index(self) -> int:
        """One past the last valid index k."""
        return self.start_index + len(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignalSeries):
            return NotImplemented
        return (
            self.start_index == other.start_index
            and self.sample_period == other.sample_period
            and np.array_equal(self.values, other.values)
        )


@dataclass(frozen=True)
class PiecewiseInput:
    """Device input as an ordered list of switch events (k, level).

    The level is 0 before the first event and holds between events, so
    the first difference of the held signal is nonzero exactly at
    the event indices.  Each k passes check_count and each level
    check_real, the scenario file's rules; they are stored as a Python
    int and float.
    """

    events: tuple[tuple[int, float], ...] = field(default_factory=tuple)

    def __post_init__(self):
        normalized = tuple((check_count("event k", k), check_real("event level", level))
                           for k, level in self.events)
        prev_k = None
        prev_level = 0.0
        for k, level in normalized:
            if prev_k is not None and k <= prev_k:
                raise ValidationError(
                    f"event times must be strictly increasing, got {k} after {prev_k}"
                )
            if level == prev_level:
                raise ValidationError(
                    f"event at k={k} repeats level {level} (null event)"
                )
            if level < 0:
                raise ValidationError(f"negative level {level} at k={k}")
            prev_k, prev_level = k, level
        object.__setattr__(self, "events", normalized)

    def __len__(self) -> int:
        return len(self.events)


def estimate_noise_std(y: SignalSeries) -> float:
    """Robust noise level from first differences.

    The median absolute deviation ignores the sparse switching jumps, so
    the estimate reflects the quiet segments; differencing doubles the
    noise variance, hence the 1/sqrt(2).
    """
    if len(y) < 2:
        return 0.0
    d = np.diff(y.values)
    mad = _median(np.abs(d - _median(d)))
    return mad / MAD_CONSISTENCY / math.sqrt(2.0)


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty 1-D array, bit for bit, from one partition.

    np.median also partitions at the last position to find a NaN, which
    costs several times the one-position partition; a NaN is found by a
    scan here.  The 0.0 start is np.mean's, so -0.0 comes out as 0.0.
    """
    if np.isnan(values).any():
        return math.nan
    half = len(values) // 2
    part = np.partition(values, half)
    if len(values) % 2:
        return 0.0 + float(part[half])
    return (0.0 + float(part[:half].max()) + float(part[half])) / 2.0
