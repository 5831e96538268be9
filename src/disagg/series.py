"""Uniformly sampled scalar series and piecewise-constant switch inputs.

Sample positions are addressed by an integer step index k, never by a
floating-point time key: a series knows its first index and its sample
period, and ``position = k - start_index`` is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class SignalSeries:
    """Immutable uniformly sampled scalar signal."""

    values: np.ndarray
    sample_period: float = 1.0
    start_index: int = 0

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise ValidationError(f"signal must be 1-D, got shape {arr.shape}")
        if self.sample_period <= 0:
            raise ValidationError(f"sample_period must be > 0, got {self.sample_period}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end_index(self) -> int:
        """One past the last valid index k."""
        return self.start_index + len(self.values)

    def position(self, k: int) -> int:
        p = k - self.start_index
        if not 0 <= p < len(self.values):
            raise IndexError(
                f"index k={k} outside [{self.start_index}, {self.end_index})"
            )
        return p

    def value_at(self, k: int) -> float:
        return float(self.values[self.position(k)])

    def window(self, k_first: int, k_last: int) -> np.ndarray:
        """Values over the inclusive index range [k_first, k_last]."""
        if k_last < k_first:
            raise ValidationError(f"empty window [{k_first}, {k_last}]")
        p0 = self.position(k_first)
        p1 = self.position(k_last)
        return self.values[p0 : p1 + 1]

    def same_grid(self, other: "SignalSeries") -> bool:
        return (
            abs(self.sample_period - other.sample_period)
            <= 1e-12 * max(self.sample_period, other.sample_period)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignalSeries):
            return NotImplemented
        return (
            self.start_index == other.start_index
            and self.sample_period == other.sample_period
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.start_index, self.sample_period, self.values.tobytes()))


@dataclass(frozen=True)
class PiecewiseInput:
    """Device input as an ordered list of switch events (k, level).

    The level is 0 before the first event and holds between events, so
    the first difference of the expanded signal is nonzero exactly at
    the event indices.
    """

    events: tuple[tuple[int, float], ...] = field(default_factory=tuple)

    def __post_init__(self):
        normalized = tuple((int(k), float(level)) for k, level in self.events)
        prev_k = None
        prev_level = 0.0
        for k, level in normalized:
            if not math.isfinite(level):
                raise ValidationError(f"non-finite level {level} at k={k}")
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

    @property
    def last_event_index(self) -> int | None:
        return self.events[-1][0] if self.events else None

    def level_at(self, k: int) -> float:
        level = 0.0
        for ek, elevel in self.events:
            if ek > k:
                break
            level = elevel
        return level

    def expand(
        self, start_index: int, length: int, sample_period: float = 1.0
    ) -> SignalSeries:
        """Zero-order-hold expansion over [start_index, start_index + length)."""
        values = np.empty(length)
        level = 0.0
        seg_start = 0
        for ek, elevel in self.events:
            p = ek - start_index
            if p >= length:
                break
            if p > seg_start:
                values[seg_start:p] = level
                seg_start = p
            level = elevel
        values[seg_start:] = level
        return SignalSeries(values, sample_period=sample_period, start_index=start_index)
