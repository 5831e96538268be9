"""Scoring a disaggregation result against known ground truth.

Events are matched greedily by nearest time within a tolerance window
(same device, same kind only); the metrics summarize switch-time error,
level error, per-device energy error, and aggregate fit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cmp_to_key
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import ValidationError, check_count, write_json
# Unused here, but perfbench/spans.py wraps disagg.evaluate.simulate_zero_state.
from .models import simulate_zero_state  # noqa: F401
from .result import DisaggregationResult, SwitchEvent
from .scenario import Scenario
from .series import SignalSeries

DEFAULT_MATCH_WINDOW = 10


@dataclass(frozen=True)
class EventMatch:
    """Greedy nearest-time pairing of truth and estimated events."""

    pairs: tuple[tuple[SwitchEvent, SwitchEvent], ...]
    unmatched_truth: tuple[SwitchEvent, ...]
    unmatched_estimate: tuple[SwitchEvent, ...]


@dataclass(frozen=True)
class Metrics:
    switch_time_mae: float | None
    level_errors: tuple[float, ...]
    per_device_energy_error: dict[str, float]
    aggregate_rmse: float
    precision: float
    recall: float

    def __post_init__(self):
        if not (0.0 <= self.precision <= 1.0 and 0.0 <= self.recall <= 1.0):
            raise ValidationError("precision and recall must lie in [0, 1]")


def truth_events(scenario: Scenario) -> list[SwitchEvent]:
    """Flatten the scenario's inputs into a device-indexed event list."""
    return sorted(SwitchEvent(k, dev, level)
                  for dev, inp in enumerate(scenario.inputs) for k, level in inp.events)


def match_events(
    truth: list[SwitchEvent], estimate: list[SwitchEvent], match_window: int
) -> EventMatch:
    """Pair events greedily by |time difference|, nearest first.

    Only events with the same device and kind within the window can
    pair; each event is used at most once.  Ties go to the earlier truth
    event, then the earlier estimate.
    """
    match_window = check_count("match_window", match_window, 0)
    groups: dict[tuple[int, str], list[tuple[int, int]]] = {}
    for ei, e in enumerate(estimate):
        groups.setdefault((e.device, e.kind), []).append((e.k, ei))
    for group in groups.values():
        group.sort()
    candidates = []
    for ti, t in enumerate(truth):
        group = groups.get((t.device, t.kind), [])
        lo = bisect_left(group, t.k - match_window, key=itemgetter(0))
        hi = bisect_right(group, t.k + match_window, key=itemgetter(0))
        candidates.extend((abs(t.k - k), ti, ei) for k, ei in group[lo:hi])
    candidates.sort()
    used_t: set[int] = set()
    used_e: set[int] = set()
    pairs = []
    for _, ti, ei in candidates:
        if ti in used_t or ei in used_e:
            continue
        used_t.add(ti)
        used_e.add(ei)
        pairs.append((truth[ti], estimate[ei]))
    unmatched_t = tuple(t for i, t in enumerate(truth) if i not in used_t)
    unmatched_e = tuple(e for i, e in enumerate(estimate) if i not in used_e)
    return EventMatch(tuple(pairs), unmatched_t, unmatched_e)


def score(
    result: DisaggregationResult,
    truth: Scenario,
    match_window: int = DEFAULT_MATCH_WINDOW,
) -> Metrics:
    """All metrics of a result against a scenario's ground truth.

    The scenario's devices must carry the same names as the result's, in
    the same order.  aggregate_rmse compares the estimated total against
    the noiseless sum of the true device outputs.
    """
    if truth.device_names != result.device_names:
        raise ValidationError(
            f"device names differ: truth {truth.device_names} "
            f"vs result {result.device_names}"
        )
    if (truth.horizon, 0) != (result.length, result.start_index):
        raise ValidationError(
            f"index ranges differ: truth [0, {truth.horizon}) vs "
            f"result [{result.start_index}, {result.start_index + result.length})"
        )

    t_events = truth_events(truth)
    e_events = list(result.events)
    matched = match_events(t_events, e_events, match_window)

    if matched.pairs:
        mae = float(np.mean([abs(t.k - e.k) for t, e in matched.pairs]))
    else:
        mae = None
    level_errors = tuple(
        abs(e.level - t.level) / abs(t.level)
        for t, e in matched.pairs
        if t.kind == "on"
    )
    precision = len(matched.pairs) / len(e_events) if e_events else 1.0
    recall = len(matched.pairs) / len(t_events) if t_events else 1.0

    energy_error: dict[str, float] = {}
    truth_outputs = truth.outputs()
    estimates = [series.values for series in result.estimated_outputs]
    for model, y_true, y_est in zip(truth.models, truth_outputs, estimates):
        denom = float(np.sum(np.abs(y_true)))
        num = float(np.sum(np.abs(y_est - y_true)))
        if denom == 0.0:
            energy_error[model.name] = 0.0 if num == 0.0 else float("inf")
        else:
            energy_error[model.name] = num / denom
    # Canonical summation order keeps the metric bit-identical under a
    # consistent relabeling of devices; each total is a signal, so its
    # samples meet the finiteness rule.
    est_total, clean_total = (
        SignalSeries(sum(sorted(rows, key=cmp_to_key(_row_order)), np.zeros(truth.horizon)))
        for rows in (estimates, truth_outputs)
    )
    rmse = float(np.sqrt(np.mean((est_total.values - clean_total.values) ** 2)))

    return Metrics(
        switch_time_mae=mae,
        level_errors=level_errors,
        per_device_energy_error=energy_error,
        aggregate_rmse=rmse,
        precision=precision,
        recall=recall,
    )


def _row_order(a: np.ndarray, b: np.ndarray) -> int:
    """Compare two rows as tuples do: at the first sample where they differ
    (so -0.0 equals 0.0), without building a Python float per sample."""
    differ = a != b
    i = int(differ.argmax())
    if not differ[i]:
        return 0
    return -1 if a[i] < b[i] else 1


def save_metrics(metrics: Metrics, path: str | Path) -> None:
    """Write metrics as JSON from a shallow copy of the instance's vars;
    the writer only reads the fields, so no deep copy is needed."""
    write_json(path, {**vars(metrics)})
