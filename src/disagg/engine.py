"""Recovery of per-device switch schedules from an aggregate signal.

The engine tracks one (or, with a beam, several) on/off configuration
hypotheses online.  While the configuration's predicted output tracks
the measurement it is kept; a persistent positive deviation triggers an
on-event search (every off device crossed with nearby start times, each
scored by a closed-form constant-input fit over a lookahead window); a
persistent negative deviation is attributed to the on device whose
steady contribution is nearest the observed drop.  Every accepted event
adds exactly one nonzero entry to the global input difference, so the
event count is the sparsity of the reconstruction.

By linearity each hypothesis's per-device prediction is a sum of shifted
unit-step responses, one per event: an event at position p adds
level * g[:T - p] to the device's row, or zeroes the row from p at an
instant-off switch-off (``models._add_switch``, the kernel that
``simulate_zero_state`` uses for the same schedule).  Each device's
full-length step response g is computed once per run; the on-event fits
score slices of it.

Cost: the loop runs once per detection, not once per sample.  Each
hypothesis keeps its next detection, found by a numpy scan of the mask
|y - y_hat| > threshold, and the engine jumps to the earliest in the
pool, so the Python work grows with the detections times the pool
width.  An event costs one numpy pass of its device's row over the rest
of the signal; y_hat and the mask are re-summed only as far as the next
scan advances.  A beam step scores each branch from its parent's rows
before building any, then clones only the survivors, which share device
rows until they write one.  Ranking a branch still costs its prefix
residual, O(p), and a clone its y_hat copy, O(T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .models import (
    DeviceModel,
    _add_switch,
    _unit_step_rows,
    dc_gain,
    # Unused here, but perfbench/spans.py wraps disagg.engine.simulate_zero_state
    # and disagg.engine.unit_step_values.
    simulate_zero_state,  # noqa: F401
    unit_step_values,  # noqa: F401
)
from .series import SignalSeries

MAD_CONSISTENCY = 0.6745
NOISE_THRESHOLD_MULTIPLE = 5.0
# Absolute floor keeps noiseless signals from tripping on float dust.
THRESHOLD_FLOOR_RELATIVE = 1e-9
# First chunk, in samples, of a detection scan; later chunks double.  It
# is about one event gap of the reference schedule (29-81 samples), so
# most scans take one or two chunks and little of y_hat is summed past
# the next detection.
SCAN_CHUNK = 64


@dataclass(frozen=True)
class EngineParams:
    """Tunables for detection, fitting, and hypothesis search.

    deviation_threshold of None means: estimate the noise level from the
    measurement and use NOISE_THRESHOLD_MULTIPLE times it.  lookahead is
    the number of future samples used to score an on-event, and with
    backtrack_window bounds the online output delay.
    """

    deviation_threshold: float | None = None
    persistence: int = 2
    lookahead: int = 15
    backtrack_window: int = 5
    min_on_duration: int = 3
    min_level: float = 0.0
    beam_width: int = 1

    def __post_init__(self):
        if self.deviation_threshold is not None and not (
            math.isfinite(self.deviation_threshold) and self.deviation_threshold > 0
        ):
            raise ValidationError(
                "deviation_threshold must be finite and > 0 when given, "
                f"got {self.deviation_threshold!r}"
            )
        if self.persistence < 1:
            raise ValidationError("persistence must be >= 1")
        if self.lookahead < 1:
            raise ValidationError("lookahead must be >= 1")
        if self.backtrack_window < 0:
            raise ValidationError("backtrack_window must be >= 0")
        if self.min_on_duration < 0:
            raise ValidationError("min_on_duration must be >= 0")
        if self.beam_width < 1:
            raise ValidationError("beam_width must be >= 1")
        if not (math.isfinite(self.min_level) and self.min_level >= 0):
            raise ValidationError(
                f"min_level must be finite and >= 0, got {self.min_level!r}"
            )


class _Candidate(NamedTuple):
    """On-event candidate; tuple order is the selection tie-break order."""

    sse: float
    k_prime: int
    device: int
    level: float


@dataclass(frozen=True, order=True)
class SwitchEvent:
    """One nonzero entry of a device's input difference.

    Events order by (k, device, kind, level), the field order.
    """

    k: int
    device: int
    kind: str  # "on" | "off"
    level: float


@dataclass(frozen=True)
class UnexplainedEvent:
    k: int
    kind: str
    magnitude: float


@dataclass(frozen=True)
class DisaggregationResult:
    """The winning hypothesis: its switch events and its own predictions.

    estimated_outputs are the per-device predictions the engine scored,
    estimated_total their device-order sum.
    """

    device_names: tuple[str, ...]
    estimated_outputs: tuple[SignalSeries, ...]
    estimated_total: SignalSeries
    residual_rms: float
    events: tuple[SwitchEvent, ...]
    unexplained: tuple[UnexplainedEvent, ...]
    params: EngineParams


def estimate_noise_std(y: SignalSeries) -> float:
    """Robust noise level from first differences.

    The median absolute deviation ignores the sparse switching jumps, so
    the estimate reflects the quiet segments; differencing doubles the
    noise variance, hence the 1/sqrt(2).
    """
    if len(y) < 2:
        return 0.0
    d = np.diff(y.values)
    mad = float(np.median(np.abs(d - np.median(d))))
    return mad / MAD_CONSISTENCY / math.sqrt(2.0)


def resolve_threshold(y_m: SignalSeries, params: EngineParams) -> float:
    if params.deviation_threshold is not None:
        return params.deviation_threshold
    floor = THRESHOLD_FLOOR_RELATIVE * max(
        1.0, float(np.max(np.abs(y_m.values))) if len(y_m) else 1.0
    )
    return max(NOISE_THRESHOLD_MULTIPLE * estimate_noise_std(y_m), floor)


def _project(g: np.ndarray, e: np.ndarray, gg: float) -> tuple[float, float] | None:
    """(level, sse) of the least-squares constant level for e; None if g is 0.

    g is the device's zero-state unit-step response over the window; the
    output is linear in the level, so the fit is the projection of e onto
    g.  gg is g @ g, passed in so a caller fitting many windows computes
    it once.
    """
    if gg == 0.0:
        return None
    level = float(g @ e) / gg
    diff = e - level * g
    return level, float(diff @ diff)


class _Detection(NamedTuple):
    """A persistent deviation: found at p, of sign kind, its run starting at ks."""

    p: int
    kind: str  # "increase" | "decrease"
    ks: int


class _Hypothesis:
    """One configuration tracked by the engine, with its predictions.

    rows are the per-device predictions.  A clone shares them with its
    parent until one side writes a row; owned marks the rows this
    hypothesis may write in place.  y_hat, the device-order sum of the
    rows, is current below `synced` only.  detection is the next
    detection at or after the last step this hypothesis took part in.
    """

    __slots__ = (
        "levels", "last_event_k", "rows", "owned", "y_hat", "synced",
        "events", "times", "unexplained", "suppressed", "detection",
    )

    def __init__(self, models: list[DeviceModel], T: int, start: int):
        D = len(models)
        self.levels = [0.0] * D
        self.last_event_k = [start - 1] * D
        self.rows = [np.zeros(T) for _ in models]
        self.owned = [True] * D
        self.y_hat = np.zeros(T)
        self.synced = T
        self.events: list[SwitchEvent] = []
        self.times: set[int] = set()
        self.unexplained: list[UnexplainedEvent] = []
        self.suppressed = False
        self.detection: _Detection | None = None

    def clone(self) -> "_Hypothesis":
        new = object.__new__(_Hypothesis)
        new.levels = list(self.levels)
        new.last_event_k = list(self.last_event_k)
        new.rows = list(self.rows)
        new.owned = [False] * len(self.rows)
        self.owned = [False] * len(self.rows)
        new.y_hat = self.y_hat.copy()
        new.synced = self.synced
        new.events = list(self.events)
        new.times = set(self.times)
        new.unexplained = list(self.unexplained)
        new.suppressed = self.suppressed
        new.detection = self.detection
        return new


def _device_sum(segments: list[np.ndarray], out: np.ndarray) -> np.ndarray:
    """Sum row segments into out in device order, as simulated outputs add up."""
    out[:] = segments[0]
    for seg in segments[1:]:
        out += seg
    return out


class _Engine:
    """Shared greedy/beam loop; greedy is the beam of width one."""

    def __init__(
        self,
        y_m: SignalSeries,
        library: list[DeviceModel],
        params: EngineParams,
    ):
        if not library:
            raise ValidationError("device library is empty")
        names = [m.name for m in library]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate device names in library")
        needed = params.lookahead + params.backtrack_window
        if len(y_m) <= needed:
            raise ValidationError(
                f"signal length {len(y_m)} must exceed lookahead + backtrack = {needed}"
            )
        bad = np.flatnonzero(~np.isfinite(y_m.values))
        if bad.size:
            raise ValidationError(
                f"non-finite sample at k={y_m.start_index + int(bad[0])}"
            )
        self.y = y_m.values
        self.start = y_m.start_index
        self.period = y_m.sample_period
        self.T = len(self.y)
        self.models = list(library)
        self.params = params
        self.threshold = resolve_threshold(y_m, params)
        self.sparsity_penalty = self.threshold**2 * params.lookahead
        self.gains = [dc_gain(m) for m in self.models]
        self.g = list(_unit_step_rows(self.models, self.T))
        self.gg: dict[tuple[int, int], float] = {}  # (device, n) -> g[:n] @ g[:n]

    # -- per-hypothesis mechanics ------------------------------------

    def _switch(self, hyp: _Hypothesis, event: SwitchEvent, row: np.ndarray, pos: int):
        """Superpose event onto row (its device's prediction) from position pos."""
        dev, level = event.device, event.level
        reset = self.models[dev].instant_off and level == 0.0
        _add_switch(row, self.g[dev], pos, level - hyp.levels[dev], reset)

    def _apply(self, hyp: _Hypothesis, event: SwitchEvent):
        """Log event and set its device's input to its level from its time on."""
        dev, pos = event.device, event.k - self.start
        if not hyp.owned[dev]:
            hyp.rows[dev] = hyp.rows[dev].copy()
            hyp.owned[dev] = True
        self._switch(hyp, event, hyp.rows[dev], pos)
        hyp.events.append(event)
        hyp.times.add(event.k)
        hyp.levels[dev] = event.level
        hyp.last_event_k[dev] = event.k
        hyp.synced = min(hyp.synced, pos)

    def _sync(self, hyp: _Hypothesis, b: int):
        """Bring hyp.y_hat up to date below b."""
        a = hyp.synced
        if a < b:
            _device_sum([row[a:b] for row in hyp.rows], hyp.y_hat[a:b])
            hyp.synced = b

    def _violations(self, hyp: _Hypothesis, a: int, b: int) -> np.ndarray:
        self._sync(hyp, b)
        return np.abs(self.y[a:b] - hyp.y_hat[a:b]) > self.threshold

    def _scan(self, hyp: _Hypothesis, p0: int) -> _Detection | None:
        """The first detection at or after p0, or None before the end.

        Stepping the per-sample rule from p0 gives the same answer: p is a
        detection when each of the last `persistence` samples up to p
        deviates from the prediction by more than the threshold and, if
        hyp is suppressed after an unexplained change, a quiet sample has
        come first (it lifts the suppression).  ks is the first position
        of the violating run, kind the residual's sign there.  The mask is
        computed in chunks that double as the scan advances, so its work
        is bounded by how far the scan gets.
        """
        T, pers = self.T, self.params.persistence
        # No window of a p >= p0 reaches below lo, so lo - 1 counts as
        # quiet; a suppressed hypothesis waits for a real quiet sample.
        lo = p0 if hyp.suppressed else max(0, p0 - pers + 1)
        a, last, chunk = lo, lo - 1, SCAN_CHUNK
        while a < T:
            b = min(T, a + chunk)
            quiet = np.flatnonzero(~self._violations(hyp, a, b)) + a
            if hyp.suppressed and quiet.size:
                hyp.suppressed = False
                last, quiet = int(quiet[0]), quiet[1:]
            if not hyp.suppressed:
                bounds = np.concatenate(([last], quiet, [b]))
                runs = np.flatnonzero(np.diff(bounds) > pers)
                if runs.size:
                    q = int(bounds[runs[0]])
                    ks = self._run_start(hyp, lo) if q == lo - 1 else q + 1
                    kind = "increase" if self.y[ks] - hyp.y_hat[ks] > 0 else "decrease"
                    return _Detection(q + pers, kind, ks)
                last = int(bounds[-2])
            a, chunk = b, 2 * chunk
        return None

    def _run_start(self, hyp: _Hypothesis, j: int) -> int:
        """First position of the violating run that reaches j."""
        step = SCAN_CHUNK
        while j > 0:
            a = max(0, j - step)
            quiet = np.flatnonzero(~self._violations(hyp, a, j))
            if quiet.size:
                return a + int(quiet[-1]) + 1
            j, step = a, 2 * step
        return 0

    def _on_candidates(self, hyp: _Hypothesis, ks_pos: int) -> list[_Candidate]:
        """All filtered on-event candidates for an increase at ks_pos, best first.

        Every off device is crossed with every start time in the backtrack
        window and fit over the lookahead window.  Filters: nonnegative
        level above min_level, max_input, the max-output prior on the
        predicted steady draw, no collision with an already-logged event
        time, and no rewind past the device's own last switch.
        """
        params = self.params
        k_end = min(ks_pos + params.lookahead, self.T - 1)
        k_lo = max(0, ks_pos - params.backtrack_window)
        self._sync(hyp, k_end + 1)
        resid = self.y[k_lo : k_end + 1] - hyp.y_hat[k_lo : k_end + 1]
        out: list[_Candidate] = []
        for dev, model in enumerate(self.models):
            if hyp.levels[dev] != 0.0:
                continue
            for kp in range(k_lo, ks_pos + 1):
                k_abs = self.start + kp
                if k_abs in hyp.times or k_abs <= hyp.last_event_k[dev]:
                    continue
                n = k_end - kp + 1
                g = self.g[dev][:n]
                gg = self.gg.get((dev, n))
                if gg is None:
                    gg = self.gg[dev, n] = float(g @ g)
                fit = _project(g, resid[kp - k_lo :], gg)
                if fit is None:
                    continue
                level, sse = fit
                if level <= 0.0 or level < params.min_level:
                    continue
                if model.max_input is not None and level > model.max_input:
                    continue
                if (
                    model.max_output is not None
                    and self.gains[dev] * level > model.max_output
                ):
                    continue
                out.append(_Candidate(sse, k_abs, dev, level))
        out.sort()
        return out

    def _off_device(self, hyp: _Hypothesis, ks_pos: int, p: int) -> int | None:
        """The on device whose steady contribution is nearest the drop at p.

        Only devices whose last switch precedes the off time qualify.
        Devices on for at least min_on_duration samples are preferred;
        ties go to the lower device index.  None when nothing qualifies.
        """
        k_abs = self.start + ks_pos
        if k_abs in hyp.times:
            return None
        on_devs = [
            i for i, level in enumerate(hyp.levels)
            if level != 0.0 and hyp.last_event_k[i] < k_abs
        ]
        if not on_devs:
            return None
        eligible = [
            i for i in on_devs
            if k_abs - hyp.last_event_k[i] >= self.params.min_on_duration
        ]
        if not eligible:
            eligible = on_devs
        drop = abs(self.y[p] - hyp.y_hat[p])
        return min(
            eligible, key=lambda i: (abs(self.gains[i] * hyp.levels[i] - drop), i)
        )

    # -- pool management ----------------------------------------------

    def _score(
        self, hyp: _Hypothesis, p: int, event: SwitchEvent | None = None
    ) -> float:
        """Squared residual through p plus the sparsity penalty.

        With an event, the score hyp will have once the event is applied:
        the event's row is updated over [pos, p] with _apply's arithmetic
        and summed in device order, so the bits are the child's own.
        """
        self._sync(hyp, p + 1)
        resid = self.y[: p + 1] - hyp.y_hat[: p + 1]
        n = len(hyp.events)
        if event is not None:
            dev, pos = event.device, event.k - self.start
            segments = [row[pos : p + 1] for row in hyp.rows]
            segments[dev] = segments[dev].copy()
            self._switch(hyp, event, segments[dev], 0)
            resid[pos:] = self.y[pos : p + 1] - _device_sum(
                segments, np.empty(p + 1 - pos)
            )
            n += 1
        return float(resid @ resid) + self.sparsity_penalty * n

    def _rank_key(
        self, entry: tuple[_Hypothesis, SwitchEvent | None], p: int
    ) -> tuple:
        """Score, then fewer events, then the event log in SwitchEvent order.

        entry is a hypothesis and the event that would extend it (None to
        rank the hypothesis as it is).
        """
        hyp, event = entry
        events = hyp.events if event is None else [*hyp.events, event]
        return (self._score(hyp, p, event), len(events), events)

    def _step(self, pool: list[_Hypothesis], p: int) -> list[_Hypothesis]:
        """Handle the detections at p; the next pool, ranked when it overflows.

        Each entry is a hypothesis kept as it is or a (parent, event)
        branch.  Branches are ranked before they are built, so only the
        survivors are cloned and applied; a parent's last surviving
        branch reuses the parent.
        """
        entries: list[tuple[_Hypothesis, SwitchEvent | None]] = []
        for hyp in pool:
            if hyp.detection is None or hyp.detection.p != p:
                entries.append((hyp, None))
                continue
            _, kind, ks_pos = hyp.detection
            if kind == "increase":
                take = self._on_candidates(hyp, ks_pos)[: self.params.beam_width]
                events = [SwitchEvent(c.k_prime, c.device, "on", c.level) for c in take]
            else:
                dev = self._off_device(hyp, ks_pos, p)
                events = [] if dev is None else [
                    SwitchEvent(self.start + ks_pos, dev, "off", 0.0)
                ]
            if not events:
                hyp.unexplained.append(
                    UnexplainedEvent(
                        self.start + ks_pos, kind, float(self.y[p] - hyp.y_hat[p])
                    )
                )
                hyp.suppressed = True
                hyp.detection = self._scan(hyp, p + 1)
                entries.append((hyp, None))
                continue
            entries.extend((hyp, event) for event in events)
        if len(entries) > self.params.beam_width:
            entries.sort(key=lambda entry: self._rank_key(entry, p))
            del entries[self.params.beam_width :]
        last = {
            id(hyp): i for i, (hyp, event) in enumerate(entries) if event is not None
        }
        # Clones are taken before any parent is changed.
        pool = [
            hyp if event is None or last[id(hyp)] == i else hyp.clone()
            for i, (hyp, event) in enumerate(entries)
        ]
        for hyp, (_, event) in zip(pool, entries):
            if event is not None:
                self._apply(hyp, event)
                hyp.detection = self._scan(hyp, p + 1)
        return pool

    def run(self) -> DisaggregationResult:
        pool = [_Hypothesis(self.models, self.T, self.start)]
        pool[0].detection = self._scan(pool[0], 0)
        while True:
            due = [hyp.detection.p for hyp in pool if hyp.detection is not None]
            if not due:
                break
            pool = self._step(pool, min(due))
        best = min(pool, key=lambda h: self._rank_key((h, None), self.T - 1))
        return self._build_result(best)

    def _build_result(self, hyp: _Hypothesis) -> DisaggregationResult:
        self._sync(hyp, self.T)
        resid = self.y - hyp.y_hat
        return DisaggregationResult(
            device_names=tuple(m.name for m in self.models),
            estimated_outputs=tuple(
                SignalSeries(row, self.period, self.start) for row in hyp.rows
            ),
            estimated_total=SignalSeries(hyp.y_hat, self.period, self.start),
            residual_rms=float(np.sqrt(np.mean(resid**2))),
            events=tuple(sorted(hyp.events)),
            unexplained=tuple(hyp.unexplained),
            params=replace(self.params, deviation_threshold=self.threshold),
        )


def disaggregate(
    y_m: SignalSeries, library: list[DeviceModel], params: EngineParams = EngineParams()
) -> DisaggregationResult:
    """Recover per-device switch schedules from an aggregate signal.

    Keeps up to params.beam_width configuration hypotheses ranked by
    cumulative squared residual plus a per-event sparsity penalty of
    threshold^2 * lookahead; on-event detections branch over the
    surviving candidates.  The default width of one is the greedy
    single-hypothesis engine.
    """
    return _Engine(y_m, library, params).run()


disaggregate_beam = disaggregate  # earlier name of the beam entry point

