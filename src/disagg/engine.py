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
score slices of it.  The Python work per run is linear in T, and each
event costs one numpy pass over the rest of the signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DegenerateFitError, ValidationError
from .models import (
    DeviceModel,
    _add_switch,
    dc_gain,
    is_stable,
    # Unused here, but perfbench/spans.py wraps disagg.engine.simulate_zero_state.
    simulate_zero_state,  # noqa: F401
    unit_step_values,
)
from .series import SignalSeries

MAD_CONSISTENCY = 0.6745
NOISE_THRESHOLD_MULTIPLE = 5.0
# Absolute floor keeps noiseless signals from tripping on float dust.
THRESHOLD_FLOOR_RELATIVE = 1e-9


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
        if self.deviation_threshold is not None and self.deviation_threshold <= 0:
            raise ValidationError("deviation_threshold must be > 0 when given")
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


class FitResult(NamedTuple):
    level: float
    sse: float


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


def fit_on_event(e: SignalSeries, model: DeviceModel, k_prime: int) -> FitResult:
    """Best constant input level explaining a deviation window.

    The window covers [k_prime, k_star + lookahead]; the device output is
    linear in the scalar level, so the least-squares minimizer is the
    projection of the deviation onto the model's zero-state unit-step
    response over the window.
    """
    if len(e) == 0:
        raise ValidationError("empty fit window")
    if e.start_index != k_prime:
        raise ValidationError(
            f"window starts at {e.start_index}, expected k_prime={k_prime}"
        )
    check = is_stable(model)
    if not check.stable:
        raise ValidationError(
            f"model '{model.name}' unstable (radius {check.spectral_radius:.6g})"
        )
    fit = _project(unit_step_values(model, len(e)), e.values)
    if fit is None:
        raise DegenerateFitError(
            f"model '{model.name}' step response is zero over {len(e)} samples"
        )
    return fit


def _project(g: np.ndarray, e: np.ndarray) -> FitResult | None:
    """Least-squares level of e along the step template g, or None if g is zero."""
    gg = float(g @ g)
    if gg == 0.0:
        return None
    level = float(g @ e) / gg
    diff = e - level * g
    return FitResult(level, float(diff @ diff))


class _Hypothesis:
    """One configuration tracked by the engine, with its full predictions."""

    __slots__ = (
        "levels", "last_event_k", "y_dev", "y_hat",
        "events", "unexplained", "suppressed",
    )

    def __init__(self, models: list[DeviceModel], T: int, start: int):
        D = len(models)
        self.levels = [0.0] * D
        self.last_event_k = [start - 1] * D
        self.y_dev = np.zeros((D, T))
        self.y_hat = np.zeros(T)
        self.events: list[SwitchEvent] = []
        self.unexplained: list[UnexplainedEvent] = []
        self.suppressed = False

    def clone(self) -> "_Hypothesis":
        new = object.__new__(_Hypothesis)
        new.levels = list(self.levels)
        new.last_event_k = list(self.last_event_k)
        new.y_dev = self.y_dev.copy()
        new.y_hat = self.y_hat.copy()
        new.events = list(self.events)
        new.unexplained = list(self.unexplained)
        new.suppressed = self.suppressed
        return new

    def event_times(self) -> set[int]:
        return {e.k for e in self.events}


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
        for m in library:
            check = is_stable(m)
            if not check.stable:
                raise ValidationError(
                    f"library model '{m.name}' unstable "
                    f"(radius {check.spectral_radius:.6g})"
                )
        self.y = y_m.values
        self.start = y_m.start_index
        self.period = y_m.sample_period
        self.T = len(self.y)
        self.models = list(library)
        self.params = params
        self.threshold = resolve_threshold(y_m, params)
        self.sparsity_penalty = self.threshold**2 * params.lookahead
        self.g = [unit_step_values(m, self.T) for m in self.models]
        self.gains = [dc_gain(m) for m in self.models]

    # -- per-hypothesis mechanics ------------------------------------

    def _apply(self, hyp: _Hypothesis, event: SwitchEvent):
        """Log event and set its device's input to its level from its time on.

        y_hat is re-summed over the devices in index order, the order in
        which simulated device outputs are added up.
        """
        hyp.events.append(event)
        dev, level, pos = event.device, event.level, event.k - self.start
        reset = self.models[dev].instant_off and level == 0.0
        _add_switch(hyp.y_dev[dev], self.g[dev], pos, level - hyp.levels[dev], reset)
        hyp.levels[dev] = level
        hyp.last_event_k[dev] = event.k
        hyp.y_hat[pos:] = hyp.y_dev[:, pos:].sum(axis=0)

    def _detect(self, hyp: _Hypothesis, p: int) -> tuple[str, int] | None:
        """A persistent deviation of the measurement from hyp's prediction at p.

        None unless each of the last `persistence` samples up to p deviates
        by more than the threshold (and the hypothesis is not suppressed
        after an unexplained change); otherwise the residual sign and the
        first position of the violating run.
        """
        thr = self.threshold
        if abs(self.y[p] - hyp.y_hat[p]) <= thr:
            hyp.suppressed = False
            return None
        if hyp.suppressed:
            return None
        pers = self.params.persistence
        if p - pers + 1 < 0:
            return None
        for j in range(p - pers + 1, p):
            if abs(self.y[j] - hyp.y_hat[j]) <= thr:
                return None
        ks = p - pers + 1
        while ks > 0 and abs(self.y[ks - 1] - hyp.y_hat[ks - 1]) > thr:
            ks -= 1
        kind = "increase" if (self.y[ks] - hyp.y_hat[ks]) > 0 else "decrease"
        return (kind, ks)

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
        used_ks = hyp.event_times()
        out: list[_Candidate] = []
        for dev, model in enumerate(self.models):
            if hyp.levels[dev] != 0.0:
                continue
            for kp in range(k_lo, ks_pos + 1):
                k_abs = self.start + kp
                if k_abs in used_ks or k_abs <= hyp.last_event_k[dev]:
                    continue
                e = self.y[kp : k_end + 1] - hyp.y_hat[kp : k_end + 1]
                fit = _project(self.g[dev][: k_end - kp + 1], e)
                if fit is None:
                    continue
                level = fit.level
                if level <= 0.0 or level < params.min_level:
                    continue
                if model.max_input is not None and level > model.max_input:
                    continue
                if (
                    model.max_output is not None
                    and self.gains[dev] * level > model.max_output
                ):
                    continue
                out.append(_Candidate(fit.sse, k_abs, dev, level))
        out.sort()
        return out

    def _off_device(self, hyp: _Hypothesis, ks_pos: int, p: int) -> int | None:
        """The on device whose steady contribution is nearest the drop at p.

        Only devices whose last switch precedes the off time qualify.
        Devices on for at least min_on_duration samples are preferred;
        ties go to the lower device index.  None when nothing qualifies.
        """
        k_abs = self.start + ks_pos
        if k_abs in hyp.event_times():
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

    def _score(self, hyp: _Hypothesis, p: int) -> float:
        resid = self.y[: p + 1] - hyp.y_hat[: p + 1]
        return float(resid @ resid) + self.sparsity_penalty * len(hyp.events)

    def _rank_key(self, hyp: _Hypothesis, p: int) -> tuple:
        """Score, then fewer events, then the event log in SwitchEvent order."""
        return (self._score(hyp, p), len(hyp.events), hyp.events)

    def run(self) -> DisaggregationResult:
        pool = [_Hypothesis(self.models, self.T, self.start)]
        for p in range(self.T):
            next_pool: list[_Hypothesis] = []
            for hyp in pool:
                sig = self._detect(hyp, p)
                if sig is None:
                    next_pool.append(hyp)
                    continue
                kind, ks_pos = sig
                if kind == "increase":
                    take = self._on_candidates(hyp, ks_pos)[: self.params.beam_width]
                    events = [
                        SwitchEvent(c.k_prime, c.device, "on", c.level) for c in take
                    ]
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
                    next_pool.append(hyp)
                    continue
                clones = [hyp.clone() for _ in events[1:]]
                for child, event in zip([hyp, *clones], events):
                    self._apply(child, event)
                    next_pool.append(child)
            pool = next_pool
            if len(pool) > self.params.beam_width:
                pool.sort(key=lambda h: self._rank_key(h, p))
                pool = pool[: self.params.beam_width]
        best = min(pool, key=lambda h: self._rank_key(h, self.T - 1))
        return self._build_result(best)

    def _build_result(self, hyp: _Hypothesis) -> DisaggregationResult:
        resid = self.y - hyp.y_hat
        return DisaggregationResult(
            device_names=tuple(m.name for m in self.models),
            estimated_outputs=tuple(
                SignalSeries(row, self.period, self.start) for row in hyp.y_dev
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

