"""Build device models from individual plug recordings.

Pipeline: threshold-based change detection turns a plug signal into a
piecewise-constant input estimate; the on-transients, each less its
pre-step mean and divided by its step, are averaged (which cuts the
noise that would bias an equation-error fit); an ARX model, its input
delayed one sample, is fit by least squares to the average against a
unit step at the first of FIT_ORDERS that the data supports, and
realized in observable canonical state-space form.  Identified models
keep their physical gain; only simulation models are DC-normalized.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    RankDeficientDataError, UnstableModelError, ValidationError, check_count, check_number,
    check_real,
)
from .models import DeviceModel
from .series import PiecewiseInput, SignalSeries, _median, estimate_noise_std

# Samples a crossing must persist before a switch is accepted; suppresses
# chattering around the threshold at 12 Hz.
HYSTERESIS_SAMPLES = 2

# An off-switch counts as instantaneous when the signal falls below this
# fraction of the on-level within INSTANT_OFF_WINDOW samples.
INSTANT_OFF_FRACTION = 0.05
INSTANT_OFF_WINDOW = 2

MAX_OUTPUT_HEADROOM = 1.25

# A transient's onset lies above ONSET_SIGMAS standard deviations of the
# first differences; its window holds PRE_STEP_SAMPLES before the unit
# step and POST_STEP_SAMPLES from it on.
ONSET_SIGMAS = 3.0
PRE_STEP_SAMPLES = 10
POST_STEP_SAMPLES = 120
# Orders (na = nb) to fit, in turn, until a fit is of full rank and stable.
FIT_ORDERS = (3, 2, 1)


@dataclass(frozen=True)
class ArxModel:
    """Autoregressive model with exogenous input, delayed one sample.

    y[k] = sum_j a[j] y[k-1-j] + sum_j b_coef[j] u[k-1-j]
    """

    a: tuple[float, ...]
    b_coef: tuple[float, ...]

    def __post_init__(self):
        for key in ("a", "b_coef"):
            object.__setattr__(self, key, tuple(check_real(key, v) for v in getattr(self, key)))
        _check_orders(self.na, self.nb)

    @property
    def na(self) -> int:
        return len(self.a)

    @property
    def nb(self) -> int:
        return len(self.b_coef)


def _check_orders(na: int, nb: int) -> tuple[int, int]:
    return check_count("na", na, 1), check_count("nb", nb, 1)


def detect_plug_input(
    y: SignalSeries, on_threshold: float, settle_skip: int = 0
) -> PiecewiseInput:
    """Recover the on/off input schedule behind a plug measurement.

    A crossing flips the state only after HYSTERESIS_SAMPLES consecutive
    samples on the other side of the threshold (a run that touches the
    end of the recording confirms regardless of length).  Each on
    interval's level is the mean of the signal over the interval,
    skipping the first settle_skip samples.
    """
    check_number("on_threshold", on_threshold)
    settle_skip = check_count("settle_skip", settle_skip, 0)
    if len(y) == 0:
        raise ValidationError("cannot detect switches on an empty signal")
    above = y.values > on_threshold
    n = len(above)

    # Runs of consecutive equal above/below flags.
    starts = np.concatenate(([0], np.flatnonzero(np.diff(above)) + 1))
    lengths = np.diff(starts, append=n)
    confirmed = lengths >= HYSTERESIS_SAMPLES
    confirmed[-1] = True
    run_start = starts[confirmed]
    run_above = above[run_start]
    # The state, below at first, flips at each confirmed run on the other
    # side of the confirmed run before it; on and off flips alternate.
    flips = run_above != np.concatenate(([False], run_above[:-1]))
    ons = run_start[flips & run_above]
    offs = np.append(run_start[flips & ~run_above], n)[: len(ons)]

    events: list[tuple[int, float]] = []
    for p_on, p_off in zip(ons.tolist(), offs.tolist()):
        skip = settle_skip if p_on + settle_skip < p_off else 0
        level = float(np.mean(y.values[p_on + skip : p_off]))
        if level <= 0:
            continue
        events.append((y.start_index + p_on, level))
        if p_off < n:
            events.append((y.start_index + p_off, 0.0))
    return PiecewiseInput(tuple(events))


def _regression(y: np.ndarray, u: np.ndarray, na: int, nb: int):
    p0 = max(na, nb)
    lags = [y[p0 - 1 - j : len(y) - 1 - j] for j in range(na)]
    lags += [u[p0 - 1 - j : len(u) - 1 - j] for j in range(nb)]
    return np.column_stack(lags), y[p0:]


def fit_arx(y: SignalSeries, u: SignalSeries, na: int, nb: int) -> ArxModel:
    """Least-squares ARX fit of y against u, delayed one sample.

    Raises RankDeficientDataError when the data does not excite the
    requested order.  An unstable fit is returned; realizing it with
    arx_to_state_space raises UnstableModelError.
    """
    na, nb = _check_orders(na, nb)
    if len(y) != len(u):
        raise ValidationError(f"y and u lengths differ: {len(y)} vs {len(u)}")
    min_len = na + nb + 11
    if len(y) < min_len:
        raise ValidationError(f"need at least {min_len} samples for na={na}, nb={nb}")
    phi, target = _regression(y.values, u.values, na, nb)
    theta, _, rank, _ = np.linalg.lstsq(phi, target, rcond=None)
    if rank < na + nb:
        raise RankDeficientDataError(
            f"regressor rank {rank} < {na + nb}; try lower orders or richer data"
        )
    return ArxModel(a=tuple(theta[:na]), b_coef=tuple(theta[na:]))


def arx_to_state_space(m: ArxModel, name: str = "arx") -> DeviceModel:
    """Observable canonical realization of an ARX model.

    The realization order is max(na, nb) and d is 0.  The eigenvalues of
    A are the AR poles, so an unstable fit raises UnstableModelError from
    the DeviceModel constructor.
    """
    n = max(m.na, m.nb)
    A = np.eye(n, k=1)
    A[: m.na, 0] = m.a
    b = np.zeros(n)
    b[: m.nb] = m.b_coef
    c = np.zeros(n)
    c[0] = 1.0
    return DeviceModel(name=name, A=A, b=b, c=c)


def identify_device(
    y: SignalSeries, name: str, on_threshold: float, settle_skip: int = 0
) -> DeviceModel:
    """Full plug-recording pipeline: detect input, average transients, fit, realize.

    The model is called name; on_threshold and settle_skip go to
    detect_plug_input, which checks them.  The windows of
    _transient_windows are averaged and fit against a unit step at each
    of FIT_ORDERS in turn, keeping the first fit that is of full rank and
    stable; when none is, the last fit's RankDeficientDataError or
    UnstableModelError is raised, and no window raises ValidationError
    naming the device.  The identified model keeps the recording's
    physical gain.  instant_off is set when every detected off-switch
    collapses below INSTANT_OFF_FRACTION of its on-level within
    INSTANT_OFF_WINDOW samples, and max_output gets MAX_OUTPUT_HEADROOM
    times the observed peak.
    """
    u_pw = detect_plug_input(y, on_threshold, settle_skip)
    if not u_pw.events:
        raise ValidationError(f"no switch events detected for '{name}'; check on_threshold")
    windows = _transient_windows(y, u_pw, on_threshold)
    length = PRE_STEP_SAMPLES + POST_STEP_SAMPLES
    if not windows:
        raise ValidationError(f"no on interval of '{name}' holds the "
                              f"{length}-sample identification window")
    transient = SignalSeries(np.mean(windows, axis=0))
    step = SignalSeries(np.arange(length) >= PRE_STEP_SAMPLES)
    for order in FIT_ORDERS:
        try:
            model = arx_to_state_space(fit_arx(transient, step, order, order), name=name)
            break
        except (RankDeficientDataError, UnstableModelError):
            if order == FIT_ORDERS[-1]:
                raise
    peak = MAX_OUTPUT_HEADROOM * float(np.max(y.values))
    return replace(model, instant_off=_offs_are_instant(y, u_pw), max_output=peak)


def _transient_windows(y: SignalSeries, u_pw: PiecewiseInput, on_threshold: float):
    """Each on interval's rise around its onset, per unit of its step.

    An off shorter than PRE_STEP_SAMPLES is a dip of one transient and
    counts as on.  The onset follows the last quiet sample before the
    crossing: one that is off, not alone, and at most the median of the
    samples at or below on_threshold plus ONSET_SIGMAS of the first
    differences.  The step sits one sample, the ARX input delay, before
    it.  A window that starts before the last longer off or ends after
    its interval's off is skipped, so an interval split by dips gives one
    window; each is offset by its pre-step mean and divided by the level
    above that.
    """
    values = y.values
    off_values = values[values <= on_threshold]
    floor = _median(off_values) if off_values.size else 0.0
    # The first differences spread sqrt(2) times the noise level.
    onset_level = floor + ONSET_SIGMAS * np.sqrt(2.0) * estimate_noise_std(y)
    positions = [k - y.start_index for k, _ in u_pw.events] + [len(values)]
    spans = list(zip(positions, positions[1:], (level for _, level in u_pw.events)))
    on = [level > 0.0 or end - p < PRE_STEP_SAMPLES for p, end, level in spans]
    held = np.repeat([False, *on], np.diff([0, *positions]))
    quiet = (values <= onset_level) & ~held
    quiet[1:-1] &= quiet[:-2] | quiet[2:]  # a lone quiet sample is a dip in a rise
    # Quiet samples and longer offs, each behind a sentinel: -1 and the start.
    quiet = np.flatnonzero(np.append(True, quiet)) - 1
    offs = np.array([0] + [p for (p, _, _), is_on in zip(spans, on) if not is_on])
    windows: dict[int, np.ndarray] = {}
    for p, end, level in spans:
        onset = int(quiet[np.searchsorted(quiet, p) - 1]) + 1
        start, stop = onset - 1 - PRE_STEP_SAMPLES, onset - 1 + POST_STEP_SAMPLES
        if level > 0.0 and start >= offs[np.searchsorted(offs, p) - 1] and stop <= end:
            base = float(np.mean(values[start : start + PRE_STEP_SAMPLES]))
            if level > base:
                windows.setdefault(start, (values[start:stop] - base) / (level - base))
    return list(windows.values())


def _offs_are_instant(y: SignalSeries, u_pw: PiecewiseInput) -> bool:
    seen_off = False
    level = 0.0
    for k, new_level in u_pw.events:
        if new_level == 0.0 and level > 0.0:
            seen_off = True
            p = k - y.start_index
            post = y.values[p : p + INSTANT_OFF_WINDOW]
            if post.size == 0 or np.min(np.abs(post)) >= INSTANT_OFF_FRACTION * level:
                return False
        level = new_level
    return seen_off
