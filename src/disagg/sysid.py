"""Build device models from individual plug recordings.

Pipeline: threshold-based change detection turns a plug signal into a
piecewise-constant input estimate, an ARX model is fit by least squares,
and the fit is realized in observable canonical state-space form.
Identified models keep their physical gain; only simulation models are
DC-normalized.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import RankDeficientDataError, ValidationError, check_count, check_number
from .models import DeviceModel
from .series import PiecewiseInput, SignalSeries

# Samples a crossing must persist before a switch is accepted; suppresses
# chattering around the threshold at 12 Hz.
HYSTERESIS_SAMPLES = 2

# An off-switch counts as instantaneous when the signal falls below this
# fraction of the on-level within INSTANT_OFF_WINDOW samples.
INSTANT_OFF_FRACTION = 0.05
INSTANT_OFF_WINDOW = 2

MAX_OUTPUT_HEADROOM = 1.25


@dataclass(frozen=True)
class PlugRecordingLabel:
    """Change-detection settings for one labeled plug recording."""

    device_name: str
    on_threshold: float
    settle_skip: int = 0

    def __post_init__(self):
        check_number("on_threshold", self.on_threshold)
        object.__setattr__(
            self, "settle_skip", check_count("settle_skip", self.settle_skip, 0)
        )


@dataclass(frozen=True)
class ArxModel:
    """Autoregressive model with exogenous input.

    y[k] = sum_j a[j] y[k-1-j] + sum_j b_coef[j] u[k-delay-j]
    """

    na: int
    nb: int
    a: tuple[float, ...]
    b_coef: tuple[float, ...]
    delay: int = 1
    residual_rms: float = field(default=0.0, compare=False)

    def __post_init__(self):
        orders = _check_orders(self.na, self.nb, self.delay)
        for name, value in zip(("na", "nb", "delay"), orders):
            object.__setattr__(self, name, value)
        if len(self.a) != self.na or len(self.b_coef) != self.nb:
            raise ValidationError("coefficient lengths must match na and nb")
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "b_coef", tuple(float(v) for v in self.b_coef))


def _check_orders(na: int, nb: int, delay: int) -> tuple[int, int, int]:
    return check_count("na", na, 1), check_count("nb", nb, 1), check_count("delay", delay, 0)


def detect_plug_input(y: SignalSeries, label: PlugRecordingLabel) -> PiecewiseInput:
    """Recover the on/off input schedule behind a plug measurement.

    A crossing flips the state only after HYSTERESIS_SAMPLES consecutive
    samples on the other side of the threshold (a run that touches the
    end of the recording confirms regardless of length).  Each on
    interval's level is the mean of the signal over the interval,
    skipping the first settle_skip samples.
    """
    if len(y) == 0:
        raise ValidationError("cannot detect switches on an empty signal")
    above = y.values > label.on_threshold
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
        skip = label.settle_skip if p_on + label.settle_skip < p_off else 0
        level = float(np.mean(y.values[p_on + skip : p_off]))
        if level <= 0:
            continue
        events.append((y.start_index + p_on, level))
        if p_off < n:
            events.append((y.start_index + p_off, 0.0))
    return PiecewiseInput(tuple(events))


def _regression(y: np.ndarray, u: np.ndarray, na: int, nb: int, delay: int):
    p0 = max(na, delay + nb - 1)
    rows = len(y) - p0
    phi = np.empty((rows, na + nb))
    for j in range(na):
        phi[:, j] = y[p0 - 1 - j : len(y) - 1 - j]
    for j in range(nb):
        lag = delay + j
        phi[:, na + j] = u[p0 - lag : len(u) - lag]
    return phi, y[p0:]


def fit_arx(
    y: SignalSeries,
    u: SignalSeries,
    na: int,
    nb: int,
    delay: int = 1,
    exclude_rows: frozenset[int] | set[int] = frozenset(),
) -> ArxModel:
    """Least-squares ARX fit of y against u.

    Rows whose target position appears in exclude_rows are dropped; the
    identification pipeline uses this to skip samples around off-switches
    where the input labeling is unreliable.  Raises
    RankDeficientDataError when the data does not excite the requested
    order.  An unstable fit is returned; realizing it with
    arx_to_state_space raises UnstableModelError.
    """
    na, nb, delay = _check_orders(na, nb, delay)
    if len(y) != len(u):
        raise ValidationError(f"y and u lengths differ: {len(y)} vs {len(u)}")
    min_len = na + nb + delay + 10
    if len(y) < min_len:
        raise ValidationError(
            f"need at least {min_len} samples for na={na}, nb={nb}, delay={delay}"
        )
    phi, target = _regression(y.values, u.values, na, nb, delay)
    if exclude_rows:
        p0 = max(na, delay + nb - 1)
        excluded = np.fromiter(exclude_rows, dtype=np.int64, count=len(exclude_rows)) - p0
        keep = np.ones(len(target), dtype=bool)
        keep[excluded[(excluded >= 0) & (excluded < len(target))]] = False
        phi, target = phi[keep], target[keep]
        if len(target) < na + nb:
            raise RankDeficientDataError(
                f"only {len(target)} rows left after exclusions"
            )
    theta, _, rank, _ = np.linalg.lstsq(phi, target, rcond=None)
    if rank < na + nb:
        raise RankDeficientDataError(
            f"regressor rank {rank} < {na + nb}; try lower orders or richer data"
        )
    a = tuple(theta[:na])
    b_coef = tuple(theta[na:])
    residual = target - phi @ theta
    rms = float(np.sqrt(np.mean(residual**2)))
    return ArxModel(na=na, nb=nb, a=a, b_coef=b_coef, delay=delay, residual_rms=rms)


def arx_to_state_space(m: ArxModel, name: str = "arx") -> DeviceModel:
    """Observable canonical realization of an ARX model.

    The realization order is max(na, nb + delay - 1); a delay of 0 puts
    the leading numerator coefficient into the feedthrough d.  The
    eigenvalues of A are the AR poles, so an unstable fit raises
    UnstableModelError from the DeviceModel constructor.
    """
    n = max(m.na, m.nb + m.delay - 1)
    alpha = np.zeros(n + 1)
    beta = np.zeros(n + 1)
    for j in range(1, m.na + 1):
        alpha[j] = -m.a[j - 1]
    for j in range(m.nb):
        beta[m.delay + j] = m.b_coef[j]
    d = beta[0]
    A = np.zeros((n, n))
    A[:, 0] = -alpha[1:]
    for i in range(n - 1):
        A[i, i + 1] = 1.0
    b = beta[1:] - alpha[1:] * d
    c = np.zeros(n)
    c[0] = 1.0
    return DeviceModel(name=name, A=A, b=b, c=c, d=float(d))


def identify_device(
    y: SignalSeries,
    label: PlugRecordingLabel,
    na: int = 3,
    nb: int = 3,
    delay: int = 1,
) -> DeviceModel:
    """Full plug-recording pipeline: detect input, fit ARX, realize.

    The identified model keeps the physical gain of the recording.  The
    instant_off flag is set when every detected off-switch collapses
    below INSTANT_OFF_FRACTION of its on-level within INSTANT_OFF_WINDOW
    samples, and max_output gets MAX_OUTPUT_HEADROOM times the observed
    peak.
    """
    u_pw = detect_plug_input(y, label)
    if not u_pw.events:
        raise ValidationError(
            f"no switch events detected for '{label.device_name}'; "
            "check on_threshold"
        )
    u_fit = _lead_on_events(u_pw)
    u = u_fit.expand(y.start_index, len(y), y.sample_period)
    exclude = _off_transition_rows(u_pw, y.start_index, na, nb, delay)
    arx = fit_arx(y, u, na=na, nb=nb, delay=delay, exclude_rows=exclude)
    return replace(
        arx_to_state_space(arx, name=label.device_name),
        instant_off=_offs_are_instant(y, u_pw),
        max_output=MAX_OUTPUT_HEADROOM * float(np.max(y.values)),
    )


def _lead_on_events(u_pw: PiecewiseInput) -> PiecewiseInput:
    """Place each on event one sample before its detected crossing.

    The state-space form responds one sample after its input; detection
    sees the first response sample, so the underlying switch happened
    the sample before.  Off events are left at the detected index (for
    devices that collapse instantly the detection is already exact).
    """
    shifted: list[tuple[int, float]] = []
    for k, level in u_pw.events:
        if level > 0.0 and (not shifted or shifted[-1][0] < k - 1):
            shifted.append((k - 1, level))
        else:
            shifted.append((k, level))
    return PiecewiseInput(tuple(shifted))


def _off_transition_rows(
    u_pw: PiecewiseInput, start_index: int, na: int, nb: int, delay: int
) -> frozenset[int]:
    """Regression rows contaminated by an off-switch.

    After a detected off, the measured output need not follow the linear
    recursion (instant-off devices clamp to zero) and the exact switch
    sample is ambiguous, so rows whose regressors straddle the event are
    dropped.
    """
    span = max(na, nb + delay) + 1
    rows: set[int] = set()
    for k, level in u_pw.events:
        if level == 0.0:
            p = k - start_index
            rows.update(range(p, p + span))
    return frozenset(rows)


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
