import json
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import disagg.sysid as sysid
from disagg import (
    ArxModel,
    RankDeficientDataError,
    SignalSeries,
    UnstableModelError,
    ValidationError,
    arx_to_state_space,
    detect_plug_input,
    fit_arx,
    identify_device,
    load_library,
    parse_emontx_csv,
    random_stable_model,
    simulate_zero_state,
    spectral_radius,
    to_signal,
    unit_step_values,
)
from disagg.models import STABILITY_MARGIN
from disagg.series import PiecewiseInput
from disagg.sysid import HYSTERESIS_SAMPLES, _transient_windows
from conftest import hold, series

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from inputs import write_plug_set  # noqa: E402


# ---------------------------------------------------------------- detection

def test_detect_simple_on_off():
    y = series([0, 0, 5, 5, 5, 0])
    u = detect_plug_input(y, 1.0, settle_skip=1)
    assert u.events == ((2, 5.0), (5, 0.0))


def test_detect_all_zero_gives_no_events():
    y = series(np.zeros(10))
    u = detect_plug_input(y, 1.0)
    assert u.events == ()


def test_detect_skips_overshoot_sample():
    y = series([0, 6, 4, 4, 4, 0])
    u = detect_plug_input(y, 1.0, settle_skip=1)
    assert u.events == ((1, 4.0), (5, 0.0))


def test_detect_drops_an_on_interval_whose_mean_is_not_positive():
    # One short dip does not end the on interval; it drags its mean below 0.
    u = detect_plug_input(series([0, 0, 5, 5, -100, 5, 5, 0, 0]), 1.0)
    assert u.events == ()


def test_detect_rejects_empty_signal():
    with pytest.raises(ValidationError):
        detect_plug_input(series([]), 1.0)


@pytest.mark.parametrize("on_threshold, settle_skip, message", [
    (math.nan, 0, "on_threshold must be finite and > 0, got nan"),
    (math.inf, 0, "on_threshold must be finite and > 0, got inf"),
    (0.0, 0, "on_threshold must be finite and > 0, got 0.0"),
    (1.0, -1, "settle_skip must be >= 0, got -1"),
])
def test_detect_and_identify_reject_bad_settings(on_threshold, settle_skip, message):
    # identify_device passes its settings to detect_plug_input, which
    # checks them before reading the signal.
    y = series([0, 0, 5, 5, 5, 0])
    for call in (lambda: detect_plug_input(y, on_threshold, settle_skip),
                 lambda: identify_device(y, "d", on_threshold, settle_skip)):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call()


def test_detect_hysteresis_ignores_single_sample_blips():
    # One-sample dip inside the on interval and a one-sample spike before it.
    y = series([0, 3, 0, 0, 4, 4, 0.5, 4, 4, 0, 0])
    u = detect_plug_input(y, 1.0, settle_skip=0)
    kinds = [1 if level > 0 else 0 for _, level in u.events]
    assert kinds == [1, 0]
    assert u.events[0][0] == 4
    assert u.events[1][0] == 9


def test_detect_events_ordered_and_alternating():
    rng = np.random.default_rng(3)
    for _ in range(20):
        y = series(np.abs(rng.normal(size=120)) * (rng.random(120) > 0.4) * 5)
        u = detect_plug_input(y, 1.0, settle_skip=1)
        ks = [k for k, _ in u.events]
        assert ks == sorted(set(ks))
        for (_, lev_a), (_, lev_b) in zip(u.events, u.events[1:]):
            assert (lev_a > 0) != (lev_b > 0)


def test_detect_open_interval_at_end_has_no_off_event():
    y = series([0, 0, 5, 5, 5, 5])
    u = detect_plug_input(y, 1.0)
    assert u.events == ((2, 5.0),)


def _detect_oracle(y, on_threshold, settle_skip):
    """Per-sample run-length reference for detect_plug_input."""
    above = y.values > on_threshold
    runs = []  # (is_above, start_pos, length)
    start = 0
    for p in range(1, len(above) + 1):
        if p == len(above) or above[p] != above[start]:
            runs.append((bool(above[start]), start, p - start))
            start = p
    intervals = []
    on_since = None
    for is_above, run_start, run_len in runs:
        confirmed = run_len >= HYSTERESIS_SAMPLES or run_start + run_len == len(above)
        if not confirmed:
            continue
        if is_above and on_since is None:
            on_since = run_start
        elif not is_above and on_since is not None:
            intervals.append((on_since, run_start))
            on_since = None
    if on_since is not None:
        intervals.append((on_since, len(above)))
    events = []
    for p_on, p_off in intervals:
        skip = settle_skip if p_on + settle_skip < p_off else 0
        level = float(np.mean(y.values[p_on + skip : p_off]))
        if level <= 0:
            continue
        events.append((y.start_index + p_on, level))
        if p_off < len(above):
            events.append((y.start_index + p_off, 0.0))
    return PiecewiseInput(tuple(events))


@pytest.mark.parametrize("values", [
    [5.0],
    [0.0],
    [5.0, 5.0, 5.0],
    [0.0, 0.0, 5.0],
    [0.0, 0.0, 5.0, 5.0, 0.0],
    [5.0, 0.0, 5.0, 0.0, 5.0],
    [0.0, 5.0, 0.0, 0.0, 5.0, 5.0, 5.0, 0.0],
])
@pytest.mark.parametrize("settle_skip", [0, 1, 50])
def test_detect_matches_run_length_oracle_on_edge_signals(values, settle_skip):
    # Length-1, all-above, runs that touch the end, and settle_skip longer
    # than every interval.
    y = series(values, start=7)
    assert detect_plug_input(y, 1.0, settle_skip) == _detect_oracle(y, 1.0, settle_skip)


def test_detect_matches_run_length_oracle_on_random_signals():
    rng = np.random.default_rng(11)
    for trial in range(300):
        n = int(rng.integers(1, 200))
        flips = rng.random(n) < rng.choice([0.05, 0.3, 0.7])
        on = np.cumsum(flips) % 2 == 1
        levels = np.where(on, rng.uniform(0.5, 6.0, n), rng.uniform(0.0, 1.5, n))
        on_threshold = float(rng.uniform(0.5, 2.0))
        settle_skip = int(rng.integers(0, 40))
        y = series(levels, start=int(rng.integers(-50, 50)))
        expected = _detect_oracle(y, on_threshold, settle_skip)
        assert detect_plug_input(y, on_threshold, settle_skip) == expected, trial


def test_detect_matches_run_length_oracle_property():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 4.0, 7.5]), min_size=1, max_size=60),
        st.integers(0, 80),
    )
    def check(values, settle_skip):
        y = series(values)
        assert detect_plug_input(y, 1.0, settle_skip) == _detect_oracle(y, 1.0, settle_skip)

    check()


# ---------------------------------------------------------------- ARX fit

def _arx_generate(a, b_coef, u, rng=None, noise=0.0):
    """Independent oracle: direct ARX recursion, input delayed one sample."""
    na, nb = len(a), len(b_coef)
    y = np.zeros(len(u))
    for k in range(len(u)):
        acc = 0.0
        for j in range(1, na + 1):
            if k - j >= 0:
                acc += a[j - 1] * y[k - j]
        for j in range(nb):
            if k - 1 - j >= 0:
                acc += b_coef[j] * u[k - 1 - j]
        if noise:
            acc += noise * rng.normal()
        y[k] = acc
    return y


def test_fit_arx_recovers_first_order_exactly():
    rng = np.random.default_rng(0)
    u = rng.normal(size=200)
    y = _arx_generate([0.5], [0.5], u)
    m = fit_arx(series(y), series(u), na=1, nb=1)
    np.testing.assert_allclose(m.a, [0.5], atol=1e-8)
    np.testing.assert_allclose(m.b_coef, [0.5], atol=1e-8)
    assert spectral_radius(arx_to_state_space(m).A) < 1.0 - STABILITY_MARGIN


def test_fit_arx_rank_deficient_on_zero_data():
    with pytest.raises(RankDeficientDataError):
        fit_arx(series(np.zeros(50)), series(np.zeros(50)), na=1, nb=1)


def test_fit_arx_noisy_recovery_within_tolerance():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=400)
        y = _arx_generate([0.5], [0.5], u, rng=rng, noise=0.01)
        m = fit_arx(series(y), series(u), na=1, nb=1)
        assert abs(m.a[0] - 0.5) < 0.05
        assert abs(m.b_coef[0] - 0.5) < 0.05


def test_fit_arx_third_order_exact():
    rng = np.random.default_rng(5)
    a = [1.2, -0.5, 0.06]
    b = [0.4, 0.2, -0.1]
    u = rng.normal(size=500)
    y = _arx_generate(a, b, u)
    m = fit_arx(series(y), series(u), na=3, nb=3)
    np.testing.assert_allclose(m.a, a, atol=1e-8)
    np.testing.assert_allclose(m.b_coef, b, atol=1e-8)


def test_fit_arx_residual_never_beats_zero_model():
    rng = np.random.default_rng(9)
    for _ in range(10):
        u = rng.normal(size=150)
        y = _arx_generate([0.7], [0.3], u, rng=rng, noise=0.2)
        m = fit_arx(series(y), series(u), na=2, nb=2)
        # Regression rows k >= p0 = max(na, nb) = 2.
        rows = np.arange(2, len(y))
        fitted = sum(m.a[j] * y[rows - 1 - j] for j in range(2))
        fitted = fitted + sum(m.b_coef[j] * u[rows - 1 - j] for j in range(2))
        rms = float(np.sqrt(np.mean((y[rows] - fitted) ** 2)))
        zero_rms = float(np.sqrt(np.mean(y[rows] ** 2)))
        assert rms <= zero_rms + 1e-12


def test_fit_arx_returns_unstable_fit_that_cannot_be_realized():
    # Data from a (bounded run of an) unstable recursion.
    u = np.concatenate([np.ones(30), np.zeros(10)])
    y = _arx_generate([1.05], [0.5], u)
    m = fit_arx(series(y), series(u), na=1, nb=1)
    with pytest.raises(UnstableModelError, match="model 'arx'"):
        arx_to_state_space(m)


@pytest.mark.parametrize(
    "na, nb, message",
    [
        (0, 2, "na must be >= 1, got 0"),
        (2, 0, "nb must be >= 1, got 0"),
    ],
)
def test_fit_arx_rejects_bad_orders_before_regression(na, nb, message):
    rng = np.random.default_rng(3)
    u = rng.normal(size=100)
    y = _arx_generate([0.5], [0.5], u)
    with pytest.raises(ValidationError, match=message):
        fit_arx(series(y), series(u), na=na, nb=nb)


def test_fit_arx_length_precondition():
    with pytest.raises(ValidationError):
        fit_arx(series(np.ones(5)), series(np.ones(5)), na=3, nb=3)


def test_fit_arx_rejects_y_and_u_of_different_lengths():
    with pytest.raises(ValidationError, match="^y and u lengths differ: 40 vs 39$"):
        fit_arx(series(np.ones(40)), series(np.ones(39)), na=1, nb=1)


@pytest.mark.parametrize("a, b_coef, order", [
    ((), (), "na"), ((), (0.5,), "na"), ((0.5,), (), "nb"),
])
def test_arx_model_rejects_empty_coefficients(a, b_coef, order):
    # The orders are the coefficient counts, so an empty tuple is order 0.
    with pytest.raises(ValidationError, match=f"^{order} must be >= 1, got 0$"):
        ArxModel(a=a, b_coef=b_coef)


@pytest.mark.parametrize("field", ["a", "b_coef"])
@pytest.mark.parametrize("value, message", [
    ("0.5", "must be a number, got '0.5'"), (True, "must be a number, got True"),
    (math.nan, "must be finite, got nan"), (-math.inf, "must be finite, got -inf"),
])
def test_arx_model_coefficients_follow_the_real_rule(field, value, message):
    # A coefficient is a finite real number, not whatever float() takes.
    coefficients = {"a": (0.5,), "b_coef": (1.0,), field: (value,)}
    with pytest.raises(ValidationError, match=f"^{re.escape(f'{field} {message}')}$"):
        ArxModel(**coefficients)


# ------------------------------------------------------- state-space export

def test_realization_first_order_canonical():
    m = ArxModel(a=(0.5,), b_coef=(0.5,))
    ss = arx_to_state_space(m)
    np.testing.assert_allclose(ss.A, [[0.5]])
    np.testing.assert_allclose(ss.b, [0.5])
    np.testing.assert_allclose(ss.c, [1.0])
    assert ss.d == 0.0


def test_realization_matches_arx_recursion():
    rng = np.random.default_rng(2)
    # na = nb, nb > na and na > nb: the realization has order max(na, nb).
    cases = [
        ((0.9, -0.2), (0.3, 0.1)),
        ((0.5,), (1.0, 0.5, 0.25)),
        ((1.2, -0.45), (0.7,)),
    ]
    for a, b_coef in cases:
        m = ArxModel(a=a, b_coef=b_coef)
        ss = arx_to_state_space(m)
        assert ss.order == max(len(a), len(b_coef))
        u = rng.normal(size=1000)
        expected = _arx_generate(list(a), list(b_coef), u)
        got = simulate_zero_state(ss, series(u))
        np.testing.assert_allclose(got.values, expected, atol=1e-8)


def test_realization_rejects_unstable():
    m = ArxModel(a=(1.01,), b_coef=(1.0,))
    with pytest.raises(UnstableModelError):
        arx_to_state_space(m)


def test_realization_rejects_pole_within_the_stability_margin():
    # A pole at 1 - 5e-10 is below 1 but not below 1 - STABILITY_MARGIN:
    # realizing it must fail, or identify would write a library entry
    # that load_library rejects.
    m = ArxModel(a=(1.0 - 5e-10,), b_coef=(1.0,))
    with pytest.raises(UnstableModelError, match="model 'edge'"):
        arx_to_state_space(m, name="edge")


# ------------------------------------------------------------ full pipeline

def test_identify_round_trip_constant_input_response():
    schedule = PiecewiseInput(((30, 5.0), (200, 0.0), (280, 5.0), (430, 0.0)))
    for seed in (1, 2, 3, 4, 5):
        truth = random_stable_model(3, seed, instant_off=True)
        y = simulate_zero_state(truth, hold(schedule, 0, 520))
        fitted = identify_device(y, "dev", on_threshold=1.0, settle_skip=20)
        s_true = simulate_zero_state(truth, SignalSeries(np.full(80, 5.0))).values
        s_fit = simulate_zero_state(fitted, SignalSeries(np.full(80, 5.0))).values
        assert float(np.max(np.abs(s_true - s_fit))) <= 0.02 * 5.0


def test_identify_sets_instant_off_for_collapsing_trace():
    # Overshoot at switch-on, hard zero at switch-off: toaster-like.
    truth = random_stable_model(3, 3, instant_off=True)
    schedule = PiecewiseInput(((30, 4.0), (220, 0.0)))
    y = simulate_zero_state(truth, hold(schedule, 0, 300))
    fitted = identify_device(y, "toaster", on_threshold=1.0, settle_skip=10)
    assert fitted.instant_off


def test_identify_clears_instant_off_for_slow_decay():
    from disagg import DeviceModel

    truth = DeviceModel("slow", A=[[0.9]], b=[0.1], c=[1.0])  # 14 samples to halve twice
    schedule = PiecewiseInput(((30, 4.0), (220, 0.0)))
    y = simulate_zero_state(truth, hold(schedule, 0, 300))
    fitted = identify_device(y, "fridge", on_threshold=1.0, settle_skip=10)
    assert not fitted.instant_off


def test_identify_max_output_headroom():
    truth = random_stable_model(3, 1, instant_off=True)
    schedule = PiecewiseInput(((30, 5.0), (200, 0.0)))
    y = simulate_zero_state(truth, hold(schedule, 0, 300))
    peak = float(np.max(y.values))
    fitted = identify_device(y, "d", on_threshold=1.0, settle_skip=10)
    assert fitted.max_output == pytest.approx(1.25 * peak)


def test_identify_max_output_simple_value():
    # A trace peaking at exactly 8 caps the device at 10.
    m = random_stable_model(3, 1, instant_off=True)
    schedule = PiecewiseInput(((30, 5.0), (200, 0.0)))
    y = simulate_zero_state(m, hold(schedule, 0, 300))
    scaled = series(y.values * (8.0 / float(np.max(y.values))))
    fitted = identify_device(scaled, "d", on_threshold=1.0, settle_skip=10)
    assert fitted.max_output == pytest.approx(10.0)


def test_identify_errors_without_events():
    y = series(np.zeros(100))
    with pytest.raises(ValidationError):
        identify_device(y, "d", on_threshold=1.0)


def test_identify_names_the_device_without_a_long_enough_interval():
    # On intervals of 70 and 100 samples cannot hold the 130-sample window.
    truth = random_stable_model(3, 1, instant_off=True)
    schedule = PiecewiseInput(((30, 5.0), (100, 0.0), (160, 5.0), (260, 0.0)))
    y = simulate_zero_state(truth, hold(schedule, 0, 300))
    with pytest.raises(ValidationError, match="no on interval of 'short' holds the 130-sample"):
        identify_device(y, "short", on_threshold=1.0, settle_skip=10)


def test_transient_split_by_a_dip_gives_one_window_from_its_onset():
    # The response dips below on_threshold for two samples, so detection
    # sees two on intervals; both walk back to the onset at 20.
    values = np.zeros(200)
    values[20:180] = 4.0
    values[22:24] = 0.5
    y = series(values)
    u = detect_plug_input(y, 1.0)
    assert [k for k, level in u.events if level > 0] == [20, 24]
    windows = _transient_windows(y, u, 1.0)
    assert len(windows) == 1
    np.testing.assert_array_equal(windows[0], values[9:139] / 4.0)


def test_a_lone_quiet_sample_in_a_rise_does_not_end_the_walk():
    # A one-sample spike at 20 and a quiet sample at 21, both too short for
    # detection, which puts the switch-on at 22; the onset is the spike.
    values = np.zeros(200)
    values[20] = 4.0
    values[22:] = 4.0
    y = series(values)
    u = detect_plug_input(y, 1.0)
    assert u.events == ((22, 4.0),)
    windows = _transient_windows(y, u, 1.0)
    assert len(windows) == 1
    np.testing.assert_array_equal(windows[0], values[9:139] / 4.0)


@pytest.mark.parametrize("gap, first", [(2, 9), (9, 9), (10, None), (11, 60)])
def test_an_off_shorter_than_the_pre_step_is_a_dip_even_when_quiet(gap, first):
    # Off and quiet for `gap` samples at 60.  Under PRE_STEP_SAMPLES it is
    # a dip: one window from the onset at 20.  Longer, it ends the first
    # transient, and the second's window needs 10 quiet samples before
    # its step at 60 + gap (delay 1), so a gap of 10 gives no window.
    values = np.zeros(260)
    values[20:60] = 4.0
    values[60 + gap : 240] = 4.0
    y = series(values)
    u = detect_plug_input(y, 1.0)
    assert u.events == ((20, 4.0), (60, 0.0), (60 + gap, 4.0), (240, 0.0))
    windows = _transient_windows(y, u, 1.0)
    if first is None:
        assert windows == []
    else:
        assert len(windows) == 1
        np.testing.assert_array_equal(windows[0], values[first : first + 130] / 4.0)


def test_identify_crosses_a_dip_to_the_noise_floor(tmp_path):
    # Plug seed 528's tv spikes at switch-on and falls to the noise floor
    # for a sample, below on_threshold for 3, before it rises to its level.
    write_plug_set(528, tmp_path)
    plug = next(p for p in json.loads((tmp_path / "plugs.json").read_text()) if p["name"] == "tv")
    y = to_signal(parse_emontx_csv(tmp_path / plug["file"]))
    assert identify_device(y, "tv", plug["threshold"], plug["settle_skip"]).name == "tv"


def test_identify_measures_onsets_and_steps_above_a_standby_floor():
    # A constant off level of 0.2 under 0.01 noise: no sample is within
    # 3 sigma of zero, so the onsets and the steps are measured from it.
    truth = random_stable_model(3, 2, instant_off=True)
    schedule = PiecewiseInput(((30, 2.0), (200, 0.0), (280, 2.0), (450, 0.0)))
    noise = np.random.default_rng(7).normal(0.0, 0.01, 520)
    y = series(simulate_zero_state(truth, hold(schedule, 0, 520)).values + 0.2 + noise)
    fitted = identify_device(y, "tv", on_threshold=0.8, settle_skip=20)
    g_fit = unit_step_values(fitted, 120)
    g_true = unit_step_values(truth, 120)
    assert np.max(np.abs(g_fit - g_true)) <= 0.03


def test_decay_bridging_two_intervals_gives_no_mixed_window():
    # The first interval is too short for a window, and its decay stays
    # above the floor until the second switch-on, so the walk back from
    # the second crossing passes the first off; that window holds two
    # switch-ons and is skipped.  The third interval gives the only window.
    from disagg import DeviceModel

    truth = DeviceModel("slow", A=[[0.9]], b=[0.1], c=[1.0])
    schedule = PiecewiseInput(
        ((30, 4.0), (80, 0.0), (115, 4.0), (300, 0.0), (400, 4.0), (600, 0.0))
    )
    y = simulate_zero_state(truth, hold(schedule, 0, 700))
    u = detect_plug_input(y, 1.0, settle_skip=60)
    windows = _transient_windows(y, u, 1.0)
    assert len(windows) == 1
    # The level includes the slow decay after the off, so compare shapes.
    fitted = identify_device(y, "fridge", on_threshold=1.0, settle_skip=60)
    g_fit = unit_step_values(fitted, 120)
    g_true = unit_step_values(truth, 120)
    assert np.max(np.abs(g_fit / g_fit[-1] - g_true / g_true[-1])) <= 0.02


def test_identify_refits_at_order_two_when_the_first_fit_is_unstable(monkeypatch):
    realize = sysid.arx_to_state_space
    orders = []

    def unstable_once(arx, name="arx"):
        orders.append((arx.na, arx.nb))
        if len(orders) == 1:
            raise UnstableModelError(name, 1.5, STABILITY_MARGIN)
        return realize(arx, name)

    monkeypatch.setattr(sysid, "arx_to_state_space", unstable_once)
    truth = random_stable_model(3, 1, instant_off=True)
    y = simulate_zero_state(truth, hold(PiecewiseInput(((30, 5.0), (200, 0.0))), 0, 300))
    fitted = identify_device(y, "d", on_threshold=1.0, settle_skip=10)
    assert orders == [(3, 3), (2, 2)]
    assert fitted.order == 2


def _lag_plug(poles, noise, seed):
    """A plug on at level 4 for 200 samples from 30 and from 330, and off at
    once; its rise is a cascade of lags, each of unit gain at a pole below 1
    and a ramp of 0.02 per sample at a pole of 1."""
    g = np.ones(200)
    for pole in poles:
        x, g = g, np.zeros(200)
        for k in range(1, 200):
            g[k] = pole * g[k - 1] + (1.0 - pole if pole < 1.0 else 0.02) * x[k - 1]
    values = np.zeros(600)
    values[30:230] = values[330:530] = 4.0 * g
    return series(values + np.random.default_rng(seed).normal(0.0, noise, 600))


def _order_rule_oracle(y, on_threshold, settle_skip):
    """The realized fit_arx model of the averaged transient at the first of
    orders 3, 2 and 1 that is of full rank and stable, or the last error."""
    u_pw = detect_plug_input(y, on_threshold, settle_skip)
    transient = SignalSeries(np.mean(_transient_windows(y, u_pw, on_threshold), axis=0))
    step = SignalSeries(np.arange(130) >= 10)
    for order in (3, 2, 1):
        try:
            return arx_to_state_space(fit_arx(transient, step, order, order), "d")
        except (RankDeficientDataError, UnstableModelError) as exc:
            error = exc
    raise error


def test_identify_fits_the_first_full_rank_stable_order_property():
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    @settings(max_examples=60, deadline=None)
    @given(
        poles=st.lists(st.sampled_from([0.0, 0.5, 0.9, 0.97, 1.0]), min_size=1, max_size=3),
        noise=st.sampled_from([0.0, 1e-6, 1e-3, 0.05]),
        seed=st.integers(0, 3),
    )
    # Fits at orders 3, 2 and 1: full rank and stable (ok), rank deficient
    # (rank) or unstable.
    @example(poles=[0.5, 0.9, 0.97], noise=1e-3, seed=0)  # ok, ok, ok
    @example(poles=[1.0], noise=1e-6, seed=0)  # unstable, ok, unstable
    @example(poles=[0.5, 0.5], noise=0.0, seed=0)  # rank, ok, ok
    @example(poles=[0.9], noise=0.0, seed=0)  # rank, rank, ok
    @example(poles=[0.5, 1.0], noise=1e-3, seed=0)  # unstable at every order
    @example(poles=[1.0], noise=0.0, seed=0)  # rank, rank, unstable
    def check(poles, noise, seed):
        y = _lag_plug(poles, noise, seed)
        try:
            expected = _order_rule_oracle(y, 1.0, 10)
        except (RankDeficientDataError, UnstableModelError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                identify_device(y, "d", 1.0, 10)
            return
        fitted = identify_device(y, "d", 1.0, 10)
        assert fitted == replace(
            expected, instant_off=fitted.instant_off, max_output=fitted.max_output)

    check()


@pytest.mark.parametrize("seed", [100, 101])
def test_identify_recovers_benchmark_plug_step_responses(tmp_path, seed):
    # The benchmark's first two plug sets: each identified unit-step
    # response stays within 0.05 of the true one over 120 samples, so the
    # rating-scaled responses agree within 5% of the rating.
    write_plug_set(seed, tmp_path)
    truth = {model.name: model for model in load_library(tmp_path / "library.json")}
    for plug in json.loads((tmp_path / "plugs.json").read_text()):
        y = to_signal(parse_emontx_csv(tmp_path / plug["file"]))
        fitted = identify_device(y, plug["name"], plug["threshold"], plug["settle_skip"])
        g_fit = unit_step_values(fitted, 120)
        g_true = unit_step_values(truth[plug["name"]], 120)
        assert np.max(np.abs(g_fit - g_true)) <= 0.05, plug["name"]
