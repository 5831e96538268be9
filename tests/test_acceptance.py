"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail report.
"""

import time

import numpy as np

from disagg import (
    DeviceModel,
    EngineParams,
    PiecewiseInput,
    dc_gain,
    disaggregate,
    fit_arx,
    normalize_dc,
    random_stable_model,
    reference_scenario,
    render,
    simulate_zero_state,
    spectral_radius,
    unit_step_values,
)
from disagg.engine import _fits
from disagg.models import STABILITY_MARGIN
from disagg.rng import SeededStream

from conftest import hold, series
from test_cli import _run_reference_pipeline
from test_engine_beam import _event_key, _oracle_best, _random_instance

TRUTH_EVENTS = [
    (20, 0, "on"), (101, 0, "off"),
    (130, 1, "on"), (180, 2, "on"),
    (250, 3, "on"), (301, 2, "off"),
    (351, 3, "off"), (401, 1, "off"),
]
TRUTH_LEVELS = {0: 1.2, 1: 2.0, 2: 0.6, 3: 1.8}
TRUTH_OFF_TIMES = sorted(k for k, _, kind in TRUTH_EVENTS if kind == "off")


def test_criterion_1_reference_simulation_recovery():
    """Exact event recovery on the benchmark scenario across 20 seeds."""
    n_seeds = 20
    perfect = 0
    offs_exact_everywhere = True
    level_ok = True
    t0 = time.perf_counter()
    for seed in range(n_seeds):
        sc = reference_scenario(seed)
        aggregate, _ = render(sc)
        res = disaggregate(aggregate, list(sc.models))
        got = sorted((e.k, e.device, e.kind) for e in res.events)
        off_times = sorted(e.k for e in res.events if e.kind == "off")
        if off_times != TRUTH_OFF_TIMES:
            offs_exact_everywhere = False
        if got == sorted(TRUTH_EVENTS) and not res.unexplained:
            levels = {e.device: e.level for e in res.events if e.kind == "on"}
            if all(
                abs(levels[d] - lv) <= 0.05 * lv for d, lv in TRUTH_LEVELS.items()
            ):
                perfect += 1
            else:
                level_ok = False
    per_seed = (time.perf_counter() - t0) / n_seeds
    assert perfect >= 18, f"only {perfect}/20 seeds recovered exactly"
    assert offs_exact_everywhere, "an off time was missed or shifted"
    assert level_ok, "a recovered level fell outside the 5% band"
    assert per_seed < 5.0, f"{per_seed:.2f} s per seed"
    print(
        f"criterion 1: PASS - {perfect}/20 seeds exact, off-times exact in all, "
        f"levels within 5%, {per_seed * 1000:.0f} ms/seed"
    )


def test_criterion_2_noiseless_exactness():
    """Single known device, one on/off pair, no noise: exact recovery."""
    checked = 0
    for seed in (0, 1, 2, 3, 4):
        model = random_stable_model(3, seed, instant_off=True)
        level = 1.0 + 0.5 * seed
        u = PiecewiseInput(((25, level), (70, 0.0)))
        y_m = simulate_zero_state(model, hold(u, 0, 120))
        res = disaggregate(y_m, [model])
        assert [(e.k, e.kind) for e in res.events] == [(25, "on"), (70, "off")]
        on = res.events[0]
        assert abs(on.level - level) <= 1e-6
        assert res.residual_rms <= 1e-9
        checked += 1
    print(f"criterion 2: PASS - {checked} devices, exact times, level err <= 1e-6, rms <= 1e-9")


def test_criterion_3_closed_form_fit_beats_grid():
    """Closed-form on-event level vs a 10^4-point grid, 1000 instances."""
    stream = SeededStream(2024)
    rng = np.random.default_rng(2024)
    models = [random_stable_model(3, s) for s in range(200)]
    t0 = time.perf_counter()
    worst_gap = 0.0
    for trial in range(1000):
        model = models[trial % len(models)]
        wlen = 5 + int(stream.uniform() * 35)
        e_vals = rng.normal(scale=1.5, size=wlen)
        g = unit_step_values(model, wlen)
        (level,), (sse,) = _fits(g[None], e_vals, float(g @ g))
        hi = 2.0 * max(abs(level), 1.0)
        grid = np.linspace(0.0, hi, 10_000)
        sse_grid = np.min(
            np.sum((e_vals[None, :] - grid[:, None] * g[None, :]) ** 2, axis=1)
        )
        assert sse <= float(sse_grid) + 1e-9
        worst_gap = max(worst_gap, sse - float(sse_grid))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"{elapsed:.1f} s"
    print(
        f"criterion 3: PASS - 1000 instances, closed form <= grid everywhere "
        f"(max gap {worst_gap:.2e}), {elapsed:.1f} s"
    )


def test_criterion_4_beam_matches_exhaustive_enumeration():
    """Wide beam equals brute-force optimum on 50 two-device instances."""
    params = EngineParams(
        deviation_threshold=0.12,
        lookahead=6,
        backtrack_window=1,
        beam_width=10_000,
    )
    matched = 0
    for seed in range(50):
        y_m, lib = _random_instance(seed)
        best_events, n_leaves = _oracle_best(y_m, lib, params)
        res = disaggregate(y_m, lib, params)
        assert n_leaves < params.beam_width
        assert list(res.events) == sorted(
            best_events, key=_event_key
        ), f"instance {seed} diverged from brute force"
        matched += 1
    assert matched == 50
    print(f"criterion 4: PASS - beam equals exhaustive optimum on {matched}/50 instances")


def test_criterion_5_model_and_arx_invariants():
    """100 random models stable with unit gain; ARX fits recover truth."""
    for seed in range(100):
        m = random_stable_model(3, seed)
        radius = spectral_radius(m.A)
        assert radius < 1.0 - STABILITY_MARGIN, f"seed {seed} unstable ({radius})"
        assert abs(dc_gain(m) - 1.0) <= 1e-9, f"seed {seed} gain off"

    rng = np.random.default_rng(77)
    fits = 0
    for trial in range(20):
        # Stable AR polynomial from two poles inside the unit disk.
        p1, p2 = rng.uniform(-0.9, 0.9, size=2)
        a = (p1 + p2, -p1 * p2)
        b = tuple(rng.uniform(-2.0, 2.0, size=2))
        if abs(b[0]) < 0.1:
            continue
        u = rng.normal(size=400)
        y = np.zeros(400)
        for k in range(400):
            acc = 0.0
            if k >= 1:
                acc += a[0] * y[k - 1] + b[0] * u[k - 1]
            if k >= 2:
                acc += a[1] * y[k - 2] + b[1] * u[k - 2]
            y[k] = acc
        m = fit_arx(series(y), series(u), na=2, nb=2, delay=1)
        np.testing.assert_allclose(m.a, a, atol=1e-8)
        np.testing.assert_allclose(m.b_coef, b, atol=1e-8)
        fits += 1
    assert fits >= 15
    print(
        f"criterion 5: PASS - 100/100 models stable with |gain-1| <= 1e-9, "
        f"{fits} ARX round trips within 1e-8"
    )


def _overdamped(name, **kwargs):
    base = DeviceModel(
        name,
        A=[[0.85, 0.0, 0.0], [0.0, 0.6, 0.0], [0.0, 0.0, 0.3]],
        b=[0.4, 0.5, 0.3],
        c=[0.2, 0.3, 0.5],
    )
    return DeviceModel(
        name, A=base.A, b=base.b / dc_gain(base), c=base.c,
        dc_normalized=True, **kwargs,
    )


def test_criterion_6_max_power_prior_fixes_monitor_confusion():
    """A capped monitor stops absorbing the microwave-scale event."""
    kettle = normalize_dc(DeviceModel("kettle", A=[[0.3]], b=[1.0], c=[1.0]))
    rot = 0.7 * np.array([[np.cos(0.8), np.sin(0.8)], [-np.sin(0.8), np.cos(0.8)]])
    toaster = normalize_dc(DeviceModel("toaster", A=rot, b=[1.0, 0.3], c=[1.0, 0.4]))
    microwave = _overdamped("microwave", instant_off=True)
    monitor_uncapped = _overdamped("monitor")
    monitor_capped = _overdamped("monitor", max_output=10.0)

    event_level = 12.0  # microwave-scale draw; a monitor stays under 10
    y_m = simulate_zero_state(
        microwave, hold(PiecewiseInput(((30, event_level),)), 0, 120)
    )
    params = EngineParams(deviation_threshold=0.1)

    plain = disaggregate(y_m, [kettle, toaster, monitor_uncapped, microwave], params)
    on_plain = [e for e in plain.events if e.kind == "on"]
    assert on_plain, "no event recovered"
    assert on_plain[0].device == 2, "expected the uncapped monitor to win the tie"

    capped = disaggregate(y_m, [kettle, toaster, monitor_capped, microwave], params)
    on_capped = [e for e in capped.events if e.kind == "on"]
    assert [e.device for e in on_capped] == [3], "cap should reroute to the microwave"
    assert on_capped[0].k == 30
    assert abs(on_capped[0].level - event_level) <= 0.05 * event_level
    assert capped.unexplained == ()
    print(
        "criterion 6: PASS - uncapped monitor absorbs the 12-unit event; "
        "max_output=10 reroutes it to the microwave"
    )


def test_criterion_7_pipeline_determinism(tmp_path):
    """Same seed, two runs: byte-identical scenario, result, metrics."""
    r1 = _run_reference_pipeline(tmp_path / "run1", seed=11)
    r2 = _run_reference_pipeline(tmp_path / "run2", seed=11)
    compared = 0
    for a, b in [
        (r1[0] / "scenario.json", r2[0] / "scenario.json"),
        (r1[0] / "library.json", r2[0] / "library.json"),
        (r1[0] / "aggregate.csv", r2[0] / "aggregate.csv"),
        (r1[1] / "result.json", r2[1] / "result.json"),
        (r1[1] / "estimate_total.csv", r2[1] / "estimate_total.csv"),
        (r1[2], r2[2]),
    ]:
        assert a.read_bytes() == b.read_bytes(), f"{a.name} differs between runs"
        compared += 1
    print(f"criterion 7: PASS - {compared} artifacts byte-identical across runs")
