import functools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from disagg import (
    DeviceModel,
    EngineParams,
    SignalSeries,
    SwitchEvent,
    UnstableModelError,
    ValidationError,
    disaggregate,
    estimate_noise_std,
    random_stable_model,
    reference_scenario,
    render,
    resolve_threshold,
    simulate_zero_state,
    unit_step_values,
)
import disagg.engine as engine_module
from disagg.engine import _Engine, _Hypothesis, _project
from disagg.series import PiecewiseInput
from conftest import series
from test_engine_beam import _event_key, _random_instance

# The long-signal test runs the benchmark's own tiled workload generator.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from inputs import tiled_reference_scenario  # noqa: E402


PARAMS = EngineParams(deviation_threshold=0.1, persistence=2, lookahead=4,
                      backtrack_window=2)


def _hypothesis(engine, levels=(), since=()):
    """A hand-set hypothesis: device i is on at levels[i] > 0 since since[i] (or 0)."""
    hyp = _Hypothesis(engine.models, engine.T, engine.start)
    for i, lv in enumerate(levels):
        if lv > 0:
            hyp.levels[i] = lv
            hyp.last_event_k[i] = since[i] if since else 0
    return hyp


# ----------------------------------------------------------- change detection

def _detect(values, k):
    """Detection at k against a zero prediction; padded to the engine's minimum length."""
    y = np.zeros(10)
    y[: len(values)] = values
    engine = _Engine(series(y), [DeviceModel("m", A=[[0.5]], b=[0.5], c=[1.0])], PARAMS)
    found = engine._scan(_hypothesis(engine), k)
    return (found.kind, found.ks) if found is not None and found.p == k else None


def test_detect_none_within_threshold():
    assert _detect([0.01, -0.02, 0.01], 2) is None


def test_detect_increase_at_run_start():
    assert _detect([0.01, 0.5, 0.6], 2) == ("increase", 1)


def test_detect_decrease_sign():
    assert _detect([-0.5, -0.6], 1) == ("decrease", 0)


def test_detect_requires_full_persistence_run():
    values = [0.0, 0.5, 0.05, 0.5]
    assert _detect(values, 2) is None  # run broken at k=2
    assert _detect(values, 3) is None  # only one violator


def _step_detect(y, y_hat, thr, pers, suppressed, p0):
    """The per-sample detection rule stepped from p0: (p, kind, ks) or None."""
    for p in range(p0, len(y)):
        if abs(y[p] - y_hat[p]) <= thr:
            suppressed = False
            continue
        if suppressed or p - pers + 1 < 0:
            continue
        if any(abs(y[j] - y_hat[j]) <= thr for j in range(p - pers + 1, p)):
            continue
        ks = p - pers + 1
        while ks > 0 and abs(y[ks - 1] - y_hat[ks - 1]) > thr:
            ks -= 1
        return (p, "increase" if y[ks] - y_hat[ks] > 0 else "decrease", ks)
    return None


def test_scan_matches_the_per_sample_rule_property(lag_model):
    # The scan jumps to the next detection over a lazily summed prediction;
    # stepping the rule sample by sample over the full prediction must
    # give the same time, kind and run start.  Runs are long enough to
    # cross scan chunks, and the prediction changes at an event position
    # that runs may straddle.
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    runs = st.lists(
        st.tuples(st.sampled_from([-1.0, -0.2, -0.05, 0.0, 0.05, 0.2, 1.0]),
                  st.integers(1, 90)),
        min_size=1, max_size=8,
    )

    @settings(max_examples=300, deadline=None)
    @given(
        runs=runs,
        pers=st.integers(1, 4),
        suppressed=st.booleans(),
        event=st.none() | st.tuples(st.floats(0.0, 1.0), st.sampled_from([0.2, 1.0, 2.0])),
        start=st.floats(0.0, 1.0),
        chunk=st.sampled_from([1, 3, engine_module.SCAN_CHUNK]),
    )
    # A run that begins before the event's position and is still
    # violating after it; a run from sample 0, shorter than persistence
    # at first; a run cut short by the end of the signal.
    @example(runs=[(0.0, 5), (1.0, 100)], pers=2, suppressed=False,
             event=(0.5, 0.2), start=0.8, chunk=3)
    @example(runs=[(1.0, 6), (0.0, 4)], pers=4, suppressed=False,
             event=None, start=0.0, chunk=1)
    @example(runs=[(0.0, 20), (-1.0, 3)], pers=4, suppressed=True,
             event=None, start=0.5, chunk=3)
    def check(runs, pers, suppressed, event, start, chunk):
        y = np.repeat([v for v, _ in runs], [n for _, n in runs]) + 0.01
        y = np.concatenate([y, np.zeros(max(0, 3 - len(y)))])
        T = len(y)
        params = EngineParams(deviation_threshold=0.1, persistence=pers,
                              lookahead=1, backtrack_window=1)
        engine = _Engine(series(y), [lag_model], params)
        hyp = _hypothesis(engine)
        y_hat = np.zeros(T)
        if event is not None:
            pos = int(event[0] * (T - 1))
            engine._apply(hyp, SwitchEvent(pos, 0, "on", event[1]))
            u = PiecewiseInput(((pos, event[1]),)).expand(0, T)
            y_hat = simulate_zero_state(lag_model, u).values
        hyp.suppressed = suppressed
        p0 = int(start * T)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine_module, "SCAN_CHUNK", chunk)
            found = engine._scan(hyp, p0)
        assert found == _step_detect(y, y_hat, 0.1, pers, suppressed, p0)

    check()


# -------------------------------------------------------------- on-event fit

def _fit(values, model):
    """The engine's fit of values against model's step response from sample 0."""
    e = np.asarray(values, dtype=float)
    g = unit_step_values(model, len(e))
    return _project(g, e, float(g @ g))


def test_fit_self_exact(lag_model):
    level, sse = _fit([0.0, 1.0, 1.5, 1.75], lag_model)
    assert level == pytest.approx(2.0, abs=1e-12)
    assert sse == pytest.approx(0.0, abs=1e-24)


def test_fit_unit_delay_closed_form(delay_model):
    level, sse = _fit([0.0, 1.0, 1.5, 1.75], delay_model)
    assert level == pytest.approx(4.25 / 3)
    assert sse > 0


def test_fit_zero_deviation(lag_model):
    level, sse = _fit(np.zeros(6), lag_model)
    assert level == 0.0
    assert sse == 0.0


def test_fit_degenerate_template_rejected(lag_model):
    m = DeviceModel("late", A=[[0.0, 1.0], [0.0, 0.0]], b=[0.0, 1.0], c=[1.0, 0.0])
    # Two-sample delay: the first two step samples are zero, so a 2-sample
    # window (lookahead 1, no backtrack) has nothing to fit.
    params = EngineParams(deviation_threshold=0.1, lookahead=1, backtrack_window=0)
    y = series([1.0, 1.0], start=3)
    assert _Engine(y, [m], params)._on_candidates(_Hypothesis([m], 2, 3), 0) == []
    # The same window does fit a device whose step response is nonzero there.
    assert len(_Engine(y, [lag_model], params)._on_candidates(
        _Hypothesis([lag_model], 2, 3), 0)) == 1


def test_fit_rejects_unstable_model():
    # An unstable model cannot be built, so it never reaches the fit.
    with pytest.raises(UnstableModelError, match="model 'bad'"):
        DeviceModel("bad", A=[[1.1]], b=[1.0], c=[1.0])


def test_fit_beats_grid_search():
    # Closed form must beat a fine grid of candidate levels.
    rng = np.random.default_rng(11)
    for trial in range(50):
        model = random_stable_model(3, trial)
        wlen = int(rng.integers(5, 40))
        e_vals = rng.normal(scale=2.0, size=wlen)
        level, sse = _fit(e_vals, model)
        g = unit_step_values(model, wlen)
        grid = np.linspace(0.0, 2.0 * max(abs(level), 1.0), 2000)
        sse_grid = np.sum((e_vals[None, :] - grid[:, None] * g[None, :]) ** 2, axis=1)
        assert sse <= float(np.min(sse_grid)) + 1e-9


# --------------------------------------------------------- candidate selection

def _select(y_m, k_star, library, params, levels=(), since=()):
    """Best on-event candidate at k_star against a zero prediction, or None."""
    engine = _Engine(y_m, library, params)
    hyp = _hypothesis(engine, levels, since)
    cands = engine._on_candidates(hyp, k_star - engine.start)
    return cands[0] if cands else None


def test_select_single_device_exact(lag_model):
    level, k0 = 2.0, 10
    y_m = simulate_zero_state(
        lag_model, PiecewiseInput(((k0, level),)).expand(0, 30)
    )
    params = EngineParams(deviation_threshold=0.05, lookahead=6, backtrack_window=3)
    cand = _select(y_m, k0 + 1, [lag_model], params)
    assert cand is not None
    assert cand.device == 0
    assert cand.k_prime == k0
    assert cand.level == pytest.approx(level, abs=1e-9)


def test_select_identical_models_lower_index_wins(lag_model):
    twin = DeviceModel("twin", A=[[0.5]], b=[0.5], c=[1.0])
    y_m = simulate_zero_state(
        lag_model, PiecewiseInput(((5, 2.0),)).expand(0, 25)
    )
    params = EngineParams(deviation_threshold=0.05, lookahead=6, backtrack_window=3)
    cand = _select(y_m, 6, [twin, lag_model], params)
    assert cand.device == 0


def test_select_max_output_prior_rejects_capped_model():
    dynamics = dict(A=[[0.6]], b=[0.4], c=[1.0])
    monitor = DeviceModel("monitor", max_output=10.0, **dynamics)
    microwave = DeviceModel("microwave", **dynamics)
    y_m = simulate_zero_state(
        microwave, PiecewiseInput(((5, 12.0),)).expand(0, 25)
    )
    params = EngineParams(deviation_threshold=0.05, lookahead=6, backtrack_window=3)
    cand = _select(y_m, 6, [monitor, microwave], params)
    assert cand.device == 1  # monitor would win the tie but is capped


def test_select_respects_max_input():
    m = DeviceModel("small", A=[[0.5]], b=[0.5], c=[1.0], max_input=1.0)
    y_m = simulate_zero_state(m, PiecewiseInput(((5, 3.0),)).expand(0, 25))
    params = EngineParams(deviation_threshold=0.05, lookahead=6, backtrack_window=3)
    assert _select(y_m, 6, [m], params) is None


def test_select_min_level_filter(lag_model):
    y_m = simulate_zero_state(lag_model, PiecewiseInput(((5, 2.0),)).expand(0, 25))
    params = EngineParams(
        deviation_threshold=0.05, lookahead=6, backtrack_window=3, min_level=5.0
    )
    assert _select(y_m, 6, [lag_model], params) is None


def test_select_skips_on_devices(lag_model):
    y_m = simulate_zero_state(lag_model, PiecewiseInput(((5, 2.0),)).expand(0, 25))
    params = EngineParams(deviation_threshold=0.05, lookahead=6, backtrack_window=3)
    assert _select(y_m, 6, [lag_model], params, levels=[2.0], since=[5]) is None


# ------------------------------------------------------------ off attribution

def _attribute(levels, drop, k_star, since=(), params=PARAMS):
    """Device picked for a drop of `drop` at k_star, unit-gain devices at `levels`."""
    lib = [DeviceModel(f"d{i}", A=[[0.5]], b=[0.5], c=[1.0]) for i in range(len(levels))]
    engine = _Engine(series(np.zeros(k_star + 10)), lib, params)
    hyp = _hypothesis(engine, levels, since)
    hyp.y_hat[k_star] = drop  # the measurement is zero, so y - y_hat = -drop
    return engine._off_device(hyp, k_star, k_star)


def test_attribute_nearest_contribution():
    assert _attribute([1.2, 2.0], 1.25, 50) == 0


def test_attribute_single_on_device():
    assert _attribute([0.0, 2.0], 0.1, 50) == 1


def test_attribute_tie_breaks_to_lower_index():
    assert _attribute([1.0, 1.0], 1.0, 50) == 0


def test_attribute_none_when_all_off():
    assert _attribute([0.0, 0.0], 1.0, 50) is None


def test_attribute_prefers_devices_past_min_duration():
    params = replace(PARAMS, min_on_duration=3)
    # Drop of 1.0 matches device 0 better, but device 0 is too young
    # (on since 49 against device 1's 0).
    assert _attribute([1.0, 3.0], 1.0, 50, since=[49, 0], params=params) == 1


def test_attribute_never_rewinds_past_the_device_own_switch():
    # Device 0 matches the drop best but switched on at 50 or later; an
    # off at 50 would precede or collide with its own on.
    params = replace(PARAMS, min_on_duration=0)
    assert _attribute([1.0, 3.0], 1.0, 50, since=[50, 0], params=params) == 1
    assert _attribute([1.0, 0.0], 1.0, 50, since=[52], params=params) is None


# ------------------------------------------------------------- full pipeline

def test_disaggregate_zero_signal_empty_log(lag_model):
    res = disaggregate(series(np.zeros(60)), [lag_model])
    assert res.events == ()
    np.testing.assert_array_equal(res.estimated_total.values, np.zeros(60))
    assert res.residual_rms == 0.0


def test_disaggregate_noiseless_single_device_exact(lag_model_instant):
    u = PiecewiseInput(((12, 2.0), (40, 0.0)))
    y_m = simulate_zero_state(lag_model_instant, u.expand(0, 70))
    res = disaggregate(y_m, [lag_model_instant])
    assert [(e.k, e.kind) for e in res.events] == [(12, "on"), (40, "off")]
    on = res.events[0]
    assert abs(on.level - 2.0) <= 1e-6
    assert res.residual_rms <= 1e-9


def test_disaggregate_reference_scenario_exact_recovery():
    sc = reference_scenario(0)
    aggregate, _ = render(sc)
    res = disaggregate(aggregate, list(sc.models))
    got = [(e.k, e.device, e.kind) for e in res.events]
    assert got == [
        (20, 0, "on"), (101, 0, "off"),
        (130, 1, "on"), (180, 2, "on"),
        (250, 3, "on"), (301, 2, "off"),
        (351, 3, "off"), (401, 1, "off"),
    ]
    levels = {e.device: e.level for e in res.events if e.kind == "on"}
    for dev, truth in ((0, 1.2), (1, 2.0), (2, 0.6), (3, 1.8)):
        assert abs(levels[dev] - truth) <= 0.05 * truth
    assert res.unexplained == ()


def _assert_resimulation_matches(res, y_m, library):
    """The result against an independent simulation of its own event log."""
    T = len(y_m)
    schedules = [[] for _ in library]
    for e in res.events:
        schedules[e.device].append((e.k, e.level))
    total = np.zeros(T)
    for model, schedule, out in zip(library, schedules, res.estimated_outputs):
        # PiecewiseInput rejects out-of-order times, repeated and negative levels.
        u = PiecewiseInput(tuple(schedule)).expand(
            y_m.start_index, T, y_m.sample_period
        )
        resim = simulate_zero_state(model, u)
        assert out == resim
        assert out.values.tobytes() == resim.values.tobytes()
        total = total + resim.values
    # The total is the device-order sum of the outputs, bit for bit.
    assert res.estimated_total.values.tobytes() == total.tobytes()
    assert res.estimated_total.start_index == y_m.start_index
    assert res.estimated_total.sample_period == y_m.sample_period
    assert res.residual_rms == float(np.sqrt(np.mean((y_m.values - total) ** 2)))
    # One event per time step.
    times = [e.k for e in res.events]
    assert len(set(times)) == len(times)


def test_engine_prediction_equals_simulated_estimate():
    # The engine reports its own predictions; they must equal what
    # simulate_zero_state makes of the logged events.
    cases = []
    for seed in range(10):
        sc = reference_scenario(seed)
        cases.append((render(sc)[0], list(sc.models), EngineParams()))
    # Without instant-off, an off event subtracts the device's decay.
    sc = reference_scenario(3)
    decaying = [replace(m, instant_off=False) for m in sc.models]
    decaying_case = (render(replace(sc, models=tuple(decaying)))[0], decaying)
    cases.append((*decaying_case, EngineParams()))
    small = EngineParams(deviation_threshold=0.12, lookahead=6, backtrack_window=1)
    for seed in range(50):
        cases.append((*_random_instance(seed), small))
    for y_m, library, params in cases:
        for width in (1, 8):
            res = disaggregate(y_m, library, replace(params, beam_width=width))
            _assert_resimulation_matches(res, y_m, library)
    # The decaying case logged off events of decaying devices.
    res = disaggregate(*decaying_case)
    assert any(e.kind == "off" for e in res.events)


def test_greedy_recovers_every_event_on_a_long_signal():
    sc = tiled_reference_scenario(0, 64)
    aggregate, _ = render(sc)
    assert len(aggregate) == 28_800
    res = disaggregate(aggregate, list(sc.models))
    truth = sorted(
        (k, dev, "on" if level else "off")
        for dev, inp in enumerate(sc.inputs)
        for k, level in inp.events
    )
    assert len(truth) == 512
    assert sorted((e.k, e.device, e.kind) for e in res.events) == truth
    assert res.unexplained == ()


def test_switch_events_order_by_their_fields():
    # The beam's rank key compares event lists directly, so SwitchEvent
    # order must be the order of its (k, device, kind, level) tuple.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    events = st.lists(
        st.builds(
            SwitchEvent,
            k=st.integers(0, 4),
            device=st.integers(0, 2),
            kind=st.sampled_from(["on", "off"]),
            level=st.sampled_from([0.0, 0.5, 1.0, 2.5]),
        ),
        max_size=6,
    )

    @settings(max_examples=200, deadline=None)
    @given(a=events, b=events)
    def check(a, b):
        assert sorted(a) == sorted(a, key=_event_key)
        ta = [_event_key(e) for e in a]
        tb = [_event_key(e) for e in b]
        assert (a < b) == (ta < tb)
        assert (a <= b) == (ta <= tb)
        assert (a == b) == (ta == tb)

    check()


@functools.lru_cache(maxsize=None)
def _reference_case(seed):
    sc = reference_scenario(seed)
    return render(sc)[0], list(sc.models)


def test_events_shift_with_start_index_property():
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 39),
        width=st.sampled_from([1, 8]),
        start=st.integers(1, 10**7),
    )
    # Seed 126 at width 8 logs one-sample on/off pairs, so the rewind and
    # min_on_duration checks on absolute times take part.
    @example(seed=126, width=8, start=1_000)
    def check(seed, width, start):
        y_m, library = _reference_case(seed)
        params = EngineParams(beam_width=width)
        base = disaggregate(y_m, library, params)
        shifted = disaggregate(
            SignalSeries(y_m.values, y_m.sample_period, start), library, params
        )
        assert shifted.events == tuple(replace(e, k=e.k + start) for e in base.events)
        assert shifted.unexplained == tuple(
            replace(u, k=u.k + start) for u in base.unexplained
        )
        for a, b in zip(base.estimated_outputs, shifted.estimated_outputs):
            assert a.values.tobytes() == b.values.tobytes()
            assert b.start_index == start
        assert (
            base.estimated_total.values.tobytes()
            == shifted.estimated_total.values.tobytes()
        )
        assert base.residual_rms == shifted.residual_rms

    check()


def test_permuting_the_library_relabels_events_property():
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 39),
        width=st.sampled_from([1, 8]),
        perm=st.permutations(range(5)),
    )
    @example(seed=126, width=8, perm=(4, 3, 2, 1, 0))
    def check(seed, width, perm):
        y_m, library = _reference_case(seed)
        params = EngineParams(beam_width=width)
        results = [
            disaggregate(y_m, lib, params)
            for lib in (library, [library[i] for i in perm])
        ]
        base, permuted = (
            {(e.k, r.device_names[e.device], e.kind): e.level for e in r.events}
            for r in results
        )
        assert permuted.keys() == base.keys()
        for key, level in base.items():
            assert permuted[key] == pytest.approx(level, rel=1e-9, abs=0)

    check()


def test_disaggregate_with_absolute_start_index(lag_model_instant):
    # Signals resampled from timestamped recordings carry large absolute
    # start indices; events must come back in the same index space.
    u = PiecewiseInput(((1012, 2.0), (1040, 0.0)))
    y_m = simulate_zero_state(lag_model_instant, u.expand(1000, 70, 1 / 12))
    res = disaggregate(y_m, [lag_model_instant])
    assert [(e.k, e.kind) for e in res.events] == [(1012, "on"), (1040, "off")]
    assert res.estimated_total.start_index == 1000
    assert res.estimated_total.sample_period == 1 / 12
    assert res.residual_rms <= 1e-9
    _assert_resimulation_matches(res, y_m, [lag_model_instant])


def test_disaggregate_unexplained_increase_not_fatal():
    m = DeviceModel("tiny", A=[[0.5]], b=[0.5], c=[1.0], max_input=1.0)
    y_m = series(np.concatenate([np.zeros(10), np.full(30, 50.0)]))
    res = disaggregate(y_m, [m], EngineParams(deviation_threshold=0.5))
    assert res.events == ()
    assert len(res.unexplained) == 1
    assert res.unexplained[0].kind == "increase"


def test_disaggregate_unexplained_decrease_not_fatal():
    m = DeviceModel("d", A=[[0.5]], b=[0.5], c=[1.0])
    y_m = series(np.concatenate([np.zeros(10), np.full(30, -5.0)]))
    res = disaggregate(y_m, [m], EngineParams(deviation_threshold=0.5))
    assert res.events == ()
    assert res.unexplained[0].kind == "decrease"


def test_disaggregate_threshold_monotone_event_count():
    sc = reference_scenario(0)
    aggregate, _ = render(sc)
    lib = list(sc.models)
    counts = []
    for thr in (0.05, 0.1, 0.3, 0.8, 1.5, 3.0):
        res = disaggregate(aggregate, lib, EngineParams(deviation_threshold=thr))
        counts.append(len(res.events))
    assert counts == sorted(counts, reverse=True)


def test_disaggregate_length_precondition(lag_model):
    with pytest.raises(ValidationError):
        disaggregate(series(np.zeros(10)), [lag_model], EngineParams(lookahead=15))


def test_disaggregate_rejects_non_finite_sample_with_index(lag_model):
    for bad in (np.nan, np.inf, -np.inf):
        y = np.zeros(300)
        y[200] = bad
        with pytest.raises(ValidationError, match=r"non-finite sample at k=1200$"):
            disaggregate(series(y, start=1000), [lag_model])


def test_disaggregate_rejects_unstable_library(lag_model, monkeypatch):
    def no_step_response(models, length):
        raise AssertionError(f"step responses of {[m.name for m in models]} built")

    # The library is checked before any step response is built: an
    # unstable model fails at construction.
    monkeypatch.setattr(engine_module, "_unit_step_rows", no_step_response)
    with pytest.raises(UnstableModelError, match="model 'bad'"):
        disaggregate(
            series(np.zeros(60)),
            [lag_model, DeviceModel("bad", A=[[1.1]], b=[1.0], c=[1.0])],
        )


def test_engine_step_rows_equal_unit_step_values(lag_model):
    # Orders 3 (five reference devices), 1 and 2 in one library.
    models = [*reference_scenario(0).models, lag_model, random_stable_model(2, 7)]
    engine = _Engine(series(np.zeros(500)), models, PARAMS)
    assert len(engine.g) == len(models)
    for m, g in zip(models, engine.g):
        assert g.tobytes() == unit_step_values(m, engine.T).tobytes(), m.name


# ----------------------------------------------------------------- utilities

def test_estimate_noise_std_recovers_sigma():
    rng = np.random.default_rng(0)
    clean = np.concatenate([np.zeros(200), np.full(200, 5.0), np.zeros(100)])
    noisy = clean + rng.normal(scale=0.02, size=clean.size)
    est = estimate_noise_std(series(noisy))
    assert abs(est - 0.02) < 0.005


def test_resolve_threshold_default_five_sigma():
    rng = np.random.default_rng(1)
    y = series(rng.normal(scale=0.1, size=500))
    thr = resolve_threshold(y, EngineParams())
    assert 0.3 < thr < 0.7


def test_resolve_threshold_floor_for_noiseless():
    y = series(np.zeros(50))
    thr = resolve_threshold(y, EngineParams())
    assert 0 < thr <= 1e-9


def test_engine_params_validation():
    with pytest.raises(ValidationError):
        EngineParams(persistence=0)
    with pytest.raises(ValidationError):
        EngineParams(lookahead=0)
    with pytest.raises(ValidationError):
        EngineParams(beam_width=0)
    with pytest.raises(ValidationError):
        EngineParams(deviation_threshold=-1.0)
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(ValidationError, match="min_level must be finite and >= 0"):
            EngineParams(min_level=bad)
