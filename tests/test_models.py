import numpy as np
import pytest
from dataclasses import replace

from disagg import (
    DeviceModel,
    SignalSeries,
    UnstableModelError,
    ValidationError,
    dc_gain,
    load_library,
    normalize_dc,
    random_stable_model,
    save_library,
    simulate_zero_state,
    spectral_radius,
    unit_step_values,
)
from disagg.models import (
    SETTLE_SPAN, STABILITY_MARGIN, STEP_HEAD, _add_switch, _unit_step_rows,
)
from conftest import series


def test_simulate_hand_iterated(lag_model):
    y = simulate_zero_state(lag_model, series([2, 2, 2, 2]))
    np.testing.assert_allclose(y.values, [0.0, 1.0, 1.5, 1.75])


def test_simulate_zero_input_zero_output(lag_model):
    y = simulate_zero_state(lag_model, series(np.zeros(10)))
    np.testing.assert_array_equal(y.values, np.zeros(10))


def test_simulate_instant_off_resets_state(lag_model_instant):
    y = simulate_zero_state(lag_model_instant, series([2, 2, 0, 0]))
    np.testing.assert_allclose(y.values, [0.0, 1.0, 0.0, 0.0])


def test_simulate_rejects_non_finite_with_index(lag_model):
    with pytest.raises(ValidationError, match="k=7"):
        simulate_zero_state(lag_model, series([0, 0, 0, 1, 1, 1, 1, np.nan], start=0))


def test_simulate_keeps_grid_metadata(lag_model):
    y = simulate_zero_state(lag_model, series([1, 1], start=5, period=1 / 12))
    assert y.start_index == 5
    assert y.sample_period == 1 / 12


def test_simulate_feedthrough_term():
    m = DeviceModel("ft", A=[[0.0]], b=[0.0], c=[0.0], d=2.0)
    y = simulate_zero_state(m, series([1, 3]))
    np.testing.assert_allclose(y.values, [2.0, 6.0])


def test_dc_gain_first_order(lag_model):
    assert dc_gain(lag_model) == pytest.approx(1.0, abs=1e-12)


def test_dc_gain_unit_delay(delay_model):
    assert dc_gain(delay_model) == pytest.approx(1.0, abs=1e-12)


def test_dc_gain_two():
    m = DeviceModel("g2", A=[[0.9]], b=[0.2], c=[1.0])
    assert dc_gain(m) == pytest.approx(2.0, abs=1e-12)


def test_dc_gain_unstable_reports_radius():
    # An unstable model fails at construction, before dc_gain can run.
    with pytest.raises(UnstableModelError, match="1.5"):
        dc_gain(DeviceModel("bad", A=[[1.5]], b=[1.0], c=[1.0]))


def test_normalize_scales_b():
    m = DeviceModel("g2", A=[[0.9]], b=[0.2], c=[1.0])
    n = normalize_dc(m)
    np.testing.assert_allclose(n.b, [0.1])
    assert abs(dc_gain(n) - 1.0) <= 1e-9
    assert n.dc_normalized


def test_normalize_idempotent_and_preserves_A_c():
    m = DeviceModel(
        "m3", A=[[0.5, 0.1, 0.0], [0.0, 0.3, 0.2], [0.1, 0.0, 0.4]],
        b=[1.0, -0.5, 2.0], c=[0.3, 1.1, -0.2], d=0.25,
    )
    n1 = normalize_dc(m)
    n2 = normalize_dc(n1)
    np.testing.assert_array_equal(n1.A, m.A)
    np.testing.assert_array_equal(n1.c, m.c)
    np.testing.assert_allclose(n2.b, n1.b, rtol=1e-12)
    np.testing.assert_allclose(n2.d, n1.d, rtol=1e-12)


def test_normalize_gain_two_halves_b():
    m = DeviceModel("h", A=[[0.5]], b=[1.0], c=[1.0])
    assert dc_gain(m) == pytest.approx(2.0)
    np.testing.assert_allclose(normalize_dc(m).b, [0.5])


def test_normalize_rejects_zero_gain():
    m = DeviceModel("z", A=[[0.5]], b=[1.0], c=[0.0])
    with pytest.raises(ValidationError):
        normalize_dc(m)


def test_constant_input_response_hand_iterated(lag_model):
    y = simulate_zero_state(lag_model, SignalSeries(np.full(4, 1.0)))
    np.testing.assert_allclose(y.values, [0.0, 0.5, 0.75, 0.875])


def test_constant_input_response_settles_to_level():
    for seed in range(5):
        m = random_stable_model(3, seed)
        level = 2.5
        y = simulate_zero_state(m, SignalSeries(np.full(400, level)))
        assert abs(y.values[-1] - level) <= 0.01 * abs(level)


def test_constant_input_response_zero_level(lag_model):
    y = simulate_zero_state(lag_model, SignalSeries(np.full(5, 0.0)))
    np.testing.assert_array_equal(y.values, np.zeros(5))


def test_stable_scalar_constructs(lag_model):
    radius = spectral_radius(lag_model.A)
    assert radius < 1.0 - STABILITY_MARGIN
    assert radius == pytest.approx(0.5)


def test_construction_rejects_marginal():
    with pytest.raises(UnstableModelError, match="model 'marg'") as info:
        DeviceModel("marg", A=[[1.0]], b=[1.0], c=[1.0])
    assert info.value.spectral_radius == pytest.approx(1.0)


def test_stable_companion_double_pole_constructs():
    m = DeviceModel("comp", A=[[0.0, 1.0], [-0.25, 1.0]], b=[0.0, 1.0], c=[1.0, 0.0])
    radius = spectral_radius(m.A)
    assert radius < 1.0 - STABILITY_MARGIN
    assert radius == pytest.approx(0.5, abs=1e-9)


def test_unstable_error_prints_exact_radius_and_bound():
    radius = 1.0 - 5e-10
    with pytest.raises(UnstableModelError) as info:
        DeviceModel("edge", A=[[radius]], b=[1.0], c=[1.0])
    assert info.value.spectral_radius == radius
    assert str(info.value) == (
        f"unstable model 'edge': spectral radius {radius!r} >= 1 - 1e-09"
    )


def test_random_model_deterministic_in_seed():
    a = random_stable_model(3, 7, True)
    b = random_stable_model(3, 7, True)
    assert a == b
    np.testing.assert_array_equal(a.A, b.A)
    np.testing.assert_array_equal(a.b, b.b)


def test_random_model_stable_unit_gain():
    m = random_stable_model(3, 7)
    assert spectral_radius(m.A) < 1.0 - STABILITY_MARGIN
    assert abs(dc_gain(m) - 1.0) <= 1e-9


def test_random_model_sweep_stable_unit_gain():
    for seed in range(100):
        m = random_stable_model(3, seed)
        assert spectral_radius(m.A) < 1.0 - STABILITY_MARGIN
        assert abs(dc_gain(m) - 1.0) <= 1e-9


def test_random_model_orders():
    for order in (1, 2, 4):
        m = random_stable_model(order, 11)
        assert m.order == order
        assert spectral_radius(m.A) < 1.0 - STABILITY_MARGIN


def test_random_model_unit_step_nonnegative():
    for seed in range(30):
        g = unit_step_values(random_stable_model(3, seed), 200)
        assert np.min(g) >= 0.0


def test_linearity_in_input():
    rng = np.random.default_rng(0)
    for seed in range(5):
        m = random_stable_model(3, seed)
        u = rng.normal(size=50)
        y1 = simulate_zero_state(m, series(3.0 * u))
        y2 = simulate_zero_state(m, series(u))
        np.testing.assert_allclose(y1.values, 3.0 * y2.values, rtol=1e-9, atol=1e-12)


def _simulate_joint(models, inputs):
    """Independent oracle: one joint recursion over the stacked state."""
    T = len(inputs[0])
    xs = [np.zeros(m.order) for m in models]
    y = np.zeros(T)
    for k in range(T):
        total = 0.0
        for m, x, u in zip(models, xs, inputs):
            total += float(m.c @ x + m.d * u[k])
        y[k] = total
        xs = [m.A @ x + m.b * u[k] for m, x, u in zip(models, xs, inputs)]
    return y


def test_superposition_matches_joint_simulation():
    rng = np.random.default_rng(1)
    models = [random_stable_model(3, s) for s in (0, 1, 2)]
    inputs = [rng.normal(size=60) for _ in models]
    summed = sum(
        simulate_zero_state(m, series(u)).values for m, u in zip(models, inputs)
    )
    joint = _simulate_joint(models, inputs)
    np.testing.assert_allclose(summed, joint, rtol=1e-9, atol=1e-12)


def test_step_convergence_geometric_rate():
    # Unit-gain models with known pole structure; the tail error envelope
    # must shrink at least as fast as the spectral radius allows.
    cases = [
        DeviceModel("p1", A=[[0.5]], b=[0.5], c=[1.0]),
        DeviceModel("p2", A=[[0.9]], b=[0.1], c=[1.0]),
        normalize_dc(DeviceModel(
            "cplx",
            A=[[0.8 * np.cos(0.7), 0.8 * np.sin(0.7)],
               [-0.8 * np.sin(0.7), 0.8 * np.cos(0.7)]],
            b=[1.0, 0.5], c=[0.7, -0.3],
        )),
    ]
    for m in cases:
        rho = spectral_radius(m.A) + 1e-6
        y = simulate_zero_state(m, SignalSeries(np.full(220, 1.0)))
        err = np.abs(y.values - 1.0)
        w1 = float(np.max(err[20:80]))
        w2 = float(np.max(err[100:160]))
        assert w2 <= max(w1 * rho**80 * 5.0, 1e-13)


def test_instant_off_output_zero_on_every_off_interval():
    m = random_stable_model(3, 4, instant_off=True)
    u_vals = np.concatenate([
        np.zeros(5), np.full(20, 2.0), np.zeros(15), np.full(10, 1.0), np.zeros(8),
    ])
    y = simulate_zero_state(m, series(u_vals))
    off = u_vals == 0.0
    np.testing.assert_array_equal(y.values[off], np.zeros(int(off.sum())))


def test_model_shape_validation():
    with pytest.raises(ValidationError):
        DeviceModel("bad", A=[[0.5, 0.1]], b=[1.0], c=[1.0])
    with pytest.raises(ValidationError):
        DeviceModel("bad", A=[[0.5]], b=[1.0, 2.0], c=[1.0])
    with pytest.raises(ValidationError):
        DeviceModel("bad", A=[[0.5]], b=[1.0], c=[1.0], max_input=-1.0)


@pytest.mark.parametrize("cap", ["max_input", "max_output"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_caps_must_be_finite_and_positive(cap, value):
    with pytest.raises(ValidationError, match=f"{cap} must be finite and > 0 when given"):
        DeviceModel("bad", A=[[0.5]], b=[1.0], c=[1.0], **{cap: value})


def test_dc_normalized_flag_checked():
    with pytest.raises(ValidationError):
        DeviceModel("bad", A=[[0.9]], b=[0.2], c=[1.0], dc_normalized=True)


def test_library_round_trip(tmp_path):
    models = [
        random_stable_model(3, 1, True),
        DeviceModel("cap", A=[[0.5]], b=[0.5], c=[1.0], max_input=4.0, max_output=10.0),
    ]
    path = tmp_path / "lib.json"
    save_library(models, path)
    loaded = load_library(path)
    assert loaded == models


def test_library_rejects_unstable_entry(tmp_path):
    path = tmp_path / "lib.json"
    entry = {
        "name": "bad", "order": 1, "A": [1.2], "b": [1.0], "c": [1.0], "d": 0.0,
        "instant_off": False, "max_input": None, "max_output": None,
        "dc_normalized": False,
    }
    path.write_text(f"[{__import__('json').dumps(entry)}]")
    with pytest.raises(UnstableModelError):
        load_library(path)


def test_construction_succeeds_iff_radius_below_margin(tmp_path):
    # Random 1-3 order A rescaled to a drawn radius, with radii packed
    # around 1 - STABILITY_MARGIN: a model constructs exactly when its
    # spectral radius is below the bound, and every model that
    # constructs round-trips through a library file unchanged.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    bound = 1.0 - STABILITY_MARGIN
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    radii = st.floats(0.0, 1.2) | st.sampled_from(
        [bound - 1e-12, bound, bound + 1e-12, 1.0 - 5e-10, 1.0, 1.0 + 1e-9]
    )

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), order=st.integers(1, 3), radius=radii)
    def check(data, order, radius):
        A = np.array(data.draw(st.lists(entries, min_size=order**2, max_size=order**2)))
        A = A.reshape(order, order)
        # A subnormal radius overflows the rescale; such a matrix keeps
        # its own (tiny) radius and is checked as drawn.
        rho = spectral_radius(A)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            scaled = A * (radius / rho) if rho > 0.0 else A
        if np.all(np.isfinite(scaled)):
            A = scaled
        b = data.draw(st.lists(entries, min_size=order, max_size=order))
        c = data.draw(st.lists(entries, min_size=order, max_size=order))
        if spectral_radius(A) >= bound:
            with pytest.raises(UnstableModelError, match="model 'p'"):
                DeviceModel("p", A=A, b=b, c=c)
            return
        model = DeviceModel("p", A=A, b=b, c=c, d=0.25)
        path = tmp_path / "lib.json"
        save_library([model], path)
        assert load_library(path) == [model]

    check()


def test_library_rejects_duplicate_names(tmp_path):
    m = DeviceModel("dup", A=[[0.5]], b=[0.5], c=[1.0])
    path = tmp_path / "lib.json"
    save_library([m, m], path)
    with pytest.raises(ValidationError):
        load_library(path)


# ------------------------------------------- event-sparse kernel vs recursion

def _step_recursion(model, length):
    """Reference unit-step response: the per-sample state recursion."""
    x = np.zeros(model.order)
    g = np.empty(length)
    for k in range(length):
        g[k] = model.c @ x + model.d
        x = model.A @ x + model.b
    return g


def _simulate_recursion(model, u):
    """Reference zero-state output: the per-sample state recursion, with the
    state reset where an instant-off model's input switches to 0."""
    x = np.zeros(model.order)
    y = np.empty(len(u))
    for k in range(len(u)):
        if model.instant_off and u[k] == 0.0 and k > 0 and u[k - 1] != 0.0:
            x = np.zeros(model.order)
        y[k] = model.c @ x + model.d * u[k]
        x = model.A @ x + model.b * u[k]
    return y


def _kernel_models():
    """Orders 1-4, complex poles, a slow pole and feedthrough (d != 0)."""
    theta = 0.7
    rot = [[0.8 * np.cos(theta), 0.8 * np.sin(theta)],
           [-0.8 * np.sin(theta), 0.8 * np.cos(theta)]]
    return [random_stable_model(order, 20 + order) for order in (1, 2, 3, 4)] + [
        normalize_dc(DeviceModel("cplx", A=rot, b=[1.0, 0.5], c=[0.7, -0.3])),
        DeviceModel("slow", A=[[0.995]], b=[0.005], c=[1.0]),
        normalize_dc(DeviceModel(
            "ft", A=[[0.5, 0.1, 0.0], [0.0, 0.3, 0.2], [0.1, 0.0, 0.4]],
            b=[1.0, -0.5, 2.0], c=[0.3, 1.1, -0.2], d=0.25,
        )),
    ]


def test_unit_step_values_matches_recursion_up_to_day_scale():
    # random_stable_model accepts models on an exact-recursion prefix.
    assert STEP_HEAD >= SETTLE_SPAN
    T = 28_800
    for m in _kernel_models():
        ref = _step_recursion(m, T)
        g = unit_step_values(m, T)
        np.testing.assert_array_equal(g[:STEP_HEAD], ref[:STEP_HEAD], err_msg=m.name)
        np.testing.assert_allclose(g, ref, rtol=0, atol=1e-12, err_msg=m.name)


def test_unit_step_rows_equal_single_model_calls():
    # Orders 1-4 with two or three models each (d != 0 in one), so every
    # stacked head recursion serves several models.
    models = _kernel_models() + [random_stable_model(4, s) for s in (41, 42)]
    for length in (0, 1, STEP_HEAD - 1, STEP_HEAD, STEP_HEAD + 1, 3_000):
        rows = list(_unit_step_rows(models, length))
        assert len(rows) == len(models)
        head = min(length, STEP_HEAD)
        for m, g in zip(models, rows):
            assert g.tobytes()[: 8 * head] == _step_recursion(m, head).tobytes(), m.name
            assert g.tobytes() == unit_step_values(m, length).tobytes(), m.name


def test_unit_step_values_shorter_call_is_a_prefix():
    m = _kernel_models()[2]
    g = unit_step_values(m, 5_000)
    for n in (1, STEP_HEAD, STEP_HEAD + 1, 2 * STEP_HEAD + 7, 3_000):
        np.testing.assert_array_equal(unit_step_values(m, n), g[:n])


def _piecewise(rng, length, switches):
    """Random piecewise-constant input with some switches to exactly 0."""
    u = np.zeros(length)
    for k in np.sort(rng.choice(length, size=switches, replace=False)):
        u[k:] = 0.0 if rng.uniform() < 0.4 else rng.uniform(0.2, 3.0)
    return u


def test_simulate_sparse_input_matches_recursion():
    rng = np.random.default_rng(5)
    for m in _kernel_models():
        for instant_off in (False, True):
            dev = DeviceModel(m.name, A=m.A, b=m.b, c=m.c, d=m.d, instant_off=instant_off)
            for _ in range(4):
                length = int(rng.integers(40, 3_000))
                u = _piecewise(rng, length, int(rng.integers(1, 12)))
                start = int(rng.integers(0, 10_000))
                y = simulate_zero_state(dev, series(u, start=start))
                assert y.start_index == start
                np.testing.assert_allclose(
                    y.values, _simulate_recursion(dev, u), rtol=0, atol=1e-12
                )


def test_simulate_dense_input_superposes_every_change():
    # A random input changes at every sample; a switch every second
    # sample at T = 14,000 updates about T / 4 samples per signal sample.
    rng = np.random.default_rng(6)
    dense = [(m, rng.normal(size=300)) for m in _kernel_models()]
    alternating = np.tile([0.0, 0.0, 1.5, 1.5], 14_000 // 4)
    dense += [
        (m, alternating)
        for m in (_kernel_models()[1], replace(_kernel_models()[0], instant_off=True))
    ]
    for m, u in dense:
        y = simulate_zero_state(m, series(u)).values
        np.testing.assert_allclose(
            y, _simulate_recursion(m, u), rtol=0, atol=1e-12, err_msg=m.name
        )
        ref = np.zeros(len(u))
        g = unit_step_values(m, len(u))
        du = np.diff(u, prepend=0.0)
        for p in np.flatnonzero(du):
            _add_switch(ref, g, int(p), float(du[p]), m.instant_off and u[p] == 0.0)
        np.testing.assert_array_equal(y, ref, err_msg=m.name)


def test_kernel_matches_recursion_property():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=60, deadline=None)
    @given(
        order=st.integers(1, 4),
        seed=st.integers(0, 10_000),
        instant_off=st.booleans(),
        d=st.sampled_from([0.0, 0.3, -0.2]),
        length=st.integers(20, 1_500),
        extra=st.integers(0, 1_500),
        start=st.integers(0, 10**6),
        switches=st.lists(
            st.tuples(st.integers(0, 1_499), st.sampled_from([0.0, 0.5, 1.0, 2.5])),
            max_size=8,
        ),
    )
    def check(order, seed, instant_off, d, length, extra, start, switches):
        base = random_stable_model(order, seed)
        m = DeviceModel("p", A=base.A, b=base.b, c=base.c, d=d, instant_off=instant_off)
        g = unit_step_values(m, length + extra)
        np.testing.assert_array_equal(unit_step_values(m, length), g[:length])
        ref = _step_recursion(m, length + extra)
        np.testing.assert_array_equal(g[:STEP_HEAD], ref[:STEP_HEAD])
        np.testing.assert_allclose(g, ref, rtol=0, atol=1e-12)
        u = np.zeros(length)
        for k, level in sorted(switches):
            u[k % length :] = level
        y = simulate_zero_state(m, series(u, start=start))
        np.testing.assert_allclose(y.values, _simulate_recursion(m, u), rtol=0, atol=1e-12)

    check()
