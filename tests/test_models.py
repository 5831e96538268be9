import json
import re

import numpy as np
import pytest
from dataclasses import replace

from disagg import (
    DeviceModel,
    DisaggregationResult,
    EngineParams,
    PiecewiseInput,
    Scenario,
    SignalSeries,
    UnstableModelError,
    ValidationError,
    dc_gain,
    disaggregate,
    load_library,
    load_scenario,
    normalize_dc,
    random_stable_model,
    save_library,
    simulate_zero_state,
    spectral_radius,
    unit_step_values,
)
import disagg.models as models_module
from disagg.models import (
    SETTLE_SPAN, STABILITY_MARGIN, STEP_HEAD, _outputs, _Row, _switch, _unit_step_rows,
    model_to_dict,
)
from disagg.result import load_result, result_to_dict
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


def test_random_model_redraws_a_raw_model_of_zero_dc_gain(monkeypatch):
    # No seed draws a raw model whose DC gain is within 1e-6 of 0, so the
    # first raw model of each call is reported as one: b and c are drawn
    # again, and the model still comes out stable, unit-gain and seeded.
    real = models_module.dc_gain
    raws = []

    def zero_for_the_first_raw(model):
        if not model.dc_normalized:
            raws.append(model)
            if len(raws) == 1:
                return 0.0
        return real(model)

    monkeypatch.setattr(models_module, "dc_gain", zero_for_the_first_raw)
    m = random_stable_model(3, 7)
    assert len(raws) >= 2
    assert not np.array_equal(m.c, raws[0].c)
    np.testing.assert_array_equal(m.c, raws[-1].c)
    raws.clear()
    assert random_stable_model(3, 7) == m
    assert spectral_radius(m.A) < 1.0 - STABILITY_MARGIN
    assert abs(real(m) - 1.0) <= 1e-9
    assert np.min(unit_step_values(m, SETTLE_SPAN)) >= 0.0


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


@pytest.mark.parametrize("field", ["A", "b", "c", "d"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_model_rejects_non_finite_entries(field, value):
    entries = {"A": [[0.5]], "b": [1.0], "c": [1.0], "d": 0.0}
    entries[field] = value if field == "d" else np.full_like(entries[field], value)
    with pytest.raises(ValidationError, match="non-finite entries in model 'bad'"):
        DeviceModel("bad", **entries)


@pytest.mark.parametrize("name", ["x/y", "a,b", "", "a\nb", "a\rb", "a\0b", None])
def test_model_rejects_a_name_that_breaks_a_file_or_a_row(name):
    # The name forms estimate_<name>.csv and a field of plot-data's rows.
    with pytest.raises(ValidationError, match=re.escape(f"device name {name!r} must be")):
        DeviceModel(name, A=[[0.5]], b=[1.0], c=[1.0])


@pytest.mark.parametrize("name", ["fan%d{}", "a b", "kettle.2", "tv\\1", "total"])
def test_model_keeps_other_names(name):
    assert DeviceModel(name, A=[[0.5]], b=[1.0], c=[1.0]).name == name


def test_dc_normalized_flag_checked():
    with pytest.raises(ValidationError):
        DeviceModel("bad", A=[[0.9]], b=[0.2], c=[1.0], dc_normalized=True)


@pytest.mark.parametrize("key, value", [("instant_off", "false"), ("dc_normalized", "no")])
def test_constructed_flags_follow_the_file_rule(key, value):
    # bool("false") is True: the constructor rejects a non-bool flag as
    # load_library does, so save_library never writes a file it rejects.
    with pytest.raises(ValidationError, match=f"^{key} must be true or false, got {value!r}$"):
        DeviceModel("m", A=[[0.5]], b=[0.5], c=[1.0], **{key: value})


@pytest.mark.parametrize("key, value, shown", [("A", [["0.5"]], "'0.5'"), ("d", "0.25", "'0.25'")])
def test_constructed_numbers_follow_the_file_rule(key, value, shown):
    # A string is rejected as in a library file, not parsed by float().
    entries = {"A": [[0.5]], "b": [0.5], "c": [1.0], key: value}
    with pytest.raises(ValidationError, match=f"^{key} must be a number, got {shown}$"):
        DeviceModel("m", **entries)


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


def _one_entry_library(path) -> dict:
    """Write a one-model library to path; return its entry for editing."""
    save_library([DeviceModel("m", A=[[0.5]], b=[0.5], c=[1.0])], path)
    return json.loads(path.read_text())[0]


@pytest.mark.parametrize("key, value", [
    ("instant_off", "false"), ("instant_off", 2), ("instant_off", None),
    ("dc_normalized", "no"), ("dc_normalized", 0),
])
def test_library_flags_must_be_json_booleans(tmp_path, key, value):
    # bool("false") is True: a truthy non-boolean would turn the flag on.
    path = tmp_path / "lib.json"
    entry = _one_entry_library(path)
    entry[key] = value
    path.write_text(json.dumps([entry]))
    message = f"^{re.escape(str(path))}: {key} must be true or false, got "
    with pytest.raises(ValidationError, match=message):
        load_library(path)


@pytest.mark.parametrize("key, value, shown", [
    ("max_input", "4", "'4'"), ("max_output", True, "True"), ("d", "0.25", "'0.25'"),
    ("A", ["-0.73"], "'-0.73'"), ("b", [False], "False"), ("c", [None], "None"),
])
def test_library_numbers_must_be_json_numbers(tmp_path, key, value, shown):
    # float("4") and float(True) would load a string or a boolean as a number.
    path = tmp_path / "lib.json"
    entry = _one_entry_library(path)
    entry[key] = value
    path.write_text(json.dumps([entry]))
    message = f"^{re.escape(str(path))}: {key} must be a number, got {re.escape(shown)}$"
    with pytest.raises(ValidationError, match=message):
        load_library(path)


def test_library_and_constructor_reject_a_bad_value_alike(tmp_path):
    # One rule, held by DeviceModel: a library entry with one bad value
    # fails to load with the message, after the path, that the
    # constructor gives for the same value.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    text, lists = st.text(max_size=3), st.lists(
        st.integers() | st.floats(allow_nan=False, allow_infinity=False), max_size=2)
    numbers, flags = text | st.booleans() | st.none() | lists, (
        text | st.integers() | st.floats(allow_nan=False) | st.none() | lists)
    bad = {"A": numbers, "b": numbers, "c": numbers, "d": numbers,
           # A cap of None is absent, so it is not bad.
           "max_input": text | st.booleans() | lists, "max_output": text | st.booleans() | lists,
           "instant_off": flags, "dc_normalized": flags}
    path = tmp_path / "lib.json"

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), order=st.integers(1, 3), key=st.sampled_from(sorted(bad)))
    def check(data, order, key):
        model = random_stable_model(order, data.draw(st.integers(0, 99)), data.draw(st.booleans()))
        entry = model_to_dict(replace(model, max_input=2.0, max_output=5.0))
        value = data.draw(bad[key])
        if key in ("A", "b", "c"):
            entry[key][data.draw(st.integers(0, len(entry[key]) - 1))] = value
        else:
            entry[key] = value
        fields = {name: entry[name] for name in bad}
        fields["A"] = [entry["A"][i * order : (i + 1) * order] for i in range(order)]
        with pytest.raises(ValidationError) as built:
            DeviceModel(entry["name"], **fields)
        path.write_text(json.dumps([entry]))
        with pytest.raises(ValidationError) as loaded:
            load_library(path)
        assert str(loaded.value) == f"{path}: {built.value}"

    check()


def test_library_dc_normalized_may_be_absent(tmp_path):
    path = tmp_path / "lib.json"
    entry = _one_entry_library(path)
    del entry["dc_normalized"]
    path.write_text(json.dumps([entry]))
    assert load_library(path)[0].dc_normalized is False


def test_model_rejects_order_zero():
    with pytest.raises(ValidationError, match="^model 'none' must have order >= 1, got 0$"):
        DeviceModel("none", A=np.zeros((0, 0)), b=[], c=[])


@pytest.mark.parametrize("order", [0, -1])
def test_library_order_must_be_at_least_one(tmp_path, order):
    # The order is checked before A is reshaped to it, as random_stable_model does.
    path = tmp_path / "lib.json"
    entry = _one_entry_library(path)
    entry.update(order=order, A=[], b=[], c=[])
    path.write_text(json.dumps([entry]))
    message = f"^{re.escape(str(path))}: order must be >= 1, got {order}$"
    with pytest.raises(ValidationError, match=message):
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


# ------------------------------------------------------------ the library rule

def _library_file(tmp_path, models):
    path = tmp_path / "library.json"
    save_library(models, path)
    return path, lambda: load_library(path)


def _scenario_file(tmp_path, models):
    path = tmp_path / "scenario.json"
    devices = [{"model": model_to_dict(m), "events": []} for m in models]
    path.write_text(json.dumps({"seed": 0, "noise_std": 0.0, "horizon": 10, "devices": devices}))
    return path, lambda: load_scenario(path)


def _result_file(tmp_path, models):
    path = tmp_path / "result.json"
    data = result_to_dict(_result((DeviceModel("m", A=[[0.5]], b=[0.5], c=[1.0]),)))
    data.update(devices=[m.name for m in models], library=[model_to_dict(m) for m in models])
    path.write_text(json.dumps(data))
    return path, lambda: load_result(tmp_path)


def _result(models):
    return DisaggregationResult(events=(), unexplained=(), residual_rms=0.0,
                                params=EngineParams(), models=models, start_index=0,
                                length=10, sample_period=1.0)


LIBRARY_HOLDERS = {
    "load_library": _library_file,
    "load_scenario": _scenario_file,
    "load_result": _result_file,
    "Scenario": lambda tmp_path, models: (
        None, lambda: Scenario(models=models, inputs=(PiecewiseInput(),) * len(models))),
    "DisaggregationResult": lambda tmp_path, models: (None, lambda: _result(models)),
    "disaggregate": lambda tmp_path, models: (
        None, lambda: disaggregate(series(np.zeros(60)), list(models))),
}
TWIN = DeviceModel("twin", A=[[0.5]], b=[0.5], c=[1.0])


@pytest.mark.parametrize("models, message", [
    ((), "device library is empty"),
    ((TWIN, random_stable_model(2, 0), TWIN), "duplicate device names in library"),
], ids=["empty", "repeated-name"])
@pytest.mark.parametrize("holder", LIBRARY_HOLDERS)
def test_every_file_and_constructor_meets_one_library_rule(tmp_path, holder, models, message):
    """A library, in a file or in the Python API, holds at least one device
    and no name twice; a file's error names the file."""
    path, build = LIBRARY_HOLDERS[holder](tmp_path, models)
    with pytest.raises(ValidationError) as exc:
        build()
    assert str(exc.value) == (message if path is None else f"{path}: {message}")


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
    # stacked head recursion serves several models, passed in a different
    # order at each call; each call asks for one length: 0, 1, either side
    # of STEP_HEAD or of a pass edge.  Each response is the prefix of one
    # full-length call.
    models = _kernel_models() + [random_stable_model(4, s) for s in (41, 42)]
    full = 3_000
    expected = {m.name: _outer_doubling_step(m, full).tobytes() for m in models}
    choices = (0, 1, STEP_HEAD - 1, STEP_HEAD, STEP_HEAD + 1, 2 * STEP_HEAD,
               2 * STEP_HEAD + 1, 4 * STEP_HEAD - 1, full)
    for shift, length in enumerate(choices):
        order = (models[shift:] + models[:shift])[:: -1 if shift % 2 else 1]
        steps = _unit_step_rows(order, length)
        assert len(steps) == len(order)
        head = min(length, STEP_HEAD)
        for m, step in zip(order, steps):
            g = step.upto(length)
            assert g.tobytes()[: 8 * head] == _step_recursion(m, head).tobytes(), m.name
            assert g.tobytes() == expected[m.name][: 8 * length], (m.name, length)


def test_step_response_grown_in_steps_equals_one_full_call():
    # The engine grows g as its reads advance; however the reads come,
    # every prefix keeps the bits of one full-length call.
    models = _kernel_models() + [_slow_dense_model(n) for n in (2, 3)]
    full = 8 * STEP_HEAD + 5
    reads = (
        [1, STEP_HEAD, STEP_HEAD + 1, 3 * STEP_HEAD, full],
        [2 * STEP_HEAD, 2 * STEP_HEAD - 1, 5 * STEP_HEAD + 3, 4 * STEP_HEAD, full],
        [full, 7],
    )
    for m in models:
        expected = _outer_doubling_step(m, full).tobytes()
        for lengths in reads:
            (step,) = _unit_step_rows([m], full)
            for n in lengths:
                assert step.upto(n).tobytes() == expected[: 8 * n], (m.name, n)
            assert len(step.g) == full


def test_step_response_is_not_read_past_its_cap():
    m = random_stable_model(2, 3)
    (step,) = _unit_step_rows([m], 10)
    assert len(step.upto(10)) == 10
    with pytest.raises(ValueError, match=f"^unit-step response of '{m.name}' ends at 10$"):
        step.upto(11)


def _outer_doubling_step(model, length):
    """unit_step_values(model, length) with the doubling tail as np.outer products.

    The head repeats _unit_step_rows's recursion for one model.  The tail
    keeps the states as (length, order) rows and adds one np.outer per
    state column: the form the scratch-row tail must equal bit for bit.
    """
    A, b, c, d = model.A, model.b, model.c, model.d
    n = model.order
    L = min(length, STEP_HEAD)
    X = np.empty((length, n))
    x = np.zeros((1, n, 1))
    for k in range(L):
        X[k] = x[0, :, 0]
        x = A[None] @ x + b[None, :, None]
    g = np.empty(length)
    g[:L] = unit_step_values(model, L)
    AL = np.linalg.matrix_power(A, L)
    while L < length:
        m = min(L, length - L)
        x_L = A @ X[L - 1] + b
        block = X[L : L + m]
        block[:] = x_L
        for i in range(n):
            block += np.outer(X[:m, i], AL[:, i])
        g[L : L + m] = d
        for i in range(n):
            g[L : L + m] += c[i] * block[:, i]
        L += m
        AL = AL @ AL
    return g


def _slow_dense_model(order):
    """A model with poles in [0.97, 0.995] and no zero entry in A.

    Its state products A^L x stay large for long tails, so every term of
    the tail's sums reaches the last bit.
    """
    rng = np.random.default_rng(order)
    S = rng.normal(size=(order, order)) + order * np.eye(order)
    A = S @ np.diag(np.linspace(0.97, 0.995, order)) @ np.linalg.inv(S)
    return DeviceModel(f"slow{order}", A=A, b=rng.normal(size=order), c=rng.normal(size=order))


def test_unit_step_tail_equals_outer_product_tail():
    models = _kernel_models() + [_slow_dense_model(n) for n in (1, 2, 3, 4)]
    lengths = sorted({
        STEP_HEAD * 2**k + j for k in range(6) for j in (-1, 0, 1)
    } | {900, 7_200})
    for length in lengths:
        for m in models:
            expected = _outer_doubling_step(m, length)
            assert unit_step_values(m, length).tobytes() == expected.tobytes(), (
                m.name, length,
            )


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
            old = u[p - 1] if p > 0 else 0.0
            _switch(ref, g, int(p), float(old), float(u[p]), m.instant_off)
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


def test_outputs_end_writes_at_resets_property():
    # _outputs ends each write of an instant-off device at its next switch
    # to 0; its rows must keep the bits of full-length writes, each reset
    # zeroing the rest of the row, including the sign of every zero.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=200, deadline=None)
    @given(
        order=st.integers(1, 3),
        seed=st.integers(0, 1_000),
        instant_off=st.booleans(),
        d=st.sampled_from([0.0, 0.3, -0.2]),
        length=st.integers(1, 400),
        switches=st.lists(
            st.tuples(st.integers(0, 399), st.sampled_from([0.0, 0.5, 1.0, 2.5])),
            max_size=12,
        ),
    )
    def check(order, seed, instant_off, d, length, switches):
        base = random_stable_model(order, seed)
        m = DeviceModel("p", A=base.A, b=base.b, c=base.c, d=d, instant_off=instant_off)
        changes, old = [], 0.0
        for k, level in sorted(dict(switches).items()):
            if k < length and level != old:
                changes.append((k, level))
                old = level
        ref, old = np.zeros(length), 0.0
        g = unit_step_values(m, length)
        for p, new in changes:
            _switch(ref, g, p, old, new, instant_off)
            old = new
        (row,) = _outputs([m], [changes], length)
        assert row.tobytes() == ref.tobytes()

    check()


def test_row_equals_eager_switch_rows_property():
    # A _Row writes an instant-off device's switches only as far as it is
    # read, and any other device's to the end at each switch.  Under any
    # order of switch, extend and copy, the written part of each row must
    # have the bits of the eager row (every switch run through _switch to
    # the end of the row) and the rest +0.0; level and last must be those
    # of the row's last switch; and a copy must keep its own.  Reads and
    # switches are drawn next to the frontier and the row's end, and one
    # instant-off model has d != 0, so a write that misses one sample
    # (where g[0] = d) shows.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    # negzero's step response is -0.0 from STEP_HEAD on: a term assigned
    # onto a zero row, not added, would keep the -0.0 of level * g where
    # the eager row has 0.0 + -0.0 = +0.0.
    negzero = DeviceModel("negzero", A=[[0.5]], b=[0.0], c=[-1.0], d=-0.0, instant_off=True)
    base = random_stable_model(3, 5)
    models = [replace(base, instant_off=True), random_stable_model(2, 9), negzero,
              replace(base, d=0.25, dc_normalized=False, instant_off=True)]
    T_max = 3 * STEP_HEAD
    full = [unit_step_values(m, T_max) for m in models]
    assert np.signbit(full[2][STEP_HEAD:]).all()

    def near(lo, hi, *edges):
        """An integer in [lo, hi], often one of edges or next to one."""
        close = [e + j for e in edges for j in (-1, 0, 1) if lo <= e + j <= hi]
        return st.one_of(st.integers(lo, hi), *([st.sampled_from(close)] if close else []))

    def check_row(dev, row, switches, T):
        ref = np.zeros(T)
        for p, old, new in switches:
            _switch(ref, full[dev], p, old, new, models[dev].instant_off)
        f = row.frontier
        assert f == T or models[dev].instant_off
        assert row.values[:f].tobytes() == ref[:f].tobytes()
        assert row.values[f:].tobytes() == bytes(8 * (T - f))
        p, _, new = switches[-1] if switches else (-1, 0.0, 0.0)
        assert (row.level, row.last) == (new, p)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def check(data):
        T = data.draw(st.integers(0, T_max))
        # The rows of one model share its step response, as the engine's do.
        pool = [(dev, _Row(step, T), []) for dev, step in enumerate(_unit_step_rows(models, T))]
        for _ in range(data.draw(st.integers(1, 30))):
            dev, row, switches = data.draw(st.sampled_from(pool))
            op = data.draw(st.sampled_from(["switch", "switch", "extend", "copy"]))
            if op == "copy":
                pool.append((dev, row.copy(), list(switches)))
            elif op == "extend":
                row.extend(data.draw(near(0, T, row.frontier, T)))
            elif row.last < T - 1:
                p = data.draw(near(row.last + 1, T - 1, row.frontier, T))
                new = data.draw(st.sampled_from([0.0, 0.0, 0.5, 1.25, 3.0]))
                switches.append((p, row.level, new))
                row.switch(p, new)
            for entry in pool:
                check_row(*entry, T)
        for dev, row, switches in pool:
            row.extend(T)
            check_row(dev, row, switches, T)
            assert row.frontier == T

    check()
