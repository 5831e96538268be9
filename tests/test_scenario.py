import json
import re

import numpy as np
import pytest
from dataclasses import replace

from disagg import (
    DeviceModel,
    PiecewiseInput,
    Scenario,
    ValidationError,
    dc_gain,
    load_scenario,
    random_stable_model,
    reference_scenario,
    render,
    save_scenario,
    simulate_zero_state,
    spectral_radius,
)
from disagg.models import STABILITY_MARGIN
from disagg.scenario import MAX_HORIZON, scenario_to_dict
from conftest import hold
from test_models import _simulate_recursion


def _two_device_scenario(noise_std=0.0, seed=0):
    models = (
        DeviceModel("a", A=[[0.5]], b=[0.5], c=[1.0], instant_off=True),
        DeviceModel("b", A=[[0.0]], b=[1.0], c=[1.0]),
    )
    inputs = (
        PiecewiseInput(((5, 2.0), (20, 0.0))),
        PiecewiseInput(((10, 1.0),)),
    )
    return Scenario(models=models, inputs=inputs, noise_std=noise_std, seed=seed, horizon=40)


def test_render_noiseless_is_exact_sum():
    sc = _two_device_scenario()
    aggregate, truths = render(sc)
    total = truths[0].values + truths[1].values
    np.testing.assert_array_equal(aggregate.values, total)


def test_render_truths_match_direct_simulation():
    sc = _two_device_scenario()
    _, truths = render(sc)
    for model, inp, truth in zip(sc.models, sc.inputs, truths):
        direct = simulate_zero_state(model, hold(inp, 0, sc.horizon))
        assert truth == direct


def test_render_truths_match_dense_simulation_property():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=60, deadline=None)
    @given(horizon=st.integers(1, 600), data=st.data())
    def check(horizon, data):
        # The ends are drawn on their own, so events at k = 0 and
        # k = horizon - 1 are frequent; a level of 0 is a switch-off on
        # either kind of device.
        time = st.one_of(st.sampled_from([0, horizon - 1]), st.integers(0, horizon - 1))
        models, inputs = [], []
        for i in range(data.draw(st.integers(1, 4))):
            order, seed = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 500))
            instant_off = data.draw(st.booleans())
            models.append(
                replace(random_stable_model(order, seed), name=f"m{i}", instant_off=instant_off)
            )
            events, level = [], 0.0
            for k in sorted(data.draw(st.sets(time, max_size=8))):
                level = data.draw(
                    st.sampled_from([0.0, 0.5, 1.0, 2.5]).filter(lambda v: v != level)
                )
                events.append((k, level))
            inputs.append(PiecewiseInput(tuple(events)))
        sc = Scenario(models=tuple(models), inputs=tuple(inputs), horizon=horizon)
        _, truths = render(sc)
        # The state recursion checks the switch rule itself; the dense
        # simulation shares the kernel, so it pins the bits.
        for model, inp, truth in zip(sc.models, sc.inputs, truths):
            u = hold(inp, 0, horizon)
            direct = simulate_zero_state(model, u)
            assert truth.values.tobytes() == direct.values.tobytes()
            np.testing.assert_allclose(
                truth.values, _simulate_recursion(model, u.values), rtol=0, atol=1e-12
            )
            assert (truth.start_index, truth.sample_period) == (0, 1.0)

    check()


def test_render_deterministic_in_seed():
    sc = _two_device_scenario(noise_std=0.05, seed=42)
    a1, _ = render(sc)
    a2, _ = render(sc)
    assert np.array_equal(a1.values, a2.values)


def test_render_seed_changes_noise():
    a1, _ = render(_two_device_scenario(noise_std=0.05, seed=1))
    a2, _ = render(_two_device_scenario(noise_std=0.05, seed=2))
    assert not np.array_equal(a1.values, a2.values)


def test_render_noise_magnitude():
    sc = replace(reference_scenario(0), inputs=tuple(PiecewiseInput() for _ in range(5)))
    aggregate, _ = render(sc)
    # All devices idle: the aggregate is pure noise with std 0.02.
    assert abs(float(np.std(aggregate.values)) - 0.02) < 0.005
    assert abs(float(np.mean(aggregate.values))) < 0.005


def test_render_linear_in_level_when_noiseless():
    models = (DeviceModel("a", A=[[0.6]], b=[0.4], c=[1.0]),)
    base = Scenario(
        models=models, inputs=(PiecewiseInput(((5, 1.0), (20, 0.0))),), horizon=40
    )
    double = Scenario(
        models=models, inputs=(PiecewiseInput(((5, 2.0), (20, 0.0))),), horizon=40
    )
    a1, _ = render(base)
    a2, _ = render(double)
    np.testing.assert_allclose(a2.values, 2.0 * a1.values, rtol=1e-12)


def test_scenario_validates_lengths():
    models = (DeviceModel("a", A=[[0.5]], b=[0.5], c=[1.0]),)
    with pytest.raises(ValidationError):
        Scenario(models=models, inputs=(), horizon=10)


def test_scenario_rejects_duplicate_device_names():
    # Saved, such a scenario would hold a library.json that does not load.
    a = DeviceModel("a", A=[[0.5]], b=[0.5], c=[1.0])
    twin = DeviceModel("a", A=[[0.0]], b=[1.0], c=[1.0])
    with pytest.raises(ValidationError, match="^duplicate device names in library$"):
        Scenario(models=(a, twin), inputs=(PiecewiseInput(),) * 2, horizon=10)


def test_scenario_validates_horizon_covers_events():
    models = (DeviceModel("a", A=[[0.5]], b=[0.5], c=[1.0]),)
    for events, message in [
        (((50, 1.0),), "event at k=50 beyond horizon 40"),
        (((-3, 1.0), (10, 0.0)), "event at k=-3 before k=0"),
    ]:
        with pytest.raises(ValidationError, match=message):
            Scenario(models=models, inputs=(PiecewiseInput(events),), horizon=40)


def test_scenario_horizon_is_at_most_what_numpy_can_shape():
    # 2**60 - 1 samples on a 64-bit build; nothing is allocated until render.
    assert MAX_HORIZON == np.iinfo(np.intp).max // 8
    models = (DeviceModel("a", A=[[0.5]], b=[0.5], c=[1.0]),)
    inputs = (PiecewiseInput(),)
    assert Scenario(models=models, inputs=inputs, horizon=MAX_HORIZON).horizon == MAX_HORIZON
    with pytest.raises(ValidationError,
                       match=f"^horizon must be <= {MAX_HORIZON}, got {MAX_HORIZON + 1}$"):
        Scenario(models=models, inputs=inputs, horizon=MAX_HORIZON + 1)


def test_reference_scenario_shape():
    sc = reference_scenario(7)
    assert len(sc.models) == 5
    assert all(m.order == 3 for m in sc.models)
    assert all(m.instant_off for m in sc.models)
    assert sc.noise_std == 0.02
    assert all(spectral_radius(m.A) < 1.0 - STABILITY_MARGIN for m in sc.models)
    assert all(abs(dc_gain(m) - 1.0) <= 1e-9 for m in sc.models)


def test_reference_scenario_schedule():
    sc = reference_scenario(7)
    assert sc.inputs[0].events == ((20, 1.2), (101, 0.0))
    assert sc.inputs[1].events == ((130, 2.0), (401, 0.0))
    assert sc.inputs[2].events == ((180, 0.6), (301, 0.0))
    assert sc.inputs[3].events == ((250, 1.8), (351, 0.0))
    assert sc.inputs[4].events == ()


def test_reference_scenario_overlap_at_260():
    sc = reference_scenario(0)
    on = [hold(inp, 0, sc.horizon).values[260] > 0 for inp in sc.inputs]
    assert on == [False, True, True, True, False]


def test_reference_scenario_models_deterministic():
    a = reference_scenario(9)
    b = reference_scenario(9)
    agg_a, _ = render(a)
    agg_b, _ = render(b)
    assert np.array_equal(agg_a.values, agg_b.values)
    assert a.models == b.models


def test_scenario_json_round_trip(tmp_path):
    sc = reference_scenario(3)
    path = tmp_path / "scenario.json"
    save_scenario(sc, path)
    loaded = load_scenario(path)
    assert loaded.models == sc.models
    assert loaded.inputs == sc.inputs
    assert loaded.seed == sc.seed
    assert loaded.noise_std == sc.noise_std
    a1, _ = render(sc)
    a2, _ = render(loaded)
    assert np.array_equal(a1.values, a2.values)


def test_scenario_embedded_model_flag_must_be_boolean(tmp_path):
    path = tmp_path / "scenario.json"
    save_scenario(reference_scenario(0), path)
    data = json.loads(path.read_text())
    data["devices"][2]["model"]["instant_off"] = "false"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError, match="instant_off must be true or false, got 'false'"):
        load_scenario(path)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(noise_std="0.02"), "noise_std must be a number, got '0.02'"),
    (lambda d: d["devices"][0]["events"][0].__setitem__(1, "1.5"),
     "event level must be a number, got '1.5'"),
    (lambda d: d["devices"][1]["events"][0].__setitem__(1, True),
     "event level must be a number, got True"),
], ids=["string-noise-std", "string-level", "bool-level"])
def test_scenario_numbers_must_be_json_numbers(tmp_path, edit, message):
    path = tmp_path / "scenario.json"
    save_scenario(reference_scenario(0), path)
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_scenario(path)


def test_scenario_file_and_constructors_reject_a_bad_value_alike(tmp_path):
    # One rule per value, held by the constructor: a scenario file with a
    # bad event level or noise_std fails to load with the message, after
    # the path, that PiecewiseInput or Scenario gives for the same value.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    bad = st.text(max_size=3) | st.booleans() | st.none() | st.lists(st.integers(), max_size=2)
    path = tmp_path / "scenario.json"

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), value=bad, level=st.booleans())
    def check(data, value, level):
        sc = reference_scenario(data.draw(st.integers(0, 9)))
        file = scenario_to_dict(sc)
        events = file["devices"][data.draw(st.integers(0, 3))]["events"]
        if level:
            events[data.draw(st.integers(0, len(events) - 1))][1] = value
        else:
            file["noise_std"] = value
        with pytest.raises(ValidationError) as built:
            PiecewiseInput(events) if level else replace(sc, noise_std=value)
        path.write_text(json.dumps(file))
        with pytest.raises(ValidationError) as loaded:
            load_scenario(path)
        assert str(loaded.value) == f"{path}: {built.value}"

    check()
