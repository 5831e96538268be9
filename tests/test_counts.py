"""Every integer parameter follows errors.check_count, and every real one
errors.check_number, where it enters."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from disagg import (
    DeviceModel,
    EmonRecording,
    EngineParams,
    PiecewiseInput,
    Scenario,
    SignalSeries,
    ValidationError,
    detect_plug_input,
    disaggregate,
    find_gaps,
    fit_arx,
    load_library,
    load_scenario,
    match_events,
    random_stable_model,
    reference_scenario,
    render,
    save_library,
    save_scenario,
    unit_step_values,
)
from disagg.cli import load_result, save_result
from disagg.scenario import scenario_from_dict, scenario_to_dict

PLUG = SignalSeries(np.zeros(1))
# A scenario holds at least one device.
DEVICE = DeviceModel("m", A=[[0.5]], b=[0.5], c=[1.0])
# An output and an input that excite every order fit_arx is asked for here.
ARX_SIGNALS = [SignalSeries(v) for v in np.random.default_rng(0).normal(size=(2, 40))]

# (name, lower bound, call that passes the value as that parameter)
COUNTS = [
    ("persistence", 1, lambda v: EngineParams(persistence=v)),
    ("lookahead", 1, lambda v: EngineParams(lookahead=v)),
    ("backtrack_window", 0, lambda v: EngineParams(backtrack_window=v)),
    ("beam_width", 1, lambda v: EngineParams(beam_width=v)),
    ("match_window", 0, lambda v: match_events([], [], v)),
    ("order", 1, lambda v: random_stable_model(v, seed=0)),
    ("horizon", 1, lambda v: Scenario(models=(DEVICE,), inputs=(PiecewiseInput(),), horizon=v)),
    ("settle_skip", 0, lambda v: detect_plug_input(PLUG, 0.5, settle_skip=v)),
    ("na", 1, lambda v: fit_arx(*ARX_SIGNALS, na=v, nb=1)),
    ("nb", 1, lambda v: fit_arx(*ARX_SIGNALS, na=1, nb=v)),
    ("length", 0, lambda v: unit_step_values(DeviceModel("m", A=[[0.5]], b=[0.5], c=[1.0]), v)),
]

RECORDING = EmonRecording(np.arange(2.0), *(np.ones(2) for _ in range(5)))

# (name, call that passes the value as that parameter)
NUMBERS = [
    ("deviation_threshold", lambda v: EngineParams(deviation_threshold=v)),
    ("noise_std", lambda v: Scenario(
        models=(DEVICE,), inputs=(PiecewiseInput(),), horizon=1, noise_std=v)),
    ("sample_period", lambda v: SignalSeries(np.zeros(1), sample_period=v)),
    ("on_threshold", lambda v: detect_plug_input(PLUG, v)),
    ("max_input", lambda v: DeviceModel("m", A=[[0.5]], b=[0.5], c=[1.0], max_input=v)),
    ("max_output", lambda v: DeviceModel("m", A=[[0.5]], b=[0.5], c=[1.0], max_output=v)),
    ("nominal_rate", lambda v: find_gaps(RECORDING, v)),
]


@pytest.mark.parametrize("name, low, build", COUNTS, ids=[c[0] for c in COUNTS])
def test_count_parameter_rule(name, low, build):
    for bad in (2.5, True, "2"):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
            build(bad)
    with pytest.raises(ValidationError, match=f"^{name} must be >= {low}, got {low - 1}$"):
        build(low - 1)
    build(np.int64(low + 1))


@pytest.mark.parametrize("name, build", NUMBERS, ids=[c[0] for c in NUMBERS])
def test_number_parameter_rule(name, build):
    # A bool is not taken as 0 or 1, nor a string parsed: each is rejected
    # with the parameter's name; Python and numpy reals pass.
    for bad in (True, False, "0.5", [0.5]):
        with pytest.raises(
            ValidationError, match=f"^{name} must be a number, got {re.escape(repr(bad))}$"
        ):
            build(bad)
    for good in (2, 0.5, np.float64(0.5), np.int64(2), np.float32(0.5)):
        held = build(good)
        # on_threshold and nominal_rate are arguments, which no class holds.
        if name not in ("on_threshold", "nominal_rate"):
            assert type(getattr(held, name)) is float


def test_numpy_counts_save_as_json_integers(tmp_path):
    sc = reference_scenario(0)
    sc = replace(sc, horizon=np.int64(sc.horizon))
    assert type(sc.horizon) is int
    save_scenario(sc, tmp_path / "scenario.json")
    assert load_scenario(tmp_path / "scenario.json") == sc
    params = EngineParams(**{name: np.int64(low + 1) for name, low, _ in COUNTS[:4]})
    assert all(type(getattr(params, name)) is int for name, _, _ in COUNTS[:4])
    result = disaggregate(render(sc)[0], list(sc.models), params)
    save_result(result, tmp_path / "res")
    assert load_result(tmp_path / "res").params == result.params


# The float counterpart: a numpy float or bool is stored as a Python float
# or bool, so each file that holds it saves and loads back equal.
def test_numpy_noise_std_saves_as_a_json_float(tmp_path):
    sc = replace(reference_scenario(0), noise_std=np.float32(0.02))
    assert type(sc.noise_std) is float
    save_scenario(sc, tmp_path / "scenario.json")
    assert load_scenario(tmp_path / "scenario.json") == sc


def test_numpy_cap_and_flag_save_as_json_float_and_bool(tmp_path):
    model = replace(reference_scenario(0).models[0], max_output=np.float32(3.0),
                    instant_off=np.True_)
    assert type(model.max_output) is float and model.instant_off is True
    save_library([model], tmp_path / "library.json")
    assert load_library(tmp_path / "library.json") == [model]


@pytest.mark.parametrize("threshold, period", [(np.float32(0.1), 1.0), (None, np.float32(1 / 12))],
                         ids=["deviation_threshold", "sample_period"])
def test_numpy_result_settings_save_as_json_floats(tmp_path, threshold, period):
    sc = reference_scenario(0)
    params = EngineParams(deviation_threshold=threshold)
    y = SignalSeries(render(sc)[0].values, sample_period=period)
    assert type(y.sample_period) is float
    assert threshold is None or type(params.deviation_threshold) is float
    result = disaggregate(y, list(sc.models), params)
    save_result(result, tmp_path)
    loaded = load_result(tmp_path)
    assert loaded.params == result.params
    assert loaded.estimated_total == result.estimated_total


@pytest.mark.parametrize("bad", [50.9, 50.0, True, "50"])
def test_loaded_integers_follow_the_count_rule(bad):
    # A scenario's event times, seed and model orders are integers in the
    # file too: a fraction is rejected, not truncated by int().
    edits = {
        "event k": lambda d: d["devices"][0]["events"][0].__setitem__(0, bad),
        "seed": lambda d: d.__setitem__("seed", bad),
        "order": lambda d: d["devices"][0]["model"].__setitem__("order", bad),
    }
    for name, edit in edits.items():
        data = scenario_to_dict(reference_scenario(0))
        edit(data)
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
            scenario_from_dict(data)


def test_constructed_times_and_seed_follow_the_count_rule():
    # The constructors meet the loaders' rule: a fractional event time or
    # seed is rejected, not truncated by int(); numpy integers pass and
    # are stored as Python ints.
    with pytest.raises(ValidationError, match="^event k must be an integer, got 50.9$"):
        PiecewiseInput(((50.9, 1.2),))
    with pytest.raises(ValidationError, match="^seed must be an integer, got 3.7$"):
        replace(reference_scenario(0), seed=3.7)
    u = PiecewiseInput(((np.int64(50), 1.2), (np.int32(60), 0.0)))
    assert u == PiecewiseInput(((50, 1.2), (60, 0.0)))
    assert all(type(k) is int for k, _ in u.events)
    sc = replace(reference_scenario(0), seed=np.int64(3))
    assert type(sc.seed) is int
    assert sc == replace(reference_scenario(0), seed=3)


def test_model_seed_follows_the_count_rule():
    # random_stable_model's seed, like a scenario's, is any integer: a
    # float or a bool is rejected where it enters, not deep in the stream
    # or in the model's name.
    for bad in (2.5, np.float64(3), True, "2"):
        with pytest.raises(ValidationError, match=f"^seed must be an integer, got {re.escape(repr(bad))}$"):
            random_stable_model(3, bad)
    with pytest.raises(ValidationError, match="^seed must be an integer, got "):
        reference_scenario(1.5)
    model = random_stable_model(3, np.int64(-4))
    assert model.name == "rand_o3_s-4"
    assert model == random_stable_model(3, -4)


def test_loaded_result_times_follow_the_count_rule(tmp_path):
    # Result times may be negative (the signal may start before k = 0),
    # but they must be integers.
    sc = reference_scenario(0)
    y = render(sc)[0]
    result = disaggregate(SignalSeries(y.values, start_index=-100), list(sc.models))
    assert result.events[0].k < 0
    save_result(result, tmp_path)
    assert load_result(tmp_path).events == result.events
    path = tmp_path / "result.json"
    clean = path.read_text()
    entries = {
        "events": ("event k", {"k": -80.5, "device": "device1", "kind": "on", "level": 1.2}),
        "unexplained": ("unexplained k", {"k": -80.5, "kind": "increase", "magnitude": 1.0}),
    }
    for field, (name, entry) in entries.items():
        data = json.loads(clean)
        data[field] = [entry]
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match=f"{name} must be an integer, got -80.5"):
            load_result(tmp_path)
