"""Every integer parameter follows errors.check_count where it enters."""

from dataclasses import replace

import numpy as np
import pytest

from disagg import (
    ArxModel,
    EngineParams,
    PlugRecordingLabel,
    Scenario,
    ValidationError,
    disaggregate,
    load_scenario,
    match_events,
    random_stable_model,
    reference_scenario,
    render,
    save_scenario,
)
from disagg.cli import load_result, save_result

# (name, lower bound, call that passes the value as that parameter)
COUNTS = [
    ("persistence", 1, lambda v: EngineParams(persistence=v)),
    ("lookahead", 1, lambda v: EngineParams(lookahead=v)),
    ("backtrack_window", 0, lambda v: EngineParams(backtrack_window=v)),
    ("min_on_duration", 0, lambda v: EngineParams(min_on_duration=v)),
    ("beam_width", 1, lambda v: EngineParams(beam_width=v)),
    ("match_window", 0, lambda v: match_events([], [], v)),
    ("order", 1, lambda v: random_stable_model(v, seed=0)),
    ("horizon", 1, lambda v: Scenario(models=(), inputs=(), horizon=v)),
    ("settle_skip", 0, lambda v: PlugRecordingLabel("kettle", 0.5, settle_skip=v)),
    ("na", 1, lambda v: ArxModel(na=v, nb=1, a=(0.5, 0.1), b_coef=(1.0,))),
    ("nb", 1, lambda v: ArxModel(na=1, nb=v, a=(0.5,), b_coef=(1.0, 0.1))),
    ("delay", 0, lambda v: ArxModel(na=1, nb=1, a=(0.5,), b_coef=(1.0,), delay=v)),
]


@pytest.mark.parametrize("name, low, build", COUNTS, ids=[c[0] for c in COUNTS])
def test_count_parameter_rule(name, low, build):
    for bad in (2.5, True, "2"):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
            build(bad)
    with pytest.raises(ValidationError, match=f"^{name} must be >= {low}, got {low - 1}$"):
        build(low - 1)
    build(np.int64(low + 1))


def test_numpy_counts_save_as_json_integers(tmp_path):
    sc = reference_scenario(0)
    sc = replace(sc, horizon=np.int64(sc.horizon))
    assert type(sc.horizon) is int
    save_scenario(sc, tmp_path / "scenario.json")
    assert load_scenario(tmp_path / "scenario.json") == sc
    params = EngineParams(**{name: np.int64(low + 1) for name, low, _ in COUNTS[:5]})
    assert all(type(getattr(params, name)) is int for name, _, _ in COUNTS[:5])
    result = disaggregate(render(sc)[0], list(sc.models), params)
    save_result(result, tmp_path / "res")
    assert load_result(tmp_path / "res").params == result.params
