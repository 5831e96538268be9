"""Energy disaggregation with per-device LTI models.

Recovers sparse piecewise-constant device inputs that reproduce a
whole-building power signal, given a library of appliance models.
"""

from .engine import (
    DisaggregationResult,
    EngineParams,
    SwitchEvent,
    UnexplainedEvent,
    disaggregate,
    estimate_noise_std,
    resolve_threshold,
)
from .errors import (
    DisaggError,
    RankDeficientDataError,
    UnstableModelError,
    ValidationError,
)
from .evaluate import EventMatch, Metrics, match_events, score, truth_events
from .ingest import (
    EmonRecording,
    Gap,
    GapWarning,
    find_gaps,
    parse_emontx_csv,
    read_signal_csv,
    to_signal,
    write_signal_csv,
)
from .models import (
    DeviceModel,
    dc_gain,
    load_library,
    normalize_dc,
    random_stable_model,
    save_library,
    simulate_zero_state,
    spectral_radius,
    unit_step_values,
)
from .scenario import (
    Scenario,
    load_scenario,
    reference_scenario,
    render,
    save_scenario,
)
from .series import PiecewiseInput, SignalSeries
from .sysid import (
    ArxModel,
    PlugRecordingLabel,
    arx_to_state_space,
    detect_plug_input,
    fit_arx,
    identify_device,
)

__all__ = [
    "ArxModel",
    "DeviceModel",
    "DisaggError",
    "DisaggregationResult",
    "EmonRecording",
    "EngineParams",
    "EventMatch",
    "Gap",
    "GapWarning",
    "Metrics",
    "PiecewiseInput",
    "PlugRecordingLabel",
    "RankDeficientDataError",
    "Scenario",
    "SignalSeries",
    "SwitchEvent",
    "UnexplainedEvent",
    "UnstableModelError",
    "ValidationError",
    "arx_to_state_space",
    "dc_gain",
    "detect_plug_input",
    "disaggregate",
    "estimate_noise_std",
    "find_gaps",
    "fit_arx",
    "identify_device",
    "load_library",
    "load_scenario",
    "match_events",
    "normalize_dc",
    "parse_emontx_csv",
    "random_stable_model",
    "read_signal_csv",
    "reference_scenario",
    "render",
    "resolve_threshold",
    "save_library",
    "save_scenario",
    "score",
    "simulate_zero_state",
    "spectral_radius",
    "to_signal",
    "truth_events",
    "unit_step_values",
    "write_signal_csv",
]
