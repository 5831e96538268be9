"""Energy disaggregation with per-device LTI models.

Recovers sparse piecewise-constant device inputs that reproduce a
whole-building power signal, given a library of appliance models.

Each exported name is imported from its submodule on first use (PEP 562),
so ``import disagg`` loads no submodule and ``disagg.load_library`` loads
only the modules that reading a library needs.
"""

import importlib

# Exported name -> the submodule that defines it.
_SOURCES = {
    "disaggregate": "engine",
    "resolve_threshold": "engine",
    "RankDeficientDataError": "errors",
    "UnstableModelError": "errors",
    "ValidationError": "errors",
    "EventMatch": "evaluate",
    "Metrics": "evaluate",
    "match_events": "evaluate",
    "score": "evaluate",
    "truth_events": "evaluate",
    "EmonRecording": "ingest",
    "Gap": "ingest",
    "GapWarning": "ingest",
    "find_gaps": "ingest",
    "parse_emontx_csv": "ingest",
    "read_signal_csv": "ingest",
    "to_signal": "ingest",
    "write_signal_csv": "ingest",
    "DeviceModel": "models",
    "dc_gain": "models",
    "load_library": "models",
    "normalize_dc": "models",
    "random_stable_model": "models",
    "save_library": "models",
    "simulate_zero_state": "models",
    "spectral_radius": "models",
    "unit_step_values": "models",
    "Scenario": "scenario",
    "load_scenario": "scenario",
    "reference_scenario": "scenario",
    "render": "scenario",
    "save_scenario": "scenario",
    "DisaggregationResult": "result",
    "EngineParams": "result",
    "SwitchEvent": "result",
    "UnexplainedEvent": "result",
    "PiecewiseInput": "series",
    "SignalSeries": "series",
    "estimate_noise_std": "series",
    "ArxModel": "sysid",
    "arx_to_state_space": "sysid",
    "detect_plug_input": "sysid",
    "fit_arx": "sysid",
    "identify_device": "sysid",
}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    """Import an exported name from its submodule and keep it here."""
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
