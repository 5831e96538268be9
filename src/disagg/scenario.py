"""Synthetic disaggregation problems with known ground truth.

A scenario bundles a set of device models with per-device switch
schedules; rendering produces each device's true output and the noisy
aggregate.  ``reference_scenario`` builds the standard benchmark: five
random third-order unit-gain instant-off devices, four of them active
on heavily overlapping intervals, one never used.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ValidationError, check_array, check_count, check_number, reading
from .models import (
    DeviceModel,
    _device_sum,
    _outputs,
    model_from_dict,
    model_to_dict,
    random_stable_model,
    # Unused here, but perfbench/spans.py wraps disagg.scenario.simulate_zero_state.
    simulate_zero_state,  # noqa: F401
)
from .rng import SeededStream
from .series import MAX_HORIZON, PiecewiseInput, SignalSeries

DEFAULT_HORIZON = 450
REFERENCE_NOISE_STD = 0.02
REFERENCE_DEVICE_COUNT = 5
REFERENCE_ORDER = 3

# (device index, first on sample, first off sample, level); the second
# interval bound is exclusive: the device is on for k in [on, off).
REFERENCE_SCHEDULE = (
    (0, 20, 101, 1.2),
    (1, 130, 401, 2.0),
    (2, 180, 301, 0.6),
    (3, 250, 351, 1.8),
)


@dataclass(frozen=True)
class Scenario:
    """Device models plus ground-truth inputs, noise level, and seed."""

    models: tuple[DeviceModel, ...]
    inputs: tuple[PiecewiseInput, ...]
    noise_std: float = 0.0
    seed: int = 0
    horizon: int = DEFAULT_HORIZON

    def __post_init__(self):
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if len(self.models) != len(self.inputs):
            raise ValidationError(
                f"{len(self.models)} models but {len(self.inputs)} inputs"
            )
        if len(set(self.device_names)) != len(self.models):
            raise ValidationError("duplicate device names in library")
        object.__setattr__(
            self, "noise_std", check_number("noise_std", self.noise_std, zero_ok=True)
        )
        object.__setattr__(self, "seed", check_count("seed", self.seed))
        object.__setattr__(self, "horizon", check_count("horizon", self.horizon, 1))
        if self.horizon > MAX_HORIZON:
            raise ValidationError(f"horizon must be <= {MAX_HORIZON}, got {self.horizon!r}")
        for inp in self.inputs:
            if inp.events and inp.events[0][0] < 0:
                raise ValidationError(f"event at k={inp.events[0][0]} before k=0")
            last = inp.last_event_index
            if last is not None and last >= self.horizon:
                raise ValidationError(
                    f"event at k={last} beyond horizon {self.horizon}"
                )

    @property
    def device_names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.models)


def render(scenario: Scenario) -> tuple[SignalSeries, list[SignalSeries]]:
    """Simulate every device and sum into the measured aggregate.

    Returns (aggregate, per-device truth outputs).  Noise is additive
    white Gaussian, drawn from the scenario seed, so regeneration is
    bit-identical.
    """
    rows = _outputs(
        scenario.models, [inp.events for inp in scenario.inputs], scenario.horizon
    )
    total = _device_sum(rows, np.empty(scenario.horizon))
    if scenario.noise_std > 0:
        noise = SeededStream(scenario.seed).normals(scenario.horizon) * scenario.noise_std
        total = total + noise
    return SignalSeries(total), [SignalSeries(row) for row in rows]


def reference_scenario(seed: int) -> Scenario:
    """The standard five-device benchmark, deterministic in seed."""
    models = []
    for i in range(REFERENCE_DEVICE_COUNT):
        m = random_stable_model(REFERENCE_ORDER, seed + i, instant_off=True)
        models.append(replace(m, name=f"device{i + 1}"))
    inputs = [PiecewiseInput() for _ in range(REFERENCE_DEVICE_COUNT)]
    for dev, k_on, k_off, level in REFERENCE_SCHEDULE:
        inputs[dev] = PiecewiseInput(((k_on, level), (k_off, 0.0)))
    return Scenario(
        models=tuple(models),
        inputs=tuple(inputs),
        noise_std=REFERENCE_NOISE_STD,
        seed=seed,
        horizon=DEFAULT_HORIZON,
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "seed": scenario.seed,
        "noise_std": scenario.noise_std,
        "horizon": scenario.horizon,
        "devices": [
            {"model": model_to_dict(m), "events": [[k, level] for k, level in inp.events]}
            for m, inp in zip(scenario.models, scenario.inputs)
        ],
    }


def scenario_from_dict(
    data: dict, library: list[DeviceModel] | None = None
) -> Scenario:
    """Rebuild a scenario; model_ref entries are resolved from library."""
    by_name = {m.name: m for m in library} if library else {}
    models = []
    inputs = []
    for entry in check_array("devices", data["devices"]):
        if "model" in entry:
            models.append(model_from_dict(entry["model"]))
        elif "model_ref" in entry:
            ref = entry["model_ref"]
            if ref not in by_name:
                raise ValidationError(f"model_ref '{ref}' not found in library")
            models.append(by_name[ref])
        else:
            raise ValidationError("device entry needs 'model' or 'model_ref'")
        inputs.append(PiecewiseInput(check_array("events", entry["events"])))
    return Scenario(
        models=tuple(models),
        inputs=tuple(inputs),
        noise_std=data["noise_std"],
        seed=data["seed"],
        horizon=data["horizon"],
    )


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n"
    )


def load_scenario(path: str | Path, library: list[DeviceModel] | None = None) -> Scenario:
    with reading(path):
        return scenario_from_dict(json.loads(Path(path).read_text()), library=library)
