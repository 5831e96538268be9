"""A disaggregation result: the device inputs found for a library, and result.json.

The result is its switch events, its library and its index range; its
constructor applies result.json's rules to every result, and the
estimates are rendered from its events.  This module alone reads and
writes result.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    ValidationError, check_array, check_count, check_name, check_number, check_real, reading,
    write_json,
)
from .ingest import _write_signal_csvs
from .models import (
    DeviceModel, _device_sum, _outputs, check_library, model_from_dict, model_to_dict,
)
from .series import MAX_HORIZON, PiecewiseInput, SignalSeries


@dataclass(frozen=True)
class EngineParams:
    """Tunables for detection, fitting, and hypothesis search.

    deviation_threshold of None means: estimate the noise level from the
    measurement and use engine.NOISE_THRESHOLD_MULTIPLE times it.  lookahead is
    the number of future samples used to score an on-event, and with
    backtrack_window bounds the online output delay.
    """

    deviation_threshold: float | None = None
    persistence: int = 2
    lookahead: int = 15
    backtrack_window: int = 5
    beam_width: int = 1

    def __post_init__(self):
        object.__setattr__(self, "deviation_threshold", check_number(
            "deviation_threshold", self.deviation_threshold, optional=True))
        for name, low in (
            ("persistence", 1),
            ("lookahead", 1),
            ("backtrack_window", 0),
            ("beam_width", 1),
        ):
            object.__setattr__(self, name, check_count(name, getattr(self, name), low))


@dataclass(frozen=True, order=True)
class SwitchEvent:
    """One nonzero entry of a device's input difference.

    Events order by (k, device, level), the field order, as by (k, device,
    kind, level): an off event has level 0.0, an on event a higher one.
    """

    k: int
    device: int
    level: float

    @property
    def kind(self) -> str:
        return "off" if self.level == 0.0 else "on"


@dataclass(frozen=True)
class UnexplainedEvent:
    k: int
    kind: str
    magnitude: float


@dataclass(frozen=True)
class DisaggregationResult:
    """The winning hypothesis: its switch events, its library (models, one
    per device name) and the estimates' range and period.

    The estimates are derived: estimated_outputs is each model's zero-state
    output under its device's events, bit for bit the predictions the
    engine scored, and estimated_total their device-order sum.  The
    constructor applies result.json's rules to every result and stores what
    the checks return, the events sorted.
    """

    events: tuple[SwitchEvent, ...]
    unexplained: tuple[UnexplainedEvent, ...]
    residual_rms: float
    params: EngineParams
    models: tuple[DeviceModel, ...]
    start_index: int
    length: int
    sample_period: float

    def __post_init__(self):
        models = check_library(self.models)
        start = check_count("start_index", self.start_index)
        length = check_count("length", self.length, 1)
        if length > MAX_HORIZON:
            raise ValidationError(f"length must be <= {MAX_HORIZON}, got {length!r}")
        period = check_number("sample_period", self.sample_period)
        events = []
        for e in self.events:
            k, level = check_count("event k", e.k), check_real("event level", e.level)
            device = check_count("event device", e.device)
            if not 0 <= device < len(models):
                raise ValidationError(
                    f"event at k={k} has device index {device}, outside [0, {len(models)})")
            events.append(SwitchEvent(k, device, level))
        events.sort()
        for dev in range(len(models)):  # No repeated time or level, nor a negative one.
            PiecewiseInput(tuple((e.k, e.level) for e in events if e.device == dev))
        unexplained = []
        for u in self.unexplained:
            k = check_count("unexplained k", u.k)
            magnitude = check_real("unexplained magnitude", u.magnitude)
            if u.kind not in ("increase", "decrease"):
                raise ValidationError(f"unexplained event at k={k} has kind {u.kind!r}")
            unexplained.append(UnexplainedEvent(k, u.kind, magnitude))
        for k in [e.k for e in events] + [u.k for u in unexplained]:
            if not start <= k < start + length:
                raise ValidationError(
                    f"event at k={k} outside the estimates' [{start}, {start + length})"
                )
        # Frozen: the checked values are written past __setattr__.
        vars(self).update(
            events=tuple(events), unexplained=tuple(unexplained), models=models,
            residual_rms=check_number("residual_rms", self.residual_rms, zero_ok=True),
            start_index=start, length=length, sample_period=period,
        )

    @property
    def device_names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.models)

    @cached_property
    def estimated_outputs(self) -> tuple[SignalSeries, ...]:
        schedules = [[(e.k - self.start_index, e.level) for e in self.events if e.device == dev]
                     for dev in range(len(self.models))]
        rows = _outputs(self.models, schedules, self.length)
        return tuple(SignalSeries(row, self.sample_period, self.start_index) for row in rows)

    @cached_property
    def estimated_total(self) -> SignalSeries:
        total = _device_sum([s.values for s in self.estimated_outputs], np.empty(self.length))
        return SignalSeries(total, self.sample_period, self.start_index)


def result_to_dict(result: DisaggregationResult) -> dict:
    """The result.json content; events name their device and their kind.

    Every field of params, events and unexplained is a scalar, so shallow
    copies of each frozen instance's ``vars`` stand in for
    ``dataclasses.asdict``'s deep copy.  The library and the estimates'
    range and period let the loaded result render every estimate.
    """
    names = result.device_names
    return {
        "params": {**vars(result.params)},
        "devices": list(names),
        "events": [{**vars(e), "device": names[e.device], "kind": e.kind}
                   for e in result.events],
        "residual_rms": result.residual_rms,
        "unexplained": [{**vars(u)} for u in result.unexplained],
        "library": [model_to_dict(m) for m in result.models],
        "start_index": result.start_index,
        "length": result.length,
        "sample_period": result.sample_period,
    }


def save_result(result: DisaggregationResult, out_dir: str | Path) -> None:
    """Write each estimate_<device>.csv and estimate_total.csv, then result.json,
    so a write that fails leaves no result.json, not even an earlier one."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").unlink(missing_ok=True)
    paths = [out / f"estimate_{name}.csv" for name in (*result.device_names, "total")]
    _write_signal_csvs(list(zip((*result.estimated_outputs, result.estimated_total), paths)))
    write_json(out / "result.json", result_to_dict(result))


def load_result(out_dir: str | Path) -> DisaggregationResult:
    """Rebuild a result object from the result.json save_result wrote.

    Only the file's format is checked here: DisaggregationResult applies the
    rules on values, and renders the estimates, so no estimate CSV is read.
    """
    path = Path(out_dir) / "result.json"
    with reading(path) as data:
        names = [check_name(name) for name in check_array("devices", data["devices"])]
        library = tuple(model_from_dict(m) for m in check_array("library", data["library"]))
        if [m.name for m in library] != names:
            raise ValidationError(
                f"library names {[m.name for m in library]} differ from devices {names}"
            )
        index = {name: i for i, name in enumerate(names)}
        events = []
        for raw in check_array("events", data["events"]):
            if raw["device"] not in index:
                raise ValidationError(f"event of unknown device {raw['device']!r}")
            e = SwitchEvent(raw["k"], index[raw["device"]], raw["level"])
            if raw["kind"] != e.kind:
                raise ValidationError(
                    f"event at k={e.k} has kind {raw['kind']!r} with level {e.level}"
                )
            events.append(e)
        return DisaggregationResult(
            events=tuple(events),
            unexplained=tuple(UnexplainedEvent(u["k"], u["kind"], u["magnitude"])
                              for u in check_array("unexplained", data["unexplained"])),
            residual_rms=data["residual_rms"], params=EngineParams(**data["params"]),
            models=library, start_index=data["start_index"], length=data["length"],
            sample_period=data["sample_period"],
        )
