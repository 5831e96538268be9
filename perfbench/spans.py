"""Span recording around the public calls into each layer of disagg.

A layer is a module of the package.  The traced run replaces functions
at the module attribute where their caller looks them up (for example
``disagg.cli.disaggregate``, which ``_cmd_disaggregate`` reads at call
time) with a wrapper that records a span and, for some, a count taken
from the arguments or the result.  Spans stay in memory and are written
out when the run ends.

A span's self time is its duration minus the durations of its child
spans.  Everything runs on one thread, so children never overlap and
the per-layer self times of one job add up to the job's traced wall
time minus the time covered by no span at all.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str  # "<layer>.<operation>"
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """In-memory span and counter store for one traced job."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        self._open.pop()
        self.spans[index] = self.spans[index]._replace(end=self.clock())

    def reset(self) -> None:
        if self._open:
            raise RuntimeError("reset with spans still open")
        self.spans = []
        self.counts = Counter()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Inclusive seconds per span name and self seconds per layer.

    Keys are "<name>_s" for every span name and "<layer>.self_s" for
    every layer, plus "roots_s", the time covered by top-level spans.
    """
    totals: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        totals[f"{s.layer}.self_s"] += own
        totals[f"{s.name}_s"] += s.end - s.start
        if s.parent < 0:
            totals["roots_s"] += s.end - s.start
    return dict(totals)


# (module, attribute, span name, counters).  Each counter is
# (counter name, function of (args, result) giving the increment).
# A span name of None names the span after the CLI subcommand.
_CLI_TARGETS = (
    ("disagg.cli", "main", None, ()),
    ("disagg.cli", "save_result", "cli.save_result", ()),
    ("disagg.cli", "load_result", "cli.load_result", ()),
)
_ENGINE_TARGETS = tuple(
    ("disagg.cli", attr, "engine.run", (
        ("engine.samples", lambda a, r: len(a[0])),
        ("engine.events", lambda a, r: len(r.events)),
        ("engine.unexplained", lambda a, r: len(r.unexplained)),
    ))
    for attr in ("disaggregate", "disaggregate_beam")
)
_MODELS_TARGETS = tuple(
    (module, "simulate_zero_state", "models.simulate", (
        ("models.simulate_calls", lambda a, r: 1),
        ("models.simulate_samples", lambda a, r: len(a[1])),
    ))
    for module in ("disagg.engine", "disagg.scenario", "disagg.evaluate")
) + (
    ("disagg.engine", "unit_step_values", "models.step", (
        ("models.step_calls", lambda a, r: 1),
        ("models.step_samples", lambda a, r: len(r)),
    )),
    ("disagg.cli", "load_library", "models.load_library", ()),
)
_SCENARIO_TARGETS = (
    ("disagg.cli", "render", "scenario.render", ()),
    ("disagg.cli", "save_scenario", "scenario.save", ()),
)
# The benchmark's own meter conversion calls through disagg.ingest.
_INGEST_TARGETS = tuple(
    target
    for module in ("disagg.cli", "disagg.ingest")
    for target in (
        (module, "parse_emontx_csv", "ingest.parse_emontx",
         (("ingest.rows_parsed", lambda a, r: len(r)),)),
        (module, "to_signal", "ingest.resample", ()),
        (module, "write_signal_csv", "ingest.write_signal",
         (("ingest.samples_written", lambda a, r: len(a[0])),)),
    )
) + (("disagg.cli", "read_signal_csv", "ingest.read_signal", ()),)
_SYSID_TARGETS = (
    ("disagg.cli", "identify_device", "sysid.identify", (("sysid.devices", lambda a, r: 1),)),
    ("disagg.sysid", "detect_plug_input", "sysid.detect", ()),
    ("disagg.sysid", "fit_arx", "sysid.fit_arx", ()),
    ("disagg.sysid", "arx_to_state_space", "sysid.realize", ()),
)
_EVALUATE_TARGETS = (
    ("disagg.cli", "score", "evaluate.score", ()),
    ("disagg.evaluate", "match_events", "evaluate.match", (
        ("evaluate.matched_pairs", lambda a, r: len(r.pairs)),
        ("evaluate.unmatched",
         lambda a, r: len(r.unmatched_truth) + len(r.unmatched_estimate)),
    )),
)
TARGETS = (
    _CLI_TARGETS + _ENGINE_TARGETS + _MODELS_TARGETS + _SCENARIO_TARGETS
    + _INGEST_TARGETS + _SYSID_TARGETS + _EVALUATE_TARGETS
)


def _wrap(recorder: Recorder, fn, span_name, counters):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        name = span_name or f"cli.{args[0][0]}"
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        for counter, increment in counters:
            recorder.counts[counter] += increment(args, result)
        return result

    return traced


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every target; returns a function that puts the originals back."""
    originals = []
    for module_name, attr, span_name, counters in TARGETS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        originals.append((module, attr, fn))
        setattr(module, attr, _wrap(recorder, fn, span_name, counters))

    def restore() -> None:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)

    return restore
