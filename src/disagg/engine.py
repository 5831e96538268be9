"""Recovery of per-device switch schedules from an aggregate signal.

The engine tracks one (or, with a beam, several) on/off configuration
hypotheses online.  While the configuration's predicted output tracks
the measurement it is kept; a persistent positive deviation triggers an
on-event search (every off device crossed with nearby start times, each
scored by a closed-form constant-input fit over a lookahead window); a
persistent negative deviation is attributed to the on device whose
steady contribution is nearest the observed drop.  Every accepted event
adds exactly one nonzero entry to the global input difference, so the
event count is the sparsity of the reconstruction.

By linearity each hypothesis's per-device prediction is a sum of shifted
unit-step responses, one per event.  Each device's prediction is a
``models._Row``, which also holds the device's input level and last
switch; an event switches it, with the kernel and the row that
``simulate_zero_state`` uses for the same schedule.  Each device's step
response g is computed once per run, only as far as some read reaches;
the on-event fits score its head.

Cost: the loop runs once per detection, not once per sample.  Each
hypothesis keeps its residual, the measurement less its prediction, and
its next detection, found by a numpy scan of the mask |residual| >
threshold; the engine jumps to the earliest in the pool, so the Python
work grows with the detections times the pool width.  The increases of
one step whose runs start at one position are fit together: one stacked
fit per start time in the backtrack window, a row per (hypothesis, off
device), each against its hypothesis's residual.  An instant-off
device's row is written only as far as the engine reads it (the scan, a
fit window, a ranked prefix), and a reset ends its pending terms, so an
event costs numpy work over the samples read while its device is on, not
over the rest of the signal; any other row is written to the end at each
event.  The residual, which every decision reads, is formed in one place
and only as far as the next scan advances.
A beam step scores each branch from its parent's rows before building
any, then clones only the survivors, which share device rows until they
switch one; the switcher copies the row's written part.  A parent's
residual through p is copied once for all its branches.  From the
earliest branch position on, each branch's rows are one slice of a
(devices x branches) stack: the parent's rows, its own device's
switched by the one _switch call that building the child makes, summed
in device order and subtracted from y as _sync forms a residual, so a
child's key has its built bits by construction.  Each ranked entry
still costs one dot product over [0, p], O(p): a sum of shorter
products would not have the score's bits.  A clone costs its residual
copy, O(T).
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .models import (
    DeviceModel, _Row, _device_sum, _switch, _unit_step_rows, check_library, dc_gain,
)
# Unused here, but perfbench/spans.py wraps disagg.engine.simulate_zero_state
# and disagg.engine.unit_step_values.
from .models import simulate_zero_state, unit_step_values  # noqa: F401
from .result import DisaggregationResult, EngineParams, SwitchEvent, UnexplainedEvent
from .series import SignalSeries, estimate_noise_std

NOISE_THRESHOLD_MULTIPLE = 5.0
# Absolute floor keeps noiseless signals from tripping on float dust.
THRESHOLD_FLOOR_RELATIVE = 1e-9
# First chunk, in samples, of a detection scan; later chunks double.  It
# is about one event gap of the reference schedule (29-81 samples), so
# most scans take one or two chunks and little of the residual is formed
# past the next detection.
SCAN_CHUNK = 64
# An off goes first to a device on for at least this many samples.
MIN_ON_DURATION = 3


def resolve_threshold(y_m: SignalSeries, params: EngineParams) -> float:
    if params.deviation_threshold is not None:
        return params.deviation_threshold
    floor = THRESHOLD_FLOOR_RELATIVE * max(
        1.0, float(np.max(np.abs(y_m.values))) if len(y_m) else 1.0
    )
    return max(NOISE_THRESHOLD_MULTIPLE * estimate_noise_std(y_m), floor)


def _fits(G: np.ndarray, e: np.ndarray, gg) -> tuple[np.ndarray, np.ndarray]:
    """(levels, sses) of the least-squares constant level for e, per row of G.

    A row is a device's unit-step response over the window, gg its g @ g;
    the output is linear in the level, so each fit projects e onto a row.
    e is one window for every row, or one row of e per row of G.
    numpy takes the stacked (1, n) @ (n, 1) products as the 1-D g @ e, so a
    row's bits do not depend on the others (2-D G @ e may round otherwise).
    """
    levels = (G[:, None, :] @ e[..., None])[:, 0, 0] / gg
    diff = e - levels[:, None] * G
    return levels, (diff[:, None, :] @ diff[:, :, None])[:, 0, 0]


class _Detection(NamedTuple):
    """A persistent deviation: found at p, of sign kind, its run starting at ks."""

    p: int
    kind: str  # "increase" | "decrease"
    ks: int


class _Hypothesis:
    """One configuration tracked by the engine, with its predictions.

    rows are the per-device models._Row: input level, last switch and
    prediction.  A clone shares them with its parent until one side
    switches a row, so a shared row has one switch history for all who
    hold it; owned marks the rows this hypothesis may switch in place.
    resid, the measurement y less the device-order sum of the rows, is
    current below `synced` only; rows that are all zero start it as a
    copy of y.  detection is the next detection at or after the last
    step this hypothesis took part in.
    """

    __slots__ = ("rows", "owned", "resid", "synced", "events", "times", "unexplained",
                 "suppressed", "detection")

    def __init__(self, rows: list[_Row], y: np.ndarray):
        self.rows, self.owned = rows, [True] * len(rows)
        self.resid = y.copy()
        self.synced = len(y)
        self.events: list[SwitchEvent] = []
        self.times: set[int] = set()
        self.unexplained: list[UnexplainedEvent] = []
        self.suppressed = False
        self.detection: _Detection | None = None

    def clone(self) -> "_Hypothesis":
        new = object.__new__(_Hypothesis)
        new.rows = list(self.rows)
        new.owned = [False] * len(self.rows)
        self.owned = [False] * len(self.rows)
        new.resid = self.resid.copy()
        new.synced = self.synced
        new.events = list(self.events)
        new.times = set(self.times)
        new.unexplained = list(self.unexplained)
        new.suppressed = self.suppressed
        new.detection = self.detection
        return new


class _Engine:
    """Shared greedy/beam loop; greedy is the beam of width one."""

    def __init__(
        self,
        y_m: SignalSeries,
        library: list[DeviceModel],
        params: EngineParams,
    ):
        self.models = check_library(library)
        needed = params.lookahead + params.backtrack_window
        if len(y_m) <= needed:
            raise ValidationError(
                f"signal length {len(y_m)} must exceed lookahead + backtrack = {needed}"
            )
        self.y = y_m.values
        self.start = y_m.start_index
        self.period = y_m.sample_period
        self.T = len(self.y)
        self.params = replace(params, deviation_threshold=resolve_threshold(y_m, params))
        self.threshold = self.params.deviation_threshold
        self.sparsity_penalty = self.threshold**2 * params.lookahead
        self.gains = [dc_gain(m) for m in self.models]
        # Each device's step response g, grown as far as the reads reach.
        self.steps = _unit_step_rows(self.models, self.T)
        # heads[dev] = g[:needed + 1] spans every on-event fit window; gg[dev, n]
        # is g[:n] @ g[:n], or inf where that is 0 (no fit: a level 0 is dropped).
        heads = self.heads = np.stack([step.upto(needed + 1) for step in self.steps])
        gg = np.stack([(heads[:, None, :n] @ heads[:, :n, None])[:, 0, 0]
                       for n in range(needed + 2)], axis=1)
        self.gg = np.where(gg == 0.0, np.inf, gg)

    # -- per-hypothesis mechanics ------------------------------------

    def _apply(self, hyp: _Hypothesis, event: SwitchEvent):
        """Log event and switch its device's row to its level from its time on.

        A shared row is written up to the event before it is copied, so
        that write is made once for all who hold it.
        """
        dev, pos = event.device, event.k - self.start
        row = hyp.rows[dev]
        row.extend(pos)
        if not hyp.owned[dev]:
            row = hyp.rows[dev] = row.copy()
            hyp.owned[dev] = True
        row.switch(pos, event.level)
        hyp.events.append(event)
        hyp.times.add(event.k)
        hyp.synced = min(hyp.synced, pos)

    def _sync(self, hyp: _Hypothesis, b: int):
        """Bring hyp.resid, and the rows it subtracts, up to date below b:
        the one place y less the rows' device-order sum is formed."""
        a = hyp.synced
        if a < b:
            for row in hyp.rows:
                if row.pending:
                    row.extend(b)
            out = hyp.resid[a:b]
            _device_sum([row.values[a:b] for row in hyp.rows], out)
            np.subtract(self.y[a:b], out, out)
            hyp.synced = b

    def _quiet(self, hyp: _Hypothesis, a: int, b: int) -> np.ndarray:
        """Positions in [a, b), counted from a, where |resid| <= threshold."""
        self._sync(hyp, b)
        return (np.abs(hyp.resid[a:b]) <= self.threshold).nonzero()[0]

    def _scan(self, hyp: _Hypothesis, p0: int) -> _Detection | None:
        """The first detection at or after p0, or None before the end.

        Stepping the per-sample rule from p0 gives the same answer: p is a
        detection when each of the last `persistence` samples up to p
        deviates from the prediction by more than the threshold and, if
        hyp is suppressed after an unexplained change, a quiet sample has
        come first (it lifts the suppression).  ks is the first position
        of the violating run, kind the residual's sign there.  The mask is
        computed in chunks that double as the scan advances, so its work
        is bounded by how far the scan gets.
        """
        T, pers = self.T, self.params.persistence
        # No window of a p >= p0 reaches below lo, so lo - 1 counts as
        # quiet; a suppressed hypothesis waits for a real quiet sample.
        lo = p0 if hyp.suppressed else max(0, p0 - pers + 1)
        a, last, chunk = lo, lo - 1, SCAN_CHUNK
        while a < T:
            b = min(T, a + chunk)
            quiet = self._quiet(hyp, a, b)
            if hyp.suppressed and quiet.size:
                hyp.suppressed = False
                last, quiet = a + int(quiet[0]), quiet[1:]
            if not hyp.suppressed:
                # The last quiet position, this chunk's quiet ones and b,
                # counted from a; a gap above pers between neighbours holds
                # a violating run of at least pers samples.
                bounds = np.empty(quiet.size + 2, dtype=quiet.dtype)
                bounds[0], bounds[1:-1], bounds[-1] = last - a, quiet, b - a
                runs = (np.subtract(bounds[1:], bounds[:-1]) > pers).nonzero()[0]
                if runs.size:
                    q = a + int(bounds[runs[0]])
                    ks = self._run_start(hyp, lo) if q == lo - 1 else q + 1
                    kind = "increase" if hyp.resid[ks] > 0 else "decrease"
                    return _Detection(q + pers, kind, ks)
                last = a + int(bounds[-2])
            a, chunk = b, 2 * chunk
        return None

    def _run_start(self, hyp: _Hypothesis, j: int) -> int:
        """First position of the violating run that reaches j."""
        step = SCAN_CHUNK
        while j > 0:
            a = max(0, j - step)
            quiet = self._quiet(hyp, a, j)
            if quiet.size:
                return a + int(quiet[-1]) + 1
            j, step = a, 2 * step
        return 0

    def _on_candidates(self, hyps: list[_Hypothesis], ks_pos: int) -> list[list]:
        """Per hypothesis, its filtered on-event (sse, k, device, level)
        tuples for an increase at ks_pos, sorted: by fit SSE, then time,
        then device.

        Every off device is crossed with every start time in the backtrack
        window and fit over the lookahead window.  The fits of one start
        time are one stacked fit of every (hypothesis, off device) row, each
        row against its hypothesis's residual; a start time that every
        hypothesis has logged is not fit.  Filters: positive level,
        max_input, the max-output prior on the predicted steady draw, no
        collision with an already-logged event time, and no rewind past the
        device's own last switch.
        """
        params = self.params
        k_end = min(ks_pos + params.lookahead, self.T - 1)
        k_lo = max(0, ks_pos - params.backtrack_window)
        for hyp in hyps:
            self._sync(hyp, k_end + 1)
        # One (hypothesis, off device, its last switch) per fit row.
        rows = [(i, dev, row.last) for i, hyp in enumerate(hyps)
                for dev, row in enumerate(hyp.rows) if row.level == 0.0]
        outs: list[list] = [[] for _ in hyps]
        if not rows:
            return outs
        resid = np.array([hyps[i].resid[k_lo : k_end + 1] for i, _, _ in rows])
        devs = [dev for _, dev, _ in rows]
        heads, gg = self.heads[devs], self.gg[devs]
        for kp in range(k_lo, ks_pos + 1):
            k_abs, n = self.start + kp, k_end - kp + 1
            logged = [k_abs in hyp.times for hyp in hyps]
            if all(logged):
                continue
            levels, sses = _fits(heads[:, :n], resid[:, kp - k_lo :], gg[:, n])
            for (i, dev, last), level, sse in zip(rows, levels.tolist(), sses.tolist()):
                m = self.models[dev]
                if (
                    last >= kp or level <= 0.0
                    or (m.max_input is not None and level > m.max_input)
                    or (m.max_output is not None and self.gains[dev] * level > m.max_output)
                    or logged[i]
                ):
                    continue
                outs[i].append((sse, k_abs, dev, level))
        for out in outs:
            out.sort()
        return outs

    def _off_events(self, hyp: _Hypothesis, ks_pos: int, p: int) -> list[SwitchEvent]:
        """Switch off the on device whose steady contribution is nearest the drop at p.

        Only devices whose last switch precedes the off time qualify.
        Devices on for at least MIN_ON_DURATION samples are preferred;
        ties go to the lower device index.  No event when nothing qualifies.
        """
        k_abs, rows = self.start + ks_pos, hyp.rows
        on_devs = [i for i, row in enumerate(rows) if row.level != 0.0 and row.last < ks_pos]
        if k_abs in hyp.times or not on_devs:
            return []
        drop = abs(hyp.resid[p])
        dev = min(on_devs, key=lambda i: (
            ks_pos - rows[i].last < MIN_ON_DURATION,
            abs(self.gains[i] * rows[i].level - drop),
            i,
        ))
        return [SwitchEvent(k_abs, dev, 0.0)]

    # -- pool management ----------------------------------------------

    def _key(self, resid: np.ndarray, log: list[SwitchEvent]) -> tuple:
        """Score (squared residual plus the sparsity penalty per event), then
        fewer events, then the event log in SwitchEvent order."""
        return (float(resid.dot(resid)) + self.sparsity_penalty * len(log), len(log), log)

    def _rank_key(self, hyp: _Hypothesis, p: int) -> tuple:
        """The _key of hyp's residual through p."""
        self._sync(hyp, p + 1)
        return self._key(hyp.resid[: p + 1], hyp.events)

    def _branch_keys(
        self, hyp: _Hypothesis, events: list[SwitchEvent], p: int
    ) -> list[tuple]:
        """The _rank_key at p of each child that one of events makes of hyp.

        No child is built.  Over [lo, p], lo being the earliest event's
        position, stack[dev, j] is child j's row of dev: hyp's row, its
        own device's switched by the models._switch call that _Row.switch
        makes when the child is built.  The rows are summed by
        _device_sum and subtracted from y, as _sync forms a residual, so
        each tail is its child's residual bit for bit.  Each tail, written
        into a copy of hyp's residual through p, gives the child's key.
        """
        self._sync(hyp, p + 1)
        resid = hyp.resid[: p + 1].copy()
        lo = min(event.k for event in events) - self.start
        n, rows = p + 1 - lo, hyp.rows
        stack = np.repeat(np.array([row.values[lo : p + 1] for row in rows])[:, None],
                          len(events), axis=1)
        for j, event in enumerate(events):
            dev, pos = event.device, event.k - self.start - lo
            row = rows[dev]
            _switch(stack[dev, j], self.steps[dev].upto(n - pos), pos, row.level,
                    event.level, row.instant_off)
        tails = _device_sum(stack, np.empty((len(events), n)))
        np.subtract(self.y[lo : p + 1], tails, out=tails)
        keys = []
        for event, tail in zip(events, tails):
            resid[lo:] = tail
            keys.append(self._key(resid, [*hyp.events, event]))
        return keys

    def _step(self, pool: list[_Hypothesis], p: int) -> list[_Hypothesis]:
        """Handle the detections at p; the next pool, ranked when it overflows.

        Each entry is a hypothesis kept as it is or a (parent, event)
        branch.  The increases whose runs start at one position have their
        candidates fit together.  Branches are ranked before they are
        built, so only the survivors are cloned and applied; a parent's
        last surviving branch reuses the parent.
        """
        # (hyp, None) keeps hyp as it is; (parent, events) branches it.
        groups: list[tuple[_Hypothesis, list[SwitchEvent] | None]] = []
        candidates: dict = {}
        for hyp in pool:
            detection = hyp.detection
            if detection is None or detection.p != p:
                groups.append((hyp, None))
                continue
            _, kind, ks_pos = detection
            if kind == "increase":
                if hyp not in candidates:
                    # Every hypothesis with this detection is fit now, together.
                    group = [other for other in pool if other.detection == detection]
                    candidates.update(zip(group, self._on_candidates(group, ks_pos)))
                take = candidates[hyp][: self.params.beam_width]
                events = [SwitchEvent(k, dev, level) for _, k, dev, level in take]
            else:
                events = self._off_events(hyp, ks_pos, p)
            if not events:
                hyp.unexplained.append(
                    UnexplainedEvent(self.start + ks_pos, kind, float(hyp.resid[p]))
                )
                hyp.suppressed = True
                hyp.detection = self._scan(hyp, p + 1)
            groups.append((hyp, events or None))
        entries = [(hyp, event) for hyp, events in groups for event in events or [None]]
        if len(entries) > self.params.beam_width:
            keys = []
            for hyp, events in groups:
                keys += ([self._rank_key(hyp, p)] if events is None
                         else self._branch_keys(hyp, events, p))
            order = sorted(range(len(entries)), key=keys.__getitem__)
            entries = [entries[i] for i in order[: self.params.beam_width]]
        last = {
            id(hyp): i for i, (hyp, event) in enumerate(entries) if event is not None
        }
        # Clones are taken before any parent is changed.
        pool = [
            hyp if event is None or last[id(hyp)] == i else hyp.clone()
            for i, (hyp, event) in enumerate(entries)
        ]
        for hyp, (_, event) in zip(pool, entries):
            if event is not None:
                self._apply(hyp, event)
                hyp.detection = self._scan(hyp, p + 1)
        return pool

    def run(self) -> DisaggregationResult:
        pool = [_Hypothesis([_Row(step, self.T) for step in self.steps], self.y)]
        pool[0].detection = self._scan(pool[0], 0)
        while True:
            due = [hyp.detection.p for hyp in pool if hyp.detection is not None]
            if not due:
                break
            pool = self._step(pool, min(due))
        best = min(pool, key=lambda h: self._rank_key(h, self.T - 1))
        return self._build_result(best)

    def _build_result(self, hyp: _Hypothesis) -> DisaggregationResult:
        self._sync(hyp, self.T)
        result = DisaggregationResult(
            events=tuple(hyp.events), unexplained=tuple(hyp.unexplained),
            residual_rms=float(np.sqrt(np.mean(hyp.resid**2))), models=self.models,
            params=self.params,
            start_index=self.start, length=self.T, sample_period=self.period,
        )
        # The rows the engine scored are the estimates' render, bit for bit.
        object.__setattr__(result, "estimated_outputs", tuple(
            SignalSeries(row.values, self.period, self.start) for row in hyp.rows))
        return result


def disaggregate(
    y_m: SignalSeries, library: list[DeviceModel], params: EngineParams = EngineParams()
) -> DisaggregationResult:
    """Recover per-device switch schedules from an aggregate signal.

    Keeps up to params.beam_width configuration hypotheses ranked by
    cumulative squared residual plus a per-event sparsity penalty of
    threshold^2 * lookahead; on-event detections branch over the
    surviving candidates.  The default width of one is the greedy
    single-hypothesis engine.
    """
    return _Engine(y_m, library, params).run()


disaggregate_beam = disaggregate  # earlier name of the beam entry point

