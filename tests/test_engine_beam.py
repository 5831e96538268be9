"""Beam search against greedy and against unpruned enumeration.

The oracle here re-implements the engine's branch points as a plain
recursive enumeration over full event logs, scoring each completed log
independently; the beam with a width exceeding the number of reachable
configurations must return the oracle's minimum-score log exactly.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from disagg import (
    ArxModel,
    DeviceModel,
    EngineParams,
    PiecewiseInput,
    SignalSeries,
    SwitchEvent,
    arx_to_state_space,
    dc_gain,
    disaggregate,
    random_stable_model,
    reference_scenario,
    render,
    simulate_zero_state,
    unit_step_values,
)
import disagg.engine as engine_module
from disagg.engine import _Detection, _Engine, _Hypothesis
from disagg.models import _Row
from conftest import hold

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from inputs import tiled_reference_scenario  # noqa: E402


def _root(engine):
    """engine's root hypothesis: every device off, no row written."""
    return _Hypothesis([_Row(step, engine.T) for step in engine.steps], engine.y)


def _event_key(e):
    """Explicit event order, kept apart from SwitchEvent's own ordering."""
    return (e.k, e.device, e.kind, e.level)


def _predict(library, events, T):
    per_dev = [[] for _ in library]
    for e in sorted(events, key=_event_key):
        per_dev[e.device].append((e.k, e.level))
    total = np.zeros(T)
    for model, evs in zip(library, per_dev):
        u = hold(PiecewiseInput(tuple(evs)), 0, T)
        total = total + simulate_zero_state(model, u).values
    return total


def _oracle_best(y_m, library, params):
    """Exhaustive depth-first enumeration of every reachable event log."""
    y = y_m.values
    T = len(y)
    thr = params.deviation_threshold
    lam = thr**2 * params.lookahead
    pers = params.persistence
    gains = [dc_gain(m) for m in library]
    leaves = []

    def status(events):
        n = len(library)
        on = [False] * n
        level = [0.0] * n
        since = [0] * n
        last = [-1] * n
        for e in sorted(events, key=lambda ev: ev.k):
            on[e.device] = e.kind == "on"
            level[e.device] = e.level
            since[e.device] = e.k
            last[e.device] = e.k
        return on, level, since, last

    def candidates(events, y_hat, ks):
        on, _, _, last = status(events)
        used = {e.k for e in events}
        kend = min(ks + params.lookahead, T - 1)
        out = []
        for dev, model in enumerate(library):
            if on[dev]:
                continue
            for kp in range(max(0, ks - params.backtrack_window), ks + 1):
                if kp in used or kp <= last[dev]:
                    continue
                e = y[kp : kend + 1] - y_hat[kp : kend + 1]
                g = unit_step_values(model, len(e))
                gg = float(g @ g)
                if gg == 0.0:
                    continue
                level = float(g @ e) / gg
                if level <= 0.0:
                    continue
                if model.max_input is not None and level > model.max_input:
                    continue
                if model.max_output is not None and gains[dev] * level > model.max_output:
                    continue
                out.append(SwitchEvent(kp, dev, level))
        return out

    def scan(events, p, suppressed):
        y_hat = _predict(library, events, T)
        while p < T:
            r = y[p] - y_hat[p]
            if abs(r) <= thr:
                suppressed = False
                p += 1
                continue
            if suppressed:
                p += 1
                continue
            if p - pers + 1 < 0 or any(
                abs(y[j] - y_hat[j]) <= thr for j in range(p - pers + 1, p)
            ):
                p += 1
                continue
            ks = p - pers + 1
            while ks > 0 and abs(y[ks - 1] - y_hat[ks - 1]) > thr:
                ks -= 1
            if y[ks] - y_hat[ks] > 0:
                cands = candidates(events, y_hat, ks)
                if not cands:
                    suppressed = True
                    p += 1
                    continue
                for cand in cands:
                    scan(events + [cand], p + 1, False)
                return
            on, level, since, last = status(events)
            on_devs = [i for i in range(len(library)) if on[i] and last[i] < ks]
            used = {e.k for e in events}
            if not on_devs or ks in used:
                suppressed = True
                p += 1
                continue
            eligible = [
                i for i in on_devs if ks - since[i] >= engine_module.MIN_ON_DURATION
            ] or on_devs
            drop = abs(r)
            dev = min(eligible, key=lambda i: (abs(gains[i] * level[i] - drop), i))
            scan(events + [SwitchEvent(ks, dev, 0.0)], p + 1, False)
            return

        resid = y - y_hat
        score = float(resid @ resid) + lam * len(events)
        leaves.append((score, len(events), tuple(_event_key(e) for e in events), events))

    scan([], 0, False)
    best = min(leaves, key=lambda t: t[:3])
    return best[3], len(leaves)


def _twin_pair():
    # Identical first two step samples (1, 1.5), tails settling at 2 vs 1.538.
    twin = arx_to_state_space(ArxModel(a=(0.5,), b_coef=(1.0,)), "twin")
    true_dev = arx_to_state_space(
        ArxModel(a=(0.5, -0.15), b_coef=(1.0, 0.0)), "true_dev"
    )
    return twin, true_dev


def test_beam_width_one_equals_greedy():
    # Greedy is the beam of width one and the default; a run records the
    # width it ran with.
    assert EngineParams().beam_width == 1
    for seed in (0, 1, 2):
        sc = reference_scenario(seed)
        aggregate, _ = render(sc)
        lib = list(sc.models)
        assert disaggregate(aggregate, lib).params.beam_width == 1
        wide = disaggregate(aggregate, lib, EngineParams(beam_width=4))
        assert wide.params.beam_width == 4


def test_beam_off_events_never_precede_the_device_own_on():
    # A case where the beam could attribute an off event to a device before
    # its own on (device 2 on@346, off@339), leaving an invalid schedule.
    sc = reference_scenario(126)
    aggregate, _ = render(sc)
    res = disaggregate(aggregate, list(sc.models), EngineParams(beam_width=8))
    assert res.params.beam_width == 8
    for dev in range(len(sc.models)):
        kinds = [e.kind for e in res.events if e.device == dev]
        assert kinds == ["on", "off"] * (len(kinds) // 2) + ["on"] * (len(kinds) % 2)


def test_beam_recovers_where_greedy_commits_to_wrong_twin():
    twin, true_dev = _twin_pair()
    lib = [twin, true_dev]
    y = simulate_zero_state(true_dev, hold(PiecewiseInput(((15, 2.0),)), 0, 70))
    base = EngineParams(deviation_threshold=0.1, lookahead=1, backtrack_window=2)

    greedy = disaggregate(SignalSeries(y.values), lib, base)
    assert [(e.k, e.device, e.kind) for e in greedy.events] != [(15, 1, "on")]
    assert greedy.events[0].device == 0  # tie went to the lower-index twin

    from dataclasses import replace

    beam = disaggregate(SignalSeries(y.values), lib, replace(base, beam_width=4))
    assert [(e.k, e.device, e.kind) for e in beam.events] == [(15, 1, "on")]
    assert beam.events[0].level == pytest.approx(2.0, abs=1e-9)
    assert beam.residual_rms <= 1e-9
    assert beam.residual_rms < greedy.residual_rms


def test_beam_matches_exhaustive_on_twin_instance():
    twin, true_dev = _twin_pair()
    lib = [twin, true_dev]
    y = simulate_zero_state(true_dev, hold(PiecewiseInput(((15, 2.0),)), 0, 70))
    y_m = SignalSeries(y.values)
    params = EngineParams(
        deviation_threshold=0.1, lookahead=1, backtrack_window=2, beam_width=10_000
    )
    best_events, n_leaves = _oracle_best(y_m, lib, params)
    res = disaggregate(y_m, lib, params)
    assert n_leaves >= 2
    assert list(res.events) == sorted(best_events, key=_event_key)


def _random_instance(seed):
    rng = np.random.default_rng(seed)
    m0 = random_stable_model(2, 2 * seed, instant_off=bool(seed % 2))
    m1 = random_stable_model(2, 2 * seed + 1, instant_off=True)
    T = 55
    k_on0 = 10
    k_on1 = int(rng.integers(14, 30))
    k_off = int(rng.integers(38, 46))
    lvl0 = float(rng.uniform(1.0, 2.5))
    lvl1 = float(rng.uniform(1.0, 2.5))
    u0 = PiecewiseInput(((k_on0, lvl0),))
    u1 = PiecewiseInput(((k_on1, lvl1), (k_off, 0.0)))
    y = (
        simulate_zero_state(m0, hold(u0, 0, T)).values
        + simulate_zero_state(m1, hold(u1, 0, T)).values
        + rng.normal(scale=0.01, size=T)
    )
    return SignalSeries(y), [m0, m1]


def test_beam_matches_exhaustive_on_random_instances():
    params = EngineParams(
        deviation_threshold=0.12,
        lookahead=6,
        backtrack_window=1,
        beam_width=10_000,
    )
    for seed in range(12):
        y_m, lib = _random_instance(seed)
        best_events, _ = _oracle_best(y_m, lib, params)
        res = disaggregate(y_m, lib, params)
        assert list(res.events) == sorted(best_events, key=_event_key), f"instance {seed}"


def test_wide_beam_never_scores_worse_than_greedy():
    def final_score(result, y_m):
        resid = y_m.values - result.estimated_total.values
        thr = result.params.deviation_threshold
        lam = thr**2 * result.params.lookahead
        return float(resid @ resid) + lam * len(result.events)

    for seed in range(6):
        y_m, lib = _random_instance(100 + seed)
        base = EngineParams(deviation_threshold=0.12, lookahead=6, backtrack_window=1)
        from dataclasses import replace

        g = disaggregate(y_m, lib, base)
        b = disaggregate(y_m, lib, replace(base, beam_width=64))
        assert final_score(b, y_m) <= final_score(g, y_m) + 1e-12


def test_rank_ties_on_score_and_count_break_by_event_log():
    # Twin devices switched on at the same time predict the same bits, so
    # the two logs tie on score and event count; the log order must then
    # decide, whether a branch is ranked built or before it is built, and
    # whatever order the entries arrive in.
    twins = [DeviceModel(name, A=[[0.5]], b=[0.5], c=[1.0]) for name in ("a", "b")]
    y = SignalSeries(np.concatenate([np.zeros(10), np.full(20, 2.0)]))
    engine = _Engine(y, twins, EngineParams(deviation_threshold=0.1))
    root = _root(engine)
    on_a, on_b = (SwitchEvent(10, dev, 2.0) for dev in (0, 1))
    built_a, built_b = root.clone(), root.clone()
    engine._apply(built_a, on_a)
    engine._apply(built_b, on_b)
    p = 20
    key_a, key_b = engine._branch_keys(root, [on_a, on_b], p)
    assert key_a[:2] == key_b[:2]
    assert key_a < key_b
    assert key_a == engine._rank_key(built_a, p)
    assert key_b == engine._rank_key(built_b, p)
    assert engine._step([built_b, built_a], p) == [built_a]


def test_beam_builds_only_the_branches_that_survive(monkeypatch):
    # Every step ranks its branches before building them: no step clones
    # or applies more than beam_width hypotheses, although some steps
    # rank more branches than that.
    sc = tiled_reference_scenario(100, 2)
    aggregate, _ = render(sc)
    width = 8
    counts = {"apply": 0, "clone": 0, "ranked": 0}
    steps = []

    def counting(name, fn, count=lambda *args: 1):
        def wrapped(*args):
            counts[name] += count(*args)
            return fn(*args)
        return wrapped

    def step(self, pool, p):
        before = dict(counts)
        out = real_step(self, pool, p)
        steps.append({name: counts[name] - before[name] for name in counts})
        return out

    real_step = _Engine._step
    monkeypatch.setattr(_Engine, "_apply", counting("apply", _Engine._apply))
    monkeypatch.setattr(_Hypothesis, "clone", counting("clone", _Hypothesis.clone))
    monkeypatch.setattr(_Engine, "_rank_key", counting("ranked", _Engine._rank_key))
    monkeypatch.setattr(_Engine, "_branch_keys", counting(
        "ranked", _Engine._branch_keys, lambda self, hyp, events, p: len(events)))
    monkeypatch.setattr(_Engine, "_step", step)
    result = disaggregate(aggregate, list(sc.models), EngineParams(beam_width=width))
    assert result.events
    assert all(s["apply"] <= width and s["clone"] < width for s in steps)
    assert max(s["ranked"] for s in steps) > width


def test_beam_fits_no_start_time_that_every_group_member_has_logged(monkeypatch):
    # _on_candidates skips such a start time: it could give no candidate.
    sc = tiled_reference_scenario(100, 2)
    aggregate, _ = render(sc)
    counts = {"fits": 0, "all logged": 0}
    fitting = []  # (engine, hyps, k_end) of the _on_candidates call running

    def on_candidates(self, hyps, ks_pos):
        k_lo = max(0, ks_pos - self.params.backtrack_window)
        counts["all logged"] += sum(
            all(self.start + kp in hyp.times for hyp in hyps) for kp in range(k_lo, ks_pos + 1)
        )
        fitting.append((self, hyps, min(ks_pos + self.params.lookahead, self.T - 1)))
        try:
            return real_on_candidates(self, hyps, ks_pos)
        finally:
            fitting.pop()

    def fits(G, e, gg):
        engine, hyps, k_end = fitting[-1]
        k_abs = engine.start + k_end - G.shape[1] + 1
        assert not all(k_abs in hyp.times for hyp in hyps), k_abs
        counts["fits"] += 1
        return real_fits(G, e, gg)

    real_on_candidates, real_fits = _Engine._on_candidates, engine_module._fits
    monkeypatch.setattr(_Engine, "_on_candidates", on_candidates)
    monkeypatch.setattr(engine_module, "_fits", fits)
    result = disaggregate(aggregate, list(sc.models), EngineParams(beam_width=8))
    assert result.events
    assert counts["fits"] > 0 and counts["all logged"] > 0


def _parent_states():
    """Hypothesis strategy: (engine, parent, ks, p) with the parent mid-run.

    Random stable devices, instant off or not, and a parent holding random
    on/off events before the backtrack window of a detection whose run
    starts at ks; p is within the lookahead or the last sample, so the
    window may lie far behind it.
    """
    from hypothesis import strategies as st

    @st.composite
    def states(draw):
        models = [
            replace(random_stable_model(draw(st.integers(1, 3)), draw(st.integers(0, 50)),
                                        instant_off=draw(st.booleans())), name=f"d{i}")
            for i in range(draw(st.integers(1, 4)))
        ]
        params = EngineParams(
            deviation_threshold=0.1,
            lookahead=draw(st.integers(1, 6)),
            backtrack_window=draw(st.integers(0, 4)),
            beam_width=draw(st.integers(1, 6)),
        )
        T = draw(st.integers(30, 80))
        start = draw(st.integers(-3, 3))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        engine = _Engine(SignalSeries(rng.normal(size=T), 1.0, start), models, params)
        ks = draw(st.integers(params.backtrack_window, T - 1))
        p = draw(st.sampled_from([T - 1, min(T - 1, ks + draw(st.integers(0, params.lookahead)))]))
        parent = _root(engine)
        k_lo = ks - params.backtrack_window
        prior = draw(st.lists(st.tuples(st.integers(0, k_lo - 1), st.integers(0, len(models) - 1)),
                              max_size=6, unique_by=lambda t: t[0])) if k_lo else []
        for pos, dev in sorted(prior):
            level = 0.0 if parent.rows[dev].level else float(rng.uniform(0.2, 3.0))
            engine._apply(parent, SwitchEvent(start + pos, dev, level))
        return engine, parent, ks, p

    return states()


def _full_rows(engine, hyp):
    """hyp's rows written to the end of the signal, as bytes."""
    for row in hyp.rows:
        row.extend(engine.T)
    return [row.values.tobytes() for row in hyp.rows]


def _ranked_built(engine, pool, p):
    """The step's survivors by a plain reference: every child built, then ranked."""
    entries = []
    for hyp in pool:
        events = []
        if hyp.detection is not None and hyp.detection.p == p:
            _, kind, ks = hyp.detection
            if kind == "increase":
                (cands,) = engine._on_candidates([hyp], ks)
                cands = cands[: engine.params.beam_width]
                events = [SwitchEvent(k, dev, level) for _, k, dev, level in cands]
            else:
                events = engine._off_events(hyp, ks, p)
        for event in events:
            child = hyp.clone()
            engine._apply(child, event)
            entries.append(child)
        if not events:
            entries.append(hyp)
    if len(entries) > engine.params.beam_width:
        entries.sort(key=lambda hyp: engine._rank_key(hyp, p))
    return entries[: engine.params.beam_width]


def test_branch_keys_equal_built_children_property():
    # A step ranks the branches of a parent from one residual of the
    # parent: each branch's key must equal the built child's own, bit for
    # bit, whatever the branch order, the devices and their positions in
    # the window, and however far p lies past it; and the step must keep
    # the children that ranking built children keeps.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(state=_parent_states(), data=st.data())
    def check(state, data):
        engine, parent, ks, p = state
        k_lo, start = ks - engine.params.backtrack_window, engine.start
        events = [
            SwitchEvent(start + pos, dev, 0.5 + dev + 0.25 * (pos - k_lo))
            for dev, row in enumerate(parent.rows) if row.level == 0.0
            for pos in range(k_lo, ks + 1) if row.last < pos
        ] + [SwitchEvent(start + ks, dev, 0.0)
             for dev, row in enumerate(parent.rows) if row.level != 0.0][:1]
        events = data.draw(st.permutations(events))
        keys = engine._branch_keys(parent, events, p)
        for event, key in zip(events, keys, strict=True):
            child = parent.clone()
            engine._apply(child, event)
            assert key == engine._rank_key(child, p)

        kinds = st.sampled_from(["increase", "decrease"])
        pool = [parent, parent.clone()]
        engine._apply(pool[1], events[0])
        pool[0].detection = _Detection(p, data.draw(kinds), ks)
        pool[1].detection = data.draw(st.sampled_from([None, _Detection(p, data.draw(kinds), ks)]))
        want = _ranked_built(engine, [hyp.clone() for hyp in pool], p)
        got = engine._step(pool, p)
        assert [hyp.events for hyp in got] == [hyp.events for hyp in want]
        for hyp, ref in zip(got, want):
            assert _full_rows(engine, hyp) == _full_rows(engine, ref)

    check()
