"""Beam search against greedy and against unpruned enumeration.

The oracle here re-implements the engine's branch points as a plain
recursive enumeration over full event logs, scoring each completed log
independently; the beam with a width exceeding the number of reachable
configurations must return the oracle's minimum-score log exactly.
"""

import numpy as np
import pytest

from disagg import (
    ArxModel,
    DegenerateFitError,
    EngineParams,
    PiecewiseInput,
    SignalSeries,
    SwitchEvent,
    arx_to_state_space,
    dc_gain,
    disaggregate,
    disaggregate_beam,
    fit_on_event,
    random_stable_model,
    reference_scenario,
    render,
    simulate_zero_state,
)


def _predict(library, events, T):
    per_dev = [[] for _ in library]
    for e in sorted(events, key=lambda ev: ev.sort_key()):
        per_dev[e.device].append((e.k, e.level))
    total = np.zeros(T)
    for model, evs in zip(library, per_dev):
        u = PiecewiseInput(tuple(evs)).expand(0, T)
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
                e_win = SignalSeries(
                    y[kp : kend + 1] - y_hat[kp : kend + 1], start_index=kp
                )
                try:
                    fit = fit_on_event(e_win, model, kp)
                except DegenerateFitError:
                    continue
                if fit.level <= 0.0 or fit.level < params.min_level:
                    continue
                if model.max_input is not None and fit.level > model.max_input:
                    continue
                if model.max_output is not None and gains[dev] * fit.level > model.max_output:
                    continue
                out.append(SwitchEvent(kp, dev, "on", fit.level))
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
                i for i in on_devs if ks - since[i] >= params.min_on_duration
            ] or on_devs
            drop = abs(r)
            dev = min(eligible, key=lambda i: (abs(gains[i] * level[i] - drop), i))
            scan(events + [SwitchEvent(ks, dev, "off", 0.0)], p + 1, False)
            return

        resid = y - y_hat
        score = float(resid @ resid) + lam * len(events)
        leaves.append((score, len(events), tuple(e.sort_key() for e in events), events))

    scan([], 0, False)
    best = min(leaves, key=lambda t: t[:3])
    return best[3], len(leaves)


def _twin_pair():
    # Identical first two step samples (1, 1.5), tails settling at 2 vs 1.538.
    twin = arx_to_state_space(ArxModel(na=1, nb=1, a=(0.5,), b_coef=(1.0,)), "twin")
    true_dev = arx_to_state_space(
        ArxModel(na=2, nb=2, a=(0.5, -0.15), b_coef=(1.0, 0.0)), "true_dev"
    )
    return twin, true_dev


def test_beam_width_one_equals_greedy():
    for seed in (0, 1, 2):
        sc = reference_scenario(seed)
        aggregate, _ = render(sc)
        lib = list(sc.models)
        for width in (1, 4):
            params = EngineParams(beam_width=width)
            a = disaggregate(aggregate, lib, params)
            b = disaggregate_beam(aggregate, lib, params)
            assert a.events == b.events
            assert a.unexplained == b.unexplained
            assert a.residual_rms == b.residual_rms
            assert a.params.beam_width == width


def test_beam_off_events_never_precede_the_device_own_on():
    # A case where the beam could attribute an off event to a device before
    # its own on (device 2 on@346, off@339), leaving an invalid schedule.
    sc = reference_scenario(126)
    aggregate, _ = render(sc)
    res = disaggregate(aggregate, list(sc.models), EngineParams(beam_width=8))
    for dev in range(len(sc.models)):
        kinds = [e.kind for e in res.events if e.device == dev]
        assert kinds == ["on", "off"] * (len(kinds) // 2) + ["on"] * (len(kinds) % 2)


def test_beam_recovers_where_greedy_commits_to_wrong_twin():
    twin, true_dev = _twin_pair()
    lib = [twin, true_dev]
    y = simulate_zero_state(true_dev, PiecewiseInput(((15, 2.0),)).expand(0, 70))
    base = EngineParams(deviation_threshold=0.1, lookahead=1, backtrack_window=2)

    greedy = disaggregate(SignalSeries(y.values), lib, base)
    assert [(e.k, e.device, e.kind) for e in greedy.events] != [(15, 1, "on")]
    assert greedy.events[0].device == 0  # tie went to the lower-index twin

    from dataclasses import replace

    beam = disaggregate_beam(SignalSeries(y.values), lib, replace(base, beam_width=4))
    assert [(e.k, e.device, e.kind) for e in beam.events] == [(15, 1, "on")]
    assert beam.events[0].level == pytest.approx(2.0, abs=1e-9)
    assert beam.residual_rms <= 1e-9
    assert beam.residual_rms < greedy.residual_rms


def test_beam_matches_exhaustive_on_twin_instance():
    twin, true_dev = _twin_pair()
    lib = [twin, true_dev]
    y = simulate_zero_state(true_dev, PiecewiseInput(((15, 2.0),)).expand(0, 70))
    y_m = SignalSeries(y.values)
    params = EngineParams(
        deviation_threshold=0.1, lookahead=1, backtrack_window=2, beam_width=10_000
    )
    best_events, n_leaves = _oracle_best(y_m, lib, params)
    res = disaggregate_beam(y_m, lib, params)
    assert n_leaves >= 2
    assert list(res.events) == sorted(best_events, key=lambda e: e.sort_key())


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
        simulate_zero_state(m0, u0.expand(0, T)).values
        + simulate_zero_state(m1, u1.expand(0, T)).values
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
        res = disaggregate_beam(y_m, lib, params)
        assert list(res.events) == sorted(
            best_events, key=lambda e: e.sort_key()
        ), f"instance {seed}"


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
        b = disaggregate_beam(y_m, lib, replace(base, beam_width=64))
        assert final_score(b, y_m) <= final_score(g, y_m) + 1e-12
