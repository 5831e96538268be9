import functools
import math
import re
import sys
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from disagg import (
    DeviceModel,
    EngineParams,
    SignalSeries,
    SwitchEvent,
    UnexplainedEvent,
    UnstableModelError,
    ValidationError,
    disaggregate,
    estimate_noise_std,
    random_stable_model,
    reference_scenario,
    render,
    resolve_threshold,
    simulate_zero_state,
    unit_step_values,
)
import disagg.engine as engine_module
from disagg.engine import _Engine, _fits
from disagg.models import STEP_HEAD, _device_sum, _switch
from disagg.series import PiecewiseInput, _median
from conftest import hold, series
from test_engine_beam import _event_key, _random_instance, _root

# The long-signal test runs the benchmark's own tiled workload generator.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from inputs import tiled_reference_scenario  # noqa: E402


PARAMS = EngineParams(deviation_threshold=0.1, persistence=2, lookahead=4,
                      backtrack_window=2)


def _hypothesis(engine, levels=(), since=()):
    """A hand-set hypothesis: device i is on at levels[i] > 0 since since[i] (or 0)."""
    hyp = _root(engine)
    for i, lv in enumerate(levels):
        if lv > 0:
            hyp.rows[i].level = lv
            hyp.rows[i].last = (since[i] if since else 0) - engine.start
    return hyp


# ----------------------------------------------------------- change detection

def _detect(values, k):
    """Detection at k against a zero prediction; padded to the engine's minimum length."""
    y = np.zeros(10)
    y[: len(values)] = values
    engine = _Engine(series(y), [DeviceModel("m", A=[[0.5]], b=[0.5], c=[1.0])], PARAMS)
    found = engine._scan(_hypothesis(engine), k)
    return (found.kind, found.ks) if found is not None and found.p == k else None


def test_detect_none_within_threshold():
    assert _detect([0.01, -0.02, 0.01], 2) is None


def test_detect_increase_at_run_start():
    assert _detect([0.01, 0.5, 0.6], 2) == ("increase", 1)


def test_detect_decrease_sign():
    assert _detect([-0.5, -0.6], 1) == ("decrease", 0)


def test_detect_requires_full_persistence_run():
    values = [0.0, 0.5, 0.05, 0.5]
    assert _detect(values, 2) is None  # run broken at k=2
    assert _detect(values, 3) is None  # only one violator


def _step_detect(y, y_hat, thr, pers, suppressed, p0):
    """The per-sample detection rule stepped from p0: (p, kind, ks) or None."""
    for p in range(p0, len(y)):
        if abs(y[p] - y_hat[p]) <= thr:
            suppressed = False
            continue
        if suppressed or p - pers + 1 < 0:
            continue
        if any(abs(y[j] - y_hat[j]) <= thr for j in range(p - pers + 1, p)):
            continue
        ks = p - pers + 1
        while ks > 0 and abs(y[ks - 1] - y_hat[ks - 1]) > thr:
            ks -= 1
        return (p, "increase" if y[ks] - y_hat[ks] > 0 else "decrease", ks)
    return None


def test_scan_matches_the_per_sample_rule_property(lag_model):
    # The scan jumps to the next detection over a lazily summed prediction;
    # stepping the rule sample by sample over the full prediction must
    # give the same time, kind and run start.  Runs are long enough to
    # cross scan chunks, and the prediction changes at an event position
    # that runs may straddle.
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    runs = st.lists(
        st.tuples(st.sampled_from([-1.0, -0.2, -0.05, 0.0, 0.05, 0.2, 1.0]),
                  st.integers(1, 90)),
        min_size=1, max_size=8,
    )

    @settings(max_examples=300, deadline=None)
    @given(
        runs=runs,
        pers=st.integers(1, 4),
        suppressed=st.booleans(),
        event=st.none() | st.tuples(st.floats(0.0, 1.0), st.sampled_from([0.2, 1.0, 2.0])),
        start=st.floats(0.0, 1.0),
        chunk=st.sampled_from([1, 3, engine_module.SCAN_CHUNK]),
    )
    # A run that begins before the event's position and is still
    # violating after it; a run from sample 0, shorter than persistence
    # at first; a run cut short by the end of the signal.
    @example(runs=[(0.0, 5), (1.0, 100)], pers=2, suppressed=False,
             event=(0.5, 0.2), start=0.8, chunk=3)
    @example(runs=[(1.0, 6), (0.0, 4)], pers=4, suppressed=False,
             event=None, start=0.0, chunk=1)
    @example(runs=[(0.0, 20), (-1.0, 3)], pers=4, suppressed=True,
             event=None, start=0.5, chunk=3)
    def check(runs, pers, suppressed, event, start, chunk):
        y = np.repeat([v for v, _ in runs], [n for _, n in runs]) + 0.01
        y = np.concatenate([y, np.zeros(max(0, 3 - len(y)))])
        T = len(y)
        params = EngineParams(deviation_threshold=0.1, persistence=pers,
                              lookahead=1, backtrack_window=1)
        engine = _Engine(series(y), [lag_model], params)
        hyp = _hypothesis(engine)
        y_hat = np.zeros(T)
        if event is not None:
            pos = int(event[0] * (T - 1))
            engine._apply(hyp, SwitchEvent(pos, 0, event[1]))
            u = hold(PiecewiseInput(((pos, event[1]),)), 0, T)
            y_hat = simulate_zero_state(lag_model, u).values
        hyp.suppressed = suppressed
        p0 = int(start * T)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine_module, "SCAN_CHUNK", chunk)
            found = engine._scan(hyp, p0)
        assert found == _step_detect(y, y_hat, 0.1, pers, suppressed, p0)

    check()


# -------------------------------------------------------------- on-event fit

def _fit(values, model):
    """The engine's fit of values against model's step response from sample 0."""
    e = np.asarray(values, dtype=float)
    g = unit_step_values(model, len(e))
    (level,), (sse,) = _fits(g[None], e, float(g @ g))
    return float(level), float(sse)


def test_fit_self_exact(lag_model):
    level, sse = _fit([0.0, 1.0, 1.5, 1.75], lag_model)
    assert level == pytest.approx(2.0, abs=1e-12)
    assert sse == pytest.approx(0.0, abs=1e-24)


def test_fit_unit_delay_closed_form(delay_model):
    level, sse = _fit([0.0, 1.0, 1.5, 1.75], delay_model)
    assert level == pytest.approx(4.25 / 3)
    assert sse > 0


def test_fit_zero_deviation(lag_model):
    level, sse = _fit(np.zeros(6), lag_model)
    assert level == 0.0
    assert sse == 0.0


def test_fit_degenerate_template_rejected(lag_model):
    m = DeviceModel("late", A=[[0.0, 1.0], [0.0, 0.0]], b=[0.0, 1.0], c=[1.0, 0.0])
    # Two-sample delay: the first two step samples are zero, so a 2-sample
    # window (lookahead 1, no backtrack) has nothing to fit.
    params = EngineParams(deviation_threshold=0.1, lookahead=1, backtrack_window=0)
    y = series([1.0, 1.0], start=3)
    engine = _Engine(y, [m], params)
    assert engine._on_candidates([_root(engine)], 0) == [[]]
    # The same window does fit a device whose step response is nonzero there.
    engine = _Engine(y, [lag_model], params)
    (cands,) = engine._on_candidates([_root(engine)], 0)
    assert len(cands) == 1


def test_fit_rejects_unstable_model():
    # An unstable model cannot be built, so it never reaches the fit.
    with pytest.raises(UnstableModelError, match="model 'bad'"):
        DeviceModel("bad", A=[[1.1]], b=[1.0], c=[1.0])


def test_fit_beats_grid_search():
    # Closed form must beat a fine grid of candidate levels.
    rng = np.random.default_rng(11)
    for trial in range(50):
        model = random_stable_model(3, trial)
        wlen = int(rng.integers(5, 40))
        e_vals = rng.normal(scale=2.0, size=wlen)
        level, sse = _fit(e_vals, model)
        g = unit_step_values(model, wlen)
        grid = np.linspace(0.0, 2.0 * max(abs(level), 1.0), 2000)
        sse_grid = np.sum((e_vals[None, :] - grid[:, None] * g[None, :]) ** 2, axis=1)
        assert sse <= float(np.min(sse_grid)) + 1e-9


# --------------------------------------------------------- candidate selection

class _Candidate(NamedTuple):
    """An on-event candidate tuple with its fields named."""

    sse: float
    k_prime: int
    device: int
    level: float


def _select(y_m, k_star, library, params, levels=(), since=()):
    """Best on-event candidate at k_star against a zero prediction, or None."""
    engine = _Engine(y_m, library, params)
    hyp = _hypothesis(engine, levels, since)
    (cands,) = engine._on_candidates([hyp], k_star - engine.start)
    return _Candidate(*cands[0]) if cands else None


def test_select_single_device_exact(lag_model):
    level, k0 = 2.0, 10
    y_m = simulate_zero_state(
        lag_model, hold(PiecewiseInput(((k0, level),)), 0, 30)
    )
    params = EngineParams(deviation_threshold=0.05, lookahead=6, backtrack_window=3)
    cand = _select(y_m, k0 + 1, [lag_model], params)
    assert cand is not None
    assert cand.device == 0
    assert cand.k_prime == k0
    assert cand.level == pytest.approx(level, abs=1e-9)


def test_select_identical_models_lower_index_wins(lag_model):
    twin = DeviceModel("twin", A=[[0.5]], b=[0.5], c=[1.0])
    y_m = simulate_zero_state(
        lag_model, hold(PiecewiseInput(((5, 2.0),)), 0, 25)
    )
    params = EngineParams(deviation_threshold=0.05, lookahead=6, backtrack_window=3)
    cand = _select(y_m, 6, [twin, lag_model], params)
    assert cand.device == 0


def test_select_max_output_prior_rejects_capped_model():
    dynamics = dict(A=[[0.6]], b=[0.4], c=[1.0])
    monitor = DeviceModel("monitor", max_output=10.0, **dynamics)
    microwave = DeviceModel("microwave", **dynamics)
    y_m = simulate_zero_state(
        microwave, hold(PiecewiseInput(((5, 12.0),)), 0, 25)
    )
    params = EngineParams(deviation_threshold=0.05, lookahead=6, backtrack_window=3)
    cand = _select(y_m, 6, [monitor, microwave], params)
    assert cand.device == 1  # monitor would win the tie but is capped


def test_select_respects_max_input():
    m = DeviceModel("small", A=[[0.5]], b=[0.5], c=[1.0], max_input=1.0)
    y_m = simulate_zero_state(m, hold(PiecewiseInput(((5, 3.0),)), 0, 25))
    params = EngineParams(deviation_threshold=0.05, lookahead=6, backtrack_window=3)
    assert _select(y_m, 6, [m], params) is None


def test_select_rejects_a_negative_level(lag_model):
    y_m = simulate_zero_state(lag_model, hold(PiecewiseInput(((5, 2.0),)), 0, 25))
    params = EngineParams(deviation_threshold=0.05, lookahead=6, backtrack_window=3)
    assert _select(SignalSeries(-y_m.values), 6, [lag_model], params) is None


def test_select_skips_on_devices(lag_model):
    y_m = simulate_zero_state(lag_model, hold(PiecewiseInput(((5, 2.0),)), 0, 25))
    params = EngineParams(deviation_threshold=0.05, lookahead=6, backtrack_window=3)
    assert _select(y_m, 6, [lag_model], params, levels=[2.0], since=[5]) is None


# ------------------------------------------------ stacked fits, grouped lists

def test_stacked_fit_rows_equal_one_dimensional_dots_property():
    # _fits takes each row's dot products as one stacked (1, n) @ (n, 1)
    # product; every row must keep the bits of the 1-D g @ e fit it
    # replaced, whatever the other rows are and however G was indexed.
    # The residual is one window for every row or, for a group of
    # hypotheses, a row per fit row taken from the hypothesis's own window.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 64),
        rows=st.lists(st.integers(0, 7), min_size=1, max_size=8),
        fancy=st.booleans(),
        offset=st.integers(0, 3),
        per_row=st.booleans(),
        data=st.data(),
    )
    def check(seed, n, rows, fancy, offset, per_row, data):
        # Values over twelve decades, so a change of summation order shows.
        rng = np.random.default_rng(seed)
        H, E = (rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6, shape)
                for shape in ((8, 67), (4, 67)))
        gg = rng.uniform(1e-3, 1e3, len(rows))
        if not fancy:
            rows = list(range(len(rows)))
        G = H[rows, offset : offset + n] if fancy else H[: len(rows), offset : offset + n]
        # The hypothesis each fit row belongs to.
        members = (data.draw(st.lists(st.integers(0, 3), min_size=len(rows),
                                      max_size=len(rows)))
                   if per_row else [0] * len(rows))
        e = E[members][:, offset : offset + n] if per_row else E[0, offset : offset + n]
        levels, sses = _fits(G, e, gg)
        assert levels.shape == sses.shape == (len(rows),)
        for r, i, gg_r, level, sse in zip(rows, members, gg.tolist(), levels, sses):
            g, e_r = H[r, offset : offset + n], E[i, offset : offset + n]
            want = float(g @ e_r) / gg_r
            diff = e_r - want * g
            assert level.tobytes() == np.float64(want).tobytes()
            assert sse.tobytes() == (diff @ diff).tobytes()

    check()


def _per_fit_candidates(engine, hyp, ks_pos, rejected=None):
    """The on-event candidates as one 1-D fit per (off device, start time).

    This is the loop the stacked fits replaced, kept as their oracle;
    rejected, if given, counts the candidates each filter drops.
    """
    params = engine.params
    k_end = min(ks_pos + params.lookahead, engine.T - 1)
    k_lo = max(0, ks_pos - params.backtrack_window)
    engine._sync(hyp, k_end + 1)
    resid = hyp.resid[k_lo : k_end + 1]
    rejected = {} if rejected is None else rejected
    out = []
    for dev, model in enumerate(engine.models):
        if hyp.rows[dev].level != 0.0:
            continue
        for kp in range(k_lo, ks_pos + 1):
            k_abs = engine.start + kp
            g = engine.steps[dev].upto(k_end - kp + 1)
            e = resid[kp - k_lo :]
            gg = float(g @ g)
            if k_abs in hyp.times:
                reason = "time collision"
            elif kp <= hyp.rows[dev].last:
                reason = "rewind"
            elif gg == 0.0:
                reason = "gg == 0"
            else:
                level = float(g @ e) / gg
                diff = e - level * g
                sse = float(diff @ diff)
                if level <= 0.0:
                    reason = "level <= 0"
                elif model.max_input is not None and level > model.max_input:
                    reason = "max_input"
                elif (
                    model.max_output is not None
                    and engine.gains[dev] * level > model.max_output
                ):
                    reason = "max_output"
                else:
                    out.append((sse, k_abs, dev, level))
                    continue
            rejected[reason] = rejected.get(reason, 0) + 1
    return sorted(out)


def _candidate_states():
    """Hypothesis strategy: (engine, hypothesis, ks_pos) in random states.

    The library mixes a two-sample delay (its step response is 0 over
    short windows) with random stable models, under random DC gains and
    caps; device levels, last switches and logged times land inside and
    outside the backtrack window.
    """
    from hypothesis import strategies as st

    late = DeviceModel("late", A=[[0.0, 1.0], [0.0, 0.0]], b=[0.0, 1.0], c=[1.0, 0.0])
    caps = st.sampled_from([None, None, 0.5, 2.0])

    @st.composite
    def states(draw):
        models = []
        for i in range(draw(st.integers(1, 4))):
            if draw(st.booleans()):
                base = late
            else:
                base = random_stable_model(draw(st.integers(1, 3)), draw(st.integers(0, 20)))
            # A DC gain other than 1 tells the max-output prior from max_input.
            gain = draw(st.sampled_from([1.0, 0.4, 2.5]))
            models.append(replace(base, name=f"d{i}", c=base.c * gain, dc_normalized=False,
                                  max_input=draw(caps), max_output=draw(caps)))
        params = EngineParams(
            deviation_threshold=0.1,
            lookahead=draw(st.integers(1, 6)),
            backtrack_window=draw(st.integers(0, 4)),
        )
        T = draw(st.integers(params.lookahead + params.backtrack_window + 1, 30))
        start = draw(st.integers(-3, 3))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        # The measurement is the prediction plus one device's step at some
        # level and position, plus noise, so most fits find a positive level.
        y_hat = rng.normal(scale=0.5, size=T)
        pos = draw(st.integers(0, T - 1))
        step = rng.uniform(0.2, 3.0) * unit_step_values(models[0], T - pos)
        y = y_hat + np.concatenate([np.zeros(pos), step]) + rng.normal(scale=0.2, size=T)
        engine = _Engine(series(y, start=start), models, params)
        hyp = _root(engine)
        hyp.resid = y - y_hat
        times = st.integers(start - 2, start + T - 1)
        for dev in range(len(models)):
            hyp.rows[dev].level = draw(st.sampled_from([0.0, 0.0, 1.0]))
            if draw(st.sampled_from([False, False, True])):
                hyp.rows[dev].last = draw(times) - start
        hyp.times = set(draw(st.lists(times, max_size=6)))
        return engine, hyp, min(T - 1, pos + draw(st.integers(0, 2)))

    return states()


def _group_members(engine, first, ks_pos, data):
    """Hypothesis strategy draws: first and 0-3 more members of its group.

    Each further member is built from an earlier one: the same hypothesis
    again, a clone sharing its rows, or a clone whose own rows or log
    differ: another device switched on or off, a last switch or a logged
    time inside the backtrack window, or a residual moved in the fit
    window.
    """
    from hypothesis import strategies as st

    params = engine.params
    k_end = min(ks_pos + params.lookahead, engine.T - 1)
    k_lo = max(0, ks_pos - params.backtrack_window)
    devs = range(len(engine.models))
    members = [first]
    for change in data.draw(st.lists(st.sampled_from(
        ["same", "clone", "device on", "device off", "switch inside", "time inside",
         "resid inside"]), max_size=3)):
        base = data.draw(st.sampled_from(members))
        if change == "same":
            members.append(base)
            continue
        member = base.clone()
        # Clones share rows; a member's edits must not reach the others.
        member.rows = [row.copy() for row in base.rows]
        dev = data.draw(st.sampled_from(devs))
        if change == "device on":
            member.rows[dev].level = 1.0
        elif change == "device off":
            member.rows[dev].level = 0.0
        elif change == "switch inside":
            member.rows[dev].last = data.draw(st.integers(k_lo, ks_pos))
        elif change == "time inside":
            member.times.add(engine.start + data.draw(st.integers(k_lo, ks_pos)))
        elif change == "resid inside":
            member.resid[data.draw(st.integers(k_lo, k_end))] -= data.draw(
                st.sampled_from([1e-9, 0.5, -2.0]))
        members.append(member)
    return members


def test_on_candidates_equal_per_fit_oracle_property():
    # Stacking the fits of one start time, over the off devices of every
    # hypothesis of a group, must not move a bit of any member's
    # candidates, nor change which candidates each filter drops.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    rejected: dict = {}
    sizes = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(state=_candidate_states(), data=st.data())
    def check(state, data):
        engine, first, ks_pos = state
        members = _group_members(engine, first, ks_pos, data)
        sizes.add(len(members))
        got = engine._on_candidates(members, ks_pos)
        assert len(got) == len(members)
        for member, cands in zip(members, got):
            want = _per_fit_candidates(engine, member, ks_pos, rejected)
            assert repr(cands) == repr(want)

    check()
    reasons = ("time collision", "rewind", "gg == 0", "level <= 0", "max_input", "max_output")
    assert all(rejected.get(reason) for reason in reasons), rejected
    assert sizes == {1, 2, 3, 4}


def test_member_candidates_do_not_depend_on_the_group_property():
    # A hypothesis fit with another of the same step gets the list it gets
    # alone, in either order, and the oracle's; a change outside what the
    # fits read (an older last switch, a logged time outside the window,
    # an on device's level, the residual outside the window) leaves the
    # two lists equal.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    changes = st.sampled_from(
        ["none", "old switch", "old time", "on level", "resid outside",
         "resid inside", "time inside", "switch inside", "device on", "swap"]
    )

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(state=_candidate_states(), change=changes, data=st.data())
    def check(state, change, data):
        engine, first, ks_pos = state
        params = engine.params
        k_end = min(ks_pos + params.lookahead, engine.T - 1)
        k_lo = max(0, ks_pos - params.backtrack_window)
        a = engine.start + k_lo
        second = first.clone()
        # Clones share rows; the second's edits must not reach the first.
        second.rows = [row.copy() for row in second.rows]
        levels = [row.level for row in first.rows]
        devs = range(len(engine.models))
        dev = data.draw(st.sampled_from(devs))
        outside = [k for k in range(engine.start, engine.start + engine.T)
                   if not a <= k <= engine.start + ks_pos]
        if change == "old switch" and first.rows[dev].last < k_lo:
            second.rows[dev].last = data.draw(st.integers(-2, k_lo - 1))
        elif change == "old time" and outside:
            second.times.add(data.draw(st.sampled_from(outside)))
        elif change == "on level" and levels[dev] != 0.0:
            second.rows[dev].level = 2.5
        elif change == "resid outside" and k_lo + engine.T - 1 - k_end > 0:
            second.resid[[k for k in range(engine.T) if not k_lo <= k <= k_end]] -= 1.0
        elif change == "resid inside":
            second.resid[data.draw(st.integers(k_lo, k_end))] -= 1e-9
        elif change == "time inside":
            second.times.add(data.draw(st.integers(a, engine.start + ks_pos)))
        elif change == "switch inside":
            second.rows[dev].last = data.draw(st.integers(k_lo, ks_pos))
        elif change == "device on":
            second.rows[dev].level = 1.0
        elif change == "swap" and 0.0 in levels and any(levels):
            # As many devices off, but not the same ones.
            on = next(i for i in devs if levels[i])
            second.rows[on].level, second.rows[levels.index(0.0)].level = 0.0, 1.0
        else:
            change = "none"
        got_first, got_second = engine._on_candidates([first, second], ks_pos)
        assert [repr(got_second), repr(got_first)] == list(
            map(repr, engine._on_candidates([second, first], ks_pos)))
        (alone_first,) = engine._on_candidates([first], ks_pos)
        (alone_second,) = engine._on_candidates([second], ks_pos)
        assert repr(got_first) == repr(alone_first)
        assert repr(got_second) == repr(alone_second)
        assert repr(got_second) == repr(_per_fit_candidates(engine, second, ks_pos))
        if change in ("none", "old switch", "old time", "on level", "resid outside"):
            assert repr(got_second) == repr(got_first)

    check()


# ------------------------------------------------------------ off attribution

def _attribute(levels, drop, k_star, since=()):
    """Device picked for a drop of `drop` at k_star, unit-gain devices at `levels`."""
    lib = [DeviceModel(f"d{i}", A=[[0.5]], b=[0.5], c=[1.0]) for i in range(len(levels))]
    engine = _Engine(series(np.zeros(k_star + 10)), lib, PARAMS)
    hyp = _hypothesis(engine, levels, since)
    hyp.resid[k_star] = -drop  # the measurement is zero, so the prediction is drop
    events = engine._off_events(hyp, k_star, k_star)
    return events[0].device if events else None


def test_attribute_nearest_contribution():
    assert _attribute([1.2, 2.0], 1.25, 50) == 0


def test_attribute_single_on_device():
    assert _attribute([0.0, 2.0], 0.1, 50) == 1


def test_attribute_tie_breaks_to_lower_index():
    assert _attribute([1.0, 1.0], 1.0, 50) == 0


def test_attribute_none_when_all_off():
    assert _attribute([0.0, 0.0], 1.0, 50) is None


def test_attribute_prefers_devices_past_min_duration():
    # Drop of 1.0 matches device 0 better, but device 0 is too young (on
    # one sample short of MIN_ON_DURATION, against device 1's 50 samples).
    young = 50 - engine_module.MIN_ON_DURATION + 1
    assert _attribute([1.0, 3.0], 1.0, 50, since=[young, 0]) == 1
    assert _attribute([1.0, 3.0], 1.0, 50, since=[young - 1, 0]) == 0


def test_attribute_never_rewinds_past_the_device_own_switch():
    # Device 0 matches the drop best but switched on at 50 or later; an
    # off at 50 would precede or collide with its own on.
    assert _attribute([1.0, 3.0], 1.0, 50, since=[50, 0]) == 1
    assert _attribute([1.0, 0.0], 1.0, 50, since=[52]) is None


def _two_stage_off_device(engine, hyp, ks_pos, p):
    """The off device by the eligible-first rule with a fallback to every on
    device, the form one keyed min replaced, kept as its oracle."""
    k_abs = engine.start + ks_pos
    if k_abs in hyp.times:
        return None
    on_devs = [i for i, row in enumerate(hyp.rows) if row.level != 0.0 and row.last < ks_pos]
    if not on_devs:
        return None
    eligible = [
        i for i in on_devs
        if ks_pos - hyp.rows[i].last >= engine_module.MIN_ON_DURATION
    ]
    if not eligible:
        eligible = on_devs
    drop = abs(hyp.resid[p])
    return min(
        eligible, key=lambda i: (abs(engine.gains[i] * hyp.rows[i].level - drop), i)
    )


def test_off_events_equal_the_two_stage_rule_property():
    # One min keyed by (too young, distance to the drop, index) must pick
    # the device the two-stage rule picks: with devices on too briefly,
    # switched at or after the off time, or tied exactly on distance, and
    # with the off time already logged.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    seen = {"preference decides": 0, "fallback": 0, "tie": 0, "time logged": 0,
            "rewind": 0}
    # Dyadic gains, levels and drops, so distances tie exactly.
    dyadic = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        gains=st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=1, max_size=5),
        start=st.integers(-3, 3),
        ks_pos=st.integers(0, 12),
        lag=st.integers(0, 2),
        data=st.data(),
    )
    def check(gains, start, ks_pos, lag, data):
        lib = [DeviceModel(f"d{i}", A=[[0.5]], b=[0.5], c=[gain])
               for i, gain in enumerate(gains)]
        engine = _Engine(series(np.zeros(ks_pos + 20), start=start), lib, PARAMS)
        hyp = _root(engine)
        k_abs, p = start + ks_pos, ks_pos + lag
        for row in hyp.rows:
            row.level = data.draw(st.one_of(st.just(0.0), dyadic))
            row.last = data.draw(st.integers(ks_pos - 8, ks_pos + 2))
        hyp.times = set(data.draw(st.lists(st.integers(k_abs - 3, k_abs + 3), max_size=3)))
        levels, lasts = [row.level for row in hyp.rows], [row.last for row in hyp.rows]
        contributions = [g * level for g, level in zip(engine.gains, levels)]
        drop = data.draw(st.one_of(
            dyadic,
            st.sampled_from(contributions),
            st.tuples(st.sampled_from(contributions), st.sampled_from(contributions))
            .map(lambda pair: (pair[0] + pair[1]) / 2),
        ))
        hyp.resid[p] = data.draw(st.sampled_from([-drop, drop]))

        want = _two_stage_off_device(engine, hyp, ks_pos, p)
        got = engine._off_events(hyp, ks_pos, p)
        assert got == ([] if want is None else [SwitchEvent(k_abs, want, 0.0)])

        on = [i for i, level in enumerate(levels) if level != 0.0]
        qualify = [i for i in on if lasts[i] < ks_pos]
        seen["rewind"] += len(qualify) < len(on)
        if not qualify:
            return
        if k_abs in hyp.times:
            seen["time logged"] += 1
            return
        young = [i for i in qualify if ks_pos - lasts[i] < engine_module.MIN_ON_DURATION]
        distance = [abs(contributions[i] - drop) for i in qualify]
        seen["fallback"] += len(young) == len(qualify) > 1
        seen["tie"] += len(set(distance)) < len(distance)
        nearest = qualify[distance.index(min(distance))]
        seen["preference decides"] += nearest in young and len(young) < len(qualify)

    check()
    assert all(seen.values()), seen


# ------------------------------------------------------------- full pipeline

def test_disaggregate_zero_signal_empty_log(lag_model):
    res = disaggregate(series(np.zeros(60)), [lag_model])
    assert res.events == ()
    np.testing.assert_array_equal(res.estimated_total.values, np.zeros(60))
    assert res.residual_rms == 0.0


def test_disaggregate_noiseless_single_device_exact(lag_model_instant):
    u = PiecewiseInput(((12, 2.0), (40, 0.0)))
    y_m = simulate_zero_state(lag_model_instant, hold(u, 0, 70))
    res = disaggregate(y_m, [lag_model_instant])
    assert [(e.k, e.kind) for e in res.events] == [(12, "on"), (40, "off")]
    on = res.events[0]
    assert abs(on.level - 2.0) <= 1e-6
    assert res.residual_rms <= 1e-9


def test_disaggregate_reference_scenario_exact_recovery():
    sc = reference_scenario(0)
    aggregate, _ = render(sc)
    res = disaggregate(aggregate, list(sc.models))
    got = [(e.k, e.device, e.kind) for e in res.events]
    assert got == [
        (20, 0, "on"), (101, 0, "off"),
        (130, 1, "on"), (180, 2, "on"),
        (250, 3, "on"), (301, 2, "off"),
        (351, 3, "off"), (401, 1, "off"),
    ]
    levels = {e.device: e.level for e in res.events if e.kind == "on"}
    for dev, truth in ((0, 1.2), (1, 2.0), (2, 0.6), (3, 1.8)):
        assert abs(levels[dev] - truth) <= 0.05 * truth
    assert res.unexplained == ()


def _assert_resimulation_matches(res, y_m, library):
    """The result against an independent simulation of its own event log."""
    T = len(y_m)
    schedules = [[] for _ in library]
    for e in res.events:
        schedules[e.device].append((e.k, e.level))
    total = np.zeros(T)
    for model, schedule, out in zip(library, schedules, res.estimated_outputs):
        # PiecewiseInput rejects out-of-order times, repeated and negative levels.
        u = hold(PiecewiseInput(tuple(schedule)), y_m.start_index, T, y_m.sample_period)
        resim = simulate_zero_state(model, u)
        assert out == resim
        assert out.values.tobytes() == resim.values.tobytes()
        total = total + resim.values
    # The total is the device-order sum of the outputs, bit for bit.
    assert res.estimated_total.values.tobytes() == total.tobytes()
    assert res.estimated_total.start_index == y_m.start_index
    assert res.estimated_total.sample_period == y_m.sample_period
    assert res.residual_rms == float(np.sqrt(np.mean((y_m.values - total) ** 2)))
    # One event per time step.
    times = [e.k for e in res.events]
    assert len(set(times)) == len(times)


def test_engine_prediction_equals_simulated_estimate():
    # The engine reports its own predictions; they must equal what
    # simulate_zero_state makes of the logged events.
    cases = []
    for seed in range(10):
        sc = reference_scenario(seed)
        cases.append((render(sc)[0], list(sc.models), EngineParams()))
    # Without instant-off, an off event subtracts the device's decay.
    sc = reference_scenario(3)
    decaying = [replace(m, instant_off=False) for m in sc.models]
    decaying_case = (render(replace(sc, models=tuple(decaying)))[0], decaying)
    cases.append((*decaying_case, EngineParams()))
    small = EngineParams(deviation_threshold=0.12, lookahead=6, backtrack_window=1)
    for seed in range(50):
        cases.append((*_random_instance(seed), small))
    for y_m, library, params in cases:
        for width in (1, 8):
            res = disaggregate(y_m, library, replace(params, beam_width=width))
            _assert_resimulation_matches(res, y_m, library)
    # The decaying case logged off events of decaying devices.
    res = disaggregate(*decaying_case)
    assert any(e.kind == "off" for e in res.events)


def test_greedy_recovers_every_event_on_a_long_signal():
    sc = tiled_reference_scenario(0, 64)
    aggregate, _ = render(sc)
    assert len(aggregate) == 28_800
    res = disaggregate(aggregate, list(sc.models))
    truth = sorted(
        (k, dev, "on" if level else "off")
        for dev, inp in enumerate(sc.inputs)
        for k, level in inp.events
    )
    assert len(truth) == 512
    assert sorted((e.k, e.device, e.kind) for e in res.events) == truth
    assert res.unexplained == ()


def test_switch_events_order_by_their_fields():
    # The beam's rank key compares event lists directly, so SwitchEvent
    # order, by its (k, device, level) fields, must be the order of its
    # (k, device, kind, level) tuple, kind derived from the level.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    events = st.lists(
        st.builds(
            SwitchEvent,
            k=st.integers(0, 4),
            device=st.integers(0, 2),
            level=st.sampled_from([0.0, 0.5, 1.0, 2.5]),
        ),
        max_size=6,
    )

    @settings(max_examples=200, deadline=None)
    @given(a=events, b=events)
    def check(a, b):
        assert sorted(a) == sorted(a, key=_event_key)
        ta = [_event_key(e) for e in a]
        tb = [_event_key(e) for e in b]
        assert (a < b) == (ta < tb)
        assert (a <= b) == (ta <= tb)
        assert (a == b) == (ta == tb)

    check()


@functools.lru_cache(maxsize=None)
def _reference_case(seed):
    sc = reference_scenario(seed)
    return render(sc)[0], list(sc.models)


def test_events_shift_with_start_index_property():
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 39),
        width=st.sampled_from([1, 8]),
        start=st.integers(1, 10**7),
    )
    # Seed 126 at width 8 logs one-sample on/off pairs, so the rewind and
    # MIN_ON_DURATION checks on absolute times take part.
    @example(seed=126, width=8, start=1_000)
    def check(seed, width, start):
        y_m, library = _reference_case(seed)
        params = EngineParams(beam_width=width)
        base = disaggregate(y_m, library, params)
        shifted = disaggregate(
            SignalSeries(y_m.values, y_m.sample_period, start), library, params
        )
        assert shifted.events == tuple(replace(e, k=e.k + start) for e in base.events)
        assert shifted.unexplained == tuple(
            replace(u, k=u.k + start) for u in base.unexplained
        )
        for a, b in zip(base.estimated_outputs, shifted.estimated_outputs):
            assert a.values.tobytes() == b.values.tobytes()
            assert b.start_index == start
        assert (
            base.estimated_total.values.tobytes()
            == shifted.estimated_total.values.tobytes()
        )
        assert base.residual_rms == shifted.residual_rms

    check()


def test_permuting_the_library_relabels_events_property():
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 39),
        width=st.sampled_from([1, 8]),
        perm=st.permutations(range(5)),
    )
    @example(seed=126, width=8, perm=(4, 3, 2, 1, 0))
    def check(seed, width, perm):
        y_m, library = _reference_case(seed)
        params = EngineParams(beam_width=width)
        results = [
            disaggregate(y_m, lib, params)
            for lib in (library, [library[i] for i in perm])
        ]
        base, permuted = (
            {(e.k, r.device_names[e.device], e.kind): e.level for e in r.events}
            for r in results
        )
        assert permuted.keys() == base.keys()
        for key, level in base.items():
            assert permuted[key] == pytest.approx(level, rel=1e-9, abs=0)

    check()


def _reference_result():
    sc = reference_scenario(0)
    return disaggregate(render(sc)[0], list(sc.models))


# (id, fields replaced in the engine's result on reference seed 0, message):
# each breaks a rule of result.json, and the message is the file's.
RESULT_RULE_CASES = [
    ("event-outside-range", lambda r: {"events": (*r.events, SwitchEvent(450, 4, 1.0))},
     "event at k=450 outside the estimates' [0, 450)"),
    ("bogus-deviation-kind", lambda r: {"unexplained": (UnexplainedEvent(5, "bogus", 1.0),)},
     "unexplained event at k=5 has kind 'bogus'"),
    ("repeated-level",
     lambda r: {"events": (*r.events, SwitchEvent(30, 0, r.events[0].level))},
     "event at k=30 repeats level {level} (null event)"),
    ("negative-residual-rms", lambda r: {"residual_rms": -1.0},
     "residual_rms must be finite and >= 0, got -1.0"),
    ("device-index-9-of-5", lambda r: {"events": (*r.events, SwitchEvent(30, 9, 1.0))},
     "event at k=30 has device index 9, outside [0, 5)"),
    ("duplicate-model-names", lambda r: {"models": (r.models[0],) * 5},
     "duplicate device names in result"),
]


@pytest.mark.parametrize("change, message", [case[1:] for case in RESULT_RULE_CASES],
                         ids=[case[0] for case in RESULT_RULE_CASES])
def test_result_constructor_applies_the_result_files_rules(change, message):
    result = _reference_result()
    message = message.format(level=result.events[0].level)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        replace(result, **change(result))


def test_a_result_with_other_events_renders_its_own_estimates():
    # The estimates derive from the events: dropping device 2's off event
    # leaves it on to the end, in its output and in the total.
    result = _reference_result()
    partial = replace(result, events=result.events[:-1])
    assert result.events[-1] == SwitchEvent(401, 1, 0.0)
    for dev, (model, out) in enumerate(zip(partial.models, partial.estimated_outputs)):
        schedule = PiecewiseInput(tuple((e.k, e.level) for e in partial.events
                                        if e.device == dev))
        resim = simulate_zero_state(model, hold(schedule, 0, 450))
        assert out.values.tobytes() == resim.values.tobytes()
    rows = [out.values for out in partial.estimated_outputs]
    assert partial.estimated_total.values.tobytes() == _device_sum(rows, np.empty(450)).tobytes()
    assert partial.estimated_outputs[1] != result.estimated_outputs[1]
    assert partial.estimated_outputs[1].values[:401].tobytes() == (
        result.estimated_outputs[1].values[:401].tobytes())


def test_disaggregate_with_absolute_start_index(lag_model_instant):
    # Signals resampled from timestamped recordings carry large absolute
    # start indices; events must come back in the same index space.
    u = PiecewiseInput(((1012, 2.0), (1040, 0.0)))
    y_m = simulate_zero_state(lag_model_instant, hold(u, 1000, 70, 1 / 12))
    res = disaggregate(y_m, [lag_model_instant])
    assert [(e.k, e.kind) for e in res.events] == [(1012, "on"), (1040, "off")]
    assert res.estimated_total.start_index == 1000
    assert res.estimated_total.sample_period == 1 / 12
    assert res.residual_rms <= 1e-9
    _assert_resimulation_matches(res, y_m, [lag_model_instant])


def test_disaggregate_unexplained_increase_not_fatal():
    m = DeviceModel("tiny", A=[[0.5]], b=[0.5], c=[1.0], max_input=1.0)
    y_m = series(np.concatenate([np.zeros(10), np.full(30, 50.0)]))
    res = disaggregate(y_m, [m], EngineParams(deviation_threshold=0.5))
    assert res.events == ()
    assert len(res.unexplained) == 1
    assert res.unexplained[0].kind == "increase"


def test_disaggregate_unexplained_decrease_not_fatal():
    m = DeviceModel("d", A=[[0.5]], b=[0.5], c=[1.0])
    y_m = series(np.concatenate([np.zeros(10), np.full(30, -5.0)]))
    res = disaggregate(y_m, [m], EngineParams(deviation_threshold=0.5))
    assert res.events == ()
    assert res.unexplained[0].kind == "decrease"


def test_disaggregate_threshold_monotone_event_count():
    sc = reference_scenario(0)
    aggregate, _ = render(sc)
    lib = list(sc.models)
    counts = []
    for thr in (0.05, 0.1, 0.3, 0.8, 1.5, 3.0):
        res = disaggregate(aggregate, lib, EngineParams(deviation_threshold=thr))
        counts.append(len(res.events))
    assert counts == sorted(counts, reverse=True)


def test_disaggregate_length_precondition(lag_model):
    with pytest.raises(ValidationError):
        disaggregate(series(np.zeros(10)), [lag_model], EngineParams(lookahead=15))


def test_disaggregate_rejects_empty_library():
    with pytest.raises(ValidationError, match="^device library is empty$"):
        disaggregate(series(np.zeros(60)), [])


def test_disaggregate_rejects_two_models_of_one_name(lag_model):
    twin = replace(random_stable_model(2, 1), name=lag_model.name)
    with pytest.raises(ValidationError, match="^duplicate device names in library$"):
        disaggregate(series(np.zeros(60)), [lag_model, twin])


def test_disaggregate_rejects_non_finite_sample_with_index(lag_model):
    for bad in (np.nan, np.inf, -np.inf):
        y = np.zeros(300)
        y[200] = bad
        with pytest.raises(ValidationError, match=r"non-finite sample at k=1200$"):
            disaggregate(series(y, start=1000), [lag_model])


def test_disaggregate_rejects_unstable_library(lag_model, monkeypatch):
    def no_step_response(models, length):
        raise AssertionError(f"step responses of {[m.name for m in models]} built")

    # The library is checked before any step response is built: an
    # unstable model fails at construction.
    monkeypatch.setattr(engine_module, "_unit_step_rows", no_step_response)
    with pytest.raises(UnstableModelError, match="model 'bad'"):
        disaggregate(
            series(np.zeros(60)),
            [lag_model, DeviceModel("bad", A=[[1.1]], b=[1.0], c=[1.0])],
        )


def test_engine_step_rows_equal_unit_step_values(lag_model):
    # Orders 3 (five reference devices), 1 and 2 in one library.
    models = [*reference_scenario(0).models, lag_model, random_stable_model(2, 7)]
    engine = _Engine(series(np.zeros(500)), models, PARAMS)
    assert len(engine.steps) == len(models)
    for m, step in zip(models, engine.steps):
        g = step.upto(engine.T)
        assert g.tobytes() == unit_step_values(m, engine.T).tobytes(), m.name


def test_lazy_rows_equal_eager_switch_rows_property():
    # An instant-off row is written only as far as it is read.  Wherever
    # its frontier stands, the written part must have the bits of the
    # eager row (every switch run through models._switch to the end of
    # the signal) and the rest 0.0; resid must be y less the device-order
    # sum of the eager rows below synced; each row's level and last switch must
    # be those of its device's last switch; and clones that share a row
    # must each keep their own.  Any other row is written to the end at once.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    # negzero's step response is -0.0 from STEP_HEAD on: a term assigned
    # onto a zero row, not added, would keep the -0.0 of level * g where
    # the eager row has 0.0 + -0.0 = +0.0.
    negzero = DeviceModel("negzero", A=[[0.5]], b=[0.0], c=[-1.0], d=-0.0, instant_off=True)
    models = [replace(random_stable_model(3, 5), instant_off=True),
              random_stable_model(2, 9), negzero]
    T_max = 3 * STEP_HEAD
    full = [unit_step_values(m, T_max) for m in models]
    assert np.signbit(full[2][STEP_HEAD:]).all()

    def eager_rows(T, switches):
        rows = []
        for m, g, row_switches in zip(models, full, switches):
            row = np.zeros(T)
            for p, old, new in row_switches:
                _switch(row, g, p, old, new, m.instant_off)
            rows.append(row)
        return rows

    def check_pool(engine, pool):
        T = engine.T
        for hyp, switches in pool:
            eager = eager_rows(T, switches)
            for row, ref, row_switches in zip(hyp.rows, eager, switches):
                f = row.frontier
                assert row.values[:f].tobytes() == ref[:f].tobytes()
                assert row.values[f:].tobytes() == bytes(8 * (T - f))
                p, _, new = row_switches[-1] if row_switches else (-1, 0.0, 0.0)
                assert (row.level, row.last) == (new, p)
            resid = engine.y - _device_sum(eager, np.empty(T))
            assert hyp.resid[: hyp.synced].tobytes() == resid[: hyp.synced].tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def check(data):
        T = data.draw(st.integers(30, T_max))
        # A measurement of mixed signs, so the residual is not just -total.
        y = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=T)
        engine = _Engine(series(y), models, PARAMS)
        pool = [(_root(engine), [[] for _ in models])]
        for _ in range(data.draw(st.integers(1, 24))):
            hyp, switches = data.draw(st.sampled_from(pool))
            op = data.draw(st.sampled_from(["switch", "switch", "sync", "extend", "clone"]))
            dev = data.draw(st.integers(0, len(models) - 1))
            if op == "clone":
                pool.append((hyp.clone(), [list(s) for s in switches]))
            elif op == "sync":
                engine._sync(hyp, data.draw(st.integers(0, T)))
            elif op == "extend":
                hyp.rows[dev].extend(data.draw(st.integers(0, T)))
            elif hyp.rows[dev].last < T - 1:
                pos = data.draw(st.integers(hyp.rows[dev].last + 1, T - 1))
                old = hyp.rows[dev].level
                new = 0.0 if old else data.draw(st.sampled_from([0.5, 1.25, 3.0]))
                engine._apply(hyp, SwitchEvent(pos, dev, new))
                switches[dev].append((pos, old, new))
            check_pool(engine, pool)
        for hyp, _ in pool:
            engine._sync(hyp, T)
            for row in hyp.rows:
                row.extend(T)
        check_pool(engine, pool)

    check()


# ----------------------------------------------------------------- utilities

def test_estimate_noise_std_recovers_sigma():
    rng = np.random.default_rng(0)
    clean = np.concatenate([np.zeros(200), np.full(200, 5.0), np.zeros(100)])
    noisy = clean + rng.normal(scale=0.02, size=clean.size)
    est = estimate_noise_std(series(noisy))
    assert abs(est - 0.02) < 0.005


def test_estimate_noise_std_of_one_sample_is_zero():
    # One sample has no first difference to take the spread of.
    assert estimate_noise_std(series(np.array([3.0]))) == 0.0


def test_median_has_np_median_bits_property():
    # Odd and even lengths, ties, signed zeros and infinities: the one
    # partition gives np.median's bits (0.0 + -0.0 is 0.0 in both); a NaN
    # anywhere gives nan.
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    specials = st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, 2.5])
    values = st.floats(allow_nan=False) | specials

    @settings(max_examples=400, deadline=None)
    @given(a=st.lists(values, min_size=1, max_size=60), nan_at=st.none() | st.integers(0))
    @example(a=[-0.0], nan_at=None)
    @example(a=[-0.0, -0.0], nan_at=None)
    @example(a=[-math.inf, math.inf], nan_at=None)
    @example(a=[1.0, 1.0, 2.0, 2.0], nan_at=None)
    @example(a=[3.0], nan_at=0)
    def check(a, nan_at):
        a = np.array(a)
        if nan_at is not None:
            a[nan_at % a.size] = np.nan
            assert math.isnan(_median(a))
            return
        with np.errstate(invalid="ignore", over="ignore"):
            expected = np.float64(np.median(a)).tobytes()
            assert np.float64(_median(a)).tobytes() == expected, a

    check()


def test_resolve_threshold_default_five_sigma():
    rng = np.random.default_rng(1)
    y = series(rng.normal(scale=0.1, size=500))
    thr = resolve_threshold(y, EngineParams())
    assert 0.3 < thr < 0.7


def test_resolve_threshold_floor_for_noiseless():
    y = series(np.zeros(50))
    thr = resolve_threshold(y, EngineParams())
    assert 0 < thr <= 1e-9


def test_engine_params_validation():
    with pytest.raises(ValidationError):
        EngineParams(persistence=0)
    with pytest.raises(ValidationError):
        EngineParams(lookahead=0)
    with pytest.raises(ValidationError):
        EngineParams(beam_width=0)
    with pytest.raises(ValidationError):
        EngineParams(deviation_threshold=-1.0)
    # The level filter and the off preference's duration are not settings;
    # the duration keeps the value its default had, which the outputs rest on.
    for name in ("min_level", "min_on_duration"):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            EngineParams(**{name: 0})
    assert engine_module.MIN_ON_DURATION == 3
