import numpy as np
import pytest

from disagg import (
    DeviceModel,
    PiecewiseInput,
    Scenario,
    SwitchEvent,
    ValidationError,
    disaggregate,
    match_events,
    reference_scenario,
    render,
    score,
    truth_events,
)
from disagg.evaluate import metrics_to_dict


def _ev(k, dev, kind, level=1.0):
    return SwitchEvent(k, dev, kind, level if kind == "on" else 0.0)


def test_truth_events_from_scenario():
    sc = reference_scenario(0)
    events = truth_events(sc)
    assert [(e.k, e.device, e.kind) for e in events] == [
        (20, 0, "on"), (101, 0, "off"),
        (130, 1, "on"), (180, 2, "on"),
        (250, 3, "on"), (301, 2, "off"),
        (351, 3, "off"), (401, 1, "off"),
    ]


def test_match_events_nearest_within_window():
    truth = [_ev(20, 0, "on"), _ev(100, 0, "off")]
    est = [_ev(20, 0, "on"), _ev(101, 0, "off")]
    m = match_events(truth, est, match_window=5)
    assert len(m.pairs) == 2
    assert m.unmatched_truth == ()
    assert m.unmatched_estimate == ()


def test_match_events_requires_same_device_and_kind():
    truth = [_ev(20, 0, "on")]
    est = [_ev(20, 1, "on"), _ev(20, 0, "off")]
    m = match_events(truth, est, match_window=5)
    assert m.pairs == ()
    assert len(m.unmatched_estimate) == 2


def test_match_events_window_excludes_far_pairs():
    truth = [_ev(20, 0, "on")]
    est = [_ev(40, 0, "on")]
    m = match_events(truth, est, match_window=5)
    assert m.pairs == ()


def test_match_events_greedy_nearest_first():
    truth = [_ev(20, 0, "on"), _ev(24, 0, "on")]
    est = [_ev(22, 0, "on")]
    m = match_events(truth, est, match_window=5)
    assert len(m.pairs) == 1
    assert m.pairs[0][0].k == 20  # equal distances: earlier truth event wins


def test_match_events_rejects_negative_window():
    with pytest.raises(ValidationError, match="match_window"):
        match_events([_ev(20, 0, "on")], [_ev(20, 0, "on")], match_window=-1)


def _match_all_pairs(truth, estimate, match_window):
    """Reference matcher: every truth event against every estimated event."""
    candidates = sorted(
        (abs(t.k - e.k), ti, ei)
        for ti, t in enumerate(truth)
        for ei, e in enumerate(estimate)
        if t.device == e.device and t.kind == e.kind and abs(t.k - e.k) <= match_window
    )
    used_t, used_e, pairs = set(), set(), []
    for _, ti, ei in candidates:
        if ti not in used_t and ei not in used_e:
            used_t.add(ti)
            used_e.add(ei)
            pairs.append((truth[ti], estimate[ei]))
    return (
        tuple(pairs),
        tuple(t for i, t in enumerate(truth) if i not in used_t),
        tuple(e for i, e in enumerate(estimate) if i not in used_e),
    )


def test_match_events_equals_all_pairs_property():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    event = st.builds(
        _ev, st.integers(0, 60), st.integers(0, 2), st.sampled_from(["on", "off"]),
        st.sampled_from([0.5, 1.0, 2.0]),
    )

    @settings(max_examples=200, deadline=None)
    @given(
        truth=st.lists(event, max_size=30),
        estimate=st.lists(event, max_size=30),
        match_window=st.integers(0, 12),
    )
    def check(truth, estimate, match_window):
        m = match_events(truth, estimate, match_window)
        assert (m.pairs, m.unmatched_truth, m.unmatched_estimate) == _match_all_pairs(
            truth, estimate, match_window
        )

    check()


def _perfect_result(sc):
    aggregate, _ = render(sc)
    return disaggregate(aggregate, list(sc.models)), aggregate


def test_score_two_event_time_error():
    # Truth on@20/off@100, estimate on@20/off@101: mae is 0.5 with
    # both precision and recall at 1.
    model = DeviceModel("solo", A=[[0.5]], b=[0.5], c=[1.0], instant_off=True)
    sc = Scenario(
        models=(model,),
        inputs=(PiecewiseInput(((20, 2.0), (100, 0.0))),),
        horizon=130,
    )
    aggregate, _ = render(sc)
    result = disaggregate(aggregate, [model])
    assert [(e.k, e.kind) for e in result.events] == [(20, "on"), (100, "off")]
    from dataclasses import replace

    shifted = replace(
        result,
        events=(result.events[0], SwitchEvent(101, 0, "off", 0.0)),
    )
    metrics = score(shifted, sc, match_window=5)
    assert metrics.switch_time_mae == pytest.approx(0.5)
    assert metrics.precision == 1.0
    assert metrics.recall == 1.0


def test_score_shifted_off_event():
    sc = reference_scenario(0)
    result, _ = _perfect_result(sc)
    # Nudge one off event by one sample to create a known time error.
    events = list(result.events)
    idx = next(i for i, e in enumerate(events) if e.kind == "off")
    events[idx] = SwitchEvent(events[idx].k + 1, events[idx].device, "off", 0.0)
    from dataclasses import replace

    shifted = replace(result, events=tuple(events))
    metrics = score(shifted, sc, match_window=5)
    assert metrics.precision == 1.0
    assert metrics.recall == 1.0
    assert metrics.switch_time_mae == pytest.approx(1 / 8)


def test_score_perfect_recovery():
    sc = reference_scenario(0)
    result, _ = _perfect_result(sc)
    metrics = score(result, sc)
    assert metrics.precision == 1.0
    assert metrics.recall == 1.0
    assert metrics.switch_time_mae == 0.0
    assert max(metrics.level_relative_errors) <= 0.05
    assert metrics.aggregate_rmse < 0.05
    for name, err in metrics.per_device_energy_error.items():
        assert err < 0.1, name


def test_score_missed_event_recall():
    sc = reference_scenario(0)
    result, _ = _perfect_result(sc)
    from dataclasses import replace

    # Drop one of the eight events.
    partial = replace(result, events=result.events[:-1])
    metrics = score(partial, sc)
    assert metrics.recall == pytest.approx(7 / 8)
    assert metrics.precision == 1.0


def test_score_rejects_mismatched_devices():
    sc = reference_scenario(0)
    result, _ = _perfect_result(sc)
    other = reference_scenario(1)
    from dataclasses import replace

    renamed = replace(
        other,
        models=tuple(
            DeviceModel(
                name=f"x{i}", A=m.A, b=m.b, c=m.c, d=m.d,
                instant_off=m.instant_off, dc_normalized=m.dc_normalized,
            )
            for i, m in enumerate(other.models)
        ),
    )
    with pytest.raises(ValidationError):
        score(result, renamed)


def test_score_rejects_mismatched_range():
    sc = reference_scenario(0)
    result, _ = _perfect_result(sc)
    from dataclasses import replace

    short = replace(sc, horizon=430)  # events still fit, range differs
    with pytest.raises(ValidationError):
        score(result, short)


def test_score_rejects_negative_window():
    sc = reference_scenario(0)
    result, _ = _perfect_result(sc)
    with pytest.raises(ValidationError, match="match_window"):
        score(result, sc, match_window=-1)


def test_score_symmetric_under_relabeling():
    sc = reference_scenario(0)
    result, _ = _perfect_result(sc)
    base = score(result, sc)

    order = [3, 1, 0, 2, 4]
    from dataclasses import replace

    sc_p = Scenario(
        models=tuple(sc.models[i] for i in order),
        inputs=tuple(sc.inputs[i] for i in order),
        noise_std=sc.noise_std,
        seed=sc.seed,
        horizon=sc.horizon,
    )
    inverse = [order.index(d) for d in range(5)]
    result_p = replace(
        result,
        device_names=tuple(result.device_names[i] for i in order),
        estimated_outputs=tuple(result.estimated_outputs[i] for i in order),
        events=tuple(
            SwitchEvent(e.k, inverse[e.device], e.kind, e.level)
            for e in result.events
        ),
    )
    permuted = score(result_p, sc_p)
    assert permuted.precision == base.precision
    assert permuted.recall == base.recall
    assert permuted.switch_time_mae == base.switch_time_mae
    assert permuted.aggregate_rmse == base.aggregate_rmse
    assert permuted.per_device_energy_error == base.per_device_energy_error


def test_idle_device_energy_error_zero():
    sc = reference_scenario(0)
    result, _ = _perfect_result(sc)
    metrics = score(result, sc)
    assert metrics.per_device_energy_error["device5"] == 0.0


def test_metrics_serialization_shape():
    sc = reference_scenario(0)
    result, _ = _perfect_result(sc)
    data = metrics_to_dict(score(result, sc))
    assert set(data) == {
        "switch_time_mae", "level_errors", "per_device_energy_error",
        "aggregate_rmse", "precision", "recall",
    }
    assert len(data["level_errors"]) == 4
    assert set(data["per_device_energy_error"]) == {
        "device1", "device2", "device3", "device4", "device5",
    }
