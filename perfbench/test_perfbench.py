"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import disagg.cli  # noqa: E402
import inputs  # noqa: E402
import outputs  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_same_seed_writes_identical_inputs(tmp_path):
    for name, write in (
        ("scenario", lambda seed, out: inputs.write_scenario_set(seed, 2, out)),
        ("plugs", inputs.write_plug_set),
    ):
        first = write(3, tmp_path / f"{name}-a")
        second = write(3, tmp_path / f"{name}-b")
        write(4, tmp_path / f"{name}-c")
        assert first == second
        a = _tree_bytes(tmp_path / f"{name}-a")
        assert a == _tree_bytes(tmp_path / f"{name}-b")
        assert a != _tree_bytes(tmp_path / f"{name}-c")


def test_plug_meter_resamples_to_the_truth_horizon(tmp_path):
    from disagg import load_scenario, parse_emontx_csv, to_signal

    info = inputs.write_plug_set(0, tmp_path)
    meter = to_signal(parse_emontx_csv(tmp_path / "meter_emontx.csv"))
    assert len(meter) == info["horizon"] == load_scenario(tmp_path / "truth.json").horizon
    plugs = json.loads((tmp_path / "plugs.json").read_text())
    assert [p["name"] for p in plugs] == [d[0] for d in inputs.PLUG_DEVICES]


@pytest.fixture
def finished_job(tmp_path):
    inp, out = tmp_path / "in", tmp_path / "job"
    info = inputs.write_scenario_set(0, 1, inp)
    out.mkdir()
    assert worker._scenario_job(inp, out, beam_width=1) == 0
    return out, info


def test_untouched_job_passes_checks(finished_job):
    out, info = finished_job
    assert outputs.check_job(out, info["horizon"]) == []
    acc = outputs.pool_accuracy([outputs.job_accuracy(out, info["truth_events"])])
    assert acc["precision"] == acc["recall"] == 1.0


def test_tampered_total_counts_as_failed_job(finished_job):
    out, info = finished_job
    path = out / "res" / "estimate_total.csv"
    lines = path.read_text().splitlines()
    k, value = lines[200].split(",")
    lines[200] = f"{k},{float(value) + 1e-9!r}"
    path.write_text("\n".join(lines) + "\n")
    problems = outputs.check_job(out, info["horizon"])
    assert problems == ["estimate_total.csv is not the sum of the device estimates"]


def test_events_must_alternate_inside_the_horizon(finished_job):
    out, info = finished_job
    result_path = out / "res" / "result.json"
    result = json.loads(result_path.read_text())
    first_on = next(e for e in result["events"] if e["kind"] == "on")
    first_on["kind"] = "off"
    result_path.write_text(json.dumps(result))
    assert outputs.check_job(out, info["horizon"]) == [
        f"{first_on['device']}: events do not alternate on/off"
    ]
    assert any("outside" in p for p in outputs.check_job(out, 100))


def test_missing_metrics_fails(finished_job):
    out, info = finished_job
    (out / "metrics.json").unlink()
    assert outputs.check_job(out, info["horizon"]) == ["metrics.json missing"]


def _hand_built_tree() -> spans.Recorder:
    """cli [0,10] > engine [1,8] > models [2,3], models [5,7]; ingest [8.5,9.5]."""
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 7.0, 8.0, 8.5, 9.5, 10.0])
    rec = spans.Recorder(clock=lambda: next(ticks))
    cli = rec.begin("cli.disaggregate")
    engine = rec.begin("engine.run")
    for _ in range(2):
        rec.end(rec.begin("models.simulate"))
    rec.end(engine)
    rec.end(rec.begin("ingest.read_signal"))
    rec.end(cli)
    return rec


def test_self_times_on_hand_built_tree():
    rec = _hand_built_tree()
    assert spans.self_times(rec.spans) == [2.0, 4.0, 1.0, 2.0, 1.0]
    assert spans.layer_totals(rec.spans) == {
        "cli.self_s": 2.0, "cli.disaggregate_s": 10.0, "roots_s": 10.0,
        "engine.self_s": 4.0, "engine.run_s": 7.0,
        "models.self_s": 3.0, "models.simulate_s": 3.0,
        "ingest.self_s": 1.0, "ingest.read_signal_s": 1.0,
    }


def test_spans_must_close_in_order():
    rec = spans.Recorder()
    outer = rec.begin("cli.evaluate")
    rec.begin("evaluate.score")
    with pytest.raises(RuntimeError):
        rec.end(outer)
    with pytest.raises(RuntimeError):
        rec.reset()


def test_install_wraps_at_the_lookup_site_and_restores(tmp_path):
    inputs.write_scenario_set(0, 1, tmp_path)
    original = disagg.cli.load_library
    rec = spans.Recorder()
    restore = spans.install(rec)
    try:
        assert disagg.cli.load_library is not original
        disagg.cli.load_library(tmp_path / "library.json")
    finally:
        restore()
    assert disagg.cli.load_library is original
    assert [s.name for s in rec.spans] == ["models.load_library"]


def test_speed_sampler_leaves_out_its_own_sampling(capsys):
    handler = signal.getsignal(signal.SIGALRM)
    sampler = worker.SpeedSampler()
    result, wall, speed = sampler.run(lambda: time.sleep(0.35) or 7)
    assert result == 7
    assert sampler.sampling_s > 0
    assert 0.3 < wall < 0.6
    assert speed > 0
    assert sampler.run(lambda: 1 / 0)[0] is None
    assert "ZeroDivisionError" in capsys.readouterr().err
    assert signal.getsignal(signal.SIGALRM) is handler
