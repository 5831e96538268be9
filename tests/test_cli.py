import argparse
import json
import shutil
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from disagg import (
    DeviceModel,
    EngineParams,
    PiecewiseInput,
    disaggregate,
    load_library,
    random_stable_model,
    read_signal_csv,
    save_library,
    simulate_zero_state,
    write_signal_csv,
)
from disagg.cli import build_parser, load_result, main
from disagg.ingest import ROW_BLOCK

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402
from inputs import PLUG_ROWS, write_plug_set  # noqa: E402


def _run_reference_pipeline(tmp_path, seed=0):
    sim = tmp_path / "sim"
    res = tmp_path / "res"
    assert main(["simulate", "--reference", "--seed", str(seed), "--out", str(sim)]) == 0
    assert main([
        "disaggregate",
        "--library", str(sim / "library.json"),
        "--input", str(sim / "aggregate.csv"),
        "--out", str(res),
    ]) == 0
    metrics = tmp_path / "metrics.json"
    assert main([
        "evaluate",
        "--result", str(res),
        "--truth", str(sim / "scenario.json"),
        "--out", str(metrics),
    ]) == 0
    return sim, res, metrics


def test_simulate_writes_expected_files(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--reference", "--seed", "7", "--out", str(out)]) == 0
    assert (out / "scenario.json").exists()
    assert (out / "library.json").exists()
    assert (out / "aggregate.csv").exists()
    for i in range(1, 6):
        assert (out / f"truth_device{i}.csv").exists()
    aggregate = read_signal_csv(out / "aggregate.csv")
    assert len(aggregate) == 450


def test_simulate_from_scenario_file(tmp_path):
    first = tmp_path / "a"
    assert main(["simulate", "--reference", "--seed", "3", "--out", str(first)]) == 0
    second = tmp_path / "b"
    assert main([
        "simulate", "--scenario", str(first / "scenario.json"), "--out", str(second),
    ]) == 0
    a = (first / "aggregate.csv").read_bytes()
    b = (second / "aggregate.csv").read_bytes()
    assert a == b


def test_full_pipeline_and_metrics(tmp_path):
    _, res, metrics_path = _run_reference_pipeline(tmp_path, seed=0)
    data = json.loads(metrics_path.read_text())
    assert data["precision"] == 1.0
    assert data["recall"] == 1.0
    assert data["switch_time_mae"] == 0.0
    assert len(data["level_errors"]) == 4
    assert max(data["level_errors"]) <= 0.05
    result = json.loads((res / "result.json").read_text())
    assert len(result["events"]) == 8
    assert result["unexplained"] == []


def test_pipeline_reproducible_byte_identical(tmp_path):
    run1 = tmp_path / "r1"
    run2 = tmp_path / "r2"
    files1 = _run_reference_pipeline(run1, seed=5)
    files2 = _run_reference_pipeline(run2, seed=5)
    for a, b in [
        (files1[0] / "scenario.json", files2[0] / "scenario.json"),
        (files1[0] / "aggregate.csv", files2[0] / "aggregate.csv"),
        (files1[1] / "result.json", files2[1] / "result.json"),
        (files1[2], files2[2]),
    ]:
        assert a.read_bytes() == b.read_bytes()


def test_result_round_trip(tmp_path):
    _, res, _ = _run_reference_pipeline(tmp_path, seed=1)
    result = load_result(res)
    assert len(result.events) == 8
    total = json.loads((res / "result.json").read_text())
    assert result.residual_rms == total["residual_rms"]
    # The saved per-device estimates sum to the saved total.
    from functools import reduce

    summed = reduce(np.add, (o.values for o in result.estimated_outputs))
    np.testing.assert_array_equal(summed, result.estimated_total.values)


def _write_plug_recording(path):
    model = random_stable_model(3, 4, instant_off=True)
    schedule = PiecewiseInput(((30, 5.0), (200, 0.0), (280, 5.0), (430, 0.0)))
    y = simulate_zero_state(model, schedule.expand(0, 520, 1 / 12.0))
    n = len(y)
    columns = (
        np.arange(n) / 12.0, y.values, np.full(n, 120.0), 120.0 * y.values,
        118.0 * y.values, np.full(n, 0.98),
    )
    rows = [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns))]
    path.write_text("\n".join(["timestamp_utc,irms,vrms,pva,pw,pf", *rows]) + "\n")


def test_identify_appends_library_entry(tmp_path):
    rec_path = tmp_path / "plug.csv"
    _write_plug_recording(rec_path)
    lib_path = tmp_path / "lib.json"
    assert main([
        "identify",
        "--input", str(rec_path),
        "--name", "kettle",
        "--threshold", "1.0",
        "--settle-skip", "20",
        "--library", str(lib_path),
    ]) == 0
    lib = load_library(lib_path)
    assert len(lib) == 1
    assert lib[0].name == "kettle"
    assert lib[0].instant_off


def test_identify_rejects_negative_delay(tmp_path, capsys):
    rec_path = tmp_path / "plug.csv"
    _write_plug_recording(rec_path)
    lib_path = tmp_path / "lib.json"
    code = main([
        "identify",
        "--input", str(rec_path),
        "--name", "kettle",
        "--threshold", "1.0",
        "--delay", "-1",
        "--library", str(lib_path),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: delay must be >= 0, got -1\n"
    assert not lib_path.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--rate", "nan", "nominal_rate must be finite and > 0, got nan"),
    ("--rate", "inf", "nominal_rate must be finite and > 0, got inf"),
    ("--threshold", "nan", "on_threshold must be finite and > 0, got nan"),
    ("--threshold", "inf", "on_threshold must be finite and > 0, got inf"),
])
def test_identify_rejects_non_finite_settings(tmp_path, capsys, flag, value, message):
    rec_path = tmp_path / "plug.csv"
    _write_plug_recording(rec_path)
    lib_path = tmp_path / "lib.json"
    settings = {"--threshold": "1.0", "--rate": "12.0", flag: value}
    code = main([
        "identify",
        "--input", str(rec_path),
        "--name", "kettle",
        *(f"{name}={v}" for name, v in settings.items()),
        "--library", str(lib_path),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not lib_path.exists()


def test_identify_is_deterministic_on_a_benchmark_plug(tmp_path):
    write_plug_set(7, tmp_path / "in")
    plug = json.loads((tmp_path / "in" / "plugs.json").read_text())[0]
    recorder = spans.Recorder()
    restore = spans.install(recorder)
    try:
        for run in ("a", "b"):
            assert main([
                "identify",
                "--input", str(tmp_path / "in" / plug["file"]),
                "--name", plug["name"],
                "--threshold", str(plug["threshold"]),
                "--settle-skip", str(plug["settle_skip"]),
                "--library", str(tmp_path / f"{run}.json"),
            ]) == 0
    finally:
        restore()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert recorder.counts["ingest.rows_parsed"] == 2 * PLUG_ROWS


def test_plot_data_series_set(tmp_path):
    sim, res, _ = _run_reference_pipeline(tmp_path, seed=2)
    plot = tmp_path / "plot.csv"
    assert main([
        "plot-data",
        "--result", str(res),
        "--input", str(sim / "aggregate.csv"),
        "--out", str(plot),
    ]) == 0
    lines = plot.read_text().splitlines()
    assert lines[0] == "series,k,value"
    names = {}
    for line in lines[1:]:
        name = line.split(",")[0]
        names[name] = names.get(name, 0) + 1
    expected = {"y_m", "y_hat"} | {f"y_hat_device{i}" for i in range(1, 6)}
    assert set(names) == expected
    assert len(set(names.values())) == 1  # all series share one length


@pytest.mark.parametrize("length", [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1])
def test_format_characters_in_a_device_name_are_written_as_they_are(tmp_path, length):
    # The name reaches plot-data's row prefix and an estimate's file name.
    name = "fan%d{}"
    model = DeviceModel(name, A=[[0.5]], b=[0.5], c=[1.0], instant_off=True)
    schedule = PiecewiseInput(((40, 2.0), (length - 300, 0.0)))
    y_m = simulate_zero_state(model, schedule.expand(7, length))
    save_library([model], tmp_path / "library.json")
    write_signal_csv(y_m, tmp_path / "aggregate.csv")
    res, plot = tmp_path / "res", tmp_path / "plot.csv"
    assert main([
        "disaggregate", "--library", str(tmp_path / "library.json"),
        "--input", str(tmp_path / "aggregate.csv"), "--out", str(res),
    ]) == 0
    assert main([
        "plot-data", "--result", str(res), "--input", str(tmp_path / "aggregate.csv"),
        "--out", str(plot),
    ]) == 0
    result = disaggregate(y_m, [model])

    def rows(series, prefix=""):
        return "".join(
            f"{prefix}{series.start_index + p},{v!r}\n"
            for p, v in enumerate(series.values.tolist())
        )

    (estimate,) = result.estimated_outputs
    assert (res / f"estimate_{name}.csv").read_text() == "k,value\n" + rows(estimate)
    assert plot.read_text() == "series,k,value\n" + "".join([
        rows(y_m, "y_m,"),
        rows(result.estimated_total, "y_hat,"),
        rows(estimate, f"y_hat_{name},"),
    ])


def test_disaggregate_rejects_a_device_named_total(tmp_path, capsys):
    # Its estimate file would be the total's, estimate_total.csv.
    sim, res = tmp_path / "sim", tmp_path / "res"
    assert main(["simulate", "--reference", "--seed", "1", "--out", str(sim)]) == 0
    library = load_library(sim / "library.json")
    library[2] = replace(library[2], name="total")
    save_library(library, sim / "library.json")
    capsys.readouterr()
    code = main([
        "disaggregate", "--library", str(sim / "library.json"),
        "--input", str(sim / "aggregate.csv"), "--out", str(res),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: device 'total' would overwrite estimate_total.csv\n"
    )
    assert not res.exists()


def test_unknown_flag_exits_one(tmp_path, capsys):
    assert main(["simulate", "--bogus"]) == 1
    assert main(["definitely-not-a-command"]) == 1


def test_simulate_requires_a_source(tmp_path):
    assert main(["simulate", "--out", str(tmp_path / "x")]) == 1


def test_simulate_takes_one_source(tmp_path, capsys):
    first = tmp_path / "a"
    assert main(["simulate", "--reference", "--out", str(first)]) == 0
    code = main([
        "simulate", "--reference", "--seed", "3",
        "--scenario", str(first / "scenario.json"), "--out", str(tmp_path / "b"),
    ])
    assert code == 1
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def test_simulate_seed_needs_reference(tmp_path, capsys):
    first = tmp_path / "a"
    assert main(["simulate", "--reference", "--out", str(first)]) == 0
    # --reference without --seed is seed 0.
    zero = tmp_path / "zero"
    assert main(["simulate", "--reference", "--seed", "0", "--out", str(zero)]) == 0
    for name in ("scenario.json", "aggregate.csv"):
        assert (first / name).read_bytes() == (zero / name).read_bytes()
    capsys.readouterr()
    code = main([
        "simulate", "--scenario", str(first / "scenario.json"), "--seed", "9",
        "--out", str(tmp_path / "b"),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: --seed applies only to --reference\n"
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "0"])
def test_disaggregate_rejects_non_finite_threshold(
    pipeline_dir, tmp_path, capsys, threshold
):
    sim = pipeline_dir / "sim"
    code = main([
        "disaggregate",
        "--library", str(sim / "library.json"),
        "--input", str(sim / "aggregate.csv"),
        f"--threshold={threshold}",
        "--out", str(tmp_path / "res"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: deviation_threshold must be finite and > 0 when given"
    )
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("min_level", ["nan", "inf", "-1"])
def test_disaggregate_rejects_bad_min_level(pipeline_dir, tmp_path, capsys, min_level):
    sim = pipeline_dir / "sim"
    code = main([
        "disaggregate",
        "--library", str(sim / "library.json"),
        "--input", str(sim / "aggregate.csv"),
        f"--min-level={min_level}",
        "--out", str(tmp_path / "res"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: min_level must be finite and >= 0, got "
    )
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("cap", ["max_input", "max_output"])
def test_disaggregate_rejects_nan_cap_in_library(pipeline_dir, tmp_path, capsys, cap):
    sim = pipeline_dir / "sim"
    library = tmp_path / "library.json"
    entries = json.loads((sim / "library.json").read_text())
    entries[1][cap] = float("nan")
    library.write_text(json.dumps(entries))
    code = main([
        "disaggregate",
        "--library", str(library),
        "--input", str(sim / "aggregate.csv"),
        "--out", str(tmp_path / "res"),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {library}: {cap} must be finite and > 0 when given, got nan\n"
    )
    assert not (tmp_path / "res").exists()


def test_evaluate_rejects_negative_match_window(pipeline_dir, tmp_path, capsys):
    code = main([
        "evaluate",
        "--result", str(pipeline_dir / "res"),
        "--truth", str(pipeline_dir / "sim" / "scenario.json"),
        "--match-window", "-1",
        "--out", str(tmp_path / "metrics.json"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: match_window must be >= 0")
    assert not (tmp_path / "metrics.json").exists()


def test_missing_input_file_exits_two(tmp_path):
    code = main([
        "disaggregate",
        "--library", str(tmp_path / "none.json"),
        "--input", str(tmp_path / "none.csv"),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2


def test_validation_error_exits_one(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,header\n")
    code = main([
        "identify",
        "--input", str(bad),
        "--name", "x",
        "--threshold", "1.0",
        "--library", str(tmp_path / "lib.json"),
    ])
    assert code == 1


def test_identify_reports_a_byte_that_is_not_utf8(tmp_path, capsys):
    rec_path = tmp_path / "plug.csv"
    rec_path.write_bytes(
        b"timestamp_utc,irms,vrms,pva,pw,pf\n0.0,1.0,120.0,120.0,118.0,0.98\n"
        b"0.5,\xff2.0,120.0,120.0,118.0,0.98\n"
    )
    code = main([
        "identify",
        "--input", str(rec_path),
        "--name", "x",
        "--threshold", "1.0",
        "--library", str(tmp_path / "lib.json"),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: line 3: could not convert string to float: '\ufffd2.0'\n"
    )
    assert not (tmp_path / "lib.json").exists()


def test_disaggregate_reports_a_byte_that_is_not_utf8(pipeline_dir, tmp_path, capsys):
    signal = tmp_path / "aggregate.csv"
    signal.write_bytes(b"k,value\n0,1.0\n1,\xff2.0\n")
    code = main([
        "disaggregate",
        "--library", str(pipeline_dir / "sim" / "library.json"),
        "--input", str(signal),
        "--out", str(tmp_path / "res"),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: line 3: could not convert string to float: '\ufffd2.0'\n"
    )
    assert not (tmp_path / "res").exists()


def test_disaggregate_has_one_flag_per_engine_param():
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    flags = [
        a for a in sub.choices["disaggregate"]._actions
        if a.dest not in ("help", "library", "input", "out")
    ]
    assert len(flags) == len(fields(EngineParams))
    assert {a.dest: a.default for a in flags} == asdict(EngineParams())


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """A finished simulate/disaggregate run, copied by each test that edits it."""
    base = tmp_path_factory.mktemp("pipeline")
    _run_reference_pipeline(base)
    return base


def _evaluate_copy(pipeline_dir, tmp_path, edit_name, edit):
    """Evaluate a copy of the pipeline run after edit(path) on one of its files."""
    work = tmp_path / "run"
    shutil.copytree(pipeline_dir, work)
    edit(work / edit_name)
    return main([
        "evaluate",
        "--result", str(work / "res"),
        "--truth", str(work / "sim" / "scenario.json"),
        "--library", str(work / "sim" / "library.json"),
        "--out", str(work / "metrics.json"),
    ]), work / edit_name


def _truncate(path):
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


def _edit_json(change):
    def edit(path):
        data = json.loads(path.read_text())
        change(data)
        path.write_text(json.dumps(data))
    return edit


def _first_off(data):
    return next(e for e in data["events"] if e["kind"] == "off")


def _first_on(data):
    return next(e for e in data["events"] if e["kind"] == "on")


def _event_before_k0(data):
    data["devices"][0]["events"][0][0] = -3


def _keep_rows(n):
    def edit(path):
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[: n + 1]))
    return edit


@pytest.mark.parametrize("name, edit", [
    ("res/result.json", _truncate),
    ("res/result.json", _edit_json(lambda d: d["events"][0].update(device="kettle"))),
    ("res/result.json", _edit_json(lambda d: d["params"].update(colour="blue"))),
    ("res/result.json", _edit_json(lambda d: d["events"][1].update(level=-5.0))),
    ("res/result.json", _edit_json(
        lambda d: d["events"][1].update(level=d["events"][0]["level"]))),
    ("res/result.json", _edit_json(lambda d: d["events"][0].update(kind="bogus"))),
    ("res/result.json", _edit_json(lambda d: _first_off(d).update(kind="on"))),
    ("res/result.json", _edit_json(lambda d: _first_off(d).update(level=1.5))),
    ("res/result.json", _edit_json(lambda d: d["unexplained"].append(
        {"k": 5, "kind": "sideways", "magnitude": 1.0}))),
    ("res/result.json", _edit_json(lambda d: _first_on(d).update(level=float("inf")))),
    ("res/result.json", _edit_json(lambda d: _first_on(d).update(level=float("nan")))),
    ("res/result.json", _edit_json(
        lambda d: d["params"].update(deviation_threshold=float("nan")))),
    ("res/result.json", _edit_json(
        lambda d: d["params"].update(deviation_threshold=float("inf")))),
    ("res/result.json", _edit_json(lambda d: d["params"].update(min_level=float("nan")))),
    ("res/result.json", _edit_json(lambda d: d["params"].update(lookahead=6.5))),
    ("res/result.json", _edit_json(lambda d: d["params"].update(beam_width=True))),
    ("res/estimate_device1.csv", _keep_rows(100)),
    ("sim/scenario.json", _truncate),
    ("sim/scenario.json", _edit_json(lambda d: d.pop("devices"))),
    ("sim/scenario.json", _edit_json(lambda d: d.update(noise_std=float("nan")))),
    ("sim/scenario.json", _edit_json(lambda d: d.update(noise_std=float("inf")))),
    ("sim/scenario.json", _edit_json(_event_before_k0)),
    ("sim/scenario.json", _edit_json(lambda d: d.update(horizon=450.5))),
    ("sim/library.json", _truncate),
    ("sim/library.json", _edit_json(lambda d: d.__setitem__(0, "device1"))),
    ("sim/library.json", _edit_json(lambda d: d[0].update(d=float("nan")))),
], ids=[
    "truncated-result", "unknown-device", "extra-param", "negative-level",
    "repeated-level", "bogus-kind", "on-at-zero", "off-at-nonzero",
    "sideways-unexplained", "inf-level", "nan-level", "nan-threshold",
    "inf-threshold", "nan-min-level", "fractional-lookahead", "bool-beam-width",
    "short-estimate", "truncated-scenario",
    "scenario-without-devices", "nan-noise", "inf-noise", "event-before-k0",
    "fractional-horizon",
    "truncated-library", "library-entry-not-object", "nan-feedthrough",
])
def test_malformed_json_is_a_validation_error(
    pipeline_dir, tmp_path, capsys, name, edit
):
    code, path = _evaluate_copy(pipeline_dir, tmp_path, name, edit)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {path}: ")


def test_simulate_rejects_scenario_event_before_k0(pipeline_dir, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    shutil.copy(pipeline_dir / "sim" / "scenario.json", path)
    _edit_json(_event_before_k0)(path)
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}: event at k=-3 before k=0\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "name", ["res/result.json", "sim/scenario.json", "sim/library.json"]
)
def test_missing_json_file_exits_two(pipeline_dir, tmp_path, name):
    code, _ = _evaluate_copy(pipeline_dir, tmp_path, name, Path.unlink)
    assert code == 2


def test_help_exits_zero():
    assert main(["--help"]) == 0
