import argparse
import json
import shutil
import sys
import types
import typing
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import disagg.cli as cli_module
import disagg.sysid as sysid
from disagg import (
    DeviceModel,
    EngineParams,
    GapWarning,
    PiecewiseInput,
    SignalSeries,
    disaggregate,
    load_library,
    load_scenario,
    random_stable_model,
    read_signal_csv,
    reference_scenario,
    render,
    save_library,
    save_scenario,
    simulate_zero_state,
    SwitchEvent,
    UnexplainedEvent,
    UnstableModelError,
    ValidationError,
    write_signal_csv,
)
from disagg.cli import build_parser, load_result, main, result_to_dict, save_result
from disagg.ingest import ROW_BLOCK
from disagg.scenario import MAX_HORIZON
from conftest import hold

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402
from inputs import PLUG_ROWS, write_plug_set  # noqa: E402


# Device names that would break a file name or a CSV row.
BAD_NAMES = pytest.mark.parametrize("bad", ["x/y", "a,b", "", "a\nb", "a\rb", "a\0b"],
                                    ids=["slash", "comma", "empty", "lf", "cr", "nul"])


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
    assert sorted(p.name for p in out.iterdir()) == [
        "aggregate.csv", "library.json", "scenario.json"]
    aggregate = read_signal_csv(out / "aggregate.csv")
    assert len(aggregate) == 450


@pytest.mark.parametrize("source", ["reference", "scenario"])
def test_simulate_truths_writes_each_rendered_truth(tmp_path, source):
    if source == "reference":
        args = ["--reference", "--seed", "7"]
    else:
        scenario = reference_scenario(3)
        models = tuple(replace(m, instant_off=False) for m in scenario.models)
        save_scenario(replace(scenario, models=models), tmp_path / "in.json")
        args = ["--scenario", str(tmp_path / "in.json")]
    plain, full = tmp_path / "plain", tmp_path / "full"
    assert main(["simulate", *args, "--out", str(plain)]) == 0
    assert main(["simulate", *args, "--truths", "--out", str(full)]) == 0
    scenario = load_scenario(full / "scenario.json")
    names = [m.name for m in scenario.models]
    common = ["aggregate.csv", "library.json", "scenario.json"]
    assert sorted(p.name for p in full.iterdir()) == sorted(
        common + [f"truth_{name}.csv" for name in names])
    for name in common:
        assert (full / name).read_bytes() == (plain / name).read_bytes()
    truths = render(scenario)[1]
    for name, truth in zip(names, truths):
        written = read_signal_csv(full / f"truth_{name}.csv")
        assert written.start_index == truth.start_index
        assert written.values.tobytes() == truth.values.tobytes()


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


def test_simulate_rejects_duplicate_device_names_before_writing(tmp_path, capsys):
    first = tmp_path / "a"
    assert main(["simulate", "--reference", "--out", str(first)]) == 0
    path = first / "scenario.json"
    data = json.loads(path.read_text())
    data["devices"][1]["model"]["name"] = data["devices"][0]["model"]["name"]
    path.write_text(json.dumps(data))
    out = tmp_path / "b"
    out.mkdir()
    capsys.readouterr()
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}: duplicate device names in library\n"
    assert list(out.iterdir()) == []


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


def test_saved_result_loads_as_the_engines_result_property(tmp_path):
    # The loaded result is the engine's, estimates re-rendered from the
    # events and library bit for bit, with their start index and period.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 199), width=st.sampled_from([1, 3, 8]),
           start=st.one_of(st.just(0), st.just(100_000), st.integers(-10**6, 10**6)),
           period=st.sampled_from([1.0, 1 / 12]), instant_off=st.booleans())
    def check(seed, width, start, period, instant_off):
        scenario = reference_scenario(seed)
        if not instant_off:
            models = tuple(replace(m, instant_off=False) for m in scenario.models)
            scenario = replace(scenario, models=models)
        aggregate = render(scenario)[0]
        y_m = SignalSeries(aggregate.values, period, start)
        result = disaggregate(y_m, list(scenario.models), EngineParams(beam_width=width))
        out = tmp_path / "res"
        save_result(result, out)
        loaded = load_result(out)
        assert loaded == result
        for a, b in zip((*loaded.estimated_outputs, loaded.estimated_total),
                        (*result.estimated_outputs, result.estimated_total)):
            assert a.values.tobytes() == b.values.tobytes()
            assert (a.start_index, a.sample_period) == (start, period)

    check()


def test_result_file_and_constructor_apply_one_rule(tmp_path):
    # One rule per value, held by DisaggregationResult: a result.json with
    # one value changed loads as the constructor builds the result with that
    # value, or fails with the constructor's message after the path.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    scenario = reference_scenario(0)
    result = replace(disaggregate(render(scenario)[0], list(scenario.models)),
                     unexplained=(UnexplainedEvent(5, "increase", 1.0),))
    values = (st.integers() | st.integers(-5, 460) | st.floats() | st.text(max_size=3)
              | st.booleans() | st.none() | st.lists(st.integers(), max_size=2))
    # An on event's level equal to 0.0 breaks the file's kind rule first.
    on_events = [i for i, e in enumerate(result.events) if e.kind == "on"]
    rows = {"events.k": range(len(result.events)), "events.level": on_events,
            "unexplained.k": [0], "unexplained.kind": [0], "unexplained.magnitude": [0]}
    out = tmp_path / "res"
    out.mkdir()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), key=st.sampled_from(
        [*rows, "residual_rms", "start_index", "length", "sample_period"]))
    def check(data, key):
        file = result_to_dict(result)
        value = data.draw(values.filter(lambda v: key != "events.level" or v != 0.0))
        if key in rows:
            key, name = key.split(".")
            i = data.draw(st.sampled_from(rows[f"{key}.{name}"]))
            file[key][i][name] = value
            items = list(getattr(result, key))
            items[i] = replace(items[i], **{name: value})
            value = tuple(items)
        else:
            file[key] = value
        try:
            built = replace(result, **{key: value})
        except ValidationError as exc:
            built = exc
        (out / "result.json").write_text(json.dumps(file))
        if isinstance(built, ValidationError):
            with pytest.raises(ValidationError) as loaded:
                load_result(out)
            assert str(loaded.value) == f"{out / 'result.json'}: {built}"
        else:
            assert load_result(out) == built

    check()


def _is_scalar(hint) -> bool:
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return all(_is_scalar(arg) for arg in typing.get_args(hint))
    return hint in (bool, int, float, str, type(None))


@pytest.mark.parametrize("cls", [EngineParams, SwitchEvent, UnexplainedEvent])
def test_result_dataclasses_hold_only_scalars(cls):
    # result_to_dict copies each instance's vars() shallowly, which is a
    # full copy only while every field is a scalar.
    hints = typing.get_type_hints(cls)
    assert [name for name, hint in hints.items() if not _is_scalar(hint)] == []
    assert set(hints) == {f.name for f in fields(cls)}


def _write_plug_recording(path):
    model = random_stable_model(3, 4, instant_off=True)
    schedule = PiecewiseInput(((30, 5.0), (200, 0.0), (280, 5.0), (430, 0.0)))
    y = simulate_zero_state(model, hold(schedule, 0, 520, 1 / 12.0))
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


@BAD_NAMES
def test_identify_rejects_a_device_name_before_reading_the_recording(tmp_path, capsys, bad):
    # The recording does not exist: the name is checked before any work.
    lib_path = tmp_path / "lib.json"
    code = main([
        "identify", "--input", str(tmp_path / "missing.csv"), "--name", bad,
        "--threshold", "1.0", "--library", str(lib_path),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: device name {bad!r} must be a non-empty string without '/', NUL, ',', "
        "CR or LF\n"
    )
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


def test_identify_rejects_a_recording_too_long_to_resample(tmp_path, capsys):
    rec_path = tmp_path / "plug.csv"
    rec_path.write_text("timestamp_utc,irms,vrms,pva,pw,pf\n"
                        "0,4.25,120.1,510.4,505.2,0.99\n1e17,4.25,120.1,510.4,505.2,0.99\n")
    lib_path = tmp_path / "lib.json"
    code = main([
        "identify", "--input", str(rec_path), "--name", "kettle", "--threshold", "1.0",
        "--library", str(lib_path),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: recording must span < {MAX_HORIZON} sample periods, got 1.2e+18\n"
    )
    assert not lib_path.exists()


def test_identify_reports_a_recording_too_large_for_memory(tmp_path, capsys):
    # 1.2e16 sample periods: numpy can shape the grid but no machine holds it.
    rec_path = tmp_path / "plug.csv"
    rec_path.write_text("timestamp_utc,irms,vrms,pva,pw,pf\n"
                        "0,4.25,120.1,510.4,505.2,0.99\n1e15,4.25,120.1,510.4,505.2,0.99\n")
    lib_path = tmp_path / "lib.json"
    with pytest.warns(GapWarning):
        code = main([
            "identify", "--input", str(rec_path), "--name", "kettle", "--threshold", "1.0",
            "--library", str(lib_path),
        ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ")
    assert err.count("\n") == 1
    assert not lib_path.exists()


def test_identify_exits_1_and_writes_no_library_when_every_order_is_unstable(
    tmp_path, capsys, monkeypatch
):
    orders = []

    def unstable(arx, name="arx"):
        orders.append((arx.na, arx.nb))
        raise UnstableModelError(name, 1.5, 1e-9)

    monkeypatch.setattr(sysid, "arx_to_state_space", unstable)
    rec_path = tmp_path / "plug.csv"
    _write_plug_recording(rec_path)
    lib_path = tmp_path / "lib.json"
    code = main([
        "identify",
        "--input", str(rec_path),
        "--name", "kettle",
        "--threshold", "1.0",
        "--settle-skip", "20",
        "--library", str(lib_path),
    ])
    assert code == 1
    assert orders == [(3, 3), (2, 2), (1, 1)]
    assert capsys.readouterr().err.startswith("error: unstable model 'kettle'")
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


def test_evaluate_and_plot_data_do_not_read_the_estimate_csvs(pipeline_dir, tmp_path):
    # Both re-render the estimates from result.json, so deleting the CSVs
    # changes no output byte, and plot-data's estimates are the CSVs' rows.
    outputs = []
    for strip in (False, True):
        work = tmp_path / f"strip{strip}"
        shutil.copytree(pipeline_dir, work)
        res, sim = work / "res", work / "sim"
        estimates = sorted(res.glob("estimate_*.csv"))
        assert len(estimates) == 6
        if strip:
            for path in estimates:
                path.unlink()
        assert main(["evaluate", "--result", str(res), "--truth", str(sim / "scenario.json"),
                     "--out", str(work / "metrics.json")]) == 0
        assert main(["plot-data", "--result", str(res), "--input", str(sim / "aggregate.csv"),
                     "--out", str(work / "plot.csv")]) == 0
        outputs.append([(work / name).read_bytes() for name in ("metrics.json", "plot.csv")])
    assert outputs[1] == outputs[0]
    intact = tmp_path / "stripFalse"
    plot = (intact / "plot.csv").read_text().splitlines(keepends=True)
    for path in sorted((intact / "res").glob("estimate_*.csv")):
        name = path.stem.removeprefix("estimate_")
        series = "y_hat" if name == "total" else f"y_hat_{name}"
        rows = [line.split(",", 1)[1] for line in plot if line.split(",", 1)[0] == series]
        assert "".join(["k,value\n", *rows]) == path.read_text()


@pytest.mark.parametrize("start, length", [(5000, 100), (1, 450), (0, 449)],
                         ids=["elsewhere", "shifted", "shorter"])
def test_plot_data_rejects_an_input_over_another_range_than_the_result(
    pipeline_dir, tmp_path, capsys, start, length
):
    # The overlay pairs the input's samples with the estimates' by index k.
    y_m = tmp_path / "input.csv"
    write_signal_csv(SignalSeries(np.zeros(length), 1.0, start), y_m)
    plot = tmp_path / "plot.csv"
    assert main(["plot-data", "--result", str(pipeline_dir / "res"), "--input", str(y_m),
                 "--out", str(plot)]) == 1
    assert capsys.readouterr().err == (
        f"error: input range [{start}, {start + length}) differs from the result's [0, 450)\n")
    assert not plot.exists()


@pytest.mark.parametrize("length", [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1])
def test_format_characters_in_a_device_name_are_written_as_they_are(tmp_path, length):
    # The name reaches plot-data's row prefix and an estimate's file name.
    name = "fan%d{}"
    model = DeviceModel(name, A=[[0.5]], b=[0.5], c=[1.0], instant_off=True)
    schedule = PiecewiseInput(((40, 2.0), (length - 300, 0.0)))
    y_m = simulate_zero_state(model, hold(schedule, 7, length))
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


@BAD_NAMES
def test_disaggregate_rejects_a_device_name_that_breaks_a_file_or_a_row(
    tmp_path, capsys, bad
):
    # x/y would run the engine and then fail to write estimate_x/y.csv, a,b
    # would add a field to plot-data's rows, and '' would write estimate_.csv.
    sim, res = tmp_path / "sim", tmp_path / "res"
    assert main(["simulate", "--reference", "--seed", "1", "--out", str(sim)]) == 0
    _edit_json(lambda d: d[2].update(name=bad))(sim / "library.json")
    capsys.readouterr()
    code = main([
        "disaggregate", "--library", str(sim / "library.json"),
        "--input", str(sim / "aggregate.csv"), "--out", str(res),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {sim / 'library.json'}: device name {bad!r} must be a non-empty "
        "string without '/', NUL, ',', CR or LF\n"
    )
    assert not res.exists()


@BAD_NAMES
def test_plot_data_rejects_a_result_whose_device_name_breaks_a_row(
    pipeline_dir, tmp_path, capsys, bad
):
    work = tmp_path / "run"
    shutil.copytree(pipeline_dir, work)
    _edit_json(lambda d: d["devices"].__setitem__(0, bad))(work / "res" / "result.json")
    plot = work / "plot.csv"
    code = main([
        "plot-data", "--result", str(work / "res"),
        "--input", str(work / "sim" / "aggregate.csv"), "--out", str(plot),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"error: {work / 'res' / 'result.json'}: device name {bad!r} must be "
    )
    assert not plot.exists()


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


def test_simulate_library_needs_scenario(tmp_path, capsys):
    out = tmp_path / "sim"
    code = main([
        "simulate", "--reference", "--library", str(tmp_path / "missing.json"),
        "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: --library applies only to --scenario\n"
    assert not out.exists()


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


@pytest.mark.parametrize("flag", ["--min-level=0.5", "--min-on-duration=3"])
def test_disaggregate_has_no_min_level_or_min_on_duration_flag(
    pipeline_dir, tmp_path, capsys, flag
):
    # The level filter is a positive level and the off preference's
    # duration is engine.MIN_ON_DURATION; neither is a setting.
    sim = pipeline_dir / "sim"
    code = main([
        "disaggregate",
        "--library", str(sim / "library.json"),
        "--input", str(sim / "aggregate.csv"),
        flag,
        "--out", str(tmp_path / "res"),
    ])
    assert code == 1
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {flag}\n")
    assert not (tmp_path / "res").exists()


def test_disaggregate_rejects_string_flag_in_library(pipeline_dir, tmp_path, capsys):
    sim = pipeline_dir / "sim"
    library = tmp_path / "library.json"
    entries = json.loads((sim / "library.json").read_text())
    entries[0]["instant_off"] = "false"
    library.write_text(json.dumps(entries))
    code = main([
        "disaggregate",
        "--library", str(library),
        "--input", str(sim / "aggregate.csv"),
        "--out", str(tmp_path / "res"),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {library}: instant_off must be true or false, got 'false'\n"
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


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["definitely-not-a-command"], ["--bogus"],
    ["simulate", "--help"], ["identify", "--help"], ["disaggregate", "-h"],
    ["evaluate", "--help"], ["plot-data", "--help"],
    ["simulate", "--reference"], ["simulate", "--out", "x"], ["simulate", "--bogus"],
    ["identify", "--input", "x"], ["disaggregate"], ["evaluate", "--out", "x"],
    ["plot-data", "--result", "r"], ["disaggregate", "--beam-width", "two"],
    ["identify", "--channel", "volts"], ["plot-data", "--result", "r", "--input", "i",
                                         "--out", "o", "extra"],
])
def test_usage_output_equals_the_full_parser(argv, capsys, monkeypatch):
    # main builds only the named command's arguments; help, usage and
    # error text must be those of the parser with every command built.
    code = main(argv)
    partial = capsys.readouterr()
    full_parser = build_parser
    monkeypatch.setattr(cli_module, "build_parser", lambda command=None: full_parser())
    assert main(argv) == code
    full = capsys.readouterr()
    assert (partial.out, partial.err) == (full.out, full.err)
    assert partial.out or partial.err


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


def _rename_device(data, index, name):
    """Rename a result's device index, in its device list and its events."""
    old = data["devices"][index]
    data["devices"][index] = name
    for event in data["events"]:
        if event["device"] == old:
            event["device"] = name


# An integer that JSON carries but a float cannot hold.
HUGE = 10**400

# (file, key, edit): each key's JSON array replaced by an object.
ARRAY_CASES = [
    ("res/result.json", "devices", _edit_json(
        lambda d: d.update(devices={name: i for i, name in enumerate(d["devices"])}))),
    ("res/result.json", "events", _edit_json(lambda d: d.update(events={}))),
    ("res/result.json", "unexplained", _edit_json(lambda d: d.update(unexplained={}))),
    ("sim/scenario.json", "devices", _edit_json(lambda d: d.update(devices={}))),
    ("sim/scenario.json", "events", _edit_json(lambda d: d["devices"][0].update(events={}))),
]
ARRAY_EDITS = [(name, edit) for name, _, edit in ARRAY_CASES]
ARRAY_IDS = ["result-devices-object", "result-events-object", "result-unexplained-object",
             "scenario-devices-object", "scenario-events-object"]


def _last_event(data):
    return max(data["events"], key=lambda e: e["k"])


def _end(data):
    """One past the last index of the result's estimates."""
    return data["start_index"] + data["length"]


# (id, edit, message): result.json's library and estimate range, each
# broken; every message follows "error: <path>: ", and the one that
# Python words (a string indexed by a key) is its first part.
RESULT_FIELD_CASES = [
    ("result-library-entry-not-object", lambda d: d["library"].__setitem__(0, "device1"),
     "malformed: string indices must be integers"),
    ("result-library-nan-A", lambda d: d["library"][0]["A"].__setitem__(0, float("nan")),
     "non-finite entries in model 'device1'"),
    ("result-library-names-differ", lambda d: d["library"].reverse(),
     "library names ['device5', 'device4', 'device3', 'device2', 'device1'] differ from "
     "devices ['device1', 'device2', 'device3', 'device4', 'device5']"),
    ("zero-length", lambda d: d.update(length=0), "length must be >= 1, got 0"),
    ("fractional-length", lambda d: d.update(length=450.5),
     "length must be an integer, got 450.5"),
    ("huge-length", lambda d: d.update(length=HUGE),
     f"length must be <= {MAX_HORIZON}, got {HUGE!r}"),
    # A signal may start before k = 0, but the events must lie in its range.
    ("negative-start", lambda d: d.update(start_index=-d["length"]),
     "event at k={k} outside the estimates' [-450, 0)"),
    ("fractional-start", lambda d: d.update(start_index=0.5),
     "start_index must be an integer, got 0.5"),
    ("zero-period", lambda d: d.update(sample_period=0.0),
     "sample_period must be finite and > 0, got 0.0"),
    ("nan-period", lambda d: d.update(sample_period=float("nan")),
     "sample_period must be finite and > 0, got nan"),
    ("string-period", lambda d: d.update(sample_period="1.0"),
     "sample_period must be a number, got '1.0'"),
    ("event-at-end", lambda d: _last_event(d).update(k=_end(d)),
     "event at k=450 outside the estimates' [0, 450)"),
    ("unexplained-at-end", lambda d: d["unexplained"].append(
        {"k": _end(d), "kind": "increase", "magnitude": 1.0}),
     "event at k=450 outside the estimates' [0, 450)"),
    ("result-without-library", lambda d: d.pop("library"), "missing key 'library'"),
    # EngineParams once held these settings, and result.json files of that
    # time list them under params.
    ("min-level-param", lambda d: d["params"].update(min_level=0.0),
     "malformed: EngineParams.__init__() got an unexpected keyword argument 'min_level'"),
    ("min-on-duration-param", lambda d: d["params"].update(min_on_duration=3),
     "malformed: EngineParams.__init__() got an unexpected keyword argument "
     "'min_on_duration'"),
    ("result-without-devices",
     lambda d: d.update(devices=[], library=[], events=[], unexplained=[]),
     "device list is empty"),
]
RESULT_FIELD_EDITS = [("res/result.json", _edit_json(edit)) for _, edit, _ in RESULT_FIELD_CASES]
RESULT_FIELD_IDS = [case_id for case_id, _, _ in RESULT_FIELD_CASES]


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
    ("res/result.json", _edit_json(lambda d: d["params"].update(deviation_threshold=True))),
    ("res/result.json", _edit_json(lambda d: d["params"].update(lookahead=6.5))),
    ("res/result.json", _edit_json(lambda d: d["params"].update(beam_width=True))),
    ("res/result.json", _edit_json(lambda d: _first_on(d).update(level="1.5"))),
    ("res/result.json", _edit_json(lambda d: _first_off(d).update(level=False))),
    ("res/result.json", _edit_json(lambda d: d["unexplained"].append(
        {"k": 5, "kind": "increase", "magnitude": "1.0"}))),
    ("res/result.json", _edit_json(lambda d: d.update(residual_rms="0.01"))),
    ("res/result.json", _edit_json(lambda d: _rename_device(d, 1, d["devices"][0]))),
    ("res/result.json", _edit_json(lambda d: _rename_device(d, 0, 5))),
    *ARRAY_EDITS,
    ("res/result.json", _edit_json(lambda d: d.update(residual_rms=float("nan")))),
    ("res/result.json", _edit_json(lambda d: d.update(residual_rms=-1.0))),
    ("res/result.json", _edit_json(lambda d: d.update(residual_rms=HUGE))),
    ("res/result.json", _edit_json(lambda d: d["params"].update(deviation_threshold=HUGE))),
    *RESULT_FIELD_EDITS,
    ("sim/scenario.json", _truncate),
    ("sim/scenario.json", _edit_json(lambda d: d.pop("devices"))),
    ("sim/scenario.json", _edit_json(lambda d: d.update(noise_std=float("nan")))),
    ("sim/scenario.json", _edit_json(lambda d: d.update(noise_std=float("inf")))),
    ("sim/scenario.json", _edit_json(_event_before_k0)),
    ("sim/scenario.json", _edit_json(lambda d: d.update(horizon=450.5))),
    ("sim/scenario.json", _edit_json(lambda d: d.update(noise_std="0.02"))),
    ("sim/scenario.json", _edit_json(lambda d: d.update(noise_std=HUGE))),
    ("sim/scenario.json", _edit_json(lambda d: d.update(horizon=HUGE))),
    ("sim/scenario.json", _edit_json(lambda d: d.update(horizon=2**62))),
    ("sim/library.json", _truncate),
    ("sim/library.json", _edit_json(lambda d: d.__setitem__(0, "device1"))),
    ("sim/library.json", _edit_json(lambda d: d[0].update(d=float("nan")))),
    ("sim/library.json", _edit_json(lambda d: d[0].update(max_input="4"))),
    ("sim/library.json", _edit_json(lambda d: d[0].update(d=HUGE))),
    ("sim/library.json", _edit_json(lambda d: d[0].update(max_input=HUGE))),
    ("sim/library.json", _edit_json(lambda d: d[0].update(name=None))),
    ("sim/library.json", _edit_json(lambda d: d[0].update(name=5))),
], ids=[
    "truncated-result", "unknown-device", "extra-param", "negative-level",
    "repeated-level", "bogus-kind", "on-at-zero", "off-at-nonzero",
    "sideways-unexplained", "inf-level", "nan-level", "nan-threshold",
    "inf-threshold", "bool-threshold",
    "fractional-lookahead", "bool-beam-width",
    "string-level", "bool-level", "string-magnitude", "string-residual-rms",
    "duplicate-device-names", "number-device-name", *ARRAY_IDS,
    "nan-residual-rms", "negative-residual-rms", "huge-residual-rms", "huge-threshold",
    *RESULT_FIELD_IDS, "truncated-scenario",
    "scenario-without-devices", "nan-noise", "inf-noise", "event-before-k0",
    "fractional-horizon", "string-noise", "huge-noise", "huge-horizon",
    "unshapeable-horizon", "truncated-library", "library-entry-not-object", "nan-feedthrough",
    "string-max-input", "huge-feedthrough", "huge-max-input", "library-name-null",
    "library-name-number",
])
def test_malformed_json_is_a_validation_error(
    pipeline_dir, tmp_path, capsys, name, edit
):
    code, path = _evaluate_copy(pipeline_dir, tmp_path, name, edit)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("edit, message", [case[1:] for case in RESULT_FIELD_CASES],
                         ids=RESULT_FIELD_IDS)
def test_result_loader_names_what_is_wrong_with_the_library_or_range(
    pipeline_dir, tmp_path, capsys, edit, message
):
    first_k = min(e["k"] for e in json.loads(
        (pipeline_dir / "res" / "result.json").read_text())["events"])
    code, path = _evaluate_copy(pipeline_dir, tmp_path, "res/result.json", _edit_json(edit))
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: {message.format(k=first_k)}")


@pytest.mark.parametrize("name, key, edit", ARRAY_CASES, ids=ARRAY_IDS)
def test_loaders_name_the_key_that_must_be_an_array(
    pipeline_dir, tmp_path, capsys, name, key, edit
):
    code, path = _evaluate_copy(pipeline_dir, tmp_path, name, edit)
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}: {key} must be a JSON array, got dict\n"


def test_simulate_rejects_scenario_event_before_k0(pipeline_dir, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    shutil.copy(pipeline_dir / "sim" / "scenario.json", path)
    _edit_json(_event_before_k0)(path)
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}: event at k=-3 before k=0\n"
    assert not out.exists()


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["devices"][0].pop("model"), "device entry needs 'model' or 'model_ref'"),
    # Beyond what numpy can shape: render would fail outside the loader.
    (lambda d: d.update(horizon=HUGE), f"horizon must be <= {MAX_HORIZON}, got {HUGE!r}"),
    (lambda d: d.update(horizon=2**62), f"horizon must be <= {MAX_HORIZON}, got {2**62}"),
], ids=["device-without-model", "huge-horizon", "unshapeable-horizon"])
def test_simulate_names_the_malformed_scenario(pipeline_dir, tmp_path, capsys, edit, message):
    path = tmp_path / "scenario.json"
    shutil.copy(pipeline_dir / "sim" / "scenario.json", path)
    _edit_json(edit)(path)
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


def test_simulate_reports_a_horizon_too_large_for_memory(pipeline_dir, tmp_path, capsys):
    # 2**55 samples (256 PiB) is below MAX_HORIZON but beyond any address
    # space, so numpy fails at once.
    path = tmp_path / "scenario.json"
    shutil.copy(pipeline_dir / "sim" / "scenario.json", path)
    _edit_json(lambda d: d.update(horizon=2**55))(path)
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "name", ["res/result.json", "sim/scenario.json", "sim/library.json"]
)
def test_missing_json_file_exits_two(pipeline_dir, tmp_path, name):
    code, _ = _evaluate_copy(pipeline_dir, tmp_path, name, Path.unlink)
    assert code == 2


def test_help_exits_zero():
    assert main(["--help"]) == 0
