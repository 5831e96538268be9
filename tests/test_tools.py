"""The scripts under tools/ run: each parses its options, output_digests.py
digests every benchmark workload, day_scale.py
disaggregates one tile of the reference schedule exactly, once or repeated,
in process or through the CLI, and accuracy_sweep.py sweeps a few seeds."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _run(*args):
    return subprocess.run(
        [sys.executable, *map(str, args)], capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("tool", ["output_digests.py", "accuracy_sweep.py", "day_scale.py"])
def test_tool_help_exits_zero(tool):
    done = _run(TOOLS / tool, "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: ")


def test_day_scale_one_tile_is_exact():
    done = _run(TOOLS / "day_scale.py", "--tiles", "1", "--width", "1")
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    assert "T=450 width=1 " in line
    assert line.endswith(" 8 events, exact True")


def test_day_scale_repeats_in_one_process():
    done = _run(TOOLS / "day_scale.py", "--tiles", "1", "--width", "1", "--repeat", "2")
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    assert "T=450 width=1 wall min " in line and " over 2 runs, " in line
    assert line.endswith(" 8 events, exact True")


def test_day_scale_times_each_cli_command_in_its_own_process():
    done = _run(TOOLS / "day_scale.py", "--tiles", "2", "--cli")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(" wall ")[0].split()[-1] for line in lines] == [
        "simulate", "disaggregate", "evaluate", "plot-data"]
    assert all(" T=900 width=1 " in line and " MB" in line for line in lines)
    assert ", precision 1.000 recall 1.000, metrics.json sha256 " in lines[2]
    assert ", plot.csv sha256 " in lines[3]


def test_day_scale_cli_runs_once_per_command():
    done = _run(TOOLS / "day_scale.py", "--cli", "--repeat", "2")
    assert done.returncode == 2
    assert "--repeat applies only without --cli" in done.stderr


def test_output_digests_covers_every_benchmark_workload(monkeypatch):
    # Each workload of perfbench/run.py is digested over all its input
    # sets, with its own tiles and beam width.
    monkeypatch.syspath_prepend(str(TOOLS.parent / "perfbench"))
    monkeypatch.syspath_prepend(str(TOOLS))
    import output_digests
    import run

    sets = {name: (count, tiles, width)
            for name, _, count, tiles, width in output_digests.bench_sets()}
    assert sets == {
        name: (spec["inputs"], spec.get("tiles"), spec.get("beam_width"))
        for name, spec in run.WORKLOADS.items()
    }


def test_accuracy_sweep_recovers_a_few_seeds(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(TOOLS.parent / "perfbench"))
    monkeypatch.syspath_prepend(str(TOOLS))
    import accuracy_sweep

    for width in (1, 8):
        assert accuracy_sweep.scenario_sweep(range(0, 3), width) == []
        # Without instant off, each off is placed a sample late.
        assert accuracy_sweep.scenario_sweep(range(0, 3), width, instant_off=False) == [0, 1, 2]
    pooled, failed, errors = accuracy_sweep.plug_sweep(range(100, 101), tmp_path)
    assert (pooled["precision"], pooled["recall"]) == (1.0, 1.0)
    assert failed == []
    assert len(errors) == 4


def test_accuracy_sweep_splits_failures_by_the_final_pool(monkeypatch):
    # At beam width 8, seed 126's truth is pruned from the pool; seed 76's
    # is still in the final pool, but not returned.
    monkeypatch.syspath_prepend(str(TOOLS.parent / "perfbench"))
    monkeypatch.syspath_prepend(str(TOOLS))
    import accuracy_sweep

    assert accuracy_sweep.scenario_sweep([76, 126], 8) == [76, 126]
    assert accuracy_sweep.split_failures([76, 126], 8) == ([126], [76])
