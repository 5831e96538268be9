"""Benchmark of the disagg toolkit, measured from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        Runs one workload and prints, as its last line, one JSON object
        with the keys correct, attempted, failed and metrics: the
        end-to-end metrics of BENCHMARK.json with --trace 0, the
        per-layer metrics with --trace 1.  The line before it is one
        JSON object with the key accuracy: disagg evaluate's metrics
        pooled over the run's input sets, from the same jobs.

    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]
        Runs every workload and prints each metric, and the pooled
        accuracy, by name with its unit.

Run it from the root of a source checkout; it imports the package from
``src/``.  Inputs are generated from the seed before any timing starts
(job i of a run uses seed N + i), the jobs run in a fresh child process,
and every file the run writes lives under ``.bench_work/``, which is
removed again except for the spans a traced run writes out.  See
perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKER = HERE / "worker.py"
JOBS_TIMEOUT_S = 120
SETUP_SAMPLES = 5

# inputs: distinct input sets (seeds) an untraced run pools accuracy
# over; every run repeats at least one of them to check determinism.
# Each set runs about once per run, so a set that fails costs one job;
# beam8 holds the most because its job time varies most with the seed.
# trace_inputs: the input sets a traced run alternates over.
WORKLOADS = {
    "greedy-long": {"kind": "scenario", "tiles": 16, "beam_width": 1,
                    "inputs": 6, "trace_inputs": 2},
    "beam8": {"kind": "scenario", "tiles": 2, "beam_width": 8,
              "inputs": 20, "trace_inputs": 2},
    "plug-identify": {"kind": "plugs", "inputs": 16, "trace_inputs": 4},
}
ACCURACY = ("precision", "recall", "switch_time_mae", "level_err_max",
            "energy_err_max", "aggregate_rmse")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    # One client, no helper threads: BLAS would otherwise start a pool.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _make_inputs(spec: dict, seed: int, count: int, work: Path) -> list[dict]:
    import inputs

    made = []
    for i in range(count):
        out = work / f"in{i}"
        if spec["kind"] == "plugs":
            info = inputs.write_plug_set(seed + i, out)
        else:
            info = inputs.write_scenario_set(seed + i, spec["tiles"], out)
        made.append({**info, "dir": str(out)})
    return made


def _setup_times(library: str, env: dict) -> list[float]:
    """import disagg + load_library in fresh interpreters; the first warms caches."""
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, str(WORKER), "setup", library],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["s"])
    return times[1:]


def _layer_metrics(report: dict, names: list[str]) -> dict[str, float]:
    jobs = len(report["layers"])
    if not jobs:
        return {}

    def per_job(key: str) -> float:
        return sum(
            layers.get(key, 0.0) + counts.get(key, 0)
            for layers, counts in zip(report["layers"], report["counts"])
        ) / jobs

    values = {}
    for name in names:
        if name == "engine.samples_per_s":
            run_s = per_job("engine.run_s")
            values[name] = per_job("engine.samples") / run_s if run_s else 0.0
        elif name == "trace.job_s":
            values[name] = statistics.median(report["traced_job_s"])
        elif name == "trace.job_wall_s":
            values[name] = statistics.median(report["traced_wall_s"])
        elif name == "trace.overhead_s":
            values[name] = (statistics.median(report["traced_job_s"])
                            - statistics.median(report["job_s"]))
        elif name == "trace.unattributed_s":
            values[name] = statistics.fmean(report["traced_job_s"]) - per_job("roots_s")
        else:
            values[name] = per_job(name)
    return values


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, bench: dict,
) -> tuple[dict, dict]:
    """The run's result line and its pooled accuracy line."""
    import outputs

    spec = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        count = spec["trace_inputs"] if trace else spec["inputs"]
        made = _make_inputs(spec, seed, count, work)
        env = _child_env()
        setup = _setup_times(str(Path(made[0]["dir"]) / "library.json"), env)
        plan = {
            "kind": spec["kind"],
            "beam_width": spec.get("beam_width", 1),
            "inputs": [m["dir"] for m in made],
            "horizons": [m["horizon"] for m in made],
            "truth_events": [m["truth_events"] for m in made],
            "seconds": seconds,
            "trace": trace,
            # Untraced: every input once plus one repeat.  Traced: each
            # input untraced and traced.
            "min_jobs": 2 * count if trace else count + 1,
            "work": str(work),
        }
        (work / "plan.json").write_text(json.dumps(plan))
        subprocess.run(
            [sys.executable, str(WORKER), "jobs", str(work / "plan.json"),
             str(work / "report.json")],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=JOBS_TIMEOUT_S, check=True,
        )
        report = json.loads((work / "report.json").read_text())
        if trace:
            shutil.copyfile(work / "spans.json", WORK / f"spans-{name}-seed{seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = report["attempted"]
    failed = len(report["failures"])
    wrong = sum(f["kind"] == "check" for f in report["failures"])
    accuracy = outputs.pool_accuracy(report["accuracy"])
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    pooled = {
        "accuracy": {k: {"value": accuracy[k], "unit": units[f"evaluate.{k}"]}
                     for k in ACCURACY},
        "input_sets": len(report["accuracy"]),
    }
    if trace:
        wanted = [m["name"] for m in bench["per_layer"]]
        values = _layer_metrics(report, wanted)
        values.update({f"evaluate.{k}": accuracy[k] for k in ACCURACY})
    else:
        wanted = [m["name"] for m in bench["end_to_end"]]
        values = {
            "job_s": statistics.median(report["job_s"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": report["maxrss_mb"],
            "success_ratio": 1.0 - failed / attempted,
        }
    metrics = {k: {"value": values[k], "unit": units[k]} for k in wanted if k in values}
    # A job that exits non-zero or raises counts as failed; the run is
    # incorrect only when a job that finished left wrong or
    # non-reproducible outputs.
    correct = wrong == 0 and report["repeats_checked"] >= 1 and len(metrics) == len(wanted)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, pooled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "disagg" / "__init__.py").is_file():
        print(f"error: no disagg package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    sys.path[:0] = [str(SRC)]
    if args.workload:
        result, pooled = run_workload(args.workload, args.seed, seconds, bool(args.trace), bench)
        print(json.dumps(pooled))
        print(json.dumps(result))
        return 0
    for name in WORKLOADS:
        result, pooled = run_workload(name, args.seed, seconds, bool(args.trace), bench)
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:24s} {m['value']:.6g} {m['unit']}")
        print(f"  accuracy over {pooled['input_sets']} input sets:")
        for metric, m in pooled["accuracy"].items():
            print(f"  {metric:24s} {m['value']:.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
