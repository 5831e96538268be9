"""Child process of the benchmark: times set-up, or runs one workload's jobs.

    python3 perfbench/worker.py setup LIBRARY_JSON
        Prints, as JSON, the wall and reference seconds a fresh
        interpreter spends on ``import disagg`` plus ``load_library``.

    python3 perfbench/worker.py jobs PLAN_JSON REPORT_JSON
        Runs jobs in a closed loop with one client, checks each job's
        outputs, and writes timings, failures, accuracy, peak RSS and
        (when tracing) per-layer totals to REPORT_JSON.

Times are reported in reference seconds.  On the shared 2-vCPU VM of the
baseline in README.md, core speed changes by up to 2x within a second,
as neighbours load the other hardware thread.  So the worker measures
the machine's speed with a fixed kernel (a 3-state recursion of small
numpy products, like the program's hot loops, and independent of
disagg): while a job runs, a SIGALRM handler times SAMPLE_STEPS steps
of it every SAMPLE_PERIOD_S, and the job's wall time, less the
handler's, is scaled by the mean over the samples of STEP_REF_S *
SAMPLE_STEPS / sample time.  A set-up sample, too short for that, is
scaled by one CALIBRATION_STEPS run of the kernel after it.  A job that
is twice as fast reads half the seconds at any machine speed.

Every job goes through ``disagg.cli.main``, the code behind the
``disagg`` command.  The one exception is the plug-identify meter
conversion, which calls the public ingest functions, because the CLI
has no command for it.  The run launches this file with BLAS limited to
one thread, so it runs no threads of its own.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path


STEP_REF_S = 2.0e-6  # about one kernel step on an uncontended baseline core
CALIBRATION_STEPS = 16_000
SAMPLE_STEPS = 200
SAMPLE_PERIOD_S = 0.1


def kernel_s(steps: int) -> float:
    """Seconds `steps` steps of the kernel take at the machine's current speed."""
    import numpy as np

    A = np.array([[0.5, 0.1, 0.0], [0.0, 0.4, 0.2], [0.1, 0.0, 0.3]])
    b = np.ones(3)
    c = np.ones(3)
    x = np.zeros(3)
    acc = 0.0
    start = time.perf_counter()
    for _ in range(steps):
        acc += c @ x
        x = A @ x + b
    return time.perf_counter() - start


class SpeedSampler:
    """Samples the machine's speed from a SIGALRM handler while a job runs.

    clock() is time.perf_counter() less the time spent in the handler,
    so job times and spans leave the sampling out.
    """

    def __init__(self):
        self.sampling_s = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.sampling_s

    def run(self, fn):
        """Call fn(): (result, wall_s, speed).

        wall_s is fn's time on clock(); speed is the mean over the
        samples of the reference over the measured kernel time, with one
        more sample taken after fn returns.  The result is None when fn
        raises.
        """
        samples: list[float] = []

        def sample(signum, frame):
            entered = time.perf_counter()
            samples.append(kernel_s(SAMPLE_STEPS))
            self.sampling_s += time.perf_counter() - entered

        previous = signal.signal(signal.SIGALRM, sample)
        result = None
        start = self.clock()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            result = fn()
        except Exception:
            traceback.print_exc()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = self.clock() - start
        samples.append(kernel_s(SAMPLE_STEPS))
        ref = STEP_REF_S * SAMPLE_STEPS
        return result, wall, statistics.fmean(ref / s for s in samples)


def _setup(library: str) -> None:
    start = time.perf_counter()
    import disagg

    disagg.load_library(library)
    wall = time.perf_counter() - start
    # After the timed part, so numpy's import counts in set-up.
    speed = STEP_REF_S * CALIBRATION_STEPS / kernel_s(CALIBRATION_STEPS)
    print(json.dumps({"wall_s": wall, "s": wall * speed}))


def _scenario_job(inp: Path, out: Path, beam_width: int) -> int:
    import disagg.cli as cli

    sim, res = out / "sim", out / "res"
    code = cli.main(["simulate", "--scenario", str(inp / "scenario.json"), "--out", str(sim)])
    if code == 0:
        code = cli.main([
            "disaggregate", "--library", str(sim / "library.json"),
            "--input", str(sim / "aggregate.csv"), "--out", str(res),
            "--beam-width", str(beam_width),
        ])
    if code == 0:
        code = cli.main([
            "evaluate", "--result", str(res), "--truth", str(sim / "scenario.json"),
            "--out", str(out / "metrics.json"),
        ])
    return code


def _plug_job(inp: Path, out: Path, plugs: list[dict]) -> int:
    import disagg.cli as cli
    import disagg.ingest as ingest
    from disagg.series import SignalSeries

    library = out / "library.json"
    for plug in plugs:
        code = cli.main([
            "identify", "--input", str(inp / plug["file"]), "--name", plug["name"],
            "--threshold", str(plug["threshold"]),
            "--settle-skip", str(plug["settle_skip"]), "--library", str(library),
        ])
        if code != 0:
            return code
    meter = ingest.to_signal(ingest.parse_emontx_csv(inp / "meter_emontx.csv"))
    # The truth is indexed from the start of the meter window.
    ingest.write_signal_csv(
        SignalSeries(meter.values, meter.sample_period, 0), out / "meter.csv"
    )
    code = cli.main([
        "disaggregate", "--library", str(library), "--input", str(out / "meter.csv"),
        "--out", str(out / "res"),
    ])
    if code == 0:
        code = cli.main([
            "evaluate", "--result", str(out / "res"), "--truth", str(inp / "truth.json"),
            "--out", str(out / "metrics.json"),
        ])
    return code


def _jobs(plan_path: str, report_path: str) -> None:
    import outputs
    import spans

    # Imports are set-up, timed as setup_s: keep them out of the first job.
    import disagg.cli  # noqa: F401

    plan = json.loads(Path(plan_path).read_text())
    inputs = [Path(p) for p in plan["inputs"]]
    work = Path(plan["work"])
    plugs = [
        json.loads((p / "plugs.json").read_text()) if plan["kind"] == "plugs" else None
        for p in inputs
    ]

    def run_job(index: int, out: Path) -> int:
        if plan["kind"] == "plugs":
            return _plug_job(inputs[index], out, plugs[index])
        return _scenario_job(inputs[index], out, plan["beam_width"])

    sampler = SpeedSampler()
    recorder = spans.Recorder(clock=sampler.clock) if plan["trace"] else None
    report = {
        "job_s": [], "traced_job_s": [], "traced_wall_s": [],
        "failures": [], "accuracy": [], "layers": [], "counts": [],
    }
    digests: dict[int, str] = {}
    repeats = 0
    all_spans = []
    start = time.perf_counter()
    job = 0
    # Untraced runs cycle through the inputs; a traced run runs each
    # input untraced then traced, so the pair gives the overhead.
    while job < plan["min_jobs"] or time.perf_counter() - start < plan["seconds"]:
        traced = recorder is not None and job % 2 == 1
        index = (job // 2 if recorder else job) % len(inputs)
        out = work / f"job{job}"
        out.mkdir()
        restore = spans.install(recorder) if traced else None
        with contextlib.redirect_stdout(io.StringIO()):
            code, wall, speed = sampler.run(lambda: run_job(index, out))
        if restore:
            restore()
        if code != 0:
            kind = "exit"
            problems = [f"exit code {code}" if code is not None else "raised"]
        else:
            kind = "check"
            problems = outputs.check_job(out, plan["horizons"][index])
        if not problems and index in digests:
            repeats += 1
            if outputs.result_digest(out) != digests[index]:
                problems.append("result.json differs from the first run of the same input")
        if problems:
            report["failures"].append(
                {"job": job, "input": index, "kind": kind, "problems": problems}
            )
            print(f"job {job} failed: {'; '.join(problems)}", file=sys.stderr)
        elif index not in digests:
            digests[index] = outputs.result_digest(out)
            report["accuracy"].append(outputs.job_accuracy(out, plan["truth_events"][index]))
        if traced:
            report["traced_job_s"].append(wall * speed)
            report["traced_wall_s"].append(wall)
            report["layers"].append(
                {k: v * speed for k, v in spans.layer_totals(recorder.spans).items()}
            )
            report["counts"].append(dict(recorder.counts))
            all_spans.append([list(s) for s in recorder.spans])
            recorder.reset()
        else:
            report["job_s"].append(wall * speed)
        shutil.rmtree(out, ignore_errors=True)
        job += 1
    report["attempted"] = job
    report["repeats_checked"] = repeats
    report["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        (work / "spans.json").write_text(json.dumps(all_spans) + "\n")
    Path(report_path).write_text(json.dumps(report) + "\n")


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "setup":
        _setup(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "jobs":
        _jobs(sys.argv[2], sys.argv[3])
    else:
        sys.exit(__doc__)
