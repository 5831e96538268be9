"""Time the engine on the reference schedule tiled to day scale, per checkout.

    python3 tools/day_scale.py [--root CHECKOUT ...] [--tiles N] [--width W] [--repeat R]
    python3 tools/day_scale.py --cli [--root CHECKOUT ...] [--tiles N] [--width W]

For each CHECKOUT (default: the one holding this file; give --root once
per checkout to compare several), a fresh process imports the package
from CHECKOUT/src, renders ``tiled_reference_scenario(1, N)`` from
CHECKOUT/perfbench/inputs.py (N = 2,304 tiles is one day at 12 Hz,
T = 1,036,800) and runs ``disaggregate`` on it R times (default 1) at
beam width W, so a change can be compared warm as well as cold.  It
prints one line per checkout: the disaggregate wall time (with R > 1,
its min and median), the median's milliseconds per event, the process's
``ru_maxrss`` before the first run and after the last, the event count,
and whether every run's (k, device, kind) events equal the truth with
nothing unexplained.
Each checkout gets its own process, so one's memory peak and imports do
not reach the next.

With --cli, the scenario is saved to a scratch directory instead, and
``disagg simulate --scenario``, ``disaggregate`` (at width W),
``evaluate`` and ``plot-data`` run on it, each in a fresh process
importing CHECKOUT/src.  One line per command gives its wall time,
process start and imports included, and the process's own peak RSS,
``VmHWM`` from /proc/self/status (Linux only); evaluate's line adds its
precision and recall and the sha256 of metrics.json, and plot-data's the
sha256 of its CSV, so checkouts can be compared byte for byte.

BLAS runs on one thread unless OPENBLAS_NUM_THREADS is already set.  The
day takes tens of seconds per checkout, so only a few tiles are run in
the tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

DAY_TILES = 2304
# Run in a fresh process as: python -c _SAVE_SCENARIO CHECKOUT TILES PATH.
_SAVE_SCENARIO = """
import sys
root, tiles, path = sys.argv[1:]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import inputs
from disagg import save_scenario
scenario = inputs.tiled_reference_scenario(1, int(tiles))
save_scenario(scenario, path)
print(scenario.horizon)
"""
# Run in a fresh process as: python -c _RUN_COMMAND CHECKOUT ARGV...; its
# last stdout line is the process's VmHWM in kB.
_RUN_COMMAND = """
import sys
sys.path.insert(0, sys.argv[1] + "/src")
from disagg.cli import main
code = main(sys.argv[2:])
with open("/proc/self/status") as f:
    print(next(line.split()[1] for line in f if line.startswith("VmHWM:")))
sys.exit(code)
"""


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(root: str, tiles: int, width: int, repeat: int) -> dict:
    """Run in a fresh process: render the tiled scenario, then time disaggregate
    repeat times."""
    sys.path[:0] = [str(Path(root) / "src"), str(Path(root) / "perfbench")]
    import inputs
    from disagg import EngineParams, disaggregate, render
    from disagg.evaluate import truth_events

    scenario = inputs.tiled_reference_scenario(1, tiles)
    aggregate, _ = render(scenario)
    truth = [(e.k, e.device, e.kind) for e in truth_events(scenario)]
    rss_before = _rss_mb()
    walls, exact = [], True
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = disaggregate(aggregate, list(scenario.models), EngineParams(beam_width=width))
        walls.append(time.perf_counter() - t0)
        events = [(e.k, e.device, e.kind) for e in result.events]
        exact = exact and events == truth and not result.unexplained
        # Free this run's result before the next run builds its own.
        del result
    return {
        "T": scenario.horizon,
        "walls_s": walls,
        "rss_before_mb": rss_before,
        "peak_rss_mb": _rss_mb(),
        "events": len(events),
        "exact": exact,
    }


def _fresh(code: str, *args) -> str:
    """Run code in a new interpreter with args; its stdout."""
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{args}: exited {done.returncode}: {done.stderr}")
    return done.stdout


def measure_cli(root: Path, tiles: int, width: int) -> None:
    """Print the wall time and VmHWM of each CLI command on the tiled scenario."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        sim, res = work / "sim", work / "res"
        metrics, plot = work / "metrics.json", work / "plot.csv"
        T = int(_fresh(_SAVE_SCENARIO, root, tiles, work / "scenario.json"))
        commands = [
            ["simulate", "--scenario", work / "scenario.json", "--out", sim],
            ["disaggregate", "--library", sim / "library.json", "--input",
             sim / "aggregate.csv", "--out", res, "--beam-width", width],
            ["evaluate", "--result", res, "--truth", sim / "scenario.json", "--out", metrics],
            ["plot-data", "--result", res, "--input", sim / "aggregate.csv", "--out", plot],
        ]
        for argv in commands:
            t0 = time.perf_counter()
            out = _fresh(_RUN_COMMAND, root, *argv)
            wall = time.perf_counter() - t0
            line = (f"{root}: T={T} width={width} {argv[0]} wall {wall:.2f} s, "
                    f"VmHWM {int(out.splitlines()[-1]) / 1024:.0f} MB")
            if argv[0] == "evaluate":
                scores = json.loads(metrics.read_text())
                digest = hashlib.sha256(metrics.read_bytes()).hexdigest()
                line += (f", precision {scores['precision']:.3f} recall "
                         f"{scores['recall']:.3f}, metrics.json sha256 {digest[:16]}")
            elif argv[0] == "plot-data":
                line += f", plot.csv sha256 {hashlib.sha256(plot.read_bytes()).hexdigest()[:16]}"
            print(line, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, action="append",
                        help="source checkout to measure; repeat to compare several")
    parser.add_argument("--tiles", type=int, default=DAY_TILES,
                        help=f"reference schedule repeats (default {DAY_TILES}, one day)")
    parser.add_argument("--width", type=int, default=1, help="beam width (default 1)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="disaggregate runs per process (default 1)")
    parser.add_argument("--cli", action="store_true",
                        help="time each command of the CLI pipeline in a fresh process")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    if args.cli and args.repeat != 1:
        parser.error("--repeat applies only without --cli")
    roots = args.root or [Path(__file__).resolve().parents[1]]
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if args.cli:
        for root in roots:
            measure_cli(root.resolve(), args.tiles, args.width)
        return 0
    ctx = multiprocessing.get_context("spawn")
    for root in roots:
        with ctx.Pool(1) as pool:
            row = pool.apply(measure, (str(root.resolve()), args.tiles, args.width,
                                       args.repeat))
        walls = row["walls_s"]
        median = statistics.median(walls)
        wall = (f"wall {median:.2f} s" if len(walls) == 1 else
                f"wall min {min(walls):.2f} s median {median:.2f} s over {len(walls)} runs")
        per_event = 1e3 * median / max(row["events"], 1)
        print(f"{root}: T={row['T']} width={args.width} {wall}, {per_event:.3f} ms per event, "
              f"ru_maxrss {row['rss_before_mb']:.0f} MB before disaggregate, "
              f"{row['peak_rss_mb']:.0f} MB after, {row['events']} events, "
              f"exact {row['exact']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
