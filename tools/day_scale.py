"""Time the engine on the reference schedule tiled to day scale, per checkout.

    python3 tools/day_scale.py [--root CHECKOUT ...] [--tiles N] [--width W] [--repeat R]

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
not reach the next.  BLAS runs on one thread unless OPENBLAS_NUM_THREADS
is already set.  The day takes tens of seconds per checkout, so this is
not part of the tests.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import resource
import statistics
import sys
import time
from pathlib import Path

DAY_TILES = 2304


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, action="append",
                        help="source checkout to measure; repeat to compare several")
    parser.add_argument("--tiles", type=int, default=DAY_TILES,
                        help=f"reference schedule repeats (default {DAY_TILES}, one day)")
    parser.add_argument("--width", type=int, default=1, help="beam width (default 1)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="disaggregate runs per process (default 1)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    roots = args.root or [Path(__file__).resolve().parents[1]]
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
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
