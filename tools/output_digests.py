"""Print the sha256 of every file the CLI and the benchmark jobs write.

    python3 tools/output_digests.py [--root CHECKOUT] > digests.txt

Runs, from the source checkout CHECKOUT (default: the one holding this
file):

* on reference seeds 0-39 and 126: ``simulate --reference``, then
  ``disaggregate`` at beam widths 1 and 8, and ``evaluate`` and
  ``plot-data`` on each result;
* the benchmark's own jobs (``perfbench/worker.py``) on their generated
  inputs: greedy-long seeds 1-6, beam8 seeds 100-119 and plug-identify
  seeds 100-115.

Each output line is ``<sha256>  <path>``, the path relative to a scratch
directory that is removed afterwards, in sorted order.  A change that
must not move any output bit is checked by running this on the parent
checkout and on the change and diffing the two outputs.  Run each in its
own process: the package is imported from CHECKOUT/src.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

REFERENCE_SEEDS = (*range(40), 126)
BEAM_WIDTHS = (1, 8)
# (workload, first seed, input sets, tiles, beam width); tiles of None
# marks the plug workload.  Tiles and widths are those of perfbench/run.py.
BENCH_SETS = (
    ("greedy-long", 1, 6, 16, 1),
    ("beam8", 100, 20, 2, 8),
    ("plug-identify", 100, 16, None, None),
)


def _cli(cli, *argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"disagg {' '.join(argv)} exited {code}")


def _reference_outputs(cli, work: Path) -> None:
    for seed in REFERENCE_SEEDS:
        base = work / "reference" / f"seed{seed}"
        sim = base / "sim"
        _cli(cli, "simulate", "--reference", "--seed", str(seed), "--out", str(sim))
        for width in BEAM_WIDTHS:
            res = base / f"res{width}"
            _cli(cli, "disaggregate", "--library", str(sim / "library.json"),
                 "--input", str(sim / "aggregate.csv"), "--out", str(res),
                 "--beam-width", str(width))
            _cli(cli, "evaluate", "--result", str(res), "--truth", str(sim / "scenario.json"),
                 "--out", str(base / f"metrics{width}.json"))
            _cli(cli, "plot-data", "--result", str(res), "--input", str(sim / "aggregate.csv"),
                 "--out", str(base / f"plot{width}.csv"))


def _bench_outputs(work: Path) -> None:
    import inputs
    import worker

    for name, first, count, tiles, width in BENCH_SETS:
        for seed in range(first, first + count):
            inp = work / name / f"seed{seed}" / "in"
            out = work / name / f"seed{seed}" / "out"
            out.mkdir(parents=True)
            if tiles is None:
                inputs.write_plug_set(seed, inp)
                plugs = json.loads((inp / "plugs.json").read_text())
                with contextlib.redirect_stdout(io.StringIO()):
                    code = worker._plug_job(inp, out, plugs)
            else:
                inputs.write_scenario_set(seed, tiles, inp)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = worker._scenario_job(inp, out, width)
            if code != 0:
                raise SystemExit(f"{name} job on seed {seed} exited {code}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="source checkout to import disagg and perfbench from")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import disagg.cli as cli

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _reference_outputs(cli, work)
        _bench_outputs(work)
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(work).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
