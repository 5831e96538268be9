"""Print the sha256 of every file the CLI and the benchmark jobs write.

    python3 tools/output_digests.py [--root CHECKOUT] > digests.txt

Runs, from the source checkout CHECKOUT (default: the one holding this
file):

* on reference seeds 0-39 and 126: ``simulate --reference``, then
  ``disaggregate`` at beam widths 1, 3 and 8, and ``evaluate`` and
  ``plot-data`` on each result;
* the same after ``simulate --scenario`` on reference seeds 0-9 with
  every device's ``instant_off`` cleared, so a switch-off superposes a
  negative step instead of resetting the state;
* the same after ``simulate --scenario`` on the reference schedule tiled
  3 times (``perfbench/inputs.tiled_reference_scenario``, T = 1,350) at
  seeds 0-4, so every signal file and plot spans more than one block of
  rows;
* reference seed 0's aggregate re-indexed to start at k = 100,000, through
  ``disaggregate`` at each width and ``plot-data``, so a nonzero start
  index passes through the CLI;
* the benchmark's own jobs (``perfbench/worker.py``) on their generated
  inputs: greedy-long seeds 1-6, beam8 seeds 100-119 and plug-identify
  seeds 100-115.

Each output line is ``<sha256>  <path>``, the path relative to a scratch
directory that is removed afterwards, in sorted order.  Every signal CSV
(``k,value``) is also read back with ``read_signal_csv`` and every emonTx
CSV with ``parse_emontx_csv``; the line after the file's own gives the
sha256 of the parsed arrays as ``<sha256>  <path> parsed``, so the
readers are compared too.  A change that
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
from dataclasses import replace
from pathlib import Path

REFERENCE_SEEDS = (*range(40), 126)
NON_INSTANT_SEEDS = tuple(range(10))
TILED_SEEDS = tuple(range(5))
TILES = 3
SHIFTED_START = 100_000
BEAM_WIDTHS = (1, 3, 8)
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
    import inputs
    from disagg import read_signal_csv, write_signal_csv
    from disagg.scenario import reference_scenario, save_scenario

    for seed in REFERENCE_SEEDS:
        _pipeline(cli, work / "reference" / f"seed{seed}", "--reference", "--seed", str(seed))
    for seed in NON_INSTANT_SEEDS:
        base = work / "non-instant-off" / f"seed{seed}"
        base.mkdir(parents=True)
        scenario = reference_scenario(seed)
        models = tuple(replace(m, instant_off=False) for m in scenario.models)
        save_scenario(replace(scenario, models=models), base / "scenario.json")
        _pipeline(cli, base, "--scenario", str(base / "scenario.json"))
    for seed in TILED_SEEDS:
        base = work / "tiled" / f"seed{seed}"
        base.mkdir(parents=True)
        save_scenario(inputs.tiled_reference_scenario(seed, TILES), base / "scenario.json")
        _pipeline(cli, base, "--scenario", str(base / "scenario.json"))
    sim = work / "reference" / "seed0" / "sim"
    base = work / "shifted-start"
    base.mkdir()
    aggregate = read_signal_csv(sim / "aggregate.csv")
    write_signal_csv(replace(aggregate, start_index=SHIFTED_START), base / "aggregate.csv")
    for width in BEAM_WIDTHS:
        res = base / f"res{width}"
        _cli(cli, "disaggregate", "--library", str(sim / "library.json"),
             "--input", str(base / "aggregate.csv"), "--out", str(res),
             "--beam-width", str(width))
        _cli(cli, "plot-data", "--result", str(res), "--input", str(base / "aggregate.csv"),
             "--out", str(base / f"plot{width}.csv"))


def _pipeline(cli, base: Path, *simulate_args: str) -> None:
    """simulate into base/sim, then disaggregate, evaluate and plot-data per width."""
    sim = base / "sim"
    _cli(cli, "simulate", *simulate_args, "--out", str(sim))
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


def _parsed_digest(path: Path) -> str | None:
    """sha256 of the arrays the package parses from a signal or emonTx CSV.

    None for any other file.
    """
    from disagg import parse_emontx_csv, read_signal_csv
    from disagg.ingest import EMONTX_HEADER

    with path.open(errors="replace") as f:
        header = f.readline().strip()
    if header == "k,value":
        signal = read_signal_csv(path)
        parts = [str(signal.start_index).encode(), signal.values.tobytes()]
    elif header == EMONTX_HEADER:
        recording = parse_emontx_csv(path)
        parts = [getattr(recording, name).tobytes() for name in EMONTX_HEADER.split(",")]
    else:
        return None
    return hashlib.sha256(b"\0".join(parts)).hexdigest()


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
            name = path.relative_to(work).as_posix()
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}")
            parsed = _parsed_digest(path)
            if parsed is not None:
                print(f"{parsed}  {name} parsed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
