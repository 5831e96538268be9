"""Print exact reference seeds per beam width and plug-identify accuracy as diffable text.

    python3 tools/accuracy_sweep.py [--scenarios] [--plugs] [--root CHECKOUT] > sweep.txt

``--scenarios``: for each beam width in WIDTHS and each range of
reference seeds in SCENARIO_RANGES, renders ``reference_scenario(seed)``,
disaggregates it with its own library and prints how many seeds are
exact, followed by the seeds that are not.  A seed is exact when the
result's (k, device, kind) events equal ``truth_events`` and nothing is
unexplained.  The table is printed twice: with the reference models as
they are, then with every device's ``instant_off`` cleared, the paper's
plain LTI model, whose switch-off decays through the device's dynamics.
In the first table, each failing-seed list at a width above 1 is
followed by how the failures split: "in pool" when a hypothesis of the
engine's final pool still holds the truth's events with nothing
unexplained (the truth is a twin of the result or was not picked),
"pruned" when none does.

``--plugs``: for each range of plug seeds in PLUG_RANGES, generates the
benchmark's plug input sets (``perfbench/inputs.write_plug_set``), runs
the benchmark's plug job on each (``perfbench/worker._plug_job``:
identify the four plugs, convert the meter, disaggregate, evaluate) and
prints the precision and recall pooled as
``perfbench/outputs.pool_accuracy`` pools them, followed by the seeds
whose job exited non-zero or left outputs that
``perfbench/outputs.check_job`` rejects.  A second line per range judges
identification by its step responses: the error of an identified plug is
max |``unit_step_values(identified, STEP_SAMPLES)`` -
``unit_step_values(true, STEP_SAMPLES)``|, the true models being the plug
set's ``library.json``; it prints how many errors exceed STEP_BOUND, the
worst, and the seed, device and error of each above it.

With neither flag both sweeps run, scenarios first.  Every figure is a
pure function of the checkout, so running this on a parent and on a
change and diffing the two outputs shows what the change did to
accuracy.  It takes about 100 s on a 2-vCPU VM (scenarios 90 s, plugs 10 s); the
package and the benchmark modules are imported from CHECKOUT (default:
the one holding this file).  Telling a twin from a pick is not written
yet: it needs a refit of the levels over each event's support.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

WIDTHS = (1, 2, 4, 8, 16)
SCENARIO_RANGES = (range(0, 200), range(200, 600))
PLUG_RANGES = (range(100, 116), range(200, 232))
STEP_SAMPLES = 120
STEP_BOUND = 0.05


def scenario_sweep(seeds, width: int, instant_off: bool = True) -> list[int]:
    """The reference seeds that beam width `width` does not recover exactly;
    with instant_off False, every device's instant_off is cleared first."""
    from disagg import EngineParams, disaggregate, reference_scenario, render, truth_events

    params = EngineParams(beam_width=width)
    failed = []
    for seed in seeds:
        sc = reference_scenario(seed)
        if not instant_off:
            sc = replace(sc, models=tuple(replace(m, instant_off=False) for m in sc.models))
        result = disaggregate(render(sc)[0], list(sc.models), params)
        if _events(result.events) != _events(truth_events(sc)) or result.unexplained:
            failed.append(seed)
    return failed


def _events(log) -> list[tuple]:
    return sorted((e.k, e.device, e.kind) for e in log)


def split_failures(seeds, width: int) -> tuple[list[int], list[int]]:
    """The seeds, failures of beam width `width`, as (pruned, in pool): in
    pool when a hypothesis of the engine's final pool holds the truth's
    (k, device, kind) events with nothing unexplained."""
    from disagg import EngineParams, reference_scenario, render, truth_events
    from disagg.engine import _Engine

    class PoolEngine(_Engine):
        """The engine, keeping the pool that its last step returned; None
        until a step runs, the initial pool of one empty hypothesis."""

        pool = None

        def _step(self, pool, p):
            self.pool = super()._step(pool, p)
            return self.pool

    pruned, in_pool = [], []
    for seed in seeds:
        sc = reference_scenario(seed)
        engine = PoolEngine(render(sc)[0], list(sc.models), EngineParams(beam_width=width))
        engine.run()
        logs = [[]] if engine.pool is None else [
            _events(hyp.events) for hyp in engine.pool if not hyp.unexplained]
        (in_pool if _events(truth_events(sc)) in logs else pruned).append(seed)
    return pruned, in_pool


def step_errors(true_library: Path, identified_library: Path) -> dict[str, float]:
    """Per identified device, max |identified - true| of the unit-step responses."""
    import numpy as np
    from disagg import load_library, unit_step_values

    truth = {m.name: m for m in load_library(true_library)}
    return {
        m.name: float(np.max(np.abs(unit_step_values(m, STEP_SAMPLES)
                                    - unit_step_values(truth[m.name], STEP_SAMPLES))))
        for m in load_library(identified_library)
    }


def plug_sweep(seeds, work: Path) -> tuple[dict[str, float], list[int], list[tuple]]:
    """Pooled accuracy over the seeds' plug jobs, the seeds that failed, and
    (seed, device, step error) per identified plug."""
    import inputs
    import outputs
    import worker

    jobs, failed, errors = [], [], []
    for seed in seeds:
        inp, out = work / f"seed{seed}" / "in", work / f"seed{seed}" / "out"
        info = inputs.write_plug_set(seed, inp)
        out.mkdir(parents=True)
        plugs = json.loads((inp / "plugs.json").read_text())
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = worker._plug_job(inp, out, plugs)
        if (out / "library.json").exists():
            errors += [(seed, name, err) for name, err in
                       step_errors(inp / "library.json", out / "library.json").items()]
        if code != 0 or outputs.check_job(out, info["horizon"]):
            failed.append(seed)
        else:
            jobs.append(outputs.job_accuracy(out, info["truth_events"]))
    return outputs.pool_accuracy(jobs), failed, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scenarios", action="store_true",
                        help="sweep the reference seeds at each beam width")
    parser.add_argument("--plugs", action="store_true",
                        help="sweep the plug-identify seeds")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="source checkout to import disagg and perfbench from")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    both = not (args.scenarios or args.plugs)
    if args.scenarios or both:
        for instant_off, label in ((True, ""), (False, " instant_off cleared")):
            for width in WIDTHS:
                for seeds in SCENARIO_RANGES:
                    failed = scenario_sweep(seeds, width, instant_off)
                    print(f"width {width} seeds {seeds.start}-{seeds.stop - 1}{label}: "
                          f"{len(seeds) - len(failed)}/{len(seeds)} exact, "
                          f"failed {' '.join(map(str, failed)) or 'none'}")
                    if instant_off and width > 1 and failed:
                        pruned, in_pool = split_failures(failed, width)
                        print(f"  pruned {' '.join(map(str, pruned)) or 'none'}, "
                              f"in pool {' '.join(map(str, in_pool)) or 'none'}")
    if args.plugs or both:
        for seeds in PLUG_RANGES:
            with tempfile.TemporaryDirectory() as tmp:
                pooled, failed, errors = plug_sweep(seeds, Path(tmp))
            label = f"plug seeds {seeds.start}-{seeds.stop - 1}"
            print(f"{label}: "
                  f"precision {pooled['precision']:.3f} recall {pooled['recall']:.3f} "
                  f"failed {' '.join(map(str, failed)) or 'none'}")
            above = [f"{seed} {name} {err:.3f}" for seed, name, err in errors
                     if err > STEP_BOUND]
            worst = max((err for _, _, err in errors), default=0.0)
            print(f"{label}: {len(above)}/{len(errors)} step responses off by more than "
                  f"{STEP_BOUND} within {STEP_SAMPLES} samples, worst {worst:.3f}, "
                  f"above: {', '.join(above) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
