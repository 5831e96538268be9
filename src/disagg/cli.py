"""Command-line surface: simulate, identify, disaggregate, evaluate, plot-data.

Exit codes: 0 success, 1 validation/usage error, 2 I/O error.  All file
outputs are deterministic for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

# disaggregate_beam is unused here, like write_signal_csv below, but
# perfbench/spans.py wraps both.
from .engine import disaggregate, disaggregate_beam  # noqa: F401
from .errors import ValidationError, check_name
from .evaluate import DEFAULT_MATCH_WINDOW, save_metrics, score
from .ingest import (
    CHANNELS,
    _signal_blocks,
    _write_signal_csvs,
    parse_emontx_csv,
    read_signal_csv,
    to_signal,
    write_signal_csv,  # noqa: F401
)
from .models import load_library, save_library
from .result import EngineParams, load_result, save_result
from .scenario import load_scenario, reference_scenario, render, save_scenario
from .sysid import identify_device


def _cmd_simulate(args) -> int:
    if args.scenario is not None and args.seed is not None:
        raise ValidationError("--seed applies only to --reference")
    scenario = (load_scenario(args.scenario) if args.scenario is not None
                else reference_scenario(args.seed or 0))
    aggregate, truths = render(scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_scenario(scenario, out / "scenario.json")
    save_library(list(scenario.models), out / "library.json")
    pairs = [(aggregate, out / "aggregate.csv")]
    # Each truth is its model's output for its input, which scenario.json
    # fixes and evaluate re-renders, so it is written only on request.
    if args.truths:
        pairs += [(truth, out / f"truth_{m.name}.csv")
                  for truth, m in zip(truths, scenario.models)]
    _write_signal_csvs(pairs)
    print(f"wrote scenario with {len(scenario.models)} devices to {out}")
    return 0


def _cmd_identify(args) -> int:
    check_name(args.name)
    recording = parse_emontx_csv(args.input)
    signal = to_signal(recording, channel=args.channel, nominal_rate=args.rate)
    model = identify_device(signal, args.name, args.threshold, args.settle_skip)
    path = Path(args.library)
    existing = load_library(path) if path.exists() else []
    existing = [m for m in existing if m.name != model.name]
    existing.append(model)
    save_library(existing, path)
    print(
        f"identified '{model.name}' (order {model.order}, "
        f"instant_off={model.instant_off}) -> {path}"
    )
    return 0


def _cmd_disaggregate(args) -> int:
    library = load_library(args.library)
    if "total" in (model.name for model in library):
        raise ValidationError("device 'total' would overwrite estimate_total.csv")
    y_m = read_signal_csv(args.input)
    params = EngineParams(**{f.name: getattr(args, f.name) for f in fields(EngineParams)})
    result = disaggregate(y_m, library, params)
    save_result(result, args.out)
    print(
        f"{len(result.events)} events, residual rms {result.residual_rms:.6g} "
        f"-> {args.out}"
    )
    return 0


def _cmd_evaluate(args) -> int:
    result = load_result(args.result)
    truth = load_scenario(args.truth)
    metrics = score(result, truth, match_window=args.match_window)
    save_metrics(metrics, args.out)
    print(f"precision {metrics.precision:.3f}, recall {metrics.recall:.3f} -> {args.out}")
    return 0


def _cmd_plot_data(args) -> int:
    result = load_result(args.result)
    y_m = read_signal_csv(args.input)
    if (y_m.start_index, len(y_m)) != (result.start_index, result.length):
        raise ValidationError(
            f"input range [{y_m.start_index}, {y_m.end_index}) differs from the result's "
            f"[{result.start_index}, {result.start_index + result.length})"
        )
    named = [("y_m", y_m), ("y_hat", result.estimated_total)]
    named += [
        (f"y_hat_{name}", series)
        for name, series in zip(result.device_names, result.estimated_outputs)
    ]
    with open(args.out, "w") as f:
        f.write("series,k,value\n")
        for name, series in named:
            f.writelines(_signal_blocks((series,), f"{name},"))
    print(f"wrote {sum(len(series) for _, series in named)} rows -> {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _simulate_arguments(p_sim) -> None:
    source = p_sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--reference", action="store_true",
                        help="use the built-in five-device benchmark scenario")
    source.add_argument("--scenario", default=None, help="scenario JSON to render")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="reference scenario seed (default 0)")
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--truths", action="store_true",
                       help="also write each device's true output as truth_<device>.csv")


def _identify_arguments(p_id) -> None:
    p_id.add_argument("--input", required=True, help="emonTx-style CSV recording")
    p_id.add_argument("--name", required=True)
    p_id.add_argument("--threshold", type=float, required=True,
                      help="on/off detection threshold in signal units")
    p_id.add_argument("--settle-skip", type=int, default=0, dest="settle_skip")
    p_id.add_argument("--channel", default="irms", choices=CHANNELS)
    p_id.add_argument("--rate", type=float, default=12.0)
    p_id.add_argument("--library", required=True, help="library JSON to append to")


def _disaggregate_arguments(p_dis) -> None:
    p_dis.add_argument("--library", required=True)
    p_dis.add_argument("--input", required=True, help="aggregate signal CSV")
    p_dis.add_argument("--out", required=True)
    engine = EngineParams()
    p_dis.add_argument("--threshold", type=float, default=engine.deviation_threshold,
                       dest="deviation_threshold")
    p_dis.add_argument("--persistence", type=int, default=engine.persistence)
    p_dis.add_argument("--lookahead", type=int, default=engine.lookahead)
    p_dis.add_argument("--backtrack", type=int, default=engine.backtrack_window,
                       dest="backtrack_window")
    p_dis.add_argument("--beam-width", type=int, default=engine.beam_width)


def _evaluate_arguments(p_eval) -> None:
    p_eval.add_argument("--result", required=True, help="directory written by disaggregate")
    p_eval.add_argument("--truth", required=True, help="scenario JSON")
    p_eval.add_argument("--match-window", type=int, default=DEFAULT_MATCH_WINDOW,
                        dest="match_window")
    p_eval.add_argument("--out", required=True)


def _plot_data_arguments(p_plot) -> None:
    p_plot.add_argument("--result", required=True)
    p_plot.add_argument("--input", required=True, help="aggregate signal CSV")
    p_plot.add_argument("--out", required=True)


# name: (help, function adding the command's arguments, handler), in help order.
_COMMANDS = {
    "simulate": ("render a scenario to CSV", _simulate_arguments, _cmd_simulate),
    "identify": ("fit a device model from a plug recording", _identify_arguments,
                 _cmd_identify),
    "disaggregate": ("recover device inputs from an aggregate", _disaggregate_arguments,
                     _cmd_disaggregate),
    "evaluate": ("score a result against ground truth", _evaluate_arguments, _cmd_evaluate),
    "plot-data": ("emit overlaid series for plotting", _plot_data_arguments,
                  _cmd_plot_data),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser; given a command name, with that subcommand only.

    The usage line then still names every command, as argparse forms it
    from all of them, so usage and error text do not depend on command.
    """
    parser = _Parser(prog="disagg", description=__doc__)
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_arguments, func) in _COMMANDS.items():
        if command in (None, name):
            # Flags are spelt in full, or an unknown flag that begins a
            # known one (--na, --name) would set that one.
            p_cmd = sub.add_parser(name, help=help_text, allow_abbrev=False)
            add_arguments(p_cmd)
            p_cmd.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only the command argv names is parsed, so only it needs its arguments.
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 0 for --help; anything else is a usage error.
        return 0 if exc.code == 0 else 1
    # A signal or scenario too long for this machine's memory is bad input too.
    except (ValidationError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
