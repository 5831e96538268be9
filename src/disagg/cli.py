"""Command-line surface: simulate, identify, disaggregate, evaluate, plot-data.

Exit codes: 0 success, 1 validation/usage error, 2 I/O error.  All file
outputs are deterministic for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .engine import (
    DisaggregationResult,
    EngineParams,
    SwitchEvent,
    UnexplainedEvent,
    disaggregate,
    # Unused here, like write_signal_csv below, but perfbench/spans.py wraps both.
    disaggregate_beam,  # noqa: F401
)
from .errors import ValidationError, check_count, reading
from .evaluate import DEFAULT_MATCH_WINDOW, save_metrics, score
from .ingest import (
    CHANNELS,
    _write_signal_csvs,
    parse_emontx_csv,
    read_signal_csv,
    signal_rows,
    to_signal,
    write_signal_csv,  # noqa: F401
)
from .models import load_library, save_library
from .scenario import load_scenario, reference_scenario, render, save_scenario
from .series import PiecewiseInput
from .sysid import PlugRecordingLabel, identify_device


def result_to_dict(result: DisaggregationResult) -> dict:
    """The result.json content; events name their device."""
    names = result.device_names
    return {
        "params": asdict(result.params),
        "devices": list(names),
        "events": [{**asdict(e), "device": names[e.device]} for e in result.events],
        "residual_rms": result.residual_rms,
        "unexplained": [asdict(u) for u in result.unexplained],
    }


def save_result(result: DisaggregationResult, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(
        json.dumps(result_to_dict(result), indent=2, sort_keys=True) + "\n"
    )
    paths = [out / f"estimate_{name}.csv" for name in (*result.device_names, "total")]
    _write_signal_csvs(list(zip((*result.estimated_outputs, result.estimated_total), paths)))


def load_result(out_dir: str | Path) -> DisaggregationResult:
    """Rebuild a result object from the files save_result wrote."""
    out = Path(out_dir)
    path = out / "result.json"
    with reading(path):
        data = json.loads(path.read_text())
        names = tuple(data["devices"])
        index = {name: i for i, name in enumerate(names)}
        unknown = [e["device"] for e in data["events"] if e["device"] not in index]
        if unknown:
            raise ValidationError(f"event of unknown device {unknown[0]!r}")
        events = tuple(
            SwitchEvent(
                check_count("event k", e["k"]), index[e["device"]], e["kind"],
                float(e["level"]),
            )
            for e in data["events"]
        )
        for e in events:
            if e.kind != ("off" if e.level == 0.0 else "on"):
                raise ValidationError(
                    f"event at k={e.k} has kind {e.kind!r} with level {e.level}"
                )
        # Reject a device schedule with repeated times or levels, or negative ones.
        ordered = sorted(events)
        for dev in range(len(names)):
            PiecewiseInput(tuple((e.k, e.level) for e in ordered if e.device == dev))
        unexplained = tuple(
            UnexplainedEvent(
                check_count("unexplained k", u["k"]), u["kind"], float(u["magnitude"])
            )
            for u in data["unexplained"]
        )
        for u in unexplained:
            if u.kind not in ("increase", "decrease"):
                raise ValidationError(f"unexplained event at k={u.k} has kind {u.kind!r}")
        residual_rms = float(data["residual_rms"])
        params = EngineParams(**data["params"])
    outputs = tuple(read_signal_csv(out / f"estimate_{name}.csv") for name in names)
    total = read_signal_csv(out / "estimate_total.csv")
    for name, series in zip(names, outputs):
        if (series.start_index, series.end_index) != (total.start_index, total.end_index):
            raise ValidationError(
                f"{out / f'estimate_{name}.csv'}: index range "
                f"[{series.start_index}, {series.end_index}) differs from "
                f"estimate_total.csv's [{total.start_index}, {total.end_index})"
            )
    return DisaggregationResult(
        device_names=names,
        estimated_outputs=outputs,
        estimated_total=total,
        residual_rms=residual_rms,
        events=events,
        unexplained=unexplained,
        params=params,
    )


def _cmd_simulate(args) -> int:
    if args.scenario is not None:
        if args.seed is not None:
            raise ValidationError("--seed applies only to --reference")
        library = load_library(args.library) if args.library else None
        scenario = load_scenario(args.scenario, library=library)
    else:
        scenario = reference_scenario(0 if args.seed is None else args.seed)
    aggregate, truths = render(scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_scenario(scenario, out / "scenario.json")
    save_library(list(scenario.models), out / "library.json")
    paths = [out / "aggregate.csv"] + [out / f"truth_{m.name}.csv" for m in scenario.models]
    _write_signal_csvs(list(zip((aggregate, *truths), paths)))
    print(f"wrote scenario with {len(scenario.models)} devices to {out}")
    return 0


def _cmd_identify(args) -> int:
    recording = parse_emontx_csv(args.input)
    signal = to_signal(recording, channel=args.channel, nominal_rate=args.rate)
    label = PlugRecordingLabel(
        device_name=args.name,
        on_threshold=args.threshold,
        settle_skip=args.settle_skip,
    )
    model = identify_device(signal, label, na=args.na, nb=args.nb, delay=args.delay)
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
    library = load_library(args.library) if args.library else None
    truth = load_scenario(args.truth, library=library)
    metrics = score(result, truth, match_window=args.match_window)
    save_metrics(metrics, args.out)
    print(f"precision {metrics.precision:.3f}, recall {metrics.recall:.3f} -> {args.out}")
    return 0


def _cmd_plot_data(args) -> int:
    result = load_result(args.result)
    y_m = read_signal_csv(args.input)
    named = [("y_m", y_m), ("y_hat", result.estimated_total)]
    named += [
        (f"y_hat_{name}", series)
        for name, series in zip(result.device_names, result.estimated_outputs)
    ]
    with open(args.out, "w") as f:
        f.write("series,k,value\n")
        for name, series in named:
            f.writelines(signal_rows(series, f"{name},"))
    print(f"wrote {sum(len(series) for _, series in named)} rows -> {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="disagg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[], help="render a scenario to CSV")
    source = p_sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--reference", action="store_true",
                        help="use the built-in five-device benchmark scenario")
    source.add_argument("--scenario", default=None, help="scenario JSON to render")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="reference scenario seed (default 0)")
    p_sim.add_argument("--library", default=None,
                       help="device library for model_ref resolution")
    p_sim.add_argument("--out", required=True)

    p_id = sub.add_parser("identify", help="fit a device model from a plug recording")
    p_id.add_argument("--input", required=True, help="emonTx-style CSV recording")
    p_id.add_argument("--name", required=True)
    p_id.add_argument("--threshold", type=float, required=True,
                      help="on/off detection threshold in signal units")
    p_id.add_argument("--settle-skip", type=int, default=0, dest="settle_skip")
    p_id.add_argument("--na", type=int, default=3)
    p_id.add_argument("--nb", type=int, default=3)
    p_id.add_argument("--delay", type=int, default=1)
    p_id.add_argument("--channel", default="irms", choices=CHANNELS)
    p_id.add_argument("--rate", type=float, default=12.0)
    p_id.add_argument("--library", required=True, help="library JSON to append to")

    p_dis = sub.add_parser("disaggregate", help="recover device inputs from an aggregate")
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
    p_dis.add_argument("--min-on-duration", type=int, default=engine.min_on_duration)
    p_dis.add_argument("--min-level", type=float, default=engine.min_level)
    p_dis.add_argument("--beam-width", type=int, default=engine.beam_width)

    p_eval = sub.add_parser("evaluate", help="score a result against ground truth")
    p_eval.add_argument("--result", required=True, help="directory written by disaggregate")
    p_eval.add_argument("--truth", required=True, help="scenario JSON")
    p_eval.add_argument("--library", default=None)
    p_eval.add_argument("--match-window", type=int, default=DEFAULT_MATCH_WINDOW,
                        dest="match_window")
    p_eval.add_argument("--out", required=True)

    p_plot = sub.add_parser("plot-data", help="emit overlaid series for plotting")
    p_plot.add_argument("--result", required=True)
    p_plot.add_argument("--input", required=True, help="aggregate signal CSV")
    p_plot.add_argument("--out", required=True)

    p_sim.set_defaults(func=_cmd_simulate)
    p_id.set_defaults(func=_cmd_identify)
    p_dis.set_defaults(func=_cmd_disaggregate)
    p_eval.set_defaults(func=_cmd_evaluate)
    p_plot.set_defaults(func=_cmd_plot_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse exits 0 for --help; anything else is a usage error.
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
