"""Checks on one job's output files, and accuracy pooled over jobs.

The checks read the files with their own parsing, not through disagg,
so a defect in the program's readers cannot hide one in its writers.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np


def _read_signal(path: Path) -> tuple[list[int], np.ndarray]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "k,value":
        raise ValueError(f"{path.name}: bad header")
    ks, values = [], []
    for line in lines[1:]:
        k, v = line.split(",")
        ks.append(int(k))
        values.append(float(v))
    return ks, np.array(values)


def check_job(job_dir: Path, horizon: int) -> list[str]:
    """Problems with a finished job's files; an empty list means it passed.

    Expects ``res/`` as written by ``disagg disaggregate`` and
    ``metrics.json`` as written by ``disagg evaluate``.
    """
    try:
        return _problems(job_dir, horizon)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"outputs unreadable: {exc!r}"]


def _problems(job_dir: Path, horizon: int) -> list[str]:
    res = job_dir / "res"
    result = json.loads((res / "result.json").read_text())
    problems = []
    if not (job_dir / "metrics.json").is_file():
        problems.append("metrics.json missing")
    if not math.isfinite(result["residual_rms"]):
        problems.append(f"residual_rms is {result['residual_rms']}")
    devices = result["devices"]
    events = sorted(result["events"], key=lambda e: e["k"])
    for dev in devices:
        mine = [(e["k"], e["kind"]) for e in events if e["device"] == dev]
        if [kind for _, kind in mine] != (["on", "off"] * len(mine))[: len(mine)]:
            problems.append(f"{dev}: events do not alternate on/off")
        if any(not 0 <= k < horizon for k, _ in mine):
            problems.append(f"{dev}: event outside [0, {horizon})")
    total_ks, total = _read_signal(res / "estimate_total.csv")
    summed = np.zeros(len(total))
    for dev in devices:
        ks, values = _read_signal(res / f"estimate_{dev}.csv")
        if ks != total_ks:
            problems.append(f"estimate_{dev}.csv: index differs from the total's")
            return problems
        summed = summed + values
    if not np.array_equal(summed, total):
        problems.append("estimate_total.csv is not the sum of the device estimates")
    return problems


def result_digest(job_dir: Path) -> str:
    return hashlib.sha256((job_dir / "res" / "result.json").read_bytes()).hexdigest()


def job_accuracy(job_dir: Path, truth_events: int) -> dict:
    """The counts and errors one job contributes to the pooled accuracy."""
    metrics = json.loads((job_dir / "metrics.json").read_text())
    estimated = len(json.loads((job_dir / "res" / "result.json").read_text())["events"])
    pairs = round(metrics["recall"] * truth_events)
    return {
        "pairs": pairs,
        "estimated": estimated,
        "truth": truth_events,
        "time_err_sum": (metrics["switch_time_mae"] or 0.0) * pairs,
        "level_errors": metrics["level_errors"],
        "energy_errors": list(metrics["per_device_energy_error"].values()),
        "rmse": metrics["aggregate_rmse"],
    }


def pool_accuracy(jobs: list[dict]) -> dict[str, float]:
    """disagg evaluate's metrics over the events of all jobs together.

    Precision and recall divide total matched pairs by total estimated
    and total true events; switch_time_mae averages over all pairs;
    aggregate_rmse is the root of the mean squared error over all
    samples (every job of a workload has the same length).  A device
    with no true energy has an infinite energy error once anything is
    attributed to it; such a device is left out of energy_err_max, and
    its spurious events already lower precision.  No jobs give zeros.
    """
    if not jobs:
        return dict.fromkeys(
            ("precision", "recall", "switch_time_mae", "level_err_max",
             "energy_err_max", "aggregate_rmse"), 0.0)
    pairs = sum(j["pairs"] for j in jobs)
    estimated = sum(j["estimated"] for j in jobs)
    truth = sum(j["truth"] for j in jobs)
    level_errors = [e for j in jobs for e in j["level_errors"]]
    energy_errors = [e for j in jobs for e in j["energy_errors"] if math.isfinite(e)]
    return {
        "precision": pairs / estimated if estimated else 1.0,
        "recall": pairs / truth if truth else 1.0,
        "switch_time_mae": sum(j["time_err_sum"] for j in jobs) / pairs if pairs else 0.0,
        "level_err_max": max(level_errors, default=0.0),
        "energy_err_max": max(energy_errors, default=0.0),
        "aggregate_rmse": math.sqrt(sum(j["rmse"] ** 2 for j in jobs) / len(jobs)),
    }
