"""Seeded input generator for the benchmark workloads.

Every file is a pure function of the seed: the same seed writes the same
bytes.  Random draws come from the standard library's Mersenne Twister,
whose ``random()`` stream Python keeps stable across versions, so the
inputs do not move when numpy changes.

Two kinds of input set:

* ``write_scenario_set`` - the reference schedule tiled ``tiles`` times
  (450 samples per tile) over the five-device reference library, saved
  as a scenario JSON for ``disagg simulate --scenario``.
* ``write_plug_set`` - four plug recordings and one meter recording in
  emonTx CSV form with jittered timestamps, the identify settings for
  each plug, and the meter's ground truth as a scenario JSON.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

from disagg import (
    DeviceModel,
    PiecewiseInput,
    Scenario,
    random_stable_model,
    reference_scenario,
    save_library,
    save_scenario,
    unit_step_values,
)
from disagg.scenario import DEFAULT_HORIZON, REFERENCE_SCHEDULE

RATE_HZ = 12.0
EMONTX_HEADER = "timestamp_utc,irms,vrms,pva,pw,pf"
PLUG_ROWS = 28_800  # 40 min at 12 Hz
METER_ROWS = 900  # 75 s at 12 Hz
PLUG_T0 = 0.0
METER_T0 = 3000.0  # the meter window starts after the plug recordings end
# Each stamp is off its grid point by up to this share of a sample
# period, early or late.
JITTER_PERIODS = 0.4
PLUG_NOISE_STD = 0.01
METER_NOISE_STD = 0.02
MAINS_V = 230.0
POWER_FACTOR = 0.95
IDENTIFY_THRESHOLD_SHARE = 0.25  # on-threshold as a share of the rating
IDENTIFY_SETTLE_SKIP = 12


def _reference_gaps() -> tuple[int, int]:
    """Shortest and longest gap between events of REFERENCE_SCHEDULE."""
    ks = sorted(k for _, k_on, k_off, _ in REFERENCE_SCHEDULE for k in (k_on, k_off))
    gaps = [b - a for a, b in zip(ks, ks[1:])]
    return min(gaps), max(gaps)


# Meter events are spaced like those of the reference schedule (29-81
# samples, 2.4-6.8 s).
MIN_EVENT_GAP, MAX_EVENT_GAP = _reference_gaps()

# (name, rating band in A): one appliance per band keeps the four
# steady draws distinguishable, as in a real home.
PLUG_DEVICES = (
    ("kettle", 7.0, 9.0),
    ("microwave", 4.0, 6.0),
    ("fridge", 0.8, 1.5),
    ("tv", 0.3, 0.6),
)


def tiled_reference_scenario(seed: int, tiles: int) -> Scenario:
    """The reference library and noise with REFERENCE_SCHEDULE repeated."""
    ref = reference_scenario(seed)
    events: list[list[tuple[int, float]]] = [[] for _ in ref.models]
    for t in range(tiles):
        offset = t * DEFAULT_HORIZON
        for dev, k_on, k_off, level in sorted(REFERENCE_SCHEDULE, key=lambda e: e[1]):
            events[dev] += [(offset + k_on, level), (offset + k_off, 0.0)]
    for dev_events in events:
        dev_events.sort()
    return Scenario(
        models=ref.models,
        inputs=tuple(PiecewiseInput(tuple(e)) for e in events),
        noise_std=ref.noise_std,
        seed=seed,
        horizon=tiles * DEFAULT_HORIZON,
    )


def write_scenario_set(seed: int, tiles: int, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    scenario = tiled_reference_scenario(seed, tiles)
    save_scenario(scenario, out / "scenario.json")
    save_library(list(scenario.models), out / "library.json")
    return {
        "kind": "scenario",
        "horizon": scenario.horizon,
        "truth_events": sum(len(inp) for inp in scenario.inputs),
    }


def _plug_segments(rng: random.Random) -> list[tuple[int, int]]:
    """On intervals [on, off) of a plug recording: 30-120 s on, 60-300 s off."""
    segments = []
    k = rng.randrange(720, 3600)
    while True:
        k_off = k + rng.randrange(360, 1440)
        if k_off >= PLUG_ROWS:
            return segments
        segments.append((k, k_off))
        k = k_off + rng.randrange(720, 3600)


def _meter_segments(rng: random.Random, devices: int) -> list[list[tuple[int, int]]]:
    """Each device's on intervals in the meter window.

    The first `devices` events switch every device on once, in random
    order; later events toggle a random device.  A device still on at
    the end has an interval closed by METER_ROWS.
    """
    order = list(range(devices))
    rng.shuffle(order)
    on_since: list[int | None] = [None] * devices
    segments: list[list[tuple[int, int]]] = [[] for _ in range(devices)]
    k = rng.randint(MIN_EVENT_GAP, MAX_EVENT_GAP)
    while k < METER_ROWS - MIN_EVENT_GAP:
        dev = order.pop(0) if order else rng.randrange(devices)
        if on_since[dev] is None:
            on_since[dev] = k
        else:
            segments[dev].append((on_since[dev], k))
            on_since[dev] = None
        k += rng.randint(MIN_EVENT_GAP, MAX_EVENT_GAP)
    for dev, since in enumerate(on_since):
        if since is not None:
            segments[dev].append((since, METER_ROWS))
    return segments


def _device_output(
    model: DeviceModel, level: float, segments: list[tuple[int, int]], horizon: int,
) -> np.ndarray:
    """Noiseless draw of an instant-off unit-gain device switched on segments."""
    longest = max(off - on for on, off in segments)
    g = unit_step_values(model, longest)
    y = np.zeros(horizon)
    for on, off in segments:
        y[on:off] = level * g[: off - on]
    return y


def _emontx_rows(rng: random.Random, irms: np.ndarray, t0: float) -> list[str]:
    """Format a current trace as emonTx rows with jittered timestamps.

    Timestamps carry millisecond resolution.  The first and last rows sit
    on the grid, so zero-order-hold resampling recovers exactly len(irms)
    samples.
    """
    n = len(irms)
    spread = JITTER_PERIODS / RATE_HZ
    jitter = np.zeros(n)
    jitter[1:-1] = [rng.uniform(-spread, spread) for _ in range(n - 2)]
    ts = np.floor((t0 + np.arange(n) / RATE_HZ + jitter) * 1000.0) / 1000.0
    pva = MAINS_V * irms
    row = f"%.3f,%.4f,{MAINS_V:.1f},%.2f,%.2f,{POWER_FACTOR:.2f}"
    return [EMONTX_HEADER] + [
        row % fields
        for fields in zip(ts.tolist(), irms.tolist(), pva.tolist(), (POWER_FACTOR * pva).tolist())
    ]


def _noisy(rng: random.Random, y: np.ndarray, std: float) -> np.ndarray:
    # RMS current is never negative, so the noise floor folds at zero.
    return np.abs(y + np.array([rng.gauss(0.0, std) for _ in range(len(y))]))


def write_plug_set(seed: int, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    models = []
    ratings = []
    plugs = []
    for i, (name, lo, hi) in enumerate(PLUG_DEVICES):
        m = random_stable_model(3, seed * len(PLUG_DEVICES) + i, instant_off=True)
        models.append(
            DeviceModel(name=name, A=m.A, b=m.b, c=m.c, d=m.d, instant_off=True,
                        dc_normalized=True)
        )
        rating = round(rng.uniform(lo, hi), 3)
        ratings.append(rating)
        y = _device_output(models[-1], rating, _plug_segments(rng), PLUG_ROWS)
        rows = _emontx_rows(rng, _noisy(rng, y, PLUG_NOISE_STD), PLUG_T0)
        path = out / f"plug_{name}.csv"
        path.write_text("\n".join(rows) + "\n")
        plugs.append({
            "name": name,
            "file": path.name,
            "threshold": round(IDENTIFY_THRESHOLD_SHARE * rating, 4),
            "settle_skip": IDENTIFY_SETTLE_SKIP,
        })

    meter_inputs = []
    total = np.zeros(METER_ROWS)
    for model, rating, segments in zip(models, ratings, _meter_segments(rng, len(models))):
        total += _device_output(model, rating, segments, METER_ROWS)
        events = [(on, rating) for on, _ in segments]
        events += [(off, 0.0) for _, off in segments if off < METER_ROWS]
        meter_inputs.append(PiecewiseInput(tuple(sorted(events))))
    rows = _emontx_rows(rng, _noisy(rng, total, METER_NOISE_STD), METER_T0)
    (out / "meter_emontx.csv").write_text("\n".join(rows) + "\n")
    truth = Scenario(
        models=tuple(models), inputs=tuple(meter_inputs), noise_std=METER_NOISE_STD,
        seed=seed, horizon=METER_ROWS,
    )
    save_scenario(truth, out / "truth.json")
    save_library(models, out / "library.json")
    (out / "plugs.json").write_text(json.dumps(plugs, indent=2, sort_keys=True) + "\n")
    return {
        "kind": "plugs",
        "horizon": METER_ROWS,
        "truth_events": sum(len(inp) for inp in meter_inputs),
    }
