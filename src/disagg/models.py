"""Discrete LTI single-input single-output device models.

A device is x[k+1] = A x[k] + b u[k], y[k] = c'x[k] + d u[k].  The input
is the device setting (0 when off), the output its power draw.  Devices
observed to collapse to zero draw immediately at switch-off carry an
``instant_off`` flag, implemented as a state reset at the off sample.

Device inputs are sparse: piecewise constant, changing at a few switch
times.  By linearity the zero-state output is then a sum of shifted
unit-step responses, one per switch, so outputs are built by one kernel
(``_add_switch``) that adds du * g[:T - p] from each switch position p,
or zeroes the output from p at an instant-off switch-off.  The engine
builds its predictions with the same kernel, so a simulated schedule
and the engine's prediction of it agree bit for bit.  Every input takes
this path: a dense input costs one O(T) pass per change, as an engine
event does.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import UnstableModelError, ValidationError, reading
from .rng import SeededStream
from .series import SignalSeries

STABILITY_MARGIN = 1e-9
DC_GAIN_TOL = 1e-9
# random_stable_model accepts a model when its unit-step response is
# nonnegative over this many leading samples.
SETTLE_SPAN = 200
# unit_step_values runs the exact state recursion over this many leading
# samples and extends the rest by doubling.  It must not be less than
# SETTLE_SPAN, or the models random_stable_model draws would depend on
# the doubling.
STEP_HEAD = SETTLE_SPAN


@dataclass(frozen=True)
class DeviceModel:
    """One appliance's discrete LTI dynamics plus physical priors.

    A model is strictly stable by construction: the constructor raises
    UnstableModelError unless every eigenvalue of A lies inside the
    circle of radius 1 - STABILITY_MARGIN, so no caller needs to check.
    """

    name: str
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: float = 0.0
    instant_off: bool = False
    max_input: float | None = None
    max_output: float | None = None
    dc_normalized: bool = False

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float).reshape(-1)
        c = np.asarray(self.c, dtype=float).reshape(-1)
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValidationError(f"A must be square, got shape {A.shape}")
        if b.shape != (n,) or c.shape != (n,):
            raise ValidationError(
                f"b and c must have length {n}, got {b.shape} and {c.shape}"
            )
        for cap in ("max_input", "max_output"):
            value = getattr(self, cap)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValidationError(
                    f"{cap} must be finite and > 0 when given, got {value!r}"
                )
        for arr in (A, b, c):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"non-finite entries in model '{self.name}'")
        radius = spectral_radius(A)
        if radius >= 1.0 - STABILITY_MARGIN:
            raise UnstableModelError(self.name, radius, STABILITY_MARGIN)
        A = A.copy()
        b = b.copy()
        c = c.copy()
        for arr in (A, b, c):
            arr.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", float(self.d))
        if self.dc_normalized and abs(dc_gain(self) - 1.0) > DC_GAIN_TOL:
            raise ValidationError(
                f"model '{self.name}' flagged dc_normalized but gain is {dc_gain(self)!r}"
            )

    @property
    def order(self) -> int:
        return self.A.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeviceModel):
            return NotImplemented
        return (
            self.name == other.name
            and np.array_equal(self.A, other.A)
            and np.array_equal(self.b, other.b)
            and np.array_equal(self.c, other.c)
            and self.d == other.d
            and self.instant_off == other.instant_off
            and self.max_input == other.max_input
            and self.max_output == other.max_output
            and self.dc_normalized == other.dc_normalized
        )

    def __hash__(self):
        return hash((self.name, self.A.tobytes(), self.b.tobytes(), self.c.tobytes()))


def spectral_radius(A: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(np.atleast_2d(A)))))


def dc_gain(model: DeviceModel) -> float:
    """Steady-state output per unit constant input: c'(I - A)^-1 b + d."""
    n = model.order
    x_inf = np.linalg.solve(np.eye(n) - model.A, model.b)
    return float(model.c @ x_inf + model.d)


def normalize_dc(model: DeviceModel) -> DeviceModel:
    """Rescale b and d so the DC gain becomes 1; A and c are untouched."""
    gain = dc_gain(model)
    if gain == 0.0:
        raise ValidationError(f"model '{model.name}' has zero DC gain, cannot normalize")
    return replace(
        model, b=model.b / gain, d=model.d / gain, dc_normalized=True
    )


def simulate_zero_state(model: DeviceModel, u: SignalSeries) -> SignalSeries:
    """Zero-state output of the model under input u.

    Each change du of the input is superposed with the kernel the engine
    uses, so re-simulating an engine schedule gives the engine's bits.
    For instant_off models the output is zeroed from every sample where
    the input transitions to exactly 0, so it is identically zero while
    the device stays off.
    """
    return _zero_state(model, u, unit_step_values(model, len(u)))


def _zero_state(model: DeviceModel, u: SignalSeries, g: np.ndarray) -> SignalSeries:
    """simulate_zero_state given g, the model's unit-step response over len(u)."""
    uv = u.values
    bad = np.flatnonzero(~np.isfinite(uv))
    if bad.size:
        raise ValidationError(
            f"non-finite input sample at k={u.start_index + int(bad[0])}"
        )
    du = np.diff(uv, prepend=0.0)
    y = np.zeros(len(uv))
    for p in np.flatnonzero(du).tolist():
        _add_switch(y, g, p, float(du[p]), model.instant_off and uv[p] == 0.0)
    return SignalSeries(y, sample_period=u.sample_period, start_index=u.start_index)


def _add_switch(row: np.ndarray, g: np.ndarray, p: int, du: float, reset: bool) -> None:
    """Superpose one input switch at position p onto a zero-state output row.

    An input change du at p adds du * g from p on, g being the unit-step
    response; a reset (an instant-off switch to zero) zeroes the row from
    p on instead.  Switches of one row must be added in time order.
    """
    if reset:
        row[p:] = 0.0
    else:
        row[p:] += du * g[: len(row) - p]


def unit_step_values(model: DeviceModel, length: int) -> np.ndarray:
    """Zero-state unit-step response samples g[0..length).

    The first STEP_HEAD samples come from the state recursion
    x[k+1] = A x[k] + b, g[k] = c'x[k] + d.  The rest are extended by
    doubling, since the step states satisfy x[L + j] = A^L x[j] + x[L]:
    each pass fills the next L states from the first L at once, so the
    number of Python steps grows with log(length), not with length.  The
    extension is elementwise, so a shorter call returns a prefix of a
    longer one bit for bit.
    """
    return next(_unit_step_rows([model], length))


def _unit_step_rows(models: Sequence[DeviceModel], length: int) -> Iterator[np.ndarray]:
    """unit_step_values(model, length) for each model in turn, bit for bit.

    The STEP_HEAD recursion runs once per model order for all models of
    that order: one stacked A @ x + b per step, then the head's outputs
    as one stacked c @ x.  numpy makes the same BLAS call per slice as
    for one model, so a model's bits do not depend on the others.  The
    doubling tail runs as each row is taken, so a caller that keeps only
    what it builds from a row holds one row and one length x order state
    block at a time.
    """
    head = min(length, STEP_HEAD)
    heads: list = [None] * len(models)
    by_order: dict[int, list[int]] = {}
    for i, model in enumerate(models):
        by_order.setdefault(model.order, []).append(i)
    for n, group in by_order.items():
        As = np.stack([models[i].A for i in group])
        bs = np.stack([models[i].b for i in group])[:, :, None]
        cs = np.stack([models[i].c for i in group])[:, None, None, :]
        # States as (n, 1) columns, so each slice of a product is the
        # matrix-vector or dot product of a single model.
        states = np.empty((len(group), head, n, 1))
        x = np.zeros((len(group), n, 1))
        for k in range(head):
            states[:, k] = x
            x = As @ x + bs
        outputs = (cs @ states)[:, :, 0, 0]
        for j, i in enumerate(group):
            heads[i] = (outputs[j], states[j, :, :, 0])
    for model, (g_head, X_head) in zip(models, heads):
        A, b, c, d = model.A, model.b, model.c, model.d
        n = model.order
        L = head
        g = np.empty(length)
        g[:L] = g_head + d
        X = np.empty((length, n))
        X[:L] = X_head
        AL = np.linalg.matrix_power(A, L)
        while L < length:
            m = min(L, length - L)
            x_L = A @ X[L - 1] + b
            block = X[L : L + m]
            block[:] = x_L
            for i in range(n):
                block += np.outer(X[:m, i], AL[:, i])
            g[L : L + m] = d
            for i in range(n):
                g[L : L + m] += c[i] * block[:, i]
            L += m
            AL = AL @ AL
        yield g


def random_stable_model(
    order: int, seed: int, instant_off: bool = False
) -> DeviceModel:
    """Generate a random stable model with unit DC gain, deterministic in seed.

    Eigenvalues are drawn directly (real in (-0.95, 0.95), or conjugate
    pairs with modulus in (0.3, 0.95)) and assembled block-diagonally, so
    stability holds by construction; b and c are standard normal and the
    result is DC-normalized.  Output vectors are resampled until the
    normalized step response is nonnegative everywhere: a power draw
    that dips below zero at switch-on is not a plausible appliance.
    """
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    stream = SeededStream(seed)
    blocks: list[np.ndarray] = []
    remaining = order
    while remaining > 0:
        use_pair = remaining >= 2 and stream.uniform() < 0.5
        if use_pair:
            r = stream.uniform_in(0.3, 0.95)
            theta = stream.uniform_in(0.0, np.pi)
            blocks.append(
                np.array(
                    [
                        [r * np.cos(theta), r * np.sin(theta)],
                        [-r * np.sin(theta), r * np.cos(theta)],
                    ]
                )
            )
            remaining -= 2
        else:
            blocks.append(np.array([[stream.uniform_in(-0.95, 0.95)]]))
            remaining -= 1
    A = np.zeros((order, order))
    pos = 0
    for blk in blocks:
        w = blk.shape[0]
        A[pos : pos + w, pos : pos + w] = blk
        pos += w
    while True:
        b = stream.normals(order)
        c = stream.normals(order)
        raw = DeviceModel(
            name=f"rand_o{order}_s{seed}", A=A, b=b, c=c, d=0.0,
            instant_off=instant_off,
        )
        if abs(dc_gain(raw)) <= 1e-6:
            continue
        model = normalize_dc(raw)
        if np.min(unit_step_values(model, SETTLE_SPAN)) >= 0.0:
            return model


def model_to_dict(model: DeviceModel) -> dict:
    return {
        "name": model.name,
        "order": model.order,
        "A": [float(v) for v in model.A.reshape(-1)],
        "b": [float(v) for v in model.b],
        "c": [float(v) for v in model.c],
        "d": model.d,
        "instant_off": model.instant_off,
        "max_input": model.max_input,
        "max_output": model.max_output,
        "dc_normalized": model.dc_normalized,
    }


def model_from_dict(entry: dict) -> DeviceModel:
    try:
        order = int(entry["order"])
        return DeviceModel(
            name=str(entry["name"]),
            A=np.asarray(entry["A"], dtype=float).reshape(order, order),
            b=np.asarray(entry["b"], dtype=float),
            c=np.asarray(entry["c"], dtype=float),
            d=float(entry["d"]),
            instant_off=bool(entry["instant_off"]),
            max_input=None if entry.get("max_input") is None else float(entry["max_input"]),
            max_output=None if entry.get("max_output") is None else float(entry["max_output"]),
            dc_normalized=bool(entry.get("dc_normalized", False)),
        )
    except KeyError as exc:
        raise ValidationError(f"device entry missing field {exc}") from exc


def save_library(models: list[DeviceModel], path: str | Path) -> None:
    entries = [model_to_dict(m) for m in models]
    Path(path).write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")


def load_library(path: str | Path) -> list[DeviceModel]:
    """Read a device library, validating every entry's invariants."""
    with reading(path):
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, list):
            raise ValidationError("device library must be a JSON array")
        models = [model_from_dict(entry) for entry in raw]
    names = [m.name for m in models]
    if len(set(names)) != len(names):
        raise ValidationError("duplicate device names in library")
    return models
