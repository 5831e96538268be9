"""Discrete LTI single-input single-output device models.

A device is x[k+1] = A x[k] + b u[k], y[k] = c'x[k] + d u[k].  The input
is the device setting (0 when off), the output its power draw.  Devices
observed to collapse to zero draw immediately at switch-off carry an
``instant_off`` flag, implemented as a state reset at the off sample.

Device inputs are sparse: piecewise constant, changing at a few switch
times.  By linearity the zero-state output is then a sum of shifted
unit-step responses, one per switch, so outputs are built by one kernel
(``_switch``): a switch from level old to new at position p adds
(new - old) * g[:T - p], or zeroes the output from p at an instant-off
switch to 0.  A device's ``_Row`` holds its input level, last switch
and output, and is the one writer of that output: ``_outputs`` switches
one row per model through a schedule of (position, level) changes, and
the engine switches its rows per event, so a simulated schedule and the
engine's prediction of it agree bit for bit.  An instant-off row is
written only as far as it is read, and a reset ends its pending terms,
so each change costs one pass that ends at the device's next switch to
0 (the rest of the signal otherwise).  A step response is computed only
as far as some write reads it (``_StepResponse``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    UnstableModelError, ValidationError, check_array, check_count, check_name, check_number,
    check_real, reading,
)
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
    It applies the library file's rules to every model, loaded or built:
    each entry of A, b and c, and d, passes check_real, the caps
    check_number and the flags _check_flag.  Numbers are stored as Python
    floats (in read-only arrays for A, b and c) and flags as bools.
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
        check_name(self.name)
        # As nested lists of Python objects; an array's floats take check_real's fast path.
        rows, b, c = (np.array(getattr(self, key), dtype=object, ndmin=ndmin).tolist()
                      for key, ndmin in zip("Abc", (2, 1, 1)))
        A = np.array([[check_real("A", v) for v in row] for row in rows])
        b, c = (np.array([check_real(key, v) for v in vs]) for key, vs in zip("bc", (b, c)))
        d = check_real("d", self.d)
        for key in ("instant_off", "dc_normalized"):
            object.__setattr__(self, key, _check_flag(key, getattr(self, key)))
        for key in ("max_input", "max_output"):
            object.__setattr__(self, key, check_number(key, getattr(self, key), optional=True))
        n = len(rows)
        if n == 0:
            raise ValidationError(f"model '{self.name}' must have order >= 1, got 0")
        if A.shape != (n, n):
            raise ValidationError(f"A must be square, got shape {A.shape}")
        if b.shape != (n,) or c.shape != (n,):
            raise ValidationError(
                f"b and c must have length {n}, got {b.shape} and {c.shape}"
            )
        for arr in (A, b, c, d):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"non-finite entries in model '{self.name}'")
        radius = spectral_radius(A)
        if radius >= 1.0 - STABILITY_MARGIN:
            raise UnstableModelError(self.name, radius, STABILITY_MARGIN)
        for arr in (A, b, c):
            arr.flags.writeable = False
        for key, value in zip("Abcd", (A, b, c, d)):
            object.__setattr__(self, key, value)
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

    Each change of the input is superposed with the kernel the engine
    uses, so re-simulating an engine schedule gives the engine's bits.
    For instant_off models the output is zeroed from every sample where
    the input transitions to exactly 0, so it is identically zero while
    the device stays off.
    """
    uv = u.values
    bad = np.flatnonzero(~np.isfinite(uv))
    if bad.size:
        raise ValidationError(
            f"non-finite input sample at k={u.start_index + int(bad[0])}"
        )
    changes = np.flatnonzero(np.diff(uv, prepend=0.0))
    (y,) = _outputs([model], [zip(changes.tolist(), uv[changes].tolist())], len(uv))
    return SignalSeries(y, sample_period=u.sample_period, start_index=u.start_index)


def _outputs(models: Sequence[DeviceModel], schedules: Sequence, length: int) -> list:
    """Zero-state output rows over [0, length), one per model.

    schedules[i] holds model i's input changes as (position, level) in
    time order, positions in [0, length); the input is 0 before the first.
    """
    rows = []
    for step, changes in zip(_unit_step_rows(models, length), schedules):
        row = _Row(step, length)
        for p, new in changes:
            row.switch(p, new)
        row.extend(length)
        rows.append(row.values)
    return rows


def _device_sum(segments: list[np.ndarray] | np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum row segments into out in device order, as simulated outputs add up; none give 0.0."""
    out[:] = segments[0] if len(segments) else 0.0
    for seg in segments[1:]:
        out += seg
    return out


def _switch(row, g, p: int, old: float, new: float, instant_off: bool) -> None:
    """Superpose an input switch from old to new at position p onto an output row.

    An instant-off device switching to 0 has its row zeroed from p on (a
    state reset); any other switch adds (new - old) * g from p on, g being
    the unit-step response.  Switches of one row must come in time order.
    """
    if instant_off and new == 0.0:
        row[p:] = 0.0
    else:
        row[p:] += (new - old) * g[: len(row) - p]


class _Row:
    """One device's input level, last switch and output row.

    level is the input from position last on (-1 before any switch).
    values[:frontier] has the bits of every switch written to the end of
    the row with _switch, values[frontier:] is still 0.0, and pending
    holds the switches (p, old, new), at or below the frontier, whose
    terms go on past it.  An instant-off row is written as far as it is
    read, and a reset ends its pending terms; any other row is written to
    its end at each switch.
    """

    __slots__ = ("step", "instant_off", "values", "frontier", "pending", "level", "last")

    def __init__(self, step: _StepResponse, length: int):
        self.step, self.instant_off = step, step.model.instant_off
        self.values = np.zeros(length)
        self.frontier = 0 if self.instant_off else length
        self.pending: list = []
        self.level, self.last = 0.0, -1

    def switch(self, p: int, new: float) -> None:
        """Switch the input to new from position p on, p after the last switch.

        The switch is written up to the frontier, brought to p first, and
        kept pending past it; past the frontier a reset has nothing to zero.
        """
        self.extend(p)
        f = self.frontier
        if p < f:  # at the frontier the write is empty
            _switch(self.values[:f], self.step.upto(f - p), p, self.level, new, self.instant_off)
        if self.instant_off and new == 0.0:
            self.pending = []
        elif f < len(self.values):
            self.pending.append((p, self.level, new))
        self.level, self.last = new, p

    def extend(self, b: int) -> None:
        """Write the row up to b, each pending term with _switch."""
        f = self.frontier
        if f < b:
            for p, old, new in self.pending:
                _switch(self.values[f:b], self.step.upto(b - p)[f - p :], 0, old, new,
                        self.instant_off)
            self.frontier = b

    def copy(self) -> "_Row":
        """An unshared copy; only the written part is copied."""
        new = _Row(self.step, len(self.values))
        new.values[: self.frontier] = self.values[: self.frontier]
        new.frontier, new.pending = self.frontier, list(self.pending)
        new.level, new.last = self.level, self.last
        return new


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
    length = check_count("length", length, 0)
    (step,) = _unit_step_rows([model], length)
    return step.upto(length)


class _StepResponse:
    """One model's unit-step response g, computed only as far as it is read.

    g holds the samples computed so far, at most cap of them: first the
    STEP_HEAD samples of the state recursion, then whole doubling passes
    of unit_step_values, each run when upto first reads past g.  A pass
    fills its samples the same way however far g has grown, so every
    prefix has the bits of one full-length call.  The states that the
    next pass reads are kept until g reaches cap, and A^L is first
    computed by the first pass.
    """

    __slots__ = ("model", "cap", "g", "_X", "_AL")

    def __init__(self, model: DeviceModel, cap: int, g_head: np.ndarray, X_head: np.ndarray):
        self.model, self.cap = model, cap
        self.g = g_head + model.d
        # State component r over time is row X[r].
        self._X = X_head.T
        self._AL = None

    def upto(self, length: int) -> np.ndarray:
        """g[:length], for a length up to cap, running passes as needed."""
        while len(self.g) < length:
            self._double()
        return self.g[:length]

    def _double(self) -> None:
        """Run the next doubling pass: samples [L, min(2L, cap)) from the first L."""
        A, b, c, d = self.model.A, self.model.b, self.model.c, self.model.d
        n, L = self.model.order, len(self.g)
        end = min(2 * L, self.cap)
        if end == L:
            raise ValueError(f"unit-step response of '{self.model.name}' ends at {L}")
        AL = self._AL if self._AL is not None else np.linalg.matrix_power(A, L)
        m = end - L
        g = np.empty(end)
        g[:L] = self.g
        X = np.empty((n, end))
        X[:, :L] = self._X
        # Each product goes through one scratch row.
        product = np.empty(m)
        x_L = A @ np.ascontiguousarray(X[:, L - 1]) + b
        for r in range(n):
            block = X[r, L:end]
            block[:] = x_L[r]
            for i in range(n):
                block += np.multiply(X[i, :m], AL[r, i], out=product)
        g_block = g[L:end]
        g_block[:] = d
        for i in range(n):
            g_block += np.multiply(X[i, L:end], c[i], out=product)
        self.g, self._AL = g, AL @ AL
        self._X = X if end < self.cap else None


def _unit_step_rows(models: Sequence[DeviceModel], length: int) -> list[_StepResponse]:
    """Each model's _StepResponse, of at most length samples.

    The STEP_HEAD recursion runs once per model order for all models of
    that order: one stacked A @ x + b per step, then the head's outputs
    as one stacked c @ x.  numpy makes the same BLAS call per slice as
    for one model, so a model's bits do not depend on the others.  The
    doubling tail runs only as each response is read.
    """
    head = min(STEP_HEAD, length)
    steps: list = [None] * len(models)
    by_order: dict[int, list[int]] = {}
    for i, model in enumerate(models):
        by_order.setdefault(model.order, []).append(i)
    for n, group in by_order.items():
        As = np.stack([models[i].A for i in group])
        bs = np.stack([models[i].b for i in group])[:, :, None]
        cs = np.stack([models[i].c for i in group])[:, None, :]
        # States as (n, 1) columns, so each slice of a product is the
        # matrix-vector or dot product of a single model; states[k] holds
        # every model's state k, written in place from state k - 1.
        states = np.empty((head, len(group), n, 1))
        states[:1] = 0.0
        product = np.empty((len(group), n, 1))
        for state, following in zip(states, states[1:]):
            np.matmul(As, state, out=product)
            np.add(product, bs, out=following)
        outputs = (cs @ states)[:, :, 0, 0]
        for j, i in enumerate(group):
            steps[i] = _StepResponse(models[i], length, outputs[:, j], states[:, j, :, 0])
    return steps


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
    order = check_count("order", order, 1)
    seed = check_count("seed", seed)
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


def _check_flag(name: str, value) -> bool:
    """Raise ValidationError unless value is a bool, numpy's included; a
    string such as "false" is truthy, so bool() would silently turn the flag
    on.  Return it as a Python bool, so it saves to JSON."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{name} must be true or false, got {value!r}")
    return bool(value)


def model_from_dict(entry: dict) -> DeviceModel:
    """The model of a library entry; DeviceModel checks every value but the
    order, which shapes the flat A."""
    order = check_count("order", entry["order"], 1)
    return DeviceModel(
        **{key: entry[key] for key in ("name", "b", "c", "d", "instant_off")},
        A=np.fromiter(entry["A"], object).reshape(order, order),
        **{key: entry[key] for key in ("max_input", "max_output", "dc_normalized")
           if key in entry},
    )


def save_library(models: list[DeviceModel], path: str | Path) -> None:
    entries = [model_to_dict(m) for m in models]
    Path(path).write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")


def load_library(path: str | Path) -> list[DeviceModel]:
    """Read a device library, validating every entry's invariants."""
    with reading(path):
        raw = json.loads(Path(path).read_text())
        models = [model_from_dict(entry) for entry in check_array("device library", raw)]
    names = [m.name for m in models]
    if len(set(names)) != len(names):
        raise ValidationError("duplicate device names in library")
    return models
