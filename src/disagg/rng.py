"""Seeded pseudo-random numbers with a bit-stable stream.

Scenario rendering and model generation must reproduce the exact same
bytes for a given seed on every platform and library version, so golden
files stay valid.  numpy's generators are fast but their stream is only
guaranteed per-version; this SplitMix64 + Box-Muller combination is tiny,
portable, and entirely under our control.

``normals`` draws a whole batch at once: the SplitMix64 states, their
mixing and the 53-bit uniforms are numpy uint64 arrays, and the square
root and products are numpy's, which IEEE 754 rounds as Python does.
log, cos and sin stay Python's ``math`` functions, one call per draw,
because numpy's own differ from them in the last bit on some inputs.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# numpy operands only: on numpy 1.x a Python int can promote uint64 math to float64.
_U64 = {v: np.uint64(v) for v in (_GOLDEN, _MIX1, _MIX2, 11, 27, 30, 31)}
_TWO_PI = 2.0 * math.pi
# Box-Muller pairs per batch of normals(), which bounds its work arrays.
_PAIR_BLOCK = 4096


class SeededStream:
    """Deterministic uniform/normal stream keyed by a 64-bit seed."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._spare_normal: float | None = None

    def uniform(self) -> float:
        """Uniform draw in [0, 1) with 53-bit resolution."""
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return ((z ^ (z >> 31)) >> 11) * 2.0**-53

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def _uniforms(self, count: int) -> np.ndarray:
        """The next count uniform() draws, as one array."""
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= _U64[_GOLDEN]
        z += np.uint64(self._state)
        self._state = (self._state + count * _GOLDEN) & _MASK64
        z ^= z >> _U64[30]
        z *= _U64[_MIX1]
        z ^= z >> _U64[27]
        z *= _U64[_MIX2]
        z ^= z >> _U64[31]
        z >>= _U64[11]
        return z.astype(float) * 2.0**-53

    def normals(self, count: int) -> np.ndarray:
        """count standard normals via Box-Muller; an unused spare carries over.

        Each pair takes two uniforms u1, u2 and gives r cos(2 pi u2), then
        r sin(2 pi u2), with r = sqrt(-2 log(1 - u1)); 1 - u1 keeps the
        argument of log strictly positive.  Pairs are drawn _PAIR_BLOCK
        at a time, so the work arrays do not grow with count.
        """
        out = np.empty(count)
        have = 0
        if count and self._spare_normal is not None:
            out[0] = self._spare_normal
            self._spare_normal = None
            have = 1
        while have < count:
            pairs = min((count - have + 1) // 2, _PAIR_BLOCK)
            u = self._uniforms(2 * pairs)
            logs = np.fromiter(map(math.log, (1.0 - u[0::2]).tolist()), float, pairs)
            r = np.sqrt(-2.0 * logs)
            angles = (_TWO_PI * u[1::2]).tolist()
            both = np.empty(2 * pairs)
            both[0::2] = r * np.fromiter(map(math.cos, angles), float, pairs)
            both[1::2] = r * np.fromiter(map(math.sin, angles), float, pairs)
            take = min(2 * pairs, count - have)
            out[have : have + take] = both[:take]
            have += take
            if take < 2 * pairs:
                self._spare_normal = float(both[-1])
        return out
