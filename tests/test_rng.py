import math

import numpy as np
import pytest

import disagg.rng as rng_module
from disagg.rng import SeededStream

MAX_SEED = 2**64 - 1


def _scalar_normal(stream, spare):
    """Reference: one Box-Muller draw at a time; spare holds the cached sine."""
    if spare:
        return spare.pop()
    u1 = 1.0 - stream.uniform()
    u2 = stream.uniform()
    r = math.sqrt(-2.0 * math.log(u1))
    spare.append(r * math.sin(2.0 * math.pi * u2))
    return r * math.cos(2.0 * math.pi * u2)


@pytest.mark.parametrize("pair_block", [3, rng_module._PAIR_BLOCK])
def test_normals_match_scalar_box_muller_property(monkeypatch, pair_block):
    # Batches of any size, odd ones leaving a spare for the next call,
    # interleaved with uniform() draws from the same state; a small
    # pair block makes most calls span several blocks.
    monkeypatch.setattr(rng_module, "_PAIR_BLOCK", pair_block)
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    seeds = st.sampled_from([0, MAX_SEED]) | st.integers(0, MAX_SEED)
    calls = st.lists(st.none() | st.integers(0, 41), max_size=12)

    @settings(max_examples=200, deadline=None)
    @given(seed=seeds, calls=calls)
    @example(seed=0, calls=[3, None, 0, 5, 1, 1, None])
    @example(seed=MAX_SEED, calls=[1, 0, None, 7, 2])
    def check(seed, calls):
        batched, scalar, spare = SeededStream(seed), SeededStream(seed), []
        for count in calls + [None]:
            if count is None:
                assert batched.uniform() == scalar.uniform()
                continue
            got = batched.normals(count)
            want = np.array([_scalar_normal(scalar, spare) for _ in range(count)], float)
            assert got.dtype == np.float64 and got.shape == (count,)
            assert got.tobytes() == want.tobytes()

    check()
