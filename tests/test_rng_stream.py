"""Tests for repro.rng.Uint32Stream: numpy's scalar draws, computed in blocks.

The oracle throughout is numpy itself: scalar ``Generator.integers(b)``
calls on a twin generator. Values *and* the full ``bit_generator.state``
(including PCG64's buffered 32-bit half) must match exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import Uint32Stream

#: Bounds spanning the Lemire map's domain, ends included.
BOUNDS = st.sampled_from([2, 3, 7, 1000, 1724, 123_456_789, 2**31 + 1, 2**32 - 1])


def _twins(seed: int, prior: int):
    """Two generators in the same state after ``prior`` 32-bit draws."""
    pair = []
    for _ in range(2):
        rng = np.random.default_rng(seed)
        for _ in range(prior):
            rng.integers(5)  # one 32-bit value each
        pair.append(rng)
    return pair


def _scalar_walk(values: np.ndarray, bound: int, n_calls: int):
    """Play ``n_calls`` scalar ``integers(bound)`` over ``values``.

    Uses the stream's own rejection flags, redrawing like numpy does;
    returns the draws and the number of values consumed.
    """
    draws, rejected = Uint32Stream.bounded(values, bound)
    out = []
    position = 0
    for _ in range(n_calls):
        while rejected[position]:
            position += 1
        out.append(int(draws[position]))
        position += 1
    return out, position


class TestPeekAndCommit:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        prior=st.integers(0, 5),
        n=st.integers(0, 300),
        bound=BOUNDS,
    )
    def test_block_equals_scalar_calls(self, seed, prior, n, bound):
        scalar, block = _twins(seed, prior)
        stream = Uint32Stream.of(block)
        draws, consumed = _scalar_walk(stream.peek(3 * n + 64), bound, n)
        # Peeking consumes nothing.
        assert block.bit_generator.state == scalar.bit_generator.state
        assert draws == [int(scalar.integers(bound)) for _ in range(n)]
        stream.commit(consumed)
        assert block.bit_generator.state == scalar.bit_generator.state
        assert block.integers(1000) == scalar.integers(1000)

    @pytest.mark.parametrize("prior", [0, 1])
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 9])
    def test_commit_leaves_the_scalar_buffer(self, prior, count):
        # Includes the stale ``uinteger`` an even count leaves behind:
        # checkpoints store the whole state dict.
        scalar, block = _twins(41, prior)
        for _ in range(count):
            scalar.integers(2**32 - 1)
        Uint32Stream.of(block).commit(count)
        assert block.bit_generator.state == scalar.bit_generator.state

    def test_forced_rejection_matches_scalar_integers(self):
        # b = 2**31 + 1 rejects almost half of all values.
        bound = 2**31 + 1
        scalar, block = _twins(7, 1)
        stream = Uint32Stream.of(block)
        values = stream.peek(400)
        _, rejected = Uint32Stream.bounded(values, bound)
        assert 0.3 < rejected.mean() < 0.7
        draws, consumed = _scalar_walk(values, bound, 100)
        assert consumed > 100
        assert draws == [int(scalar.integers(bound)) for _ in range(100)]
        stream.commit(consumed)
        assert block.bit_generator.state == scalar.bit_generator.state

    def test_only_pcg64_is_streamed(self):
        assert Uint32Stream.of(np.random.default_rng(0)) is not None
        assert Uint32Stream.of(np.random.Generator(np.random.Philox(5))) is None
        assert Uint32Stream.of(np.random.Generator(np.random.PCG64DXSM(5))) is None

    @pytest.mark.parametrize("bound", [0, 1, 2**32, [2, 1]])
    def test_bounds_outside_the_lemire_domain_raise(self, bound):
        with pytest.raises(ValueError, match="bounds"):
            Uint32Stream.bounded(np.zeros(2, dtype=np.uint64), bound)
