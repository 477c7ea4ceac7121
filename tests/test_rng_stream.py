"""Tests for repro.rng's stream-exact helpers.

``Uint32Stream`` computes numpy's scalar ``integers(b)`` draws in
blocks; ``choice_cdf`` / ``draw_index`` split a weighted scalar
``choice`` into its CDF and its one draw. The oracle throughout is
numpy itself, called on a twin generator: scalar
``Generator.integers(b)`` and ``Generator.choice(k, p=w / w.sum())``.
Values *and* the full ``bit_generator.state`` (including PCG64's
buffered 32-bit half) must match exactly, which pins the helpers to
whatever numpy the suite runs on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import Uint32Stream, choice_cdf, draw_index

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


@st.composite
def choice_weights(draw):
    """Weight vectors ``choice`` accepts: zeros inside, ties, extreme scales."""
    values = draw(
        st.lists(
            st.sampled_from([0.0, 1.0, 2.0, 0.5])
            | st.floats(1e-6, 1e3, allow_nan=False),
            min_size=1,
            max_size=60,
        )
    )
    if not any(values):
        values[draw(st.integers(0, len(values) - 1))] = 1.0
    return np.array(values) * draw(st.sampled_from([1e-300, 1e-5, 1.0, 1e300]))


class TestChoiceCdf:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), prior=st.integers(0, 3), weights=choice_weights())
    def test_draw_equals_choice(self, seed, prior, weights):
        reference, ours = _twins(seed, prior)
        expected = int(reference.choice(len(weights), p=weights / weights.sum()))
        assert draw_index(ours, choice_cdf(weights)) == expected
        assert ours.bit_generator.state == reference.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), weights=choice_weights(), n=st.integers(1, 40))
    def test_cached_cdf_serves_many_draws(self, seed, weights, n):
        reference, ours = _twins(seed, 0)
        cdf = choice_cdf(weights, weights.sum())
        for _ in range(n):
            expected = int(reference.choice(len(weights), p=weights / weights.sum()))
            assert draw_index(ours, cdf) == expected
        assert ours.bit_generator.state == reference.bit_generator.state

    def test_zero_weights_are_never_drawn(self):
        rng = np.random.default_rng(3)
        cdf = choice_cdf(np.array([0.0, 1.0, 0.0, 0.0, 2.0, 0.0]))
        draws = {draw_index(rng, cdf) for _ in range(500)}
        assert draws == {1, 4}

    def test_single_weight_still_draws(self):
        reference, ours = _twins(11, 0)
        reference.choice(1, p=np.array([1.0]))
        assert draw_index(ours, choice_cdf(np.array([5e-300]))) == 0
        assert ours.bit_generator.state == reference.bit_generator.state
