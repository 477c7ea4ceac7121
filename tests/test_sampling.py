"""Tests for repro.sampling (quadruple pre-sampling and schedules)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SplitConfig, WindowConfig
from repro.data.dataset import Dataset
from repro.data.split import temporal_split
from repro.exceptions import SamplingError
from repro.models.fpmc import draw_pairs
from repro.rng import Uint32Stream
from repro.sampling.quadruples import QuadrupleSet, sample_quadruples
from repro.sampling.schedule import UserUniformSchedule, small_batch_indices
from repro.windows.repeat import is_valid_target, recent_items, window_before
from training_oracles import sample_quadruples_reference

WINDOW = WindowConfig(window_size=10, min_gap=2)


def _split_of(user_items, fraction=0.75):
    dataset = Dataset.from_user_items(user_items)
    return temporal_split(
        dataset, SplitConfig(train_fraction=fraction, min_train_length=1)
    )


class TestSampleQuadruples:
    def test_every_quadruple_is_valid(self, gowalla_split):
        window = WindowConfig()
        quadruples = sample_quadruples(
            gowalla_split, window, n_negatives=3, random_state=0
        )
        assert len(quadruples) > 0
        for index in range(len(quadruples)):
            user, positive, negative, t = quadruples.row(index)
            sequence = gowalla_split.full_sequence(user)
            # Positive is the actual consumption and a valid target.
            assert int(sequence[t]) == positive
            assert t < gowalla_split.train_boundary(user)
            assert is_valid_target(sequence, t, window.window_size, window.min_gap)
            # Negative is a window candidate, distinct, and not recent.
            view = window_before(sequence, t, window.window_size)
            assert negative in view
            assert negative != positive
            assert negative not in recent_items(sequence, t, window.min_gap)

    def test_respects_n_negatives(self):
        # One user cycling 6 items with period 6: each repeat has gap 6;
        # the window holds all 6 distinct items, Ω=2 excludes the last
        # two, and the positive itself is excluded -> 3 eligible
        # negatives, so exactly min(S, 3) per positive.
        split = _split_of([list(range(6)) * 10])
        for s, expected in [(2, 2), (5, 3), (10, 3)]:
            quadruples = sample_quadruples(split, WINDOW, n_negatives=s, random_state=3)
            per_positive: dict = {}
            for index in range(len(quadruples)):
                _, _, _, t = quadruples.row(index)
                per_positive[t] = per_positive.get(t, 0) + 1
            assert set(per_positive.values()) == {expected}

    def test_no_duplicate_negatives_per_positive(self, gowalla_split):
        quadruples = sample_quadruples(
            gowalla_split, WindowConfig(), n_negatives=5, random_state=1
        )
        seen = {}
        for index in range(len(quadruples)):
            user, positive, negative, t = quadruples.row(index)
            key = (user, t)
            seen.setdefault(key, set())
            assert negative not in seen[key]
            seen[key].add(negative)

    def test_deterministic_given_seed(self, gowalla_split):
        a = sample_quadruples(gowalla_split, WINDOW, 3, random_state=9)
        b = sample_quadruples(gowalla_split, WINDOW, 3, random_state=9)
        assert np.array_equal(a.users, b.users)
        assert np.array_equal(a.negatives, b.negatives)

    def test_raises_when_nothing_to_sample(self):
        split = _split_of([[0, 1, 2, 3, 4, 5, 6, 7]])  # no repeats at all
        with pytest.raises(SamplingError, match="no training quadruples"):
            sample_quadruples(split, WINDOW, n_negatives=2)

    def test_rejects_nonpositive_negatives(self, gowalla_split):
        with pytest.raises(SamplingError, match="n_negatives"):
            sample_quadruples(gowalla_split, WINDOW, n_negatives=0)

    def test_per_user_index_is_consistent(self, gowalla_split):
        quadruples = sample_quadruples(gowalla_split, WINDOW, 3, random_state=2)
        for user, rows in quadruples.per_user.items():
            assert np.all(quadruples.users[rows] == user)
            # Times ascend within a user (scan order).
            times = quadruples.times[rows]
            assert np.all(np.diff(times) >= 0)


class TestSamplerEquivalence:
    """Fast sampler must replay the seed reference exactly, rng and all."""

    @pytest.mark.parametrize("n_negatives", [1, 3, 10])
    def test_bit_identical_to_reference(self, gowalla_split, n_negatives):
        fast = sample_quadruples(
            gowalla_split, WINDOW, n_negatives, random_state=31
        )
        reference = sample_quadruples_reference(
            gowalla_split, WINDOW, n_negatives, random_state=31
        )
        assert np.array_equal(fast.users, reference.users)
        assert np.array_equal(fast.positives, reference.positives)
        assert np.array_equal(fast.negatives, reference.negatives)
        assert np.array_equal(fast.times, reference.times)
        assert set(fast.per_user) == set(reference.per_user)
        for user, rows in fast.per_user.items():
            assert np.array_equal(rows, reference.per_user[user])


class TestUserUniformSchedule:
    def test_draws_cover_all_users(self, gowalla_split):
        quadruples = sample_quadruples(gowalla_split, WINDOW, 3, random_state=2)
        schedule = UserUniformSchedule(quadruples, random_state=5)
        drawn_users = {
            int(quadruples.users[schedule.draw()]) for _ in range(500)
        }
        assert drawn_users == set(quadruples.per_user)

    def test_user_balance(self):
        # User 0 has ~5x the quadruples of user 1; the schedule should
        # still draw both users about equally often.
        split = _split_of(
            [list(range(4)) * 30, list(range(4)) * 8],
            fraction=0.9,
        )
        quadruples = sample_quadruples(split, WINDOW, 2, random_state=0)
        counts = {0: 0, 1: 0}
        schedule = UserUniformSchedule(quadruples, random_state=11)
        for index in schedule.draw_many(4000):
            counts[int(quadruples.users[index])] += 1
        ratio = counts[0] / counts[1]
        assert 0.8 < ratio < 1.25

    def test_draw_many_matches_domain(self, gowalla_split):
        quadruples = sample_quadruples(gowalla_split, WINDOW, 3, random_state=2)
        schedule = UserUniformSchedule(quadruples, random_state=5)
        indices = schedule.draw_many(100)
        assert indices.shape == (100,)
        assert indices.min() >= 0
        assert indices.max() < len(quadruples)

    def test_draw_many_negative_rejected(self, gowalla_split):
        quadruples = sample_quadruples(gowalla_split, WINDOW, 3, random_state=2)
        schedule = UserUniformSchedule(quadruples, random_state=5)
        with pytest.raises(SamplingError):
            schedule.draw_many(-1)

    def test_draw_many_is_stream_exact(self, gowalla_split):
        # The block SGD mode swaps draw() for draw_many() mid-training
        # (checkpoint resume restores the rng and continues with either),
        # so draw_many(n) must consume the rng stream exactly as n
        # scalar draw() calls would — same bounds, same call sequence.
        quadruples = sample_quadruples(gowalla_split, WINDOW, 3, random_state=2)
        scalar = UserUniformSchedule(quadruples, random_state=17)
        block = UserUniformSchedule(quadruples, random_state=17)
        expected = [scalar.draw() for _ in range(256)]
        assert block.draw_many(256).tolist() == expected

    def test_draw_and_draw_many_interleave(self, gowalla_split):
        quadruples = sample_quadruples(gowalla_split, WINDOW, 3, random_state=2)
        scalar = UserUniformSchedule(quadruples, random_state=19)
        mixed = UserUniformSchedule(quadruples, random_state=19)
        expected = [scalar.draw() for _ in range(70)]
        got = (
            mixed.draw_many(30).tolist()
            + [mixed.draw() for _ in range(10)]
            + mixed.draw_many(30).tolist()
        )
        assert got == expected


def _quadruple_set(counts):
    """A QuadrupleSet whose user ``u`` owns ``counts[u]`` consecutive rows."""
    users = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    per_user = {
        user: np.arange(start, start + count, dtype=np.int64)
        for user, (start, count) in enumerate(zip(starts, counts))
    }
    return QuadrupleSet(users, users, users, users, per_user)


def _prime(rng, prior):
    for _ in range(prior):
        rng.integers(5)  # one 32-bit value; an odd count buffers a half


#: Per-user quadruple counts: single-quadruple users and one-user sets.
COUNTS = st.one_of(
    st.lists(st.integers(1, 4), min_size=1, max_size=40),
    st.lists(st.integers(1, 300), min_size=1, max_size=500),
    st.lists(st.integers(2, 30), min_size=1, max_size=60),
    st.tuples(st.integers(1, 50)).map(list),
)


class TestStreamExactDraws:
    """Block draws equal the scalar calls in values and generator state."""

    @settings(max_examples=50, deadline=None)
    @given(
        counts=COUNTS,
        n=st.one_of(st.sampled_from([0, 1, 2, 3, 17, 999, 1724]), st.integers(0, 64)),
        prior=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draw_many_equals_scalar_draws(self, counts, n, prior, seed):
        quadruples = _quadruple_set(counts)
        scalar = UserUniformSchedule(quadruples, random_state=seed)
        block = UserUniformSchedule(quadruples, random_state=seed)
        _prime(scalar._rng, prior)
        _prime(block._rng, prior)
        expected = [scalar.draw() for _ in range(n)]
        assert block.draw_many(n).tolist() == expected
        assert block._rng.bit_generator.state == scalar._rng.bit_generator.state
        assert block.draw() == scalar.draw()

    @settings(max_examples=40, deadline=None)
    @given(
        n_positions=st.integers(1, 5000),
        n_items=st.integers(1, 5000),
        k=st.one_of(st.sampled_from([0, 1, 2, 17, 1724]), st.integers(0, 64)),
        prior=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fpmc_pairs_equal_scalar_pairs(self, n_positions, n_items, k, prior, seed):
        scalar = np.random.default_rng(seed)
        block = np.random.default_rng(seed)
        _prime(scalar, prior)
        _prime(block, prior)
        expected = [
            [int(scalar.integers(n_positions)), int(scalar.integers(n_items))]
            for _ in range(k)
        ]
        pairs = draw_pairs(block, k, n_positions, n_items)
        assert pairs.shape == (k, 2)
        assert pairs.tolist() == expected
        assert block.bit_generator.state == scalar.bit_generator.state

    def test_other_bit_generators_fall_back_identically(self):
        quadruples = _quadruple_set([1, 3, 2, 1, 5])
        scalar = UserUniformSchedule(
            quadruples, random_state=np.random.Generator(np.random.Philox(5))
        )
        block = UserUniformSchedule(
            quadruples, random_state=np.random.Generator(np.random.Philox(5))
        )
        expected = [scalar.draw() for _ in range(300)]
        assert block.draw_many(300).tolist() == expected
        # Philox's state holds arrays; the next draws pin it instead.
        assert block._rng.integers(2**62, size=4).tolist() == (
            scalar._rng.integers(2**62, size=4).tolist()
        )
        philox = np.random.Generator(np.random.Philox(5))
        twin = np.random.Generator(np.random.Philox(5))
        expected_pairs = [
            [int(twin.integers(9)), int(twin.integers(4))] for _ in range(50)
        ]
        assert draw_pairs(philox, 50, 9, 4).tolist() == expected_pairs

    def test_rejected_block_falls_back_to_the_scalar_loop(self, monkeypatch):
        # Flag every value as a redraw: draw_many must run the scalar
        # loop from an unconsumed generator.
        quadruples = _quadruple_set([2, 1, 4])
        scalar = UserUniformSchedule(quadruples, random_state=3)
        block = UserUniformSchedule(quadruples, random_state=3)
        bounded = Uint32Stream.bounded

        def always_reject(values, bounds):
            draws, rejected = bounded(values, bounds)
            return draws, np.ones_like(rejected)

        monkeypatch.setattr(Uint32Stream, "bounded", staticmethod(always_reject))
        expected = [scalar.draw() for _ in range(40)]
        assert block.draw_many(40).tolist() == expected
        assert block._rng.bit_generator.state == scalar._rng.bit_generator.state


class TestSmallBatchIndices:
    def test_takes_first_fraction_per_user(self, gowalla_split):
        quadruples = sample_quadruples(gowalla_split, WINDOW, 3, random_state=2)
        batch = small_batch_indices(quadruples, fraction=0.1)
        batch_set = set(batch.tolist())
        for user, rows in quadruples.per_user.items():
            expected = max(1, int(np.floor(rows.size * 0.1)))
            selected = [r for r in rows.tolist() if r in batch_set]
            assert selected == rows[:expected].tolist()

    @pytest.fixture()
    def cyclic_quadruples(self):
        split = _split_of([[0, 1, 2, 3] * 6, [4, 5, 6, 7] * 6])
        return sample_quadruples(
            split, WindowConfig(window_size=8, min_gap=2), 2, random_state=2
        )

    def test_at_least_one_per_user(self, cyclic_quadruples):
        batch = small_batch_indices(cyclic_quadruples, fraction=0.01)
        users_in_batch = {int(cyclic_quadruples.users[i]) for i in batch}
        assert users_in_batch == set(cyclic_quadruples.per_user)

    def test_fraction_one_selects_everything(self, cyclic_quadruples):
        batch = small_batch_indices(cyclic_quadruples, fraction=1.0)
        assert sorted(batch.tolist()) == list(range(len(cyclic_quadruples)))

    def test_bad_fraction_rejected(self, cyclic_quadruples):
        with pytest.raises(SamplingError):
            small_batch_indices(cyclic_quadruples, fraction=0.0)
