"""Tests for conflict-free update batching (repro.optim.blocks)."""

import numpy as np
import pytest

from repro.optim.blocks import dependency_batches


def _random_updates(rng, n, n_users=7, n_items=12):
    """A block with deliberately heavy row reuse to force conflicts."""
    users = rng.integers(n_users, size=n)
    positives = rng.integers(n_items, size=n)
    # Negatives share the item id space but never equal their own
    # positive, matching the sampler's v_j != v_i guarantee.
    negatives = (positives + 1 + rng.integers(n_items - 1, size=n)) % n_items
    return users, positives, negatives


def _conflicts(users, positives, negatives, i, j):
    """True iff updates i and j touch a common parameter row."""
    if users[i] == users[j]:
        return True
    items_i = {positives[i], negatives[i]}
    items_j = {positives[j], negatives[j]}
    return bool(items_i & items_j)


class TestDependencyBatches:
    def test_concatenation_is_a_permutation(self):
        rng = np.random.default_rng(31)
        users, positives, negatives = _random_updates(rng, 150)
        batches = dependency_batches(users, positives, negatives)
        flat = np.concatenate(batches)
        assert np.array_equal(np.sort(flat), np.arange(150))

    def test_batches_are_conflict_free(self):
        rng = np.random.default_rng(37)
        users, positives, negatives = _random_updates(rng, 120)
        for batch in dependency_batches(users, positives, negatives):
            # Unique user rows, and the union of item rows (both roles)
            # has no repeats — the kernels' scatter-writes rely on this.
            assert len(set(users[batch])) == batch.size
            items = np.concatenate((positives[batch], negatives[batch]))
            assert len(set(items)) == items.size

    def test_conflicting_pairs_stay_ordered(self):
        rng = np.random.default_rng(41)
        users, positives, negatives = _random_updates(rng, 100)
        batches = dependency_batches(users, positives, negatives)
        batch_of = np.empty(100, dtype=np.int64)
        for b, batch in enumerate(batches):
            batch_of[batch] = b
        for i in range(100):
            for j in range(i + 1, 100):
                if _conflicts(users, positives, negatives, i, j):
                    assert batch_of[i] < batch_of[j]

    def test_preserves_draw_order_within_batch(self):
        rng = np.random.default_rng(43)
        users, positives, negatives = _random_updates(rng, 80)
        for batch in dependency_batches(users, positives, negatives):
            assert np.array_equal(batch, np.sort(batch))

    def test_cross_role_item_conflict(self):
        # Update 1's positive is update 0's negative: they conflict even
        # though users differ and same-role ids are all distinct.
        users = np.array([0, 1])
        positives = np.array([3, 4])
        negatives = np.array([4, 5])
        batches = dependency_batches(users, positives, negatives)
        assert [batch.tolist() for batch in batches] == [[0], [1]]

    def test_no_conflicts_is_one_batch(self):
        users = np.arange(6)
        positives = np.arange(6) + 10
        negatives = np.arange(6) + 20
        batches = dependency_batches(users, positives, negatives)
        assert len(batches) == 1
        assert np.array_equal(batches[0], np.arange(6))

    def test_single_chain_is_fully_serial(self):
        users = np.zeros(5, dtype=np.int64)
        positives = np.arange(5) + 1
        negatives = np.arange(5) + 10
        batches = dependency_batches(users, positives, negatives)
        assert [batch.tolist() for batch in batches] == [[0], [1], [2], [3], [4]]

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        assert dependency_batches(empty, empty, empty) == []

    def test_mismatched_sizes_raise(self):
        a = np.arange(4)
        with pytest.raises(ValueError, match="must align"):
            dependency_batches(a, np.arange(3), a)
