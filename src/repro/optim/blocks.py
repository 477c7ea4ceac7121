"""Conflict-free update batches for block SGD kernels.

:func:`repro.optim.sgd.run_sgd` hands model kernels a block of pre-drawn
update indices. Updates whose parameter rows are pairwise disjoint — no
shared user row and no shared item row — cannot observe each other's
writes, so a kernel may apply them as one batch and stay bit-identical
to the scalar one-update-at-a-time path. :func:`dependency_batches`
groups a block that way. It needs, for each update, the most recent
*earlier* update touching each of its rows, found for the whole block
with two stable argsorts (one over users, one over the interleaved
positive / negative item ids).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def _previous_occurrence(values: np.ndarray) -> np.ndarray:
    """Index of the most recent earlier equal value, per position (-1 if none)."""
    n = int(values.size)
    prev = np.full(n, -1, dtype=np.int64)
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    same = sorted_values[1:] == sorted_values[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


def _previous_item_updates(
    positives: np.ndarray, negatives: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Most recent earlier update touching each update's positive / negative item.

    Item occurrences are interleaved as a slot stream — slot ``2i`` is
    update ``i``'s positive, slot ``2i+1`` its negative — so slot order
    equals update order and ``slot >> 1`` recovers the update index
    (also for the -1 sentinel, since ``-1 >> 1 == -1``). An item may
    conflict across roles (today's negative is tomorrow's positive),
    which the shared stream handles for free.
    """
    n = int(positives.size)
    slots = np.empty(2 * n, dtype=np.int64)
    slots[0::2] = positives
    slots[1::2] = negatives
    prev_slot = _previous_occurrence(slots)
    prev_update = prev_slot >> 1
    return prev_update[0::2], prev_update[1::2]


def dependency_batches(
    users: np.ndarray,
    positives: np.ndarray,
    negatives: np.ndarray,
) -> List[np.ndarray]:
    """Conflict-free update batches preserving every data dependency.

    Swapping two *non-conflicting* updates is bit-identical: they read
    and write disjoint parameter rows, so neither observes the other.
    Only the relative order of updates sharing a user or an item row
    must be preserved. Each update therefore gets a dependency level —
    one more than the highest level among the most recent earlier
    updates touching its user, positive or negative item (levels along
    a same-row chain increase strictly, so the most recent occurrence
    per chain dominates all older ones) — and the updates of one level
    are pairwise conflict-free *across the whole block*, not just
    within a contiguous stretch. Applying levels in ascending order,
    each as one batched kernel invocation, replays the scalar schedule
    exactly; stable sorting keeps a level's updates in original draw
    order so the grouping is deterministic.
    """
    n = int(users.size)
    if positives.size != n or negatives.size != n:
        raise ValueError(
            f"users/positives/negatives must align, got sizes "
            f"{users.size}/{positives.size}/{negatives.size}"
        )
    if n == 0:
        return []
    prev_user = _previous_occurrence(users)
    prev_pos, prev_neg = _previous_item_updates(positives, negatives)
    # Shift indices by one so the -1 "no predecessor" sentinel lands on
    # slot 0, which permanently holds level 0.
    pu = (prev_user + 1).tolist()
    pp = (prev_pos + 1).tolist()
    pn = (prev_neg + 1).tolist()
    level = [0] * (n + 1)
    for i in range(n):
        depth = level[pu[i]]
        other = level[pp[i]]
        if other > depth:
            depth = other
        other = level[pn[i]]
        if other > depth:
            depth = other
        level[i + 1] = depth + 1
    levels = np.asarray(level[1:], dtype=np.int64)
    order = np.argsort(levels, kind="stable")
    counts = np.bincount(levels - 1)
    boundaries = np.concatenate(([0], np.cumsum(counts)))
    return [
        order[boundaries[i] : boundaries[i + 1]]
        for i in range(counts.size)
    ]
