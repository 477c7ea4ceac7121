"""Construction of the pre-sampled training set ``D``.

Mirrors the example of Fig 3: scanning the training prefix of each user,
every valid repeat consumption (in the window, not within the last Ω
steps) becomes a positive ``v_i`` at its position ``t``; up to ``S``
negatives ``v_j`` are drawn uniformly without replacement from the other
Ω-eligible candidates of the same window.

:func:`sample_quadruples` scans each user's prefix with one incremental
:class:`~repro.engine.session.ScoringSession` — O(1) window/Ω multiset
maintenance per position instead of an O(|W|) ``window_before`` rebuild
plus a ``recent_items`` set per anchor — and assembles the arrays
through amortized-doubling buffers instead of per-row Python appends.
The seed's per-position rebuild is kept as a test oracle
(``tests/training_oracles.py``). Both draw negatives through the exact
same ``rng.choice`` call sequence (same anchors, same eligible-set
sizes, same order), so the resulting :class:`QuadrupleSet` is
bit-identical between them; ``tests/test_sampling.py`` pins that
equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import WindowConfig
from repro.data.split import SplitDataset
from repro.engine.session import ScoringSession
from repro.exceptions import SamplingError
from repro.rng import RandomState, ensure_rng


@dataclass(frozen=True)
class QuadrupleSet:
    """Dense arrays of training quadruples ``(u, v_i, v_j, t)``.

    All four arrays share the same length. ``per_user[u]`` lists the
    row indices belonging to user ``u`` in sampling order (positives are
    scanned by ascending ``t``, so "the first 10% of a user's quadruples"
    — the paper's small-batch rule — is a plain prefix of that list).
    """

    users: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray
    times: np.ndarray
    per_user: Dict[int, np.ndarray] = field(repr=False)

    def __post_init__(self) -> None:
        lengths = {
            self.users.shape,
            self.positives.shape,
            self.negatives.shape,
            self.times.shape,
        }
        if len(lengths) != 1:
            raise SamplingError(f"quadruple arrays have mismatched shapes: {lengths}")

    def __len__(self) -> int:
        return int(self.users.size)

    @property
    def n_users_with_quadruples(self) -> int:
        return len(self.per_user)

    def row(self, index: int) -> Tuple[int, int, int, int]:
        """The quadruple at ``index`` as plain ints."""
        return (
            int(self.users[index]),
            int(self.positives[index]),
            int(self.negatives[index]),
            int(self.times[index]),
        )


class _GrowingInt64:
    """Append-only int64 column with amortized-doubling growth.

    Replaces per-row ``list.append`` in the sampling hot loop: rows
    arrive in small per-anchor batches and land in a preallocated numpy
    buffer via one C-level slice assignment per batch.
    """

    __slots__ = ("_data", "size")

    def __init__(self, capacity: int = 1024) -> None:
        self._data = np.empty(capacity, dtype=np.int64)
        self.size = 0

    def _reserve(self, n: int) -> int:
        end = self.size + n
        if end > self._data.size:
            capacity = self._data.size
            while capacity < end:
                capacity *= 2
            grown = np.empty(capacity, dtype=np.int64)
            grown[: self.size] = self._data[: self.size]
            self._data = grown
        return end

    def extend(self, values: List[int]) -> None:
        end = self._reserve(len(values))
        self._data[self.size : end] = values
        self.size = end

    def extend_constant(self, value: int, n: int) -> None:
        end = self._reserve(n)
        self._data[self.size : end] = value
        self.size = end

    def array(self) -> np.ndarray:
        return self._data[: self.size].copy()


def sample_quadruples(
    split: SplitDataset,
    window: Optional[WindowConfig] = None,
    n_negatives: int = 10,
    random_state: RandomState = None,
) -> QuadrupleSet:
    """Pre-sample the training set ``D`` from a split dataset.

    One incremental session walk per user; bit-identical to the seed's
    per-position scan (see module docstring).

    Parameters
    ----------
    split:
        The 70/30 split; only training prefixes are scanned.
    window:
        ``|W|`` and ``Ω``. Defaults to the paper's 100 / 10.
    n_negatives:
        ``S`` — negatives per positive. When a window offers fewer
        eligible negatives, all of them are used (no replacement, so no
        duplicated quadruples from one positive).
    random_state:
        Seed or generator for negative selection.

    Raises
    ------
    SamplingError
        If no quadruple at all can be formed (training data has no
        qualifying repeat with at least one alternative candidate).
    """
    window = window or WindowConfig()
    if n_negatives <= 0:
        raise SamplingError(f"n_negatives must be positive, got {n_negatives}")
    rng = ensure_rng(random_state)

    users = _GrowingInt64()
    positives = _GrowingInt64()
    negatives = _GrowingInt64()
    times = _GrowingInt64()
    user_spans: Dict[int, Tuple[int, int]] = {}

    window_size, min_gap = window.window_size, window.min_gap
    for user in range(split.n_users):
        sequence = split.full_sequence(user)
        boundary = split.train_boundary(user)
        if boundary <= 1:
            continue
        user_start = users.size
        session = ScoringSession(sequence, window_size, min_gap=min_gap, start=1)
        items_list = sequence.items[:boundary].tolist()
        for t in range(1, boundary):
            session.advance_to(t)
            # Inline ``is_target``: x_t repeats from the window and is
            # not Ω-recent — the iter_repeat_positions filter.
            positive_item = items_list[t]
            last = session.last_position(positive_item)
            if last < 0:
                continue
            gap = t - last
            if gap <= min_gap or gap > window_size:
                continue
            # Ω-filtered window items minus the positive; ``candidates``
            # is already sorted, so dropping one element keeps the exact
            # order of the reference's ``sorted(set - set - {v_i})``.
            eligible = [
                item for item in session.candidates() if item != positive_item
            ]
            if not eligible:
                continue
            if len(eligible) <= n_negatives:
                chosen = eligible
            else:
                picks = rng.choice(len(eligible), size=n_negatives, replace=False)
                chosen = [eligible[int(p)] for p in np.sort(picks)]
            negatives.extend(chosen)
            users.extend_constant(user, len(chosen))
            positives.extend_constant(positive_item, len(chosen))
            times.extend_constant(t, len(chosen))
        if users.size > user_start:
            user_spans[user] = (user_start, users.size)

    if users.size == 0:
        raise SamplingError(
            "no training quadruples could be sampled; the training data "
            "contains no qualifying repeat consumption with alternatives"
        )

    return QuadrupleSet(
        users=users.array(),
        positives=positives.array(),
        negatives=negatives.array(),
        times=times.array(),
        per_user={
            user: np.arange(start, stop, dtype=np.int64)
            for user, (start, stop) in user_spans.items()
        },
    )
