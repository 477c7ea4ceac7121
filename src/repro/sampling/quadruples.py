"""Construction of the pre-sampled training set ``D``.

Mirrors the example of Fig 3: scanning the training prefix of each user,
every valid repeat consumption (in the window, not within the last Ω
steps) becomes a positive ``v_i`` at its position ``t``; up to ``S``
negatives ``v_j`` are drawn uniformly without replacement from the other
Ω-eligible candidates of the same window.

:func:`sample_quadruples` works on whole columns of an
:class:`~repro.windows.occurrences.OccurrenceIndex` over the training
prefixes. Position ``t`` is a target when its item's previous
occurrence lies ``Ω < t - prev <= |W|`` back. Its candidates are the
items ``x_p`` with ``p`` in ``[t - |W|, t - Ω)`` whose next occurrence
is at or after ``t`` — each distinct window item once, at its last
occurrence, and none that recurs within Ω — minus the positive, in
ascending item order. They are found for fixed-size chunks of targets
at once, which bounds the temporaries. The one per-anchor step left is
``rng.choice`` for an anchor with more than ``S`` eligible items, made
in the seed's order (users ascending, then ``t``), so the draws and the
resulting :class:`QuadrupleSet` are bit-identical to the seed's
per-position scan, kept as a test oracle in
``tests/training_oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.config import WindowConfig
from repro.data.split import SplitDataset
from repro.exceptions import SamplingError
from repro.rng import RandomState, ensure_rng
from repro.windows.occurrences import OccurrenceIndex

#: Window slots examined per chunk of targets: bounds the sampler's
#: ``(targets, |W| - Ω)`` temporaries to a few hundred kilobytes each.
_CHUNK_SLOTS = 1 << 16


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




def sample_quadruples(
    split: SplitDataset,
    window: Optional[WindowConfig] = None,
    n_negatives: int = 10,
    random_state: RandomState = None,
) -> QuadrupleSet:
    """Pre-sample the training set ``D`` from a split dataset.

    Column passes over one occurrence index; bit-identical to the
    seed's per-position scan (see module docstring).

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
    index = OccurrenceIndex([
        split.full_sequence(user).items[: split.train_boundary(user)]
        for user in range(split.n_users)
    ])

    window_size, min_gap = window.window_size, window.min_gap
    gaps = index.positions - index.prev
    targets = np.flatnonzero(
        (index.prev >= 0) & (gaps > min_gap) & (gaps <= window_size)
    )
    # Candidate p = t - d for the window distances d in (Ω, |W|].
    distances = np.arange(min_gap + 1, window_size + 1, dtype=np.int64)
    chunk = max(1, _CHUNK_SLOTS // max(distances.size, 1))
    anchors, negatives = [], []
    for start in range(0, targets.size, chunk):
        rows, chosen = _sample_chunk(
            index, targets[start : start + chunk], distances, n_negatives, rng
        )
        anchors.append(rows)
        negatives.append(chosen)
    anchor_events = np.concatenate(anchors) if anchors else targets
    if anchor_events.size == 0:
        raise SamplingError(
            "no training quadruples could be sampled; the training data "
            "contains no qualifying repeat consumption with alternatives"
        )

    users = index.owners(anchor_events)
    counts = np.bincount(users, minlength=split.n_users)
    ends = np.cumsum(counts)
    return QuadrupleSet(
        users=users,
        positives=index.items[anchor_events].astype(np.int64),
        negatives=np.concatenate(negatives).astype(np.int64),
        times=index.positions[anchor_events].astype(np.int64),
        per_user={
            user: np.arange(ends[user] - counts[user], ends[user], dtype=np.int64)
            for user in np.flatnonzero(counts).tolist()
        },
    )


def _sample_chunk(
    index: OccurrenceIndex,
    targets: np.ndarray,
    distances: np.ndarray,
    n_negatives: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """One chunk of targets: (anchor event per quadruple, negatives)."""
    t = index.positions[targets][:, None]
    gap = (index.positions[targets] - index.prev[targets])[:, None]
    slots = targets[:, None] - distances
    eligible = (
        (distances <= t)
        & (np.take(index.next, slots, mode="clip") >= t)
        & (distances != gap)
    )
    # Ineligible slots sort last, so each row starts with its eligible
    # items in ascending order — the seed's ``sorted(...)``.
    candidates = np.where(
        eligible, np.take(index.items, slots, mode="clip"), np.iinfo(np.int32).max
    )
    candidates.sort(axis=1)
    counts = eligible.sum(axis=1)
    chosen = candidates[:, :n_negatives].copy()
    over = np.flatnonzero(counts > n_negatives)
    if over.size:
        picks = np.empty((over.size, n_negatives), dtype=np.int64)
        for row, n_eligible in enumerate(counts[over].tolist()):
            picks[row] = rng.choice(n_eligible, size=n_negatives, replace=False)
        picks.sort(axis=1)
        chosen[over] = np.take_along_axis(candidates[over], picks, axis=1)
    taken = np.minimum(counts, n_negatives)
    keep = np.arange(chosen.shape[1]) < taken[:, None]
    return np.repeat(targets, taken), chosen[keep]
