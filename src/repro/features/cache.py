"""Feature pre-computation for sampled training quadruples.

Section 4.2.2: computing time-sensitive features for every possible
negative online is infeasible, so features of the pre-sampled quadruples
are extracted *in advance of training*. :class:`QuadrupleFeatureCache`
stores, for each quadruple ``(u, v_i, v_j, t)``, the pair
``(f_uv_i t, f_uv_j t)`` in two dense float arrays so the SGD loop does
pure array indexing.

:meth:`QuadrupleFeatureCache.build` walks each user's anchors with one
incremental :class:`~repro.engine.session.ScoringSession` and fills the
rows through :class:`~repro.engine.features.SessionFeatureMatrix`'s
per-feature column kernels — the same bit-exact fast paths the scoring
engine uses — instead of rebuilding a ``window_before`` view per anchor.
With ``workers > 1`` users are sharded across a fork-based process pool;
each row depends only on its own user's history, and every worker writes
rows back at their global indices, so the assembled arrays are
bit-identical at any worker count (mirroring
:func:`repro.evaluation.protocol.evaluate_recommender`).
The seed's per-anchor rebuild is kept as a test oracle
(``tests/training_oracles.py``); ``tests/test_features_cache.py`` pins
that both produce identical arrays.
"""

from __future__ import annotations

import multiprocessing
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.data.split import SplitDataset
from repro.exceptions import SamplingError
from repro.features.vectorizer import BehavioralFeatureModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sampling.quadruples import QuadrupleSet


class QuadrupleFeatureCache:
    """Dense feature storage aligned with a quadruple set.

    Attributes
    ----------
    positive:
        Array of shape ``(n_quadruples, F)`` — ``f_{u v_i t}``.
    negative:
        Array of shape ``(n_quadruples, F)`` — ``f_{u v_j t}``.
    """

    def __init__(self, positive: np.ndarray, negative: np.ndarray) -> None:
        positive = np.asarray(positive, dtype=np.float64)
        negative = np.asarray(negative, dtype=np.float64)
        if positive.shape != negative.shape:
            raise SamplingError(
                f"positive {positive.shape} and negative {negative.shape} "
                f"feature arrays must have the same shape"
            )
        if positive.ndim != 2:
            raise SamplingError(
                f"feature arrays must be 2-D, got shape {positive.shape}"
            )
        self.positive = positive
        self.negative = negative

    def __len__(self) -> int:
        return int(self.positive.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.positive.shape[1])

    def difference(self, index: int) -> np.ndarray:
        """``f_uv_i t − f_uv_j t`` for quadruple ``index`` (Eq 6)."""
        return self.positive[index] - self.negative[index]

    def differences(self) -> np.ndarray:
        """All feature differences at once; shape ``(n, F)``."""
        return self.positive - self.negative

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def _fill_user_rows(
        quadruples: "QuadrupleSet",
        split: SplitDataset,
        feature_model: BehavioralFeatureModel,
        user: int,
        rows: np.ndarray,
        positive: np.ndarray,
        negative: np.ndarray,
    ) -> None:
        """Fill one user's cache rows via a single ordered session walk.

        ``rows`` are the user's quadruple indices; anchors are visited
        in ascending ``t`` (a stable sort keeps sampling order within an
        anchor) so the forward-only session advances monotonically.
        """
        # Imported here: repro.engine.features itself imports from the
        # repro.features package, so a module-level import would cycle.
        from repro.engine.features import SessionFeatureMatrix
        from repro.engine.session import ScoringSession

        sequence = split.full_sequence(user)
        times = quadruples.times[rows]
        order = np.argsort(times, kind="stable")
        ordered_rows = rows[order]
        ordered_times = times[order].tolist()
        pos_items = quadruples.positives[ordered_rows].tolist()
        neg_items = quadruples.negatives[ordered_rows].tolist()
        row_list = ordered_rows.tolist()

        session = ScoringSession(
            sequence,
            feature_model.window_config.window_size,
            start=ordered_times[0],
        )
        matrix = SessionFeatureMatrix(feature_model, session)

        n = len(row_list)
        cursor = 0
        while cursor < n:
            t = ordered_times[cursor]
            end = cursor
            while end < n and ordered_times[end] == t:
                end += 1
            session.advance_to(t)
            # One matrix over the anchor's distinct items; a positive
            # recurs across its S negatives, so dedup before extraction.
            slot_of: Dict[int, int] = {}
            items: List[int] = []
            for k in range(cursor, end):
                for item in (pos_items[k], neg_items[k]):
                    if item not in slot_of:
                        slot_of[item] = len(items)
                        items.append(item)
            values = matrix.matrix(np.asarray(items, dtype=np.int64))
            # Scatter whole anchors at once: one fancy assignment per
            # role instead of two row copies per quadruple.
            anchor_rows = row_list[cursor:end]
            positive[anchor_rows] = values[
                [slot_of[pos_items[k]] for k in range(cursor, end)]
            ]
            negative[anchor_rows] = values[
                [slot_of[neg_items[k]] for k in range(cursor, end)]
            ]
            cursor = end

    @classmethod
    def build(
        cls,
        quadruples: "QuadrupleSet",
        split: SplitDataset,
        feature_model: BehavioralFeatureModel,
        workers: int = 1,
    ) -> "QuadrupleFeatureCache":
        """Extract features for every quadruple, one session walk per user.

        Parameters
        ----------
        workers:
            Shard users across this many forked worker processes. Each
            worker fills complete rows addressed by global quadruple
            index, so the assembled arrays are bit-identical at any
            worker count. Falls back to sequential when ``workers <= 1``
            or the platform lacks ``fork``.
        """
        if workers < 1:
            raise SamplingError(f"workers must be positive, got {workers}")
        n = len(quadruples)
        positive = np.empty((n, feature_model.n_features), dtype=np.float64)
        negative = np.empty((n, feature_model.n_features), dtype=np.float64)
        users = sorted(quadruples.per_user)

        n_workers = min(workers, max(len(users), 1))
        use_parallel = (
            n_workers > 1
            and "fork" in multiprocessing.get_all_start_methods()
        )
        if use_parallel:
            _build_parallel(
                quadruples, split, feature_model, users, positive, negative,
                n_workers,
            )
        else:
            for user in users:
                cls._fill_user_rows(
                    quadruples, split, feature_model, user,
                    quadruples.per_user[user], positive, negative,
                )
        return cls(positive, negative)


# ----------------------------------------------------------------------
# Parallel sharding
# ----------------------------------------------------------------------
# Workers are forked, so the quadruples/split/feature model are inherited
# copy-on-write through this module-level slot instead of being pickled
# per task (the same pattern as repro.evaluation.protocol).
_PARALLEL_STATE: Optional[tuple] = None


def _worker_rows(user: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    assert _PARALLEL_STATE is not None
    quadruples, split, feature_model = _PARALLEL_STATE
    rows = quadruples.per_user[user]
    positive = np.empty((rows.size, feature_model.n_features), dtype=np.float64)
    negative = np.empty_like(positive)
    # Fill a compact per-user block; the parent scatters it back to the
    # rows' global indices, so assembly order cannot affect the result.
    local = np.arange(rows.size, dtype=np.int64)
    shadow = _UserSlice(quadruples, rows)
    QuadrupleFeatureCache._fill_user_rows(
        shadow, split, feature_model, user, local, positive, negative
    )
    return rows, positive, negative


class _UserSlice:
    """Row-remapped view of one user's quadruples for worker-local fills."""

    __slots__ = ("times", "positives", "negatives")

    def __init__(self, quadruples: "QuadrupleSet", rows: np.ndarray) -> None:
        self.times = quadruples.times[rows]
        self.positives = quadruples.positives[rows]
        self.negatives = quadruples.negatives[rows]


def _build_parallel(
    quadruples: "QuadrupleSet",
    split: SplitDataset,
    feature_model: BehavioralFeatureModel,
    users: List[int],
    positive: np.ndarray,
    negative: np.ndarray,
    n_workers: int,
) -> None:
    global _PARALLEL_STATE
    context = multiprocessing.get_context("fork")
    chunksize = max(1, len(users) // (n_workers * 4))
    _PARALLEL_STATE = (quadruples, split, feature_model)
    try:
        with context.Pool(n_workers) as pool:
            for rows, pos_block, neg_block in pool.map(
                _worker_rows, users, chunksize=chunksize
            ):
                positive[rows] = pos_block
                negative[rows] = neg_block
    finally:
        _PARALLEL_STATE = None
