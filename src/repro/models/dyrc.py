"""DYRC baseline: the mixed weighted quality/recency model.

Anderson et al., "The dynamics of repeat consumption" (WWW'14) — the
paper's Ref. [7] — found that reconsumption is driven by item *quality*
and *recency*, and proposed a weighted model whose latent weights are
learned by maximizing a log-likelihood. We implement it as a conditional
softmax choice model over the window candidates:

``P(choose v | candidates C_t) ∝ exp(θ_q · q̄_v + θ_rank[rank_t(v)])``

where ``q̄_v`` is the normalized item quality (Eq 16-17) and
``rank_t(v)`` is the item's recency rank in the window (1 = most
recently consumed distinct item). ``θ_q`` (a scalar) and ``θ_rank``
(one latent weight per rank) are the "latent weights of item quality and
recency gap" learned by gradient ascent on the training reconsumptions.

The training likelihood is computed fully vectorized with segment
reductions (``np.maximum.reduceat`` / ``np.add.reduceat``) over the
flattened candidate lists of all training events.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import WindowConfig
from repro.data.sequence import ConsumptionSequence
from repro.data.split import SplitDataset
from repro.engine.query import Query, iter_queries_in_order
from repro.engine.session import ScoringSession
from repro.exceptions import ModelError
from repro.features.static import compute_item_quality
from repro.models.base import Recommender
from repro.windows.repeat import iter_repeat_positions, recent_items
from repro.windows.window import WindowView


def recency_ranks(window: WindowView, items: Sequence[int]) -> np.ndarray:
    """1-based recency rank of each item among the window's distinct items.

    Rank 1 is the most recently consumed distinct item. Items absent from
    the window get the worst rank (number of distinct items + 1).
    """
    last_positions = {
        item: window.last_occurrence(item) for item in window.item_set
    }
    by_recency = sorted(last_positions, key=lambda v: -last_positions[v])
    rank_of = {item: rank for rank, item in enumerate(by_recency, start=1)}
    worst = len(by_recency) + 1
    return np.array([rank_of.get(int(v), worst) for v in items], dtype=np.int64)


def session_recency_ranks(
    session: ScoringSession, items: Sequence[int]
) -> np.ndarray:
    """:func:`recency_ranks` computed from incremental session state.

    Last-occurrence positions are unique within a window, so the sort is
    a total order and the ranks match the windowed computation exactly.
    """
    last_positions = {
        item: session.last_position(item)
        for item in session.distinct_window_items()
    }
    by_recency = sorted(last_positions, key=lambda v: -last_positions[v])
    rank_of = {item: rank for rank, item in enumerate(by_recency, start=1)}
    worst = len(by_recency) + 1
    return np.array([rank_of.get(int(v), worst) for v in items], dtype=np.int64)


class DYRCRecommender(Recommender):
    """Softmax choice model over quality and recency-rank weights.

    Parameters
    ----------
    learning_rate, n_iterations:
        Gradient-ascent controls for the likelihood maximization.
    l2_penalty:
        Small ridge on the weights; keeps rarely observed rank weights
        bounded.
    max_events:
        Cap on training events (most recent kept) to bound memory on
        very long histories.
    """

    name = "DYRC"

    def __init__(
        self,
        learning_rate: float = 0.5,
        n_iterations: int = 250,
        l2_penalty: float = 1e-4,
        max_events: int = 200_000,
    ) -> None:
        super().__init__()
        if learning_rate <= 0:
            raise ModelError(f"learning_rate must be positive, got {learning_rate}")
        if n_iterations <= 0:
            raise ModelError(f"n_iterations must be positive, got {n_iterations}")
        self.learning_rate = learning_rate
        self.n_iterations = n_iterations
        self.l2_penalty = l2_penalty
        self.max_events = max_events
        self.quality_weight_: float = 0.0
        self.rank_weights_: Optional[np.ndarray] = None
        self._quality: Optional[np.ndarray] = None
        self.log_likelihood_path_: List[float] = []

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _fit(self, split: SplitDataset, window: WindowConfig) -> None:
        train = split.train_dataset()
        self._quality = compute_item_quality(train.item_frequencies())
        max_rank = window.window_size + 1

        flat_quality, flat_rank, offsets, label_flat = self._collect_events(
            split, window
        )
        if offsets.size <= 1:
            # No training event offered a real choice; keep zero weights
            # (the model then ranks by nothing, i.e. candidate order).
            self.rank_weights_ = np.zeros(max_rank + 1)
            return

        theta_q = 0.0
        theta_rank = np.zeros(max_rank + 1)
        starts = offsets[:-1]
        n_events = starts.size
        step = self.learning_rate

        self.log_likelihood_path_ = []
        previous_ll = -np.inf
        for _ in range(self.n_iterations):
            scores = theta_q * flat_quality + theta_rank[flat_rank]
            seg_max = np.maximum.reduceat(scores, starts)
            shifted = np.exp(scores - np.repeat(seg_max, np.diff(offsets)))
            seg_sum = np.add.reduceat(shifted, starts)
            probabilities = shifted / np.repeat(seg_sum, np.diff(offsets))

            log_likelihood = float(
                np.sum(scores[label_flat] - (np.log(seg_sum) + seg_max))
            )
            self.log_likelihood_path_.append(log_likelihood)

            grad_q = (
                float(np.sum(flat_quality[label_flat]))
                - float(np.sum(probabilities * flat_quality))
            ) / n_events - self.l2_penalty * theta_q
            observed = np.bincount(
                flat_rank[label_flat], minlength=max_rank + 1
            ).astype(np.float64)
            expected = np.bincount(
                flat_rank, weights=probabilities, minlength=max_rank + 1
            )
            grad_rank = (observed - expected) / n_events - self.l2_penalty * theta_rank

            theta_q += step * grad_q
            theta_rank += step * grad_rank

            if log_likelihood < previous_ll:
                step *= 0.5  # overshoot: damp the step and continue
            previous_ll = log_likelihood

        self.quality_weight_ = theta_q
        self.rank_weights_ = theta_rank

    def _collect_events(
        self, split: SplitDataset, window: WindowConfig
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Flatten every training reconsumption event's candidate list."""
        assert self._quality is not None
        flat_quality: List[np.ndarray] = []
        flat_rank: List[np.ndarray] = []
        offsets: List[int] = [0]
        label_flat: List[int] = []
        total = 0
        n_events = 0

        for user in range(split.n_users):
            sequence = split.full_sequence(user)
            boundary = split.train_boundary(user)
            for t, view in iter_repeat_positions(
                sequence, window.window_size, window.min_gap, stop=boundary
            ):
                chosen = int(sequence[t])
                excluded = recent_items(sequence, t, window.min_gap)
                candidates = sorted(view.item_set - excluded)
                if len(candidates) < 2 or chosen not in candidates:
                    continue
                items = np.asarray(candidates, dtype=np.int64)
                flat_quality.append(self._quality[items])
                flat_rank.append(recency_ranks(view, candidates))
                label_flat.append(total + candidates.index(chosen))
                total += items.size
                offsets.append(total)
                n_events += 1
                if n_events >= self.max_events:
                    break
            if n_events >= self.max_events:
                break

        if not flat_quality:
            return (
                np.empty(0),
                np.empty(0, dtype=np.int64),
                np.asarray(offsets, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        return (
            np.concatenate(flat_quality),
            np.concatenate(flat_rank),
            np.asarray(offsets, dtype=np.int64),
            np.asarray(label_flat, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score_batch(
        self,
        sequence: ConsumptionSequence,
        queries: Sequence[Query],
    ) -> List[np.ndarray]:
        """Batch kernel: ranks from session state, gathers per query."""
        self._check_fitted()
        assert self._quality is not None
        assert self.rank_weights_ is not None
        if not queries:
            return []
        quality = self._quality
        quality_weight = self.quality_weight_
        rank_weights = self.rank_weights_
        max_rank = rank_weights.size - 1

        ordered = list(iter_queries_in_order(queries))
        session = ScoringSession(
            sequence,
            self.window_config.window_size,
            start=ordered[0][1].t,
        )
        results: List[np.ndarray] = [np.empty(0)] * len(queries)
        for index, query in ordered:
            session.advance_to(query.t)
            items = np.asarray(query.candidates, dtype=np.int64)
            ranks = session_recency_ranks(session, query.candidates)
            ranks = np.minimum(ranks, max_rank)
            results[index] = quality_weight * quality[items] + rank_weights[ranks]
        return results
