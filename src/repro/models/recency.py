"""The Recency baseline: rank by exponential recency weight.

Section 5.2: items are weighted by ``e^{−Δt_uv}`` where ``Δt_uv`` is the
gap between the recommendation position and the user's last consumption
of the item. Candidates the user never consumed before ``t`` cannot
occur under the RRC protocol (candidates come from the window), but the
implementation still scores them ``-inf``, below every repeat.

The raw exponential underflows to 0 for gaps beyond ~745 steps; scoring
therefore works on the negated gap directly (a strictly monotone
transform of ``e^{−Δt}``), so the induced *ranking* is exact at any gap
and no ``exp`` is computed. The :meth:`weight` helper exposes the
paper's literal weighting scheme.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.config import WindowConfig
from repro.data.sequence import ConsumptionSequence
from repro.data.split import SplitDataset
from repro.engine.query import Query, iter_queries_in_order
from repro.engine.session import ScoringSession
from repro.models.base import Recommender


class RecencyRecommender(Recommender):
    """Rank candidates by how recently the user consumed them."""

    name = "Recency"

    def _fit(self, split: SplitDataset, window: WindowConfig) -> None:
        # Nothing to learn: the model is a pure function of the history.
        return

    @staticmethod
    def weight(gap: int) -> float:
        """The paper's literal weight ``e^{−Δt}`` for a positive gap."""
        if gap <= 0:
            raise ValueError(f"gap must be positive, got {gap}")
        return float(np.exp(-float(gap)))

    @staticmethod
    def scores_from_last_positions(lasts: np.ndarray, t: int) -> np.ndarray:
        """The batch-kernel arithmetic from pre-fetched last positions.

        ``lasts - t`` equals ``-(t - last)`` exactly (small integers are
        exact in float64), and never-consumed lanes get ``-inf`` as in
        the per-query path. Exposed so the serving layer's deadline
        fallback ranks with literally the same kernel.
        """
        scores = (np.asarray(lasts, dtype=np.int64) - t).astype(np.float64)
        scores[lasts < 0] = -np.inf
        return scores

    def score_batch(
        self,
        sequence: ConsumptionSequence,
        queries: Sequence[Query],
    ) -> List[np.ndarray]:
        """Batch kernel: session-tracked last positions, no binary search."""
        self._check_fitted()
        if not queries:
            return []
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
            lasts = session.last_positions(items)
            results[index] = self.scores_from_last_positions(lasts, query.t)
        return results
