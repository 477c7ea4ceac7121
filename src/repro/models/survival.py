"""Survival baseline: Cox proportional-hazards return-time recommender.

Kapoor et al. (KDD'14) — the paper's Ref. [30] — predict when a user
returns with Cox's proportional-hazard model over return-gap
covariates. Adapted to discrete consumption steps (as the paper does for
its comparison), each (user, item) pair's *return intervals* are
survival observations with the pair's **time-weighted average return
time** and consumption depth as covariates. At recommendation time the
default ``mode="due"`` reproduces the continuous-time usage the paper
evaluated (and found weak under discretization): estimate each item's
expected return time from the fitted survival curve and rank by how
*due* the item is. ``mode="hazard"`` is the natively discrete
alternative — rank by the conditional next-step return probability —
kept as an ablation (see ``benchmarks/test_bench_ablation_survival.py``).

The time-weighted average return time must be recomputed online from
the user's past consumptions at every query — exactly the cost the
paper measures in Fig 13, where Survival's per-instance time is
proportional to the length of the whole consumption sequence and sits
2-4 orders of magnitude above the cheap baselines.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import WindowConfig
from repro.data.sequence import ConsumptionSequence
from repro.data.split import SplitDataset
from repro.engine.query import Query, iter_queries_in_order
from repro.models.base import Recommender
from repro.survival.cox import CoxPHModel
from repro.survival.datasets import (
    build_return_time_data,
    return_covariates,
    weighted_average_gap,
)


class SurvivalRecommender(Recommender):
    """Rank window candidates by Cox-modeled next-step return hazard."""

    name = "Survival"

    def __init__(
        self,
        l2_penalty: float = 1e-3,
        max_observations_per_user: int = 2000,
        mode: str = "due",
    ) -> None:
        super().__init__()
        if mode not in ("due", "hazard"):
            raise ValueError(f"mode must be 'due' or 'hazard', got {mode!r}")
        self.l2_penalty = l2_penalty
        self.max_observations_per_user = max_observations_per_user
        self.mode = mode
        self.cox_: Optional[CoxPHModel] = None

    def _fit(self, split: SplitDataset, window: WindowConfig) -> None:
        data = build_return_time_data(
            split.train_dataset(),
            max_observations_per_user=self.max_observations_per_user,
        )
        self.cox_ = CoxPHModel(l2_penalty=self.l2_penalty).fit(
            data.durations, data.events, data.covariates
        )

    def score_batch(
        self,
        sequence: ConsumptionSequence,
        queries: Sequence[Query],
    ) -> List[np.ndarray]:
        """One history walk for the batch, restricted to its candidates.

        The walk advances once up to the latest query, keeping each
        wanted item's last-seen position and return-gap list (its
        consumption count is the gap count + 1). That state depends
        only on the item's own occurrences before ``t``, so restricting
        the walk to the union of the batch's candidates is exact: a
        query scores the same in any batch. A lone query is the O(t)
        candidate-filtered scan Fig 13 times.
        """
        self._check_fitted()
        assert self.cox_ is not None
        if not queries:
            return []
        wanted = {int(item) for query in queries for item in query.candidates}
        items = sequence.items
        last_seen: Dict[int, int] = {}
        gaps: Dict[int, List[float]] = {}
        cursor = 0

        results: List[np.ndarray] = [np.empty(0)] * len(queries)
        for index, query in iter_queries_in_order(queries):
            t = query.t
            for position, item in enumerate(items[cursor:t].tolist(), cursor):
                if item in wanted:
                    previous = last_seen.get(item)
                    if previous is not None:
                        gaps.setdefault(item, []).append(float(position - previous))
                    last_seen[item] = position
            cursor = t

            n = len(query.candidates)
            covariates = np.empty((n, 2), dtype=np.float64)
            elapsed = np.empty(n, dtype=np.float64)
            for row, item in enumerate(query.candidates):
                item = int(item)
                item_gaps = gaps.get(item, [])
                covariates[row] = return_covariates(
                    weighted_average_gap(item_gaps), len(item_gaps) + 1
                )
                last = last_seen.get(item)
                if last is not None:
                    elapsed[row] = float(t - last)
                else:
                    # Candidate never consumed before t (cannot occur
                    # under the RRC protocol, handled for robustness).
                    elapsed[row] = float(t if t > 0 else 1)
            if self.mode == "hazard":
                results[index] = self.cox_.expected_return_score(
                    elapsed, covariates
                )
            else:
                # "due" mode, the paper-faithful continuous-time usage:
                # rank by how *due* each item is (smallest deviation of
                # the estimated return time from the elapsed gap).
                expected = self.cox_.expected_return_time(covariates)
                results[index] = -np.abs(expected - elapsed)
        return results
