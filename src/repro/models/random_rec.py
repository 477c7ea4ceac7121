"""The Random baseline: uniform recommendation from the window.

Section 5.2: "randomly recommends items from the given time window. No
weighting scheme on the items is used." Scores are i.i.d. uniform draws,
so the induced top-k is a uniform random subset/ordering of the
candidates — but reproducible given the seed.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.config import WindowConfig
from repro.data.sequence import ConsumptionSequence
from repro.data.split import SplitDataset
from repro.engine.query import Query
from repro.models.base import Recommender
from repro.rng import RandomState, ensure_rng


class RandomRecommender(Recommender):
    """Uniformly random ranking of the candidate set."""

    name = "Random"

    #: Scoring consumes RNG state, so results depend on call order; the
    #: parallel evaluation path must not shard this model across workers.
    deterministic = False

    def __init__(self, random_state: RandomState = None) -> None:
        super().__init__()
        self._rng = ensure_rng(random_state)

    def _fit(self, split: SplitDataset, window: WindowConfig) -> None:
        # Nothing to learn.
        return

    def score_batch(
        self,
        sequence: ConsumptionSequence,
        queries: Sequence[Query],
    ) -> List[np.ndarray]:
        """Draws in query order — the same RNG stream as per-query calls."""
        self._check_fitted()
        return [self._rng.random(len(query.candidates)) for query in queries]
