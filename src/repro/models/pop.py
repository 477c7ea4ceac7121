"""The Pop baseline: rank candidates by global item popularity.

Section 5.2: popularity is ``ln(1 + n_v)`` with ``n_v`` the item's
frequency in the training data — the unnormalized form of the item
quality feature (Eq 16).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.config import WindowConfig
from repro.data.sequence import ConsumptionSequence
from repro.data.split import SplitDataset
from repro.engine.query import Query
from repro.exceptions import EvaluationError
from repro.models.base import Recommender


class PopRecommender(Recommender):
    """Rank by ``ln(1 + n_v)`` over training frequencies."""

    name = "Pop"

    def __init__(self) -> None:
        super().__init__()
        self._popularity: Optional[np.ndarray] = None

    def _fit(self, split: SplitDataset, window: WindowConfig) -> None:
        frequencies = split.train_dataset().item_frequencies()
        self._popularity = np.log1p(frequencies.astype(np.float64))

    def _gather(self, items: np.ndarray) -> np.ndarray:
        assert self._popularity is not None
        if items.size and (items.min() < 0 or items.max() >= self._popularity.size):
            raise EvaluationError(
                f"candidate outside fitted vocabulary of size {self._popularity.size}"
            )
        return self._popularity[items]

    def score_batch(
        self,
        sequence: ConsumptionSequence,
        queries: Sequence[Query],
    ) -> List[np.ndarray]:
        """Batch kernel: history-independent, one exact gather per query."""
        self._check_fitted()
        return [
            self._gather(np.asarray(query.candidates, dtype=np.int64))
            for query in queries
        ]
