"""Novel-item recommenders.

:class:`NovelTSPPRRecommender` is the §4.3 variant of TS-PPR: identical
preference function, training loop, and feature extraction, but the
pre-sampled quadruples pair first-time consumptions with unconsumed
negatives. For a never-consumed candidate the dynamic features (recency,
familiarity) are exactly 0, so the model leans on the static latent term
and the static features — precisely the paper's observation that the
time-sensitive machinery specializes in reconsumption.

:class:`NovelPopRecommender` is the corresponding cheap baseline
(popularity over unconsumed items).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.config import TSPPRConfig, WindowConfig
from repro.data.sequence import ConsumptionSequence
from repro.data.split import SplitDataset
from repro.engine.query import Query, iter_queries_in_order
from repro.models.pop import PopRecommender
from repro.models.tsppr import TSPPRRecommender
from repro.novel.sampling import sample_novel_quadruples
from repro.sampling.quadruples import QuadrupleSet


class NovelTSPPRRecommender(TSPPRRecommender):
    """TS-PPR trained for the novel-item recommendation problem.

    Parameters
    ----------
    config:
        Standard :class:`~repro.config.TSPPRConfig`.
    popularity_biased_negatives:
        Draw training negatives proportionally to training popularity
        (harder, better-calibrated ranking) instead of uniformly.
    """

    name = "TS-PPR (novel)"

    def __init__(
        self,
        config: Optional[TSPPRConfig] = None,
        popularity_biased_negatives: bool = True,
    ) -> None:
        super().__init__(config)
        self.popularity_biased_negatives = popularity_biased_negatives

    def _sample_quadruples(
        self,
        split: SplitDataset,
        window: WindowConfig,
        rng: np.random.Generator,
    ) -> QuadrupleSet:
        popularity = None
        if self.popularity_biased_negatives:
            popularity = split.train_dataset().item_frequencies().astype(float)
        return sample_novel_quadruples(
            split,
            window=window,
            n_negatives=self.config.n_negative_samples,
            random_state=rng,
            popularity=popularity,
        )


class NovelPopRecommender(PopRecommender):
    """Popularity baseline restricted to the novel problem.

    Scoring is identical to Pop — the candidate set (unconsumed items)
    is what distinguishes the novel protocol — but consumed candidates
    are actively demoted so a mixed candidate list never surfaces them.
    """

    name = "Pop (novel)"

    def score_batch(
        self,
        sequence: ConsumptionSequence,
        queries: Sequence[Query],
    ) -> List[np.ndarray]:
        """Batch kernel with incremental consumed-set maintenance.

        Overridden explicitly: inheriting Pop's kernel would silently
        drop the consumed-item demotion this model exists for.
        """
        self._check_fitted()
        if not queries:
            return []
        items_sequence = sequence.items
        consumed: set = set()
        cursor = 0
        results: List[np.ndarray] = [np.empty(0)] * len(queries)
        for index, query in iter_queries_in_order(queries):
            while cursor < query.t:
                consumed.add(int(items_sequence[cursor]))
                cursor += 1
            items = np.asarray(query.candidates, dtype=np.int64)
            demoted = self._gather(items).copy()
            for row, item in enumerate(query.candidates):
                if int(item) in consumed:
                    demoted[row] = -np.inf
            results[index] = demoted
        return results
