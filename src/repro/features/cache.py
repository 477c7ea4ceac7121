"""Feature pre-computation for sampled training quadruples.

Section 4.2.2: computing time-sensitive features for every possible
negative online is infeasible, so features of the pre-sampled quadruples
are extracted *in advance of training*. :class:`QuadrupleFeatureCache`
stores, for each quadruple ``(u, v_i, v_j, t)``, the pair
``(f_uv_i t, f_uv_j t)`` in two dense float arrays so the SGD loop does
pure array indexing.

:func:`fill_rows` is the one ``f_uvt`` filler for many ``(u, v, t)``
rows: :meth:`QuadrupleFeatureCache.build` calls it in fixed-size row
chunks, and TS-PPR's scoring (:class:`repro.engine.features.SessionFeatureMatrix`)
calls it once per batch of queries. An
:class:`~repro.windows.occurrences.OccurrenceIndex` gives every row's
last position before ``t`` and its window count. Quality and ratio are
gathers, hyperbolic recency ``1/(t - last)`` and familiarity
``count / min(t, |W|)`` — the extractors' own single IEEE-754
operations. Exponential recency keeps scalar ``math.exp`` (numpy's
vectorized ``np.exp`` differs from libm by ulps and would change
rankings), and an extractor without a column form is called per row.
The seed's per-anchor extraction is the test oracle in
``tests/training_oracles.py``, and ``tests/test_engine.py`` compares
the filler with :meth:`BehavioralFeatureModel.matrix` feature by
feature.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Sequence

import numpy as np

from repro.data.sequence import ConsumptionSequence
from repro.data.split import SplitDataset
from repro.exceptions import DataError, FeatureError, SamplingError
from repro.features.base import FeatureExtractor
from repro.features.dynamic import DynamicFamiliarityFeature, RecencyFeature
from repro.features.static import ItemQualityFeature, ReconsumptionRatioFeature
from repro.features.vectorizer import BehavioralFeatureModel
from repro.windows.occurrences import OccurrenceIndex
from repro.windows.window import window_before

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
    @classmethod
    def build(
        cls,
        quadruples: "QuadrupleSet",
        split: SplitDataset,
        feature_model: BehavioralFeatureModel,
    ) -> "QuadrupleFeatureCache":
        """Extract features for every quadruple as column passes.

        Raises :class:`~repro.exceptions.DataError` for a user or time
        outside the split, and :class:`~repro.exceptions.FeatureError`
        when a table feature meets an item outside its vocabulary.
        """
        window_size = feature_model.window_config.window_size
        extractors = [
            feature_model.extractor(name) for name in feature_model.feature_names
        ]
        users, times = quadruples.users, quadruples.times
        positive = np.empty((len(quadruples), len(extractors)), dtype=np.float64)
        negative = np.empty_like(positive)
        sequences = [split.full_sequence(user) for user in range(split.n_users)]
        lengths = np.array([len(sequence) for sequence in sequences], dtype=np.int64)
        if len(quadruples) and (
            users.min() < 0 or users.max() >= split.n_users
            or times.min() < 0 or (times > lengths[users]).any()
        ):
            raise DataError("quadruples name a user or time outside the split")
        # The index needs each user's prefix only up to its latest anchor.
        limits = np.zeros(split.n_users, dtype=np.int64)
        np.maximum.at(limits, users, times)
        index = OccurrenceIndex(
            [
                sequence.items[:limit]
                for sequence, limit in zip(sequences, limits.tolist())
            ]
        )
        for start in range(0, len(quadruples), _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            for items, out in (
                (quadruples.positives[rows], positive[rows]),
                (quadruples.negatives[rows], negative[rows]),
            ):
                fill_rows(
                    index, extractors, sequences, window_size,
                    users[rows], items, times[rows], out,
                )
        return cls(positive, negative)


#: Rows filled per chunk: bounds the per-row lookup temporaries.
_CHUNK_ROWS = 1 << 15


def fill_rows(
    index: OccurrenceIndex,
    extractors: List[FeatureExtractor],
    sequences: Sequence[ConsumptionSequence],
    window_size: int,
    users: np.ndarray,
    items: np.ndarray,
    times: np.ndarray,
    out: np.ndarray,
) -> None:
    """Write ``f_{u v t}`` of each row into ``out`` (shape ``(rows, F)``).

    ``users`` index both ``index`` and ``sequences``; ``sequences[u]``
    is read only by an extractor without a column form. Raises
    :class:`~repro.exceptions.FeatureError` when a table feature meets
    an item outside its vocabulary.
    """
    last, count = index.last_and_count(users, items, times, window_size)
    seen = last >= 0
    for column, extractor in enumerate(extractors):
        values = out[:, column]
        if isinstance(extractor, (ItemQualityFeature, ReconsumptionRatioFeature)):
            table = extractor.table
            outside = (items < 0) | (items >= table.size)
            if outside.any():
                raise FeatureError(
                    f"item {int(items[outside][0])} outside fitted "
                    f"vocabulary of size {table.size}"
                )
            values[:] = table[items]
        elif isinstance(extractor, RecencyFeature):
            values[:] = 0.0
            gaps = times[seen] - last[seen]
            if extractor.kind == "hyperbolic":
                values[seen] = 1.0 / gaps
            else:
                values[seen] = [math.exp(-gap) for gap in gaps.tolist()]
        elif isinstance(extractor, DynamicFamiliarityFeature):
            length = np.minimum(times, window_size)
            values[:] = 0.0
            filled = length > 0
            values[filled] = count[filled] / length[filled]
        else:
            # No column form: one window view per (user, t) anchor.
            anchor = None
            for row, (user, item, t) in enumerate(
                zip(users.tolist(), items.tolist(), times.tolist())
            ):
                if anchor != (user, t):
                    anchor, sequence = (user, t), sequences[user]
                    window = window_before(sequence, t, window_size)
                values[row] = extractor.value(sequence, item, t, window)
