"""Static behavioural features: item quality and reconsumption ratio.

Both are per-item lookup tables learned from the training dataset only.
The reconsumption ratio is two ``np.bincount`` passes over an
:class:`~repro.windows.occurrences.OccurrenceIndex` — every consumption,
and those whose previous occurrence lies within the window — instead of
a per-event walk; the seed's loop is the test oracle
``reconsumption_ratio_reference`` in ``tests/training_oracles.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import WindowConfig
from repro.data.dataset import Dataset
from repro.data.sequence import ConsumptionSequence
from repro.exceptions import FeatureError, NotFittedError
from repro.features.base import FeatureExtractor, register_feature
from repro.windows.occurrences import OccurrenceIndex
from repro.windows.window import WindowView


def compute_item_quality(frequencies: np.ndarray) -> np.ndarray:
    """Normalized item quality ``q̄_v`` (Eq 16-17).

    ``q_v = ln(1 + n_v)``, min-max normalized over the whole item
    vocabulary. When every item has the same frequency the normalized
    quality is defined as all-zeros (the paper's formula is 0/0 there;
    any constant works since TS-PPR only consumes feature differences).
    """
    quality = np.log1p(np.asarray(frequencies, dtype=np.float64))
    q_min, q_max = float(quality.min()), float(quality.max())
    if q_max == q_min:
        return np.zeros_like(quality)
    return (quality - q_min) / (q_max - q_min)


def compute_reconsumption_ratio(
    dataset: Dataset,
    window_size: int,
) -> np.ndarray:
    """Item reconsumption ratio ``r_v`` (Eq 18).

    For each item: the fraction of its observed consumptions that are
    repeats from the preceding window. Items never consumed in the
    training data get ratio 0.

    Notes
    -----
    Eq (18) literally sums indicator ratios; its intended meaning — and
    what we compute — is (#observations of ``v`` as a repeat) divided by
    (#observations of ``v``). Whether an observation is a repeat uses the
    window only; the Ω gap plays no role in the *feature* definition.
    """
    index = OccurrenceIndex([sequence.items for sequence in dataset])
    gaps = index.positions - index.prev
    repeated = (index.prev >= 0) & (gaps <= window_size)
    totals = np.bincount(index.items, minlength=dataset.n_items)
    repeats = np.bincount(index.items[repeated], minlength=dataset.n_items)
    ratio = np.zeros(dataset.n_items, dtype=np.float64)
    consumed = totals > 0
    ratio[consumed] = repeats[consumed] / totals[consumed]
    return ratio


class ItemQualityFeature(FeatureExtractor):
    """``q̄_v``: log-frequency of the item, min-max normalized (Eq 16-17)."""

    name = "item_quality"

    def __init__(self) -> None:
        self._quality: Optional[np.ndarray] = None

    def fit(self, train_dataset: Dataset, window: WindowConfig) -> "ItemQualityFeature":
        self._quality = compute_item_quality(train_dataset.item_frequencies())
        return self

    def value(
        self,
        sequence: ConsumptionSequence,
        item: int,
        t: int,
        window: WindowView,
    ) -> float:
        if self._quality is None:
            raise NotFittedError("ItemQualityFeature.value called before fit")
        if not 0 <= item < self._quality.size:
            raise FeatureError(
                f"item {item} outside fitted vocabulary of size {self._quality.size}"
            )
        return float(self._quality[item])

    @property
    def table(self) -> np.ndarray:
        """The fitted per-item quality array (read-only use)."""
        if self._quality is None:
            raise NotFittedError("ItemQualityFeature not fitted")
        return self._quality


class ReconsumptionRatioFeature(FeatureExtractor):
    """``r_v``: fraction of an item's consumptions that are repeats (Eq 18)."""

    name = "item_reconsumption_ratio"

    def __init__(self) -> None:
        self._ratio: Optional[np.ndarray] = None

    def fit(
        self, train_dataset: Dataset, window: WindowConfig
    ) -> "ReconsumptionRatioFeature":
        self._ratio = compute_reconsumption_ratio(train_dataset, window.window_size)
        return self

    def value(
        self,
        sequence: ConsumptionSequence,
        item: int,
        t: int,
        window: WindowView,
    ) -> float:
        if self._ratio is None:
            raise NotFittedError("ReconsumptionRatioFeature.value called before fit")
        if not 0 <= item < self._ratio.size:
            raise FeatureError(
                f"item {item} outside fitted vocabulary of size {self._ratio.size}"
            )
        return float(self._ratio[item])

    @property
    def table(self) -> np.ndarray:
        """The fitted per-item reconsumption-ratio array."""
        if self._ratio is None:
            raise NotFittedError("ReconsumptionRatioFeature not fitted")
        return self._ratio


register_feature(ItemQualityFeature.name, ItemQualityFeature)
register_feature(ReconsumptionRatioFeature.name, ReconsumptionRatioFeature)
