"""Vectorized behavioural-feature construction.

:meth:`BehavioralFeatureModel.matrix` fills the feature matrix with a
Python double loop — one ``extractor.value`` call per (item, feature),
each doing its own binary search or table lookup. Two replacements
reproduce its values bit for bit:

* :class:`SessionFeatureMatrix` — TS-PPR's scoring fill. It lays a
  batch of queries' candidates end to end as ``(user, item, t)`` rows
  and fills them in one column pass over an
  :class:`~repro.windows.occurrences.OccurrenceIndex`, with the filler
  the training feature cache uses
  (:func:`repro.features.cache.fill_rows`).
* :func:`fast_fillers` — per-column fillers that read a live serving
  session's incremental state, for the online adapter's two-row
  capture on the ingest path.

Both keep each extractor's scalar arithmetic: table features become
gathers, hyperbolic recency ``1/gap`` and familiarity ``count/length``
stay single IEEE-754 divisions, and exponential recency keeps scalar
``math.exp``, because numpy's vectorized ``np.exp`` differs from libm by
ulps and would silently change rankings.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

import numpy as np

from repro.data.sequence import ConsumptionSequence
from repro.engine.query import Query
from repro.exceptions import DataError, FeatureError
from repro.features.base import FeatureExtractor
from repro.features.cache import fill_rows
from repro.features.dynamic import DynamicFamiliarityFeature, RecencyFeature
from repro.features.static import ItemQualityFeature, ReconsumptionRatioFeature
from repro.features.vectorizer import BehavioralFeatureModel
from repro.windows.occurrences import OccurrenceIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.session import StoreSession

#: Fills one feature column for the given candidate items. ``items``
#: is the int64 array form, ``keys`` the same items as a Python list —
#: gather fillers index with the array, dict-lookup fillers iterate the
#: list; both are derived once per capture.
ColumnFiller = Callable[["StoreSession", np.ndarray, List[int], np.ndarray], None]


def _table_filler(table: np.ndarray) -> ColumnFiller:
    """Gather from a fitted per-item lookup table (quality / ratio)."""
    # Scalar gathers over a Python list beat numpy fancy indexing at
    # typical candidate-set sizes (tens of items); the values are the
    # identical float64 doubles either way.
    values = table.tolist()
    size = table.size

    def fill(
        session: "StoreSession",
        items: np.ndarray,
        keys: List[int],
        out: np.ndarray,
    ) -> None:
        if keys and (min(keys) < 0 or max(keys) >= size):
            raise FeatureError(
                f"item outside fitted vocabulary of size {size}"
            )
        out[:] = [values[key] for key in keys]

    return fill


def _hyperbolic_recency_filler(
    session: "StoreSession",
    items: np.ndarray,
    keys: List[int],
    out: np.ndarray,
) -> None:
    """``c_vt = 1 / (t - l_ut(v))``, 0 for never-consumed items.

    Scalar IEEE-754 division, exactly as the extractor computes it;
    a Python loop at candidate-set sizes beats the numpy mask dance.
    """
    t = session.t
    out[:] = [
        1.0 / (t - last) if last >= 0 else 0.0
        for last in session.last_positions_list(keys)
    ]


def _exponential_recency_filler(
    session: "StoreSession",
    items: np.ndarray,
    keys: List[int],
    out: np.ndarray,
) -> None:
    """``c_vt = e^{-gap}`` via scalar libm exp (see module docstring)."""
    t = session.t
    exp = math.exp
    out[:] = [
        exp(-(t - last)) if last >= 0 else 0.0
        for last in session.last_positions_list(keys)
    ]


def _familiarity_filler(
    session: "StoreSession",
    items: np.ndarray,
    keys: List[int],
    out: np.ndarray,
) -> None:
    """``m_vt = count_in_window / window_length`` (Eq 21)."""
    length = session.window_length()
    if length == 0:
        out[:] = 0.0
        return
    counts = session.window_counts_map()
    out[:] = [counts.get(key, 0) / length for key in keys]


def _fast_filler_for(extractor: FeatureExtractor) -> Optional[ColumnFiller]:
    if isinstance(extractor, (ItemQualityFeature, ReconsumptionRatioFeature)):
        return _table_filler(extractor.table)
    if isinstance(extractor, RecencyFeature):
        if extractor.kind == "hyperbolic":
            return _hyperbolic_recency_filler
        return _exponential_recency_filler
    if isinstance(extractor, DynamicFamiliarityFeature):
        return _familiarity_filler
    return None


def fast_fillers(
    feature_model: BehavioralFeatureModel,
) -> Optional[List[ColumnFiller]]:
    """Column fillers over a live session, when every extractor has one.

    Returns ``None`` as soon as one extractor has no column form
    (custom registered features); the online adapter then builds the
    generic matrix from the session's sequence. The online ISGD capture
    uses these to price a two-row feature diff in microseconds.
    """
    fillers: List[ColumnFiller] = []
    for name in feature_model.feature_names:
        fast = _fast_filler_for(feature_model.extractor(name))
        if fast is None:
            return None
        fillers.append(fast)
    return fillers


class SessionFeatureMatrix:
    """``f_uvt`` rows for a batch of one user's queries.

    Parameters
    ----------
    feature_model:
        A *fitted* :class:`BehavioralFeatureModel`; its extractor order
        defines the column order, exactly as in
        :meth:`BehavioralFeatureModel.matrix`.
    sequence:
        The user's consumption sequence the queries are positions of.
    window_size:
        ``|W|`` of the window the familiarity feature counts in: the
        scoring model's, which a feature model fitted beforehand on
        another window need not share.
    """

    __slots__ = ("sequence", "window_size", "_extractors")

    def __init__(
        self,
        feature_model: BehavioralFeatureModel,
        sequence: ConsumptionSequence,
        window_size: int,
    ) -> None:
        feature_model.window_config  # raises NotFittedError when unfitted
        self.sequence = sequence
        self.window_size = window_size
        self._extractors: List[FeatureExtractor] = [
            feature_model.extractor(name)
            for name in feature_model.feature_names
        ]

    def matrix(self, queries: Sequence[Query]) -> np.ndarray:
        """Every query's candidate rows, laid end to end in query order.

        Query ``q``'s rows equal ``feature_model.matrix(sequence,
        q.candidates, q.t, window_before(sequence, q.t, window_size))``
        bit for bit. One occurrence index over the sequence up to the
        latest ``t`` answers all of them. Raises
        :class:`~repro.exceptions.DataError` for a ``t`` past the end of
        the sequence.
        """
        sequence = self.sequence
        horizon = max((query.t for query in queries), default=0)
        if horizon > len(sequence):
            raise DataError(
                f"query t={horizon} past the end of user {sequence.user}'s "
                f"sequence (length {len(sequence)})"
            )
        sizes = [len(query.candidates) for query in queries]
        n_rows = sum(sizes)
        items = np.fromiter(
            chain.from_iterable(query.candidates for query in queries),
            dtype=np.int64,
            count=n_rows,
        )
        times = np.repeat(
            np.fromiter((query.t for query in queries), np.int64, len(queries)),
            sizes,
        )
        rows = np.empty((n_rows, len(self._extractors)), dtype=np.float64)
        fill_rows(
            OccurrenceIndex([sequence.items[:horizon]]),
            self._extractors,
            [sequence],
            self.window_size,
            np.zeros(n_rows, dtype=np.int64),
            items,
            times,
            rows,
        )
        return rows
