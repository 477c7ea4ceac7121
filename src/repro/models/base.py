"""The recommender interface shared by TS-PPR and all baselines.

An RRC recommender answers *queries*: rank the Ω-filtered window
candidates of a user at position ``t``, consulting only history before
``t``. Since the batch-engine redesign the primary interface is
batched — :meth:`Recommender.score_batch` and
:meth:`Recommender.recommend_batch` take a whole list of
:class:`~repro.engine.query.Query` objects for one user, letting models
amortize window and feature state across positions (a
:class:`~repro.engine.session.ScoringSession` walk, or TS-PPR's
occurrence-index feature fill). :meth:`score_batch` is
the one scoring method a model implements; the single-query
:meth:`score` / :meth:`recommend` are one-query wrappers over it, and
no bundled model overrides them. The seed's per-query kernels live on
only as test oracles (``tests/scoring_oracles.py``), which the
equivalence suite compares with every ``score_batch`` bit for bit.

Scores are "higher means more likely to be the reconsumption at ``t``";
ranking takes the deterministic top-k (candidate order breaks ties, and
candidates are always passed in sorted item order by the evaluation
protocol, so runs are reproducible).
"""

from __future__ import annotations

import warnings
from abc import ABC, abstractmethod
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.config import WindowConfig
from repro.data.sequence import ConsumptionSequence
from repro.data.split import SplitDataset
from repro.engine.query import Query
from repro.exceptions import EvaluationError, ModelError, NotFittedError
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.faults import FaultInjector

__all__ = [
    "MAX_FIT_WORKERS",
    "Query",
    "Recommender",
    "rank_top_k",
]

#: The largest (deprecated, ignored) ``fit_workers`` :meth:`Recommender.fit` accepts.
MAX_FIT_WORKERS = 256


def rank_top_k(
    candidates: Sequence[int],
    scores: np.ndarray,
    k: int,
    owner: str = "rank_top_k received",
) -> List[int]:
    """Deterministic top-``k``: stable argsort on negated scores.

    Candidate order breaks ties, exactly as :meth:`Recommender._rank`
    always did — this is the single tie-breaking rule shared by every
    model and by the serving layer's deadline-fallback path.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape[0] != len(candidates):
        raise EvaluationError(
            f"{owner} {scores.shape[0]} scores "
            f"for {len(candidates)} candidates"
        )
    k = min(k, len(candidates))
    order = np.argsort(-scores, kind="stable")[:k]
    return [int(candidates[int(i)]) for i in order]


class Recommender(ABC):
    """Base class for RRC recommenders."""

    #: Display name used in result tables; subclasses must override.
    name: str = ""

    #: Whether scoring is a pure function of ``(sequence, candidates, t)``.
    #: Models that consume RNG state while scoring (e.g. the Random
    #: baseline) must set this False; the parallel evaluation path only
    #: shards users across processes for deterministic models, because a
    #: per-worker copy of mutable scoring state would change results.
    deterministic: bool = True

    def __init__(self) -> None:
        self._fitted = False
        self._window_config: Optional[WindowConfig] = None
        self._checkpoint_manager: Optional[CheckpointManager] = None
        self._fault_injector: Optional[FaultInjector] = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        split: SplitDataset,
        window: Optional[WindowConfig] = None,
        *,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 1,
        fault_injector: Optional[FaultInjector] = None,
        fit_workers: Optional[int] = None,
    ) -> "Recommender":
        """Fit on the training prefixes of ``split``.

        Subclasses implement :meth:`_fit`; this wrapper records the
        window configuration and the fitted flag.

        Parameters
        ----------
        checkpoint_dir:
            When given, SGD-trained models snapshot their training
            state here every ``checkpoint_every`` convergence checks
            and transparently resume a partial run found in the
            directory, producing bit-identical results to an
            uninterrupted fit. Models without an SGD loop ignore it.
        fault_injector:
            Test hook killing training/persistence at scheduled points
            (see :mod:`repro.resilience.faults`).
        fit_workers:
            Deprecated and without effect: training is single-process
            (the feature cache is a column pass, not a worker pool). A
            value outside ``[1, MAX_FIT_WORKERS]`` still raises
            :class:`~repro.exceptions.ModelError`, and any value other
            than 1 emits a :class:`DeprecationWarning`.
        """
        window = window or WindowConfig()
        fit_workers = 1 if fit_workers is None else fit_workers
        if not 1 <= fit_workers <= MAX_FIT_WORKERS:
            raise ModelError(
                f"fit_workers must be in [1, {MAX_FIT_WORKERS}], got {fit_workers}"
            )
        if fit_workers != 1:
            warnings.warn(
                "fit_workers has no effect: training runs in one process",
                DeprecationWarning,
                stacklevel=2,
            )
        self._window_config = window
        self._fault_injector = fault_injector
        self._checkpoint_manager = None
        if checkpoint_dir is not None:
            self._checkpoint_manager = CheckpointManager(
                checkpoint_dir,
                every_n_checks=checkpoint_every,
                fault_injector=fault_injector,
            )
        self._fit(split, window)
        self._fitted = True
        return self

    @abstractmethod
    def _fit(self, split: SplitDataset, window: WindowConfig) -> None:
        """Model-specific training. Must only read training prefixes."""

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    @property
    def window_config(self) -> WindowConfig:
        if self._window_config is None:
            raise NotFittedError(f"{type(self).__name__} used before fit")
        return self._window_config

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} used before fit")

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score(
        self,
        sequence: ConsumptionSequence,
        candidates: Sequence[int],
        t: int,
    ) -> np.ndarray:
        """Preference scores for ``candidates`` at position ``t``.

        ``sequence`` is the user's *full* sequence; only positions
        ``< t`` are consulted. A one-query batch through
        :meth:`score_batch`.
        """
        return self.score_batch(
            sequence, (Query(t=t, candidates=tuple(candidates)),)
        )[0]

    @abstractmethod
    def score_batch(
        self,
        sequence: ConsumptionSequence,
        queries: Sequence[Query],
    ) -> List[np.ndarray]:
        """Score many queries of one user; one score array per query.

        This is the one scoring path: implementations build window or
        feature state once per batch instead of once per query — a
        :class:`~repro.engine.session.ScoringSession` walk (Recency,
        DYRC, FPMC) or one occurrence-index column pass over every
        query's candidates (TS-PPR, via
        :class:`~repro.engine.features.SessionFeatureMatrix`). Scores
        must not depend on how queries are batched or ordered: a query
        scores the same alone, in any batch and at any position in it
        (a model that draws from an RNG while scoring, like Random,
        draws the same stream either way). Queries may arrive in any
        ``t`` order (walking kernels visit them time-sorted and restore
        input order); the evaluation protocol always sends them
        ascending.
        """

    # ------------------------------------------------------------------
    # Recommendation
    # ------------------------------------------------------------------
    def recommend(
        self,
        sequence: ConsumptionSequence,
        candidates: Sequence[int],
        t: int,
        k: int,
    ) -> List[int]:
        """The top-``k`` candidates by score — a one-query batch.

        Ties are broken by candidate order, which the evaluation protocol
        fixes to ascending item index — so results are deterministic.
        """
        return self.recommend_batch(
            sequence, (Query(t=t, candidates=tuple(candidates)),), k
        )[0]

    def recommend_batch(
        self,
        sequence: ConsumptionSequence,
        queries: Sequence[Query],
        k: int,
    ) -> List[List[int]]:
        """Top-``k`` lists for many queries of one user, in input order.

        Empty-candidate queries yield empty lists without being scored,
        matching the single-query contract.
        """
        self._check_fitted()
        if k <= 0:
            raise EvaluationError(f"k must be positive, got {k}")
        queries = list(queries)
        scorable = [query for query in queries if query.candidates]
        scores_list = self.score_batch(sequence, scorable) if scorable else []
        ranked: List[List[int]] = []
        by_query = iter(scores_list)
        for query in queries:
            if not query.candidates:
                ranked.append([])
                continue
            ranked.append(self._rank(query.candidates, next(by_query), k))
        return ranked

    def _rank(
        self,
        candidates: Sequence[int],
        scores: np.ndarray,
        k: int,
    ) -> List[int]:
        """Deterministic top-``k`` from one query's scores."""
        return rank_top_k(
            candidates, scores, k, owner=f"{type(self).__name__}.score returned"
        )

    def __repr__(self) -> str:
        state = "fitted" if self._fitted else "unfitted"
        return f"{type(self).__name__}(name={self.name!r}, {state})"
