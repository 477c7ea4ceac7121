"""The batch-scoring engine.

The seed evaluation walk answered one ``(user, t)`` query at a time,
rebuilding the window, the Ω-filter, and every behavioural feature from
scratch per query. This package holds the machinery that removes that
per-query cost while staying *bit-identical* to the per-query reference
path:

* :class:`~repro.engine.query.Query` — the unit of the batch-scoring
  API: one ``(t, candidates, truth)`` scoring request.
* :class:`~repro.engine.session.ScoringSession` — a forward walk over
  one user's sequence maintaining the window multiset, the Ω-recency
  multiset, and per-item last-occurrence state with O(1) updates per
  step.
* :class:`~repro.engine.features.SessionFeatureMatrix` — vectorized
  construction of the behavioural feature matrix ``f_uvt`` from session
  state, reproducing each extractor's scalar arithmetic exactly.

Models consume these through
:meth:`repro.models.base.Recommender.score_batch`; the evaluation
protocol (:mod:`repro.evaluation.protocol`) builds the queries and can
shard users across a process pool (``workers=N``).
"""

from repro.engine.query import Query, iter_queries_in_order
from repro.engine.session import (
    ScoringSession,
    fingerprint_history,
    fingerprint_state,
)
from repro.engine.features import SessionFeatureMatrix, fast_fillers

__all__ = [
    "Query",
    "ScoringSession",
    "SessionFeatureMatrix",
    "fast_fillers",
    "fingerprint_history",
    "fingerprint_state",
    "iter_queries_in_order",
]
