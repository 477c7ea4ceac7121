"""The seed's per-query scoring kernels, kept as test oracles.

Every model ships one scoring path: its ``score_batch`` session kernel
(``Recommender.score`` is a one-query wrapper over it). This module
keeps the seed's per-query version of each kernel, which rebuilds the
window state from scratch for one ``(sequence, candidates, t)`` query.
Each oracle takes the fitted model first and reads its parameters:

* :func:`pop_score` / :func:`novel_pop_score` — popularity gather, and
  the novel variant's demotion of consumed candidates;
* :func:`random_score` — one uniform draw per candidate;
* :func:`recency_score` — negated gap via binary search, and
  :func:`score_with_exp`, the paper's literal ``e^{−Δt}`` weights;
* :func:`dyrc_score` — quality plus recency-rank weights over a
  ``window_before`` rebuild;
* :func:`survival_score` — the candidate-filtered O(t) history scan;
* :func:`ppr_score`, :func:`fpmc_score`, :func:`tsppr_score` — the
  latent-factor products over a ``window_before`` rebuild.

:func:`score_reference` dispatches on the model's class, so the
equivalence suite can compare any bundled model with its oracle.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.data.sequence import ConsumptionSequence
from repro.models.base import Recommender
from repro.models.dyrc import DYRCRecommender, recency_ranks
from repro.models.fpmc import FPMCRecommender
from repro.models.pop import PopRecommender
from repro.models.ppr import PPRRecommender
from repro.models.random_rec import RandomRecommender
from repro.models.recency import RecencyRecommender
from repro.models.survival import SurvivalRecommender
from repro.models.tsppr import TSPPRRecommender
from repro.novel.models import NovelPopRecommender
from repro.survival.datasets import return_covariates, weighted_average_gap
from repro.windows.window import window_before


def pop_score(
    model: PopRecommender,
    sequence: ConsumptionSequence,
    candidates: Sequence[int],
    t: int,
) -> np.ndarray:
    model._check_fitted()
    return model._gather(np.asarray(candidates, dtype=np.int64))


def novel_pop_score(
    model: NovelPopRecommender,
    sequence: ConsumptionSequence,
    candidates: Sequence[int],
    t: int,
) -> np.ndarray:
    scores = pop_score(model, sequence, candidates, t)
    consumed = set(sequence.items[:t].tolist())
    demoted = scores.copy()
    for index, item in enumerate(candidates):
        if int(item) in consumed:
            demoted[index] = -np.inf
    return demoted


def random_score(
    model: RandomRecommender,
    sequence: ConsumptionSequence,
    candidates: Sequence[int],
    t: int,
) -> np.ndarray:
    model._check_fitted()
    return model._rng.random(len(candidates))


def recency_score(
    model: RecencyRecommender,
    sequence: ConsumptionSequence,
    candidates: Sequence[int],
    t: int,
) -> np.ndarray:
    model._check_fitted()
    scores = np.empty(len(candidates), dtype=np.float64)
    for index, item in enumerate(candidates):
        last = sequence.last_position_before(int(item), t)
        # -inf for never-consumed keeps them strictly below any repeat.
        scores[index] = -(t - last) if last >= 0 else -np.inf
    return scores


def score_with_exp(
    model: RecencyRecommender,
    sequence: ConsumptionSequence,
    candidates: Sequence[int],
    t: int,
) -> np.ndarray:
    """Literal ``e^{−Δt}`` scores (0 for a never-consumed candidate)."""
    model._check_fitted()
    scores = np.empty(len(candidates), dtype=np.float64)
    for index, item in enumerate(candidates):
        last = sequence.last_position_before(int(item), t)
        scores[index] = np.exp(-(t - last)) if last >= 0 else 0.0
    return scores


def dyrc_score(
    model: DYRCRecommender,
    sequence: ConsumptionSequence,
    candidates: Sequence[int],
    t: int,
) -> np.ndarray:
    model._check_fitted()
    assert model._quality is not None
    assert model.rank_weights_ is not None
    view = window_before(sequence, t, model.window_config.window_size)
    items = np.asarray(candidates, dtype=np.int64)
    ranks = recency_ranks(view, candidates)
    ranks = np.minimum(ranks, model.rank_weights_.size - 1)
    return model.quality_weight_ * model._quality[items] + model.rank_weights_[ranks]


def survival_score(
    model: SurvivalRecommender,
    sequence: ConsumptionSequence,
    candidates: Sequence[int],
    t: int,
) -> np.ndarray:
    model._check_fitted()
    assert model.cox_ is not None

    # Full online pass over the user's history: per-candidate return
    # gaps, last occurrence and consumption count before t.
    wanted = {int(v) for v in candidates}
    last_seen: Dict[int, int] = {}
    counts: Dict[int, int] = {}
    gaps: Dict[int, List[float]] = {}
    history = sequence.items[:t].tolist()
    for position, item in enumerate(history):
        if item in wanted:
            previous = last_seen.get(item)
            if previous is not None:
                gaps.setdefault(item, []).append(float(position - previous))
            last_seen[item] = position
            counts[item] = counts.get(item, 0) + 1

    n = len(candidates)
    covariates = np.empty((n, 2), dtype=np.float64)
    elapsed = np.empty(n, dtype=np.float64)
    for row, item in enumerate(candidates):
        item = int(item)
        count = counts.get(item, 0)
        covariates[row] = return_covariates(
            weighted_average_gap(gaps.get(item, [])), max(count, 1)
        )
        if count:
            elapsed[row] = float(t - last_seen[item])
        else:
            elapsed[row] = float(t if t > 0 else 1)
    if model.mode == "hazard":
        return model.cox_.expected_return_score(elapsed, covariates)
    expected = model.cox_.expected_return_time(covariates)
    return -np.abs(expected - elapsed)


def ppr_score(
    model: PPRRecommender,
    sequence: ConsumptionSequence,
    candidates: Sequence[int],
    t: int,
) -> np.ndarray:
    model._check_fitted()
    assert model.user_factors_ is not None
    assert model.item_factors_ is not None
    items = np.asarray(candidates, dtype=np.int64)
    return model.item_factors_[items] @ model.user_factors_[sequence.user]


def fpmc_score(
    model: FPMCRecommender,
    sequence: ConsumptionSequence,
    candidates: Sequence[int],
    t: int,
) -> np.ndarray:
    model._check_fitted()
    assert model.user_factors_ is not None
    assert model.item_user_factors_ is not None
    assert model.item_basket_factors_ is not None
    assert model.basket_item_factors_ is not None
    window = window_before(sequence, t, model.window_config.window_size)
    basket = np.asarray(window.distinct_items(), dtype=np.int64)
    items = np.asarray(candidates, dtype=np.int64)
    if basket.size:
        eta = model.basket_item_factors_[basket].mean(axis=0)
        scores = model.item_basket_factors_[items] @ eta
    else:
        scores = np.zeros(items.size)
    if model.use_user_term:
        scores = scores + (
            model.item_user_factors_[items] @ model.user_factors_[sequence.user]
        )
    return scores


def tsppr_score(
    model: TSPPRRecommender,
    sequence: ConsumptionSequence,
    candidates: Sequence[int],
    t: int,
) -> np.ndarray:
    model._check_fitted()
    assert model.user_factors_ is not None
    assert model.item_factors_ is not None
    user = sequence.user
    u_vec = model.user_factors_[user]
    A_u = model._mapping_of(user)

    window = window_before(sequence, t, model.window_config.window_size)
    features = model.feature_model.matrix(sequence, candidates, t, window)
    mapped = features @ A_u.T  # (n, K)
    scores = mapped @ u_vec
    if model.config.use_static_term:
        items = np.asarray(candidates, dtype=np.int64)
        scores = scores + model.item_factors_[items] @ u_vec
    return scores


#: Oracle per model class; subclasses (the novel TS-PPR) inherit theirs.
ORACLES: Dict[type, Callable[..., np.ndarray]] = {
    NovelPopRecommender: novel_pop_score,
    PopRecommender: pop_score,
    RandomRecommender: random_score,
    RecencyRecommender: recency_score,
    DYRCRecommender: dyrc_score,
    SurvivalRecommender: survival_score,
    PPRRecommender: ppr_score,
    FPMCRecommender: fpmc_score,
    TSPPRRecommender: tsppr_score,
}


def score_reference(
    model: Recommender,
    sequence: ConsumptionSequence,
    candidates: Sequence[int],
    t: int,
) -> np.ndarray:
    """The seed per-query scores of ``model``'s nearest oracled class."""
    for cls in type(model).__mro__:
        if cls in ORACLES:
            return ORACLES[cls](model, sequence, candidates, t)
    raise TypeError(f"no scoring oracle for {type(model).__name__}")
