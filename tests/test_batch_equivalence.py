"""Bit-identity guarantees of the batch-scoring engine.

Four contracts:

* ``score_batch`` returns exactly what the seed's per-query kernels
  (``tests/scoring_oracles.py``) return, for every bundled model
  (``np.array_equal``, not ``allclose``);
* a query's scores do not depend on how it is batched: the full batch,
  a one-query batch and the ``score`` wrapper agree, in any ``t`` order,
  and no model ships a second ``score`` path;
* the query-driven evaluation walk produces the same ``UserCounts`` as a
  seed-style per-position ``recommend`` loop;
* ``evaluate_recommender(workers=4)`` returns the same
  ``AccuracyResult`` as ``workers=1``.
"""

from __future__ import annotations

import importlib
import pkgutil
import warnings

import numpy as np
import pytest

from conftest import SMALL_WINDOW
from scoring_oracles import random_score, score_reference

import repro
from repro.config import EvaluationConfig, TSPPRConfig
from repro.data.split import SplitDataset
from repro.engine import Query
from repro.evaluation.metrics import UserCounts
from repro.evaluation.protocol import (
    collect_queries,
    evaluate_recommender,
    evaluate_user,
)
from repro.models.base import Recommender
from repro.models.dyrc import DYRCRecommender
from repro.models.fpmc import FPMCRecommender
from repro.models.pop import PopRecommender
from repro.models.ppr import PPRRecommender
from repro.models.random_rec import RandomRecommender
from repro.models.recency import RecencyRecommender
from repro.models.survival import SurvivalRecommender
from repro.models.tsppr import TSPPRRecommender
from repro.novel.models import NovelPopRecommender
from repro.windows.repeat import iter_evaluation_positions

#: Training budget small enough for per-module fits of the learned models.
QUICK = TSPPRConfig(max_epochs=3000, seed=3)

#: Every bundled model: ``name -> (factory, users compared)``.
BUNDLED = {
    "pop": (lambda: PopRecommender(), 4),
    "novel_pop": (lambda: NovelPopRecommender(), 3),
    "random": (lambda: RandomRecommender(random_state=123), 1),
    "recency": (lambda: RecencyRecommender(), 4),
    "dyrc": (lambda: DYRCRecommender(n_iterations=25), 4),
    "survival": (lambda: SurvivalRecommender(), 4),
    "survival_hazard": (lambda: SurvivalRecommender(mode="hazard"), 2),
    "ppr": (lambda: PPRRecommender(QUICK), 4),
    "fpmc": (lambda: FPMCRecommender(QUICK), 4),
    "fpmc_user_term": (
        lambda: FPMCRecommender(QUICK, use_user_term=True),
        2,
    ),
    "tsppr_hyperbolic": (
        lambda: TSPPRRecommender(
            QUICK.with_overrides(recency_kind="hyperbolic")
        ),
        3,
    ),
    "tsppr_exponential": (
        lambda: TSPPRRecommender(
            QUICK.with_overrides(recency_kind="exponential")
        ),
        3,
    ),
}


@pytest.fixture(scope="module")
def fitted(gowalla_split):
    """``fitted(name)``: the bundled model fitted once per module.

    Random is fitted afresh on every call: scoring consumes its RNG, so
    each caller needs its own stream from the same seed.
    """
    cache = {}

    def get(name: str) -> Recommender:
        if name == "random" or name not in cache:
            cache[name] = BUNDLED[name][0]().fit(gowalla_split, SMALL_WINDOW)
        return cache[name]

    return get


def _user_queries(split: SplitDataset, user: int):
    return collect_queries(
        split.full_sequence(user),
        split.train_boundary(user),
        SMALL_WINDOW.window_size,
        SMALL_WINDOW.min_gap,
        user=user,
    )


def assert_batch_matches_oracle(
    model: Recommender, split: SplitDataset, n_users: int = 4
) -> int:
    """Assert bit-identity on every evaluation query of the first users.

    Returns the number of queries compared so callers can require
    non-trivial coverage.
    """
    compared = 0
    for user in range(min(n_users, split.n_users)):
        sequence = split.full_sequence(user)
        queries = _user_queries(split, user)
        if not queries:
            continue
        batched = model.score_batch(sequence, queries)
        assert len(batched) == len(queries)
        for query, scores in zip(queries, batched):
            reference = score_reference(
                model, sequence, list(query.candidates), query.t
            )
            np.testing.assert_array_equal(
                scores,
                reference,
                err_msg=f"{type(model).__name__} diverges at t={query.t}",
            )
            compared += 1
    assert compared > 0, "no evaluation queries found — test is vacuous"
    return compared


class TestScoreBatchEquivalence:
    def test_pop(self, fitted, gowalla_split):
        assert_batch_matches_oracle(fitted("pop"), gowalla_split)

    def test_recency(self, fitted, gowalla_split):
        assert_batch_matches_oracle(fitted("recency"), gowalla_split)

    def test_dyrc(self, fitted, gowalla_split):
        assert_batch_matches_oracle(fitted("dyrc"), gowalla_split)

    def test_survival(self, fitted, gowalla_split):
        assert_batch_matches_oracle(fitted("survival"), gowalla_split)

    def test_survival_hazard_mode(self, fitted, gowalla_split):
        assert_batch_matches_oracle(
            fitted("survival_hazard"), gowalla_split, n_users=2
        )

    def test_ppr(self, fitted, gowalla_split):
        assert_batch_matches_oracle(fitted("ppr"), gowalla_split)

    def test_fpmc(self, fitted, gowalla_split):
        assert_batch_matches_oracle(fitted("fpmc"), gowalla_split)

    def test_fpmc_with_user_term(self, fitted, gowalla_split):
        assert_batch_matches_oracle(
            fitted("fpmc_user_term"), gowalla_split, n_users=2
        )

    @pytest.mark.parametrize("recency_kind", ["hyperbolic", "exponential"])
    def test_tsppr(self, fitted, gowalla_split, recency_kind):
        assert_batch_matches_oracle(
            fitted(f"tsppr_{recency_kind}"), gowalla_split, n_users=3
        )

    def test_novel_pop_keeps_demotion(self, fitted, gowalla_split):
        model = fitted("novel_pop")
        compared = assert_batch_matches_oracle(model, gowalla_split, n_users=3)
        for user in range(3):
            sequence = gowalla_split.full_sequence(user)
            queries = _user_queries(gowalla_split, user)
            # RRC candidates are always already consumed, so the novel
            # model must have demoted all of them.
            for scores in model.score_batch(sequence, queries):
                assert np.all(np.isneginf(scores))
        assert compared > 0

    def test_random_draws_identical_stream(self, fitted, gowalla_split):
        sequence = gowalla_split.full_sequence(0)
        queries = _user_queries(gowalla_split, 0)
        assert queries
        reference = fitted("random")
        expected = [
            random_score(reference, sequence, list(q.candidates), q.t)
            for q in queries
        ]
        actual = fitted("random").score_batch(sequence, queries)
        for left, right in zip(expected, actual):
            np.testing.assert_array_equal(left, right)

    def test_out_of_order_queries_return_input_order(
        self, fitted, gowalla_split
    ):
        model = fitted("recency")
        sequence = gowalla_split.full_sequence(0)
        queries = _user_queries(gowalla_split, 0)
        assert len(queries) >= 2
        shuffled = list(reversed(queries))
        batched = model.score_batch(sequence, shuffled)
        for query, scores in zip(shuffled, batched):
            reference = score_reference(
                model, sequence, list(query.candidates), query.t
            )
            np.testing.assert_array_equal(scores, reference)


class TestBatchComposition:
    """A query scores the same alone, in a batch, and through ``score``."""

    @pytest.mark.parametrize("order", ["ascending", "shuffled"])
    @pytest.mark.parametrize("name", sorted(BUNDLED))
    def test_scores_do_not_depend_on_batching(
        self, fitted, gowalla_split, name, order
    ):
        # Three handles: one per path. Deterministic models share the
        # cached fit; Random gets three equal-seeded streams.
        whole, alone, wrapped = fitted(name), fitted(name), fitted(name)
        compared = 0
        for user in range(BUNDLED[name][1]):
            sequence = gowalla_split.full_sequence(user)
            queries = _user_queries(gowalla_split, user)
            if order == "shuffled":
                before = [query.t for query in queries]
                np.random.default_rng(user).shuffle(queries)
                assert len(queries) < 3 or before != [q.t for q in queries]
            for query, scores in zip(
                queries, whole.score_batch(sequence, queries)
            ):
                single = alone.score_batch(sequence, [query])[0]
                wrapper = wrapped.score(sequence, query.candidates, query.t)
                assert np.array_equal(scores, single), (name, query.t)
                assert np.array_equal(scores, wrapper), (name, query.t)
                compared += 1
        assert compared > 0


def _repro_recommenders():
    """Every ``Recommender`` subclass defined in a ``repro`` module."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    found, stack = [], [Recommender]
    while stack:
        for subclass in stack.pop().__subclasses__():
            stack.append(subclass)
            if subclass.__module__.split(".")[0] == "repro":
                found.append(subclass)
    return found


class TestOneScoringPath:
    def test_no_model_overrides_score(self):
        classes = _repro_recommenders()
        assert {cls.__name__ for cls in classes} >= {
            "PopRecommender",
            "NovelPopRecommender",
            "RandomRecommender",
            "RecencyRecommender",
            "DYRCRecommender",
            "SurvivalRecommender",
            "PPRRecommender",
            "FPMCRecommender",
            "TSPPRRecommender",
            "NovelTSPPRRecommender",
        }
        overriding = sorted(
            f"{cls.__module__}.{cls.__qualname__}.{method}"
            for cls in classes
            for method in ("score", "score_with_exp")
            if method in vars(cls)
        )
        assert overriding == []


class TestRecommendBatch:
    def test_matches_single_query_wrapper(self, gowalla_split):
        model = PopRecommender().fit(gowalla_split, SMALL_WINDOW)
        sequence = gowalla_split.full_sequence(0)
        queries = _user_queries(gowalla_split, 0)
        batched = model.recommend_batch(sequence, queries, 5)
        for query, ranked in zip(queries, batched):
            assert ranked == model.recommend(
                sequence, list(query.candidates), query.t, 5
            )

    def test_empty_candidates_yield_empty_list(self, gowalla_split):
        model = PopRecommender().fit(gowalla_split, SMALL_WINDOW)
        sequence = gowalla_split.full_sequence(0)
        queries = [Query(t=2, candidates=()), Query(t=3, candidates=(0, 1))]
        ranked = model.recommend_batch(sequence, queries, 5)
        assert ranked[0] == []
        assert len(ranked[1]) == 2


class TestDeprecationBoundary:
    """``score_batch`` is the one scoring method a model must implement."""

    def test_bundled_models_do_not_warn(self, gowalla_split):
        sequence = gowalla_split.full_sequence(0)
        queries = _user_queries(gowalla_split, 0)[:3]
        assert queries
        models = [
            PopRecommender(),
            RecencyRecommender(),
            RandomRecommender(random_state=1),
            SurvivalRecommender(),
            DYRCRecommender(n_iterations=5),
            NovelPopRecommender(),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for model in models:
                model.fit(gowalla_split, SMALL_WINDOW)
                model.score_batch(sequence, queries)

    def test_neither_method_overridden_raises(self):
        class Hollow(Recommender):
            name = "hollow"

            def _fit(self, split, window):
                return

        class ScoreOnly(Hollow):
            def score(self, sequence, candidates, t):
                return np.zeros(len(candidates))

        for cls in (Hollow, ScoreOnly):
            with pytest.raises(TypeError, match="score_batch"):
                cls()


class TestEvaluationEquivalence:
    def _seed_style_counts(
        self, model, split, user, top_ns, window_size, min_gap
    ) -> UserCounts:
        """The pre-engine evaluation loop, verbatim."""
        max_n = max(top_ns)
        sequence = split.full_sequence(user)
        boundary = split.train_boundary(user)
        n_targets = 0
        hits = {top_n: 0 for top_n in top_ns}
        for t, candidates in iter_evaluation_positions(
            sequence, boundary, window_size, min_gap
        ):
            truth = int(sequence[t])
            ranked = model.recommend(sequence, candidates, t, max_n)
            n_targets += 1
            try:
                position = ranked.index(truth)
            except ValueError:
                continue
            for top_n in top_ns:
                if position < top_n:
                    hits[top_n] += 1
        return UserCounts(n_targets=n_targets, hits=hits)

    def test_engine_walk_matches_seed_walk(self, gowalla_split):
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        top_ns = (1, 5, 10)
        for user in range(min(5, gowalla_split.n_users)):
            expected = self._seed_style_counts(
                model,
                gowalla_split,
                user,
                top_ns,
                SMALL_WINDOW.window_size,
                SMALL_WINDOW.min_gap,
            )
            actual = evaluate_user(
                model,
                gowalla_split,
                user,
                top_ns,
                SMALL_WINDOW.window_size,
                SMALL_WINDOW.min_gap,
            )
            assert actual.n_targets == expected.n_targets
            assert dict(actual.hits) == dict(expected.hits)

    @pytest.mark.parametrize(
        "make_model",
        [
            lambda: RecencyRecommender(),
            lambda: PopRecommender(),
            lambda: DYRCRecommender(n_iterations=10),
        ],
        ids=["recency", "pop", "dyrc"],
    )
    def test_parallel_workers_bit_identical(self, gowalla_split, make_model):
        model = make_model().fit(gowalla_split, SMALL_WINDOW)
        config = EvaluationConfig(window=SMALL_WINDOW)
        sequential = evaluate_recommender(model, gowalla_split, config)
        parallel = evaluate_recommender(
            model, gowalla_split, config, workers=4
        )
        assert parallel == sequential

    def test_parallel_tsppr_bit_identical(self, fitted_tsppr, gowalla_split):
        sequential = evaluate_recommender(fitted_tsppr, gowalla_split)
        parallel = evaluate_recommender(fitted_tsppr, gowalla_split, workers=4)
        assert parallel == sequential

    def test_nondeterministic_model_falls_back_sequential(self, gowalla_split):
        config = EvaluationConfig(window=SMALL_WINDOW)
        sequential = evaluate_recommender(
            RandomRecommender(random_state=7).fit(gowalla_split, SMALL_WINDOW),
            gowalla_split,
            config,
        )
        parallel_requested = evaluate_recommender(
            RandomRecommender(random_state=7).fit(gowalla_split, SMALL_WINDOW),
            gowalla_split,
            config,
            workers=4,
        )
        # Falls back to the sequential path, so the RNG stream — and the
        # result — are identical.
        assert parallel_requested == sequential
