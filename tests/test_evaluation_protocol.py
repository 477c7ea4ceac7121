"""Tests for repro.evaluation.protocol and timing."""

import numpy as np
import pytest

from repro.config import EvaluationConfig, SplitConfig, WindowConfig
from repro.data.dataset import Dataset
from repro.data.split import temporal_split
from repro.evaluation.protocol import evaluate_recommender, evaluate_user
from repro.evaluation.timing import collect_timing_instances, time_recommender
from repro.exceptions import EvaluationError
from repro.models.base import Recommender
from repro.models.pop import PopRecommender
from repro.windows.repeat import iter_evaluation_positions


class OracleRecommender(Recommender):
    """Test double that always ranks the true next item first."""

    name = "Oracle"

    def _fit(self, split, window):
        pass

    def score_batch(self, sequence, queries):
        return [
            np.array(
                [1.0 if c == int(sequence[q.t]) else 0.0 for c in q.candidates]
            )
            for q in queries
        ]


class AntiOracleRecommender(OracleRecommender):
    """Always ranks the true item last."""

    name = "AntiOracle"

    def score_batch(self, sequence, queries):
        return [-scores for scores in super().score_batch(sequence, queries)]


@pytest.fixture()
def cyclic_split():
    # Cycles of period 6 over 6 items: every position beyond t=5 is a
    # valid target with gap 6 (window 10, Ω=2 -> eligible).
    dataset = Dataset.from_user_items(
        [list(range(6)) * 10, list(range(6, 12)) * 10], name="cyclic"
    )
    return temporal_split(
        dataset, SplitConfig(train_fraction=0.7, min_train_length=1)
    )


SMALL_EVAL = EvaluationConfig(
    top_ns=(1, 3), window=WindowConfig(window_size=10, min_gap=2)
)


class TestEvaluateUser:
    def test_oracle_has_perfect_precision(self, cyclic_split):
        model = OracleRecommender().fit(cyclic_split, SMALL_EVAL.window)
        counts = evaluate_user(
            model, cyclic_split, 0, SMALL_EVAL.top_ns,
            SMALL_EVAL.window.window_size, SMALL_EVAL.window.min_gap,
        )
        assert counts.n_targets > 0
        assert counts.hits[1] == counts.n_targets

    def test_anti_oracle_misses_at_1(self, cyclic_split):
        model = AntiOracleRecommender().fit(cyclic_split, SMALL_EVAL.window)
        counts = evaluate_user(
            model, cyclic_split, 0, (1,),
            SMALL_EVAL.window.window_size, SMALL_EVAL.window.min_gap,
        )
        assert counts.hits[1] == 0

    def test_target_count_matches_protocol(self, cyclic_split):
        model = OracleRecommender().fit(cyclic_split, SMALL_EVAL.window)
        counts = evaluate_user(
            model, cyclic_split, 0, (1,),
            SMALL_EVAL.window.window_size, SMALL_EVAL.window.min_gap,
        )
        expected = sum(
            1
            for _ in iter_evaluation_positions(
                cyclic_split.full_sequence(0),
                cyclic_split.train_boundary(0),
                SMALL_EVAL.window.window_size,
                SMALL_EVAL.window.min_gap,
            )
        )
        assert counts.n_targets == expected

    def test_target_filter_excludes_positions(self, cyclic_split):
        model = OracleRecommender().fit(cyclic_split, SMALL_EVAL.window)
        unfiltered = evaluate_user(
            model, cyclic_split, 0, (1,), 10, 2,
        )
        filtered = evaluate_user(
            model, cyclic_split, 0, (1,), 10, 2,
            target_filter=lambda user, t: t % 2 == 0,
        )
        assert 0 < filtered.n_targets < unfiltered.n_targets


class TestEvaluateRecommender:
    def test_oracle_scores_one(self, cyclic_split):
        model = OracleRecommender().fit(cyclic_split, SMALL_EVAL.window)
        result = evaluate_recommender(model, cyclic_split, SMALL_EVAL)
        assert result.maap[1] == pytest.approx(1.0)
        assert result.miap[1] == pytest.approx(1.0)

    def test_hits_monotone_in_cutoff(self, gowalla_split):
        model = PopRecommender().fit(gowalla_split)
        result = evaluate_recommender(model, gowalla_split)
        assert result.maap[1] <= result.maap[5] <= result.maap[10]
        assert result.miap[1] <= result.miap[5] <= result.miap[10]

    def test_results_are_deterministic(self, gowalla_split):
        model = PopRecommender().fit(gowalla_split)
        a = evaluate_recommender(model, gowalla_split)
        b = evaluate_recommender(model, gowalla_split)
        assert a.maap == b.maap


class TestTiming:
    def test_collect_instances_round_robin(self, cyclic_split):
        instances = collect_timing_instances(
            cyclic_split, SMALL_EVAL, max_instances=10
        )
        assert len(instances) == 10
        # Round-robin: the first two instances come from different users.
        assert instances[0][0] != instances[1][0]

    def test_time_recommender_reports_positive_ms(self, cyclic_split):
        model = PopRecommender().fit(cyclic_split, SMALL_EVAL.window)
        instances = collect_timing_instances(
            cyclic_split, SMALL_EVAL, max_instances=20
        )
        timing = time_recommender(
            model, cyclic_split, instances=instances, n_trials=2
        )
        assert timing.mean_ms > 0
        assert timing.n_instances == 20
        assert timing.n_trials == 2
        assert timing.method == "Pop"

    def test_no_instances_raises(self):
        dataset = Dataset.from_user_items([[0, 1, 2, 3]], n_items=4)
        split = temporal_split(
            dataset, SplitConfig(train_fraction=0.7, min_train_length=1)
        )
        with pytest.raises(EvaluationError):
            collect_timing_instances(split, SMALL_EVAL)
