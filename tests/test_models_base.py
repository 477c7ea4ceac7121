"""Tests for repro.models.base and the simple baselines."""

import warnings

import numpy as np
import pytest

from scoring_oracles import score_with_exp

from repro.config import WindowConfig
from repro.data.sequence import ConsumptionSequence
from repro.exceptions import EvaluationError, ModelError, NotFittedError
from repro.models.base import Recommender
from repro.models.pop import PopRecommender
from repro.models.random_rec import RandomRecommender
from repro.models.recency import RecencyRecommender


class ConstantScorer(Recommender):
    """Test double: scores equal to the candidate item index."""

    name = "Constant"

    def _fit(self, split, window):
        pass

    def score_batch(self, sequence, queries):
        return [np.asarray(q.candidates, dtype=float) for q in queries]


class BrokenScorer(Recommender):
    name = "Broken"

    def _fit(self, split, window):
        pass

    def score_batch(self, sequence, queries):
        return [np.zeros(len(q.candidates) + 1) for q in queries]


class TestRecommenderBase:
    def test_recommend_before_fit_raises(self, tiny_split):
        model = ConstantScorer()
        sequence = tiny_split.full_sequence(0)
        with pytest.raises(NotFittedError):
            model.recommend(sequence, [0, 1], 3, 2)

    def test_recommend_orders_by_score(self, tiny_split):
        model = ConstantScorer().fit(tiny_split)
        sequence = tiny_split.full_sequence(0)
        assert model.recommend(sequence, [2, 5, 1], 3, 3) == [5, 2, 1]

    def test_recommend_truncates_to_k(self, tiny_split):
        model = ConstantScorer().fit(tiny_split)
        sequence = tiny_split.full_sequence(0)
        assert model.recommend(sequence, [2, 5, 1], 3, 2) == [5, 2]

    def test_k_larger_than_candidates(self, tiny_split):
        model = ConstantScorer().fit(tiny_split)
        sequence = tiny_split.full_sequence(0)
        assert model.recommend(sequence, [1], 3, 10) == [1]

    def test_empty_candidates(self, tiny_split):
        model = ConstantScorer().fit(tiny_split)
        assert model.recommend(tiny_split.full_sequence(0), [], 3, 5) == []

    def test_nonpositive_k_rejected(self, tiny_split):
        model = ConstantScorer().fit(tiny_split)
        with pytest.raises(EvaluationError, match="k must be positive"):
            model.recommend(tiny_split.full_sequence(0), [1], 3, 0)

    def test_fit_workers_defaults_to_one_and_takes_the_callers(self, tiny_split):
        # fit_workers is deprecated: 1 (or None) fits silently, any other
        # in-range value still fits but warns that it has no effect.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ConstantScorer().fit(tiny_split).is_fitted
            assert ConstantScorer().fit(tiny_split, fit_workers=1).is_fitted
        with pytest.warns(DeprecationWarning, match="no effect"):
            model = ConstantScorer().fit(tiny_split, fit_workers=3)
        assert model.is_fitted

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize("fit_workers", [1, 256])
    def test_fit_workers_bounds_accepted(self, tiny_split, fit_workers):
        model = ConstantScorer().fit(tiny_split, fit_workers=fit_workers)
        assert model.is_fitted

    @pytest.mark.parametrize("fit_workers", [0, 257])
    def test_fit_workers_out_of_range_rejected(self, tiny_split, fit_workers):
        model = ConstantScorer()
        with pytest.raises(ModelError, match="^fit_workers must be in"):
            model.fit(tiny_split, fit_workers=fit_workers)
        assert not model.is_fitted

    def test_tie_break_is_candidate_order(self, tiny_split):
        class AllEqual(ConstantScorer):
            def score_batch(self, sequence, queries):
                return [np.zeros(len(q.candidates)) for q in queries]

        model = AllEqual().fit(tiny_split)
        sequence = tiny_split.full_sequence(0)
        assert model.recommend(sequence, [4, 2, 7], 3, 3) == [4, 2, 7]

    def test_score_length_mismatch_detected(self, tiny_split):
        model = BrokenScorer().fit(tiny_split)
        with pytest.raises(EvaluationError, match="scores"):
            model.recommend(tiny_split.full_sequence(0), [1, 2], 3, 2)

    def test_window_config_recorded(self, tiny_split):
        window = WindowConfig(window_size=20, min_gap=3)
        model = ConstantScorer().fit(tiny_split, window)
        assert model.window_config is window


class TestRandomRecommender:
    def test_deterministic_given_seed(self, tiny_split):
        sequence = tiny_split.full_sequence(0)
        first = RandomRecommender(random_state=3).fit(tiny_split)
        second = RandomRecommender(random_state=3).fit(tiny_split)
        assert first.recommend(sequence, [0, 1, 2], 3, 3) == second.recommend(
            sequence, [0, 1, 2], 3, 3
        )

    def test_produces_permutations(self, tiny_split):
        model = RandomRecommender(random_state=1).fit(tiny_split)
        sequence = tiny_split.full_sequence(0)
        seen = {
            tuple(model.recommend(sequence, [0, 1, 2], 3, 3)) for _ in range(50)
        }
        assert len(seen) > 1
        for permutation in seen:
            assert sorted(permutation) == [0, 1, 2]


class TestPopRecommender:
    def test_ranks_by_training_frequency(self, tiny_split):
        model = PopRecommender().fit(tiny_split)
        sequence = tiny_split.full_sequence(0)
        # Training halves: u0=[0,1,0], u1=[3,4,3], u2=[5,5,5], u3=[0,1,2].
        # freq: 0->3, 1->2, 3->2, 5->3, 4->1, 2->1.
        assert model.recommend(sequence, [0, 1, 4], 3, 3) == [0, 1, 4]
        assert model.recommend(sequence, [4, 5], 3, 2) == [5, 4]

    def test_does_not_see_test_data(self, tiny_split):
        model = PopRecommender().fit(tiny_split)
        # Item 2 appears once in training (user 3 prefix); its extra
        # occurrence in user 0's test suffix must not count.
        scores = model.score(tiny_split.full_sequence(0), [2, 4], 3)
        assert scores[0] == pytest.approx(scores[1])  # both ln(2)

    def test_out_of_vocab_candidate_rejected(self, tiny_split):
        model = PopRecommender().fit(tiny_split)
        with pytest.raises(EvaluationError, match="vocabulary"):
            model.score(tiny_split.full_sequence(0), [999], 3)


class TestRecencyRecommender:
    def test_more_recent_scores_higher(self, tiny_split):
        model = RecencyRecommender().fit(tiny_split)
        sequence = ConsumptionSequence(0, [7, 3, 5])
        scores = model.score(sequence, [7, 3, 5], 3)
        assert scores[2] > scores[1] > scores[0]

    def test_never_consumed_ranks_last(self, tiny_split):
        model = RecencyRecommender().fit(tiny_split)
        sequence = ConsumptionSequence(0, [7, 3])
        ranked = model.recommend(sequence, [9, 7], 2, 2)
        assert ranked == [7, 9]

    def test_weight_matches_paper_formula(self):
        assert RecencyRecommender.weight(3) == pytest.approx(np.exp(-3))
        with pytest.raises(ValueError):
            RecencyRecommender.weight(0)

    def test_exp_scores_monotone_with_fast_scores(self, tiny_split):
        model = RecencyRecommender().fit(tiny_split)
        sequence = ConsumptionSequence(0, [1, 2, 3, 1, 2])
        fast = model.score(sequence, [1, 2, 3], 5)
        literal = score_with_exp(model, sequence, [1, 2, 3], 5)
        assert np.argsort(fast).tolist() == np.argsort(literal).tolist()
