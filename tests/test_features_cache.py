"""Tests for repro.features.cache."""

import numpy as np
import pytest

from repro.config import WindowConfig
from repro.exceptions import SamplingError
from repro.features.cache import QuadrupleFeatureCache
from repro.features.vectorizer import BehavioralFeatureModel
from repro.sampling.quadruples import sample_quadruples
from training_oracles import build_reference

WINDOW = WindowConfig(window_size=10, min_gap=2)


class TestValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(SamplingError, match="same shape"):
            QuadrupleFeatureCache(np.zeros((3, 4)), np.zeros((2, 4)))

    def test_non_2d_rejected(self):
        with pytest.raises(SamplingError, match="2-D"):
            QuadrupleFeatureCache(np.zeros(3), np.zeros(3))

    def test_difference(self):
        cache = QuadrupleFeatureCache(
            np.array([[1.0, 2.0]]), np.array([[0.5, 1.0]])
        )
        assert np.allclose(cache.difference(0), [0.5, 1.0])
        assert np.allclose(cache.differences(), [[0.5, 1.0]])
        assert len(cache) == 1
        assert cache.n_features == 2


class TestBuild:
    def test_matches_direct_extraction(self):
        from repro.config import SplitConfig
        from repro.data.dataset import Dataset
        from repro.data.split import temporal_split

        dataset = Dataset.from_user_items(
            [[0, 1, 2, 3] * 6, [4, 5, 4, 6] * 6], name="cyclic"
        )
        split = temporal_split(
            dataset, SplitConfig(train_fraction=0.75, min_train_length=1)
        )
        model = BehavioralFeatureModel().fit(split.train_dataset(), WINDOW)
        quadruples = sample_quadruples(split, WINDOW, n_negatives=2, random_state=1)
        cache = QuadrupleFeatureCache.build(quadruples, split, model)
        assert len(cache) == len(quadruples)
        for index in range(len(quadruples)):
            user, positive, negative, t = quadruples.row(index)
            sequence = split.full_sequence(user)
            assert np.allclose(
                cache.positive[index], model.vector(sequence, positive, t)
            )
            assert np.allclose(
                cache.negative[index], model.vector(sequence, negative, t)
            )

    def test_build_bit_identical_to_reference(self, gowalla_split):
        # The column-pass build is a pure perf path: exact equality with
        # the seed's per-anchor extraction, not allclose.
        model = BehavioralFeatureModel().fit(gowalla_split.train_dataset(), WINDOW)
        quadruples = sample_quadruples(
            gowalla_split, WINDOW, n_negatives=3, random_state=5
        )
        fast = QuadrupleFeatureCache.build(quadruples, gowalla_split, model)
        reference = build_reference(quadruples, gowalla_split, model)
        assert np.array_equal(fast.positive, reference.positive)
        assert np.array_equal(fast.negative, reference.negative)

    def test_realistic_build(self, gowalla_split):
        window = WindowConfig()
        model = BehavioralFeatureModel().fit(gowalla_split.train_dataset(), window)
        quadruples = sample_quadruples(
            gowalla_split, window, n_negatives=3, random_state=7
        )
        cache = QuadrupleFeatureCache.build(quadruples, gowalla_split, model)
        assert cache.positive.shape == (len(quadruples), 4)
        assert np.all(np.isfinite(cache.positive))
        assert np.all(np.isfinite(cache.negative))
        # Positives were reconsumed; on average their features should
        # exceed the negatives' (that is the whole premise of Fig 4).
        assert cache.differences().mean() > 0
