"""Tests for repro.config."""

import dataclasses

import pytest

from repro.config import (
    FEATURE_NAMES,
    EvaluationConfig,
    SplitConfig,
    TSPPRConfig,
    WindowConfig,
    gowalla_default_config,
    lastfm_default_config,
    normalize_top_ns,
)


class TestWindowConfig:
    def test_defaults_match_paper(self):
        config = WindowConfig()
        assert config.window_size == 100
        assert config.min_gap == 10

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError, match="window_size"):
            WindowConfig(window_size=0)

    def test_rejects_min_gap_at_least_window(self):
        with pytest.raises(ValueError, match="min_gap"):
            WindowConfig(window_size=10, min_gap=10)

    def test_rejects_zero_min_gap(self):
        with pytest.raises(ValueError, match="min_gap"):
            WindowConfig(window_size=10, min_gap=0)

    def test_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            WindowConfig().window_size = 5  # type: ignore[misc]


class TestTSPPRConfig:
    def test_table4_defaults(self):
        config = TSPPRConfig()
        assert config.n_factors == 40
        assert config.n_negative_samples == 10
        assert config.feature_names == FEATURE_NAMES

    def test_n_features_tracks_feature_names(self):
        config = TSPPRConfig(feature_names=("recency", "item_quality"))
        assert config.n_features == 2

    def test_rejects_unknown_feature(self):
        with pytest.raises(ValueError, match="unknown feature"):
            TSPPRConfig(feature_names=("not_a_feature",))

    def test_rejects_empty_features(self):
        with pytest.raises(ValueError, match="at least one"):
            TSPPRConfig(feature_names=())

    def test_rejects_bad_recency_kind(self):
        with pytest.raises(ValueError, match="recency_kind"):
            TSPPRConfig(recency_kind="linear")

    def test_rejects_negative_regularization(self):
        with pytest.raises(ValueError, match="non-negative"):
            TSPPRConfig(lambda_mapping=-0.1)

    def test_rejects_bad_batch_fraction(self):
        with pytest.raises(ValueError, match="batch_fraction"):
            TSPPRConfig(batch_fraction=0.0)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"max_epochs": 0}, "max_epochs"),
            ({"max_epochs": -5}, "max_epochs"),
            ({"convergence_tol": 0.0}, "convergence_tol"),
            ({"convergence_tol": -1.0}, "convergence_tol"),
            ({"init_scale_latent": -0.1}, "initialization scales"),
            ({"init_scale_mapping": -0.1}, "initialization scales"),
        ],
        ids=["max-epochs-zero", "max-epochs-negative", "tol-zero",
             "tol-negative", "latent-scale-negative", "mapping-scale-negative"],
    )
    def test_rejects_bad_budget_or_scale(self, overrides, message):
        # Caught at construction, not deep inside fit after sampling
        # and the feature cache have already run.
        with pytest.raises(ValueError, match=message):
            TSPPRConfig(**overrides)

    def test_zero_init_scale_allowed(self):
        config = TSPPRConfig(init_scale_latent=0.0, init_scale_mapping=0.0)
        assert config.init_scale_latent == 0.0

    def test_with_overrides_returns_new_instance(self):
        base = TSPPRConfig()
        changed = base.with_overrides(n_factors=8)
        assert changed.n_factors == 8
        assert base.n_factors == 40

    @pytest.mark.parametrize(
        "factory, lam, gamma",
        [
            (gowalla_default_config, 0.01, 0.05),
            (lastfm_default_config, 0.001, 0.1),
        ],
    )
    def test_dataset_defaults_match_table4(self, factory, lam, gamma):
        config = factory()
        assert config.lambda_mapping == pytest.approx(lam)
        assert config.gamma_latent == pytest.approx(gamma)
        assert config.n_factors == 40
        assert config.n_negative_samples == 10

    def test_dataset_defaults_accept_overrides(self):
        config = gowalla_default_config(n_factors=16)
        assert config.n_factors == 16
        assert config.lambda_mapping == pytest.approx(0.01)


class TestSplitConfig:
    def test_defaults_match_paper(self):
        config = SplitConfig()
        assert config.train_fraction == pytest.approx(0.7)
        assert config.min_train_length == 100

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_bad_fraction(self, fraction):
        with pytest.raises(ValueError, match="train_fraction"):
            SplitConfig(train_fraction=fraction)


class TestEvaluationConfig:
    def test_default_cutoffs(self):
        assert EvaluationConfig().top_ns == (1, 5, 10)

    def test_rejects_empty_cutoffs(self):
        with pytest.raises(ValueError, match="top_ns"):
            EvaluationConfig(top_ns=())

    def test_rejects_nonpositive_cutoffs(self):
        with pytest.raises(ValueError, match="top_ns"):
            EvaluationConfig(top_ns=(0, 5))


class TestNormalizeTopNs:
    def test_sorts_and_dedupes(self):
        assert normalize_top_ns([10, 1, 5, 5]) == (1, 5, 10)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            normalize_top_ns([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            normalize_top_ns([0, 3])
