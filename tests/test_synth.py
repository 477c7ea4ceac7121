"""Tests for repro.synth — generators must produce the regimes they claim."""

import numpy as np
import pytest

from repro.data.loaders import load_event_log
from repro.exceptions import DataError
from repro.synth.base import SyntheticConfig, generate_dataset
from repro.synth.copying import (
    most_recent_beyond_gap,
    repeat_weights,
    simulate_user_sequence,
)
from repro.synth.gowalla import GOWALLA_PRESET, generate_gowalla
from repro.synth.lastfm import LASTFM_PRESET, generate_lastfm, write_lastfm_event_log
from repro.synth.popularity import ZipfPopularity


def per_user_repeat_ratio(dataset, window_size: int = 100) -> np.ndarray:
    """Fraction of each user's consumptions (after the first) whose item
    occurs in the preceding ``window_size`` consumptions."""
    ratios = np.zeros(dataset.n_users, dtype=np.float64)
    for sequence in dataset:
        items = sequence.items.tolist()
        if len(items) < 2:
            continue
        repeats = sum(
            items[t] in items[max(0, t - window_size):t]
            for t in range(1, len(items))
        )
        ratios[sequence.user] = repeats / (len(items) - 1)
    return ratios


class TestZipfPopularity:
    def test_probabilities_sum_to_one(self):
        zipf = ZipfPopularity(100, 1.0)
        assert zipf.probabilities.sum() == pytest.approx(1.0)

    def test_rank_order(self):
        zipf = ZipfPopularity(50, 1.2)
        assert np.all(np.diff(zipf.probabilities) < 0)

    def test_zero_exponent_is_uniform(self):
        zipf = ZipfPopularity(10, 0.0)
        assert np.allclose(zipf.probabilities, 0.1)

    def test_sample_within_bounds_and_biased(self, rng):
        zipf = ZipfPopularity(20, 1.5)
        samples = zipf.sample(5000, rng)
        assert samples.min() >= 0 and samples.max() < 20
        counts = np.bincount(samples, minlength=20)
        assert counts[0] > counts[10]

    def test_sample_distinct(self, rng):
        zipf = ZipfPopularity(30, 1.0)
        items = zipf.sample_distinct(10, rng)
        assert len(set(items.tolist())) == 10
        assert items.min() >= 0 and items.max() < 30

    def test_sample_distinct_full_universe(self, rng):
        zipf = ZipfPopularity(5, 2.0)
        items = zipf.sample_distinct(5, rng)
        assert sorted(items.tolist()) == [0, 1, 2, 3, 4]

    def test_sample_distinct_too_many(self, rng):
        with pytest.raises(DataError):
            ZipfPopularity(3).sample_distinct(4, rng)

    def test_validation(self):
        with pytest.raises(DataError):
            ZipfPopularity(0)
        with pytest.raises(DataError):
            ZipfPopularity(5, -1.0)


class TestRepeatWeights:
    def test_empty_history(self):
        items, weights = repeat_weights([], 10, 1.0, 1.0)
        assert items == [] and weights.size == 0

    def test_frequency_and_recency_effects(self):
        history = [1, 1, 1, 2]
        items, weights = repeat_weights(history, 10, 1.0, 0.0)
        by_item = dict(zip(items, weights))
        assert by_item[1] == pytest.approx(3.0)  # count^1
        assert by_item[2] == pytest.approx(1.0)

        items, weights = repeat_weights(history, 10, 0.0, 1.0)
        by_item = dict(zip(items, weights))
        assert by_item[2] == pytest.approx(1.0)       # gap 1
        assert by_item[1] == pytest.approx(1.0 / 2.0)  # gap 2

    def test_memory_span_limits(self):
        history = [5, 1, 1]
        items, _ = repeat_weights(history, 2, 1.0, 1.0)
        assert items == [1]

    def test_affinity_multiplies(self):
        history = [1, 2]
        _, base = repeat_weights(history, 10, 1.0, 0.0)
        _, boosted = repeat_weights(history, 10, 1.0, 0.0, {1: 10.0})
        assert boosted[0] == pytest.approx(10.0 * base[0])


class TestMostRecentBeyondGap:
    def test_finds_resumable_item(self):
        #          t: 0  1  2  3
        history = [7, 8, 9, 8]
        # min_gap 2 excludes items in the last 2 steps: {9, 8}.
        assert most_recent_beyond_gap(history, 10, 2) == 7

    def test_none_when_everything_recent(self):
        assert most_recent_beyond_gap([1, 2], 10, 5) is None

    def test_memory_span_respected(self):
        history = [7] + [1, 2] * 5
        # min_gap=2 excludes both alternating items -> nothing resumable
        # inside the 4-step memory (7 is too old to be remembered).
        assert most_recent_beyond_gap(history, 4, 2) is None
        # min_gap=1 only excludes the very last item (2); the most
        # recent eligible in-memory item is 1.
        assert most_recent_beyond_gap(history, 4, 1) == 1


class TestSimulateUserSequence:
    def test_deterministic(self, rng):
        catalog = np.arange(10)
        weights = np.ones(10)
        kwargs = dict(
            length=50, catalog=catalog, catalog_weights=weights,
            p_explore=0.5, memory_span=20,
            frequency_exponent=1.0, recency_exponent=1.0,
        )
        a = simulate_user_sequence(random_state=5, **kwargs)
        b = simulate_user_sequence(random_state=5, **kwargs)
        assert np.array_equal(a, b)

    def test_items_come_from_catalog(self):
        catalog = np.array([3, 7, 11])
        sequence = simulate_user_sequence(
            length=100, catalog=catalog, catalog_weights=np.ones(3),
            p_explore=0.4, memory_span=10,
            frequency_exponent=1.0, recency_exponent=1.0, random_state=1,
        )
        assert set(sequence.tolist()) <= {3, 7, 11}

    def test_zero_explore_repeats_only_first_item(self):
        sequence = simulate_user_sequence(
            length=30, catalog=np.arange(5), catalog_weights=np.ones(5),
            p_explore=0.0, memory_span=10,
            frequency_exponent=1.0, recency_exponent=1.0, random_state=2,
        )
        assert len(set(sequence.tolist())) == 1

    def test_validation(self):
        with pytest.raises(DataError):
            simulate_user_sequence(
                length=0, catalog=np.arange(3), catalog_weights=np.ones(3),
                p_explore=0.5, memory_span=5,
                frequency_exponent=1.0, recency_exponent=1.0,
            )
        with pytest.raises(DataError):
            simulate_user_sequence(
                length=5, catalog=np.arange(3), catalog_weights=np.ones(2),
                p_explore=0.5, memory_span=5,
                frequency_exponent=1.0, recency_exponent=1.0,
            )
        with pytest.raises(DataError):
            simulate_user_sequence(
                length=5, catalog=np.arange(3), catalog_weights=np.ones(3),
                p_explore=1.5, memory_span=5,
                frequency_exponent=1.0, recency_exponent=1.0,
            )

    def test_drift_changes_sequence(self):
        kwargs = dict(
            length=200, catalog=np.arange(20),
            catalog_weights=np.ones(20), p_explore=0.4, memory_span=30,
            frequency_exponent=1.0, recency_exponent=1.0,
            affinity_strength=1.0, random_state=4,
        )
        static = simulate_user_sequence(**kwargs)
        drifting = simulate_user_sequence(drift_interval=20, **kwargs)
        assert not np.array_equal(static, drifting)


class TestGeneratorRegimes:
    def test_generate_dataset_deterministic(self):
        config = SyntheticConfig(name="t", n_users=4, n_items=200,
                                 sequence_length_range=(50, 80),
                                 catalog_size_range=(10, 20))
        a = generate_dataset(config, random_state=7)
        b = generate_dataset(config, random_state=7)
        for u in range(4):
            assert a.sequence(u) == b.sequence(u)

    def test_lastfm_repeat_rate_near_77_percent(self, lastfm_dataset):
        ratios = per_user_repeat_ratio(lastfm_dataset, window_size=100)
        assert 0.6 < ratios.mean() < 0.9

    def test_gowalla_repeat_rate_moderate(self, gowalla_dataset):
        ratios = per_user_repeat_ratio(gowalla_dataset, window_size=100)
        assert 0.4 < ratios.mean() < 0.9

    def test_scaling_factors(self):
        small = generate_gowalla(random_state=1, user_factor=0.1)
        assert small.n_users == max(2, int(GOWALLA_PRESET.n_users * 0.1))

    def test_lastfm_preset_name(self, lastfm_dataset):
        assert lastfm_dataset.name == "Lastfm-like"

    def test_event_log_round_trip_with_skip_filter(self, tmp_path):
        dataset = generate_lastfm(random_state=3, user_factor=0.05,
                                  length_factor=0.2)
        path = tmp_path / "listens.tsv"
        n_rows = write_lastfm_event_log(path, dataset, skip_fraction=0.2,
                                        random_state=9)
        assert n_rows > dataset.n_consumptions()  # skips were injected
        reloaded = load_event_log(path, min_duration=30.0)
        assert reloaded.n_consumptions() == dataset.n_consumptions()
        # Sequences match after the sub-30s dislikes are filtered out.
        for user_id in reloaded.user_vocab:
            new_user = reloaded.user_vocab.index_of(user_id)
            old_user = dataset.user_vocab.index_of(int(user_id))
            new_items = [
                reloaded.item_vocab.id_of(i) for i in reloaded.sequence(new_user)
            ]
            old_items = [
                str(dataset.item_vocab.id_of(i))
                for i in dataset.sequence(old_user)
            ]
            assert new_items == old_items
