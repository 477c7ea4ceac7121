"""Column passes over the occurrence index against the seed's walks.

The reconsumption ratio, the quadruple sampler and the feature cache are
whole-array passes over :class:`repro.windows.occurrences.OccurrenceIndex`;
the seed's per-event versions live in ``tests/training_oracles.py``. On
random small splits — boundaries down to 1, tiny vocabularies (so
adjacent repeats and anchors with at most ``S`` eligible items are
common), Ω = 0, both recency kinds, a custom extractor, the novel
sampler's quadruples and hand-made anchors at t = 0 with never-consumed
items — each pass must equal its oracle array for array.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import WindowConfig
from repro.data.dataset import Dataset
from repro.data.split import SplitDataset
from repro.exceptions import FeatureError, SamplingError
from repro.features.base import FeatureExtractor
from repro.features.cache import QuadrupleFeatureCache
from repro.features.dynamic import DynamicFamiliarityFeature, RecencyFeature
from repro.features.static import (
    ItemQualityFeature,
    ReconsumptionRatioFeature,
    compute_reconsumption_ratio,
)
from repro.features.vectorizer import BehavioralFeatureModel
from repro.novel.sampling import sample_novel_quadruples
from repro.sampling.quadruples import QuadrupleSet, sample_quadruples
from repro.windows.occurrences import OccurrenceIndex
from repro.windows.window import window_before
from training_oracles import (
    build_reference,
    reconsumption_ratio_reference,
    sample_quadruples_reference,
)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def splits(draw):
    """A split over a small vocabulary with one spare, never-consumed item."""
    n_items = draw(st.integers(1, 7))
    sequences = draw(
        st.lists(
            st.lists(st.integers(0, n_items - 1), min_size=1, max_size=30),
            min_size=1,
            max_size=5,
        )
    )
    boundaries = tuple(
        draw(st.integers(1, len(sequence))) for sequence in sequences
    )
    dataset = Dataset.from_user_items(sequences, n_items=n_items + 1)
    return SplitDataset(dataset, boundaries)


@st.composite
def windows(draw):
    """``|W|`` and ``Ω`` as the sampler reads them, Ω = 0 included."""
    window_size = draw(st.integers(1, 8))
    min_gap = draw(st.integers(0, window_size - 1))
    return SimpleNamespace(window_size=window_size, min_gap=min_gap)


class PrefixShare(FeatureExtractor):
    """A custom feature with no column form: the build calls ``value``."""

    name = "prefix_share"

    def fit(self, train_dataset, window):
        return self

    def value(self, sequence, item, t, window):
        return (sequence.count_before(item, t) + len(window)) / (t + 2)


def feature_model(split, window_size, recency_kind, custom):
    extractors = [
        ItemQualityFeature(),
        ReconsumptionRatioFeature(),
        RecencyFeature(recency_kind),
        DynamicFamiliarityFeature(),
    ]
    if custom:
        extractors.append(PrefixShare())
    window = WindowConfig(window_size=window_size + 1, min_gap=1)
    return BehavioralFeatureModel(extractors=extractors).fit(
        split.train_dataset(), window
    )


def assert_same_quadruples(column, reference):
    for name in ("users", "positives", "negatives", "times"):
        array = getattr(column, name)
        assert array.dtype == np.int64
        assert np.array_equal(array, getattr(reference, name)), name
    assert list(column.per_user) == list(reference.per_user)
    for user, rows in reference.per_user.items():
        assert np.array_equal(column.per_user[user], rows)


def assert_same_cache(quadruples, split, model):
    column = QuadrupleFeatureCache.build(quadruples, split, model)
    reference = build_reference(quadruples, split, model)
    assert np.array_equal(column.positive, reference.positive)
    assert np.array_equal(column.negative, reference.negative)


def sample_or_none(sampler, split, window, n_negatives, seed):
    try:
        return sampler(split, window, n_negatives, random_state=seed)
    except SamplingError:
        return None


class TestAgainstSeedOracles:
    @SETTINGS
    @given(split=splits(), window_size=st.integers(1, 8))
    def test_reconsumption_ratio(self, split, window_size):
        for dataset in (split.train_dataset(), split.dataset):
            assert np.array_equal(
                compute_reconsumption_ratio(dataset, window_size),
                reconsumption_ratio_reference(dataset, window_size),
            )

    @SETTINGS
    @given(
        split=splits(),
        window=windows(),
        n_negatives=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_sample_quadruples(self, split, window, n_negatives, seed):
        column = sample_or_none(
            sample_quadruples, split, window, n_negatives, seed
        )
        reference = sample_or_none(
            sample_quadruples_reference, split, window, n_negatives, seed
        )
        assert (column is None) == (reference is None)
        if column is not None:
            assert_same_quadruples(column, reference)

    @SETTINGS
    @given(
        split=splits(),
        window=windows(),
        n_negatives=st.integers(1, 5),
        recency_kind=st.sampled_from(["hyperbolic", "exponential"]),
        custom=st.booleans(),
    )
    def test_build_on_sampled_quadruples(
        self, split, window, n_negatives, recency_kind, custom
    ):
        model = feature_model(split, window.window_size, recency_kind, custom)
        for sampler in (sample_quadruples, sample_novel_quadruples):
            quadruples = sample_or_none(sampler, split, window, n_negatives, 5)
            if quadruples is not None:
                assert_same_cache(quadruples, split, model)

    @SETTINGS
    @given(
        split=splits(),
        window_size=st.integers(1, 8),
        recency_kind=st.sampled_from(["hyperbolic", "exponential"]),
        custom=st.booleans(),
        data=st.data(),
    )
    def test_build_on_any_anchor(
        self, split, window_size, recency_kind, custom, data
    ):
        # Anchors anywhere in [0, len]: t = 0, past the boundary, and
        # the spare item nobody consumed as either role.
        rows = data.draw(
            st.lists(
                st.integers(0, split.n_users - 1).flatmap(
                    lambda user: st.tuples(
                        st.just(user),
                        st.integers(0, split.n_items - 1),
                        st.integers(0, split.n_items - 1),
                        st.integers(0, len(split.full_sequence(user))),
                    )
                ),
                min_size=1,
                max_size=25,
            )
        )
        users, positives, negatives, times = (
            np.array(column, dtype=np.int64) for column in zip(*rows)
        )
        quadruples = QuadrupleSet(
            users=users, positives=positives, negatives=negatives,
            times=times, per_user={},
        )
        model = feature_model(split, window_size, recency_kind, custom)
        assert_same_cache(quadruples, split, model)

    def test_out_of_vocabulary_item_raises(self):
        split = SplitDataset(Dataset.from_user_items([[0, 1, 0, 1]]), (3,))
        model = feature_model(split, 3, "hyperbolic", custom=False)
        quadruples = QuadrupleSet(
            users=np.array([0]), positives=np.array([0]),
            negatives=np.array([split.n_items]), times=np.array([2]),
            per_user={0: np.array([0])},
        )
        with pytest.raises(FeatureError, match="outside fitted vocabulary"):
            build_reference(quadruples, split, model)
        with pytest.raises(FeatureError, match="outside fitted vocabulary"):
            QuadrupleFeatureCache.build(quadruples, split, model)


class TestOccurrenceIndex:
    @SETTINGS
    @given(split=splits(), window_size=st.integers(1, 8), data=st.data())
    def test_last_and_count_match_the_sequence(self, split, window_size, data):
        sequences = [split.full_sequence(u) for u in range(split.n_users)]
        index = OccurrenceIndex([sequence.items for sequence in sequences])
        user = data.draw(st.integers(0, split.n_users - 1))
        sequence = sequences[user]
        items = np.arange(-1, split.n_items + 2)
        times = np.array(
            [data.draw(st.integers(0, len(sequence))) for _ in items]
        )
        last, count = index.last_and_count(
            np.full(items.size, user), items, times, window_size
        )
        for item, t, got_last, got_count in zip(items, times, last, count):
            assert got_last == sequence.last_position_before(int(item), int(t))
            window = window_before(sequence, int(t), window_size)
            assert got_count == window.count(int(item))

    def test_prev_and_next_link_each_users_occurrences(self):
        index = OccurrenceIndex([np.array([3, 3, 1, 3]), np.array([1, 3])])
        assert index.prev.tolist() == [-1, 0, -1, 1, -1, -1]
        assert index.next.tolist()[:3] == [1, 3, np.iinfo(np.int32).max]
        assert index.owners(np.arange(6)).tolist() == [0, 0, 0, 0, 1, 1]
