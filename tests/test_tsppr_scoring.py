"""TS-PPR's occurrence-index scoring against the seed's per-query kernel.

``TSPPRRecommender.score_batch`` fills every query's feature rows in one
column pass and keeps each query's products on its own slice of them.
On random sequences — ``t`` anywhere in ``[0, len]``, duplicated and
shuffled ``t``, one-query batches, never-consumed candidates, both
recency kinds, a custom extractor with no column form, a shared mapping
without the static term, a feature model fitted on another window, and
int32 read-only ``ArenaHistoryView`` sequences — every query's scores
must equal ``tests/scoring_oracles.py`` ``tsppr_score``
(``np.array_equal``) and its score as a one-query batch.
A position past the end of the sequence and a candidate outside a table
feature's vocabulary keep their typed errors.

The tier-1 run draws a bounded number of examples; the ``tier2``
variant draws at depth.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scoring_oracles import tsppr_score

from repro.config import TSPPRConfig, WindowConfig
from repro.data.sequence import ConsumptionSequence
from repro.data.split import SplitDataset
from repro.engine import Query
from repro.exceptions import DataError, FeatureError
from repro.features.base import FeatureExtractor
from repro.features.dynamic import RecencyFeature
from repro.features.static import ItemQualityFeature, ReconsumptionRatioFeature
from repro.features.vectorizer import BehavioralFeatureModel
from repro.models.tsppr import TSPPRRecommender
from repro.store.arena import ArenaHistoryView

from conftest import SMALL_WINDOW

SHALLOW = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
DEEP = settings(
    max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Sequences draw from the first few items, so candidates drawn from the
#: whole vocabulary are often never consumed.
SEQUENCE_ITEMS = 8

#: ``name -> (recency kind, custom extractor, shared mapping, feature
#: window)``. A feature model fitted beforehand on another window keeps
#: that window for its tables; scoring still reads the model's window.
VARIANTS = {
    "hyperbolic": ("hyperbolic", False, False, None),
    "exponential": ("exponential", False, False, None),
    "custom": ("hyperbolic", True, False, None),
    "shared-no-static": ("exponential", True, True, None),
    "foreign-window": ("hyperbolic", False, False, WindowConfig(4, 1)),
}


class PrefixShare(FeatureExtractor):
    """A custom feature with no column form: the filler calls ``value``."""

    name = "prefix_share"

    def fit(self, train_dataset, window):
        return self

    def value(self, sequence, item, t, window):
        return (sequence.count_before(item, t) + len(window)) / (t + 2)


@pytest.fixture(scope="module")
def models(gowalla_split: SplitDataset):
    fitted = {}
    for name, (kind, custom, shared, feature_window) in VARIANTS.items():
        config = TSPPRConfig(
            max_epochs=2000,
            seed=3,
            recency_kind=kind,
            share_mapping=shared,
            use_static_term=not shared,
        )
        feature_model = None
        if custom:
            feature_model = BehavioralFeatureModel(
                extractors=[
                    ItemQualityFeature(),
                    ReconsumptionRatioFeature(),
                    RecencyFeature(kind),
                    PrefixShare(),
                ]
            )
        if feature_window is not None:
            feature_model = BehavioralFeatureModel(recency_kind=kind).fit(
                gowalla_split.train_dataset(), feature_window
            )
        model = TSPPRRecommender(config, feature_model=feature_model)
        fitted[name] = model.fit(gowalla_split, SMALL_WINDOW)
    return fitted


@st.composite
def batches(draw, n_users: int, n_items: int):
    """A user's sequence (plain or arena view) and a batch of queries."""
    user = draw(st.integers(0, n_users - 1))
    items = draw(st.lists(st.integers(0, SEQUENCE_ITEMS - 1), max_size=40))
    if draw(st.booleans()):
        raw = np.asarray(items, dtype=np.int32)
        raw.setflags(write=False)
        sequence = ArenaHistoryView(user, raw)
    else:
        sequence = ConsumptionSequence(user, items)
    candidate = st.one_of(
        st.integers(0, SEQUENCE_ITEMS - 1), st.integers(0, n_items - 1)
    )
    times = draw(st.lists(st.integers(0, len(items)), min_size=1, max_size=6))
    # Repeat some positions: equal t must score alike wherever they sit.
    times += draw(st.lists(st.sampled_from(times), max_size=2))
    queries = [
        Query(t=t, candidates=tuple(draw(st.lists(candidate, max_size=8))))
        for t in draw(st.permutations(times))
    ]
    return sequence, queries


def check_against_oracle(model: TSPPRRecommender, sequence, queries) -> None:
    scores = model.score_batch(sequence, queries)
    assert len(scores) == len(queries)
    for query, batched in zip(queries, scores):
        alone = model.score_batch(sequence, [query])[0]
        assert np.array_equal(batched, alone)
        if query.candidates:
            expected = tsppr_score(model, sequence, list(query.candidates), query.t)
        else:
            expected = np.zeros(0, dtype=np.float64)
        assert batched.dtype == np.float64
        assert np.array_equal(batched, expected), (query, batched, expected)


def draw_case(data, models, split: SplitDataset):
    model = models[data.draw(st.sampled_from(sorted(VARIANTS)))]
    sequence, queries = data.draw(batches(split.n_users, split.n_items))
    return model, sequence, queries


@SHALLOW
@given(data=st.data())
def test_matches_oracle(data, models, gowalla_split: SplitDataset):
    check_against_oracle(*draw_case(data, models, gowalla_split))


@pytest.mark.tier2
@DEEP
@given(data=st.data())
def test_matches_oracle_deep(data, models, gowalla_split: SplitDataset):
    check_against_oracle(*draw_case(data, models, gowalla_split))


def test_gowalla_users_match_oracle(models, gowalla_split: SplitDataset):
    """Real sequences with the protocol's queries, every variant."""
    from repro.evaluation.protocol import collect_queries

    for model in models.values():
        for user in range(min(4, gowalla_split.n_users)):
            sequence = gowalla_split.full_sequence(user)
            queries = collect_queries(
                sequence,
                gowalla_split.train_boundary(user),
                SMALL_WINDOW.window_size,
                SMALL_WINDOW.min_gap,
                user=user,
            )
            check_against_oracle(model, sequence, queries)


class TestTypedErrors:
    def test_position_past_the_end_raises_data_error(self, models, gowalla_split):
        sequence = gowalla_split.full_sequence(0)
        model = models["hyperbolic"]
        late = Query(t=len(sequence) + 1, candidates=(0,))
        with pytest.raises(DataError, match="past the end"):
            model.score_batch(sequence, [Query(t=1, candidates=(0,)), late])
        # Even a query with nothing to score is checked.
        with pytest.raises(DataError, match="past the end"):
            model.score_batch(sequence, [Query(t=len(sequence) + 1, candidates=())])

    def test_candidate_outside_vocabulary_raises_feature_error(
        self, models, gowalla_split
    ):
        sequence = gowalla_split.full_sequence(0)
        outside = Query(t=len(sequence), candidates=(0, gowalla_split.n_items))
        for model in models.values():
            with pytest.raises(FeatureError, match="outside fitted vocabulary"):
                model.score_batch(sequence, [outside])
