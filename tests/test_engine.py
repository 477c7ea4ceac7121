"""The scoring engine against the reference window helpers.

Every accessor of :class:`ScoringSession` is asserted equal, position by
position, to the from-scratch computations in :mod:`repro.windows`, and
:class:`SessionFeatureMatrix` (the shared occurrence-index filler) must
reproduce :meth:`BehavioralFeatureModel.matrix` bit-for-bit, feature by
feature.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import WindowConfig
from repro.data.split import SplitDataset
from repro.engine import Query, ScoringSession, SessionFeatureMatrix
from repro.engine.query import as_queries, iter_queries_in_order
from repro.evaluation.protocol import collect_queries
from repro.exceptions import DataError, EvaluationError
from repro.features.vectorizer import BehavioralFeatureModel
from repro.windows.repeat import (
    candidate_items,
    is_valid_target,
    iter_evaluation_positions,
    recent_items,
)
from repro.windows.window import window_before

from conftest import SMALL_WINDOW


class TestQuery:
    def test_coerces_candidates_to_tuple(self):
        query = Query(t=3, candidates=[4, 1, 2])
        assert query.candidates == (4, 1, 2)
        assert len(query) == 3

    def test_rejects_negative_position(self):
        with pytest.raises(EvaluationError, match="position"):
            Query(t=-1, candidates=(0,))

    def test_as_queries_wraps_pairs(self):
        queries = as_queries([(5, [1, 2]), (9, [3])])
        assert [q.t for q in queries] == [5, 9]
        assert queries[0].candidates == (1, 2)
        assert queries[0].truth is None

    def test_iter_queries_in_order_is_stable(self):
        queries = [
            Query(t=7, candidates=(1,)),
            Query(t=2, candidates=(2,)),
            Query(t=7, candidates=(3,)),
        ]
        visited = list(iter_queries_in_order(queries))
        assert [index for index, _ in visited] == [1, 0, 2]
        assert [query.t for _, query in visited] == [2, 7, 7]


class TestScoringSession:
    def _reference_state(self, sequence, t, window_size, min_gap):
        window = window_before(sequence, t, window_size)
        return {
            "items": set(window.item_set),
            "candidates": candidate_items(sequence, t, window_size, min_gap),
            "recent": recent_items(sequence, t, min_gap),
        }

    def test_matches_reference_walk(self, gowalla_split: SplitDataset):
        window_size, min_gap = SMALL_WINDOW.window_size, SMALL_WINDOW.min_gap
        for user in range(min(4, gowalla_split.n_users)):
            sequence = gowalla_split.full_sequence(user)
            session = ScoringSession(sequence, window_size, min_gap=min_gap)
            for t in range(len(sequence)):
                session.advance_to(t)
                reference = self._reference_state(
                    sequence, t, window_size, min_gap
                )
                assert set(session.distinct_window_items()) == reference["items"]
                assert session.candidates() == reference["candidates"]
                assert session.is_target() == is_valid_target(
                    sequence, t, window_size, min_gap
                )

    def test_mid_sequence_start_matches_fresh_walk(
        self, gowalla_split: SplitDataset
    ):
        sequence = gowalla_split.full_sequence(0)
        start = len(sequence) // 2
        late = ScoringSession(
            sequence, SMALL_WINDOW.window_size,
            min_gap=SMALL_WINDOW.min_gap, start=start,
        )
        full = ScoringSession(
            sequence, SMALL_WINDOW.window_size, min_gap=SMALL_WINDOW.min_gap
        )
        full.advance_to(start)
        for t in range(start, len(sequence)):
            late.advance_to(t)
            full.advance_to(t)
            assert late.candidates() == full.candidates()
            assert late.is_target() == full.is_target()
            items = np.asarray(sorted(set(sequence.items.tolist())), dtype=np.int64)
            np.testing.assert_array_equal(
                late.last_positions(items), full.last_positions(items)
            )

    def test_last_positions_match_binary_search(self, gowalla_split: SplitDataset):
        sequence = gowalla_split.full_sequence(1)
        session = ScoringSession(sequence, SMALL_WINDOW.window_size)
        all_items = np.asarray(
            sorted(set(sequence.items.tolist())), dtype=np.int64
        )
        for t in range(0, len(sequence), 3):
            session.advance_to(t)
            expected = np.asarray(
                [sequence.last_position_before(int(v), t) for v in all_items],
                dtype=np.int64,
            )
            np.testing.assert_array_equal(
                session.last_positions(all_items), expected
            )

    def test_forward_only(self, gowalla_split: SplitDataset):
        sequence = gowalla_split.full_sequence(0)
        session = ScoringSession(sequence, 10)
        session.advance_to(5)
        with pytest.raises(DataError, match="forward-only"):
            session.advance_to(3)

    def test_cannot_advance_past_end(self, gowalla_split: SplitDataset):
        sequence = gowalla_split.full_sequence(0)
        session = ScoringSession(sequence, 10, start=len(sequence))
        with pytest.raises(DataError, match="advance past"):
            session.advance()

    def test_rejects_bad_construction(self, gowalla_split: SplitDataset):
        sequence = gowalla_split.full_sequence(0)
        with pytest.raises(DataError, match="window_size"):
            ScoringSession(sequence, 0)
        with pytest.raises(DataError, match="min_gap"):
            ScoringSession(sequence, 10, min_gap=-1)
        with pytest.raises(DataError, match="outside"):
            ScoringSession(sequence, 10, start=len(sequence) + 1)


class TestCollectQueries:
    def test_matches_iter_evaluation_positions(self, gowalla_split: SplitDataset):
        window_size, min_gap = SMALL_WINDOW.window_size, SMALL_WINDOW.min_gap
        for user in range(min(6, gowalla_split.n_users)):
            sequence = gowalla_split.full_sequence(user)
            boundary = gowalla_split.train_boundary(user)
            expected = list(
                iter_evaluation_positions(sequence, boundary, window_size, min_gap)
            )
            queries = collect_queries(
                sequence, boundary, window_size, min_gap, user=user
            )
            assert [(q.t, list(q.candidates)) for q in queries] == expected
            for query in queries:
                assert query.truth == int(sequence[query.t])

    def test_target_filter_drops_positions(self, gowalla_split: SplitDataset):
        sequence = gowalla_split.full_sequence(0)
        boundary = gowalla_split.train_boundary(0)
        all_queries = collect_queries(
            sequence, boundary, SMALL_WINDOW.window_size, SMALL_WINDOW.min_gap
        )
        kept = collect_queries(
            sequence,
            boundary,
            SMALL_WINDOW.window_size,
            SMALL_WINDOW.min_gap,
            user=0,
            target_filter=lambda user, t: t % 2 == 0,
        )
        assert [q.t for q in kept] == [q.t for q in all_queries if q.t % 2 == 0]


class TestSessionFeatureMatrix:
    @pytest.fixture(scope="class", params=["hyperbolic", "exponential"])
    def feature_model(self, request, gowalla_split: SplitDataset):
        model = BehavioralFeatureModel(recency_kind=request.param)
        model.fit(gowalla_split.train_dataset(), SMALL_WINDOW)
        return model

    def test_bit_identical_to_reference_matrix(
        self, feature_model: BehavioralFeatureModel, gowalla_split: SplitDataset
    ):
        """Every query's rows, column by column, one fill per user."""
        for user in range(min(3, gowalla_split.n_users)):
            sequence = gowalla_split.full_sequence(user)
            # Every position's seen items, then item 0: not consumed
            # before t, or a duplicate candidate.
            queries = [
                Query(t=t, candidates=sorted(set(sequence.items[:t].tolist())) + [0])
                for t in range(0, len(sequence) + 1, 2)
            ]
            rows = SessionFeatureMatrix(
                feature_model, sequence, SMALL_WINDOW.window_size
            ).matrix(queries)
            assert rows.shape == (
                sum(len(query) for query in queries), feature_model.n_features
            )
            stop = 0
            for query in queries:
                start, stop = stop, stop + len(query)
                reference = feature_model.matrix(
                    sequence, list(query.candidates), query.t
                )
                for column, name in enumerate(feature_model.feature_names):
                    np.testing.assert_array_equal(
                        rows[start:stop, column], reference[:, column],
                        err_msg=f"{name} at t={query.t}",
                    )
