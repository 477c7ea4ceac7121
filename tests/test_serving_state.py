"""Live-state equivalence: LiveSession must track ScoringSession exactly.

The serving layer's correctness rests on one invariant: after any number
of ``append``ed events, a :class:`LiveSession` holds bit-identical
window/Ω/recency state to a fresh :class:`ScoringSession` built over the
concatenated (base + live) sequence. These tests assert that on the
realistic synthetic split — window multisets, candidates, last
positions, target predicates, and the shared ``state_fingerprint``
digest — including the Ω=0 edge, window overflow, and LRU
eviction→rehydration round-trips through :class:`SessionStore`.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import SMALL_WINDOW

from repro.data.sequence import ConsumptionSequence
from repro.data.split import SplitDataset
from repro.engine.session import ScoringSession
from repro.exceptions import DataError, ServingError
from repro.serving.events import EventLog
from repro.serving.state import LiveSession, SessionStore
from repro.store import StoreSession


def offline_session(items, window_size, min_gap, user=0):
    """A ScoringSession positioned at the end of ``items``."""
    sequence = ConsumptionSequence(user, items)
    return ScoringSession(
        sequence, window_size, min_gap=min_gap, start=len(items)
    )


def assert_state_equal(live: LiveSession, offline: ScoringSession) -> None:
    """Every observable state contract, plus the canonical digest."""
    assert live.t == offline.t
    assert live.window_length() == offline.window_length()
    assert live.window_counts_map() == offline.window_counts_map()
    assert live.candidates() == offline.candidates()
    probe = sorted(set(live.window_counts_map()) | {0, 1, 10_000})
    for item in probe:
        assert live.window_count(item) == offline.window_count(item)
        assert live.last_position(item) == offline.last_position(item)
    np.testing.assert_array_equal(
        live.last_positions(np.array(probe, dtype=np.int64)),
        offline.last_positions(np.array(probe, dtype=np.int64)),
    )
    assert live.state_fingerprint() == offline.state_fingerprint()


class TestLiveSessionEquivalence:
    @pytest.mark.parametrize("min_gap", [0, 2, 5])
    def test_append_matches_fresh_scoring_session(
        self, gowalla_split: SplitDataset, min_gap: int
    ) -> None:
        """After each of N appends, state equals a freshly built session."""
        user = 0
        sequence = gowalla_split.full_sequence(user)
        boundary = gowalla_split.train_boundary(user)
        prefix = gowalla_split.train_sequence(user)
        live = LiveSession(
            user, SMALL_WINDOW.window_size, min_gap, history=prefix
        )
        items = sequence.items.tolist()
        for step, item in enumerate(items[boundary:boundary + 30]):
            position = live.append(item)
            assert position == boundary + step
            offline = offline_session(
                items[: boundary + step + 1],
                SMALL_WINDOW.window_size,
                min_gap,
                user=user,
            )
            assert_state_equal(live, offline)
        assert live.n_live_events == min(30, len(items) - boundary)

    def test_from_empty_history(self) -> None:
        """A cold user built purely from live events."""
        live = LiveSession(7, window_size=4, min_gap=1)
        stream = [3, 1, 3, 2, 3, 1, 1, 4, 3, 2]
        for step, item in enumerate(stream):
            live.append(item)
            assert_state_equal(
                live, offline_session(stream[: step + 1], 4, 1, user=7)
            )

    def test_window_overflow_drops_oldest(self) -> None:
        """Once t exceeds |W| the leaving item must decrement correctly."""
        live = LiveSession(0, window_size=3, min_gap=0)
        for item in [5, 5, 6, 7]:
            live.append(item)
        # Window holds positions 1..3 = [5, 6, 7]; the first 5 left.
        assert live.window_counts_map() == {5: 1, 6: 1, 7: 1}
        live.append(8)  # drops the remaining 5
        assert live.window_counts_map() == {6: 1, 7: 1, 8: 1}
        assert live.candidates() == [6, 7, 8]
        assert_state_equal(
            live, offline_session([5, 5, 6, 7, 8], 3, 0)
        )

    def test_omega_zero_disables_filter(self) -> None:
        """min_gap=0: every distinct window item is a candidate."""
        live = LiveSession(0, window_size=5, min_gap=0)
        for item in [1, 2, 1, 3]:
            live.append(item)
        assert live.candidates() == [1, 2, 3]
        # Just-consumed items stay candidates without the Ω-filter.
        assert 3 in live.candidates()

    def test_omega_filter_excludes_recent(self) -> None:
        live = LiveSession(0, window_size=5, min_gap=2)
        for item in [1, 2, 1, 3]:
            live.append(item)
        # Last 2 steps consumed {1, 3}; only 2 survives the filter.
        assert live.candidates() == [2]

    def test_is_next_target_matches_offline_is_target(
        self, gowalla_split: SplitDataset
    ) -> None:
        """The serving target predicate equals the offline walk's."""
        user = 1
        sequence = gowalla_split.full_sequence(user)
        boundary = gowalla_split.train_boundary(user)
        items = sequence.items.tolist()
        live = LiveSession(
            user,
            SMALL_WINDOW.window_size,
            SMALL_WINDOW.min_gap,
            history=gowalla_split.train_sequence(user),
        )
        offline = ScoringSession(
            sequence,
            SMALL_WINDOW.window_size,
            min_gap=SMALL_WINDOW.min_gap,
            start=boundary,
        )
        n_targets = 0
        for item in items[boundary:]:
            assert live.is_next_target(item) == offline.is_target()
            n_targets += int(offline.is_target())
            live.append(item)
            offline.advance()
        assert n_targets > 0, "fixture produced no repeat targets"

    def test_sequence_materializes_full_history(self) -> None:
        live = LiveSession(3, window_size=4, min_gap=0)
        for item in [9, 8, 9]:
            live.append(item)
        seq = live.sequence()
        assert seq.user == 3
        np.testing.assert_array_equal(seq.items, np.array([9, 8, 9]))
        assert live.sequence() is seq  # cached until the next append
        live.append(7)
        assert live.sequence() is not seq

    def test_validation(self, gowalla_split: SplitDataset) -> None:
        with pytest.raises(DataError, match="window_size"):
            LiveSession(0, window_size=0)
        with pytest.raises(DataError, match="min_gap"):
            LiveSession(0, window_size=5, min_gap=-1)
        with pytest.raises(DataError, match="belongs to user"):
            LiveSession(1, 5, history=gowalla_split.train_sequence(0))
        with pytest.raises(DataError, match="non-negative"):
            LiveSession(0, 5).append(-3)


class TestSessionStore:
    def make_store(self, split: SplitDataset, capacity=1024, event_source=None):
        return SessionStore(
            SMALL_WINDOW.window_size,
            SMALL_WINDOW.min_gap,
            capacity=capacity,
            history_provider=split.train_sequence,
            event_source=event_source,
        )

    def test_get_builds_from_history(self, gowalla_split: SplitDataset) -> None:
        store = self.make_store(gowalla_split)
        session = store.get(0)
        boundary = gowalla_split.train_boundary(0)
        assert session.t == boundary
        assert store.get(0) is session
        assert store.counters.hits == 1
        assert store.counters.misses == 1

    def test_lru_eviction_order(self, gowalla_split: SplitDataset) -> None:
        store = self.make_store(gowalla_split, capacity=2)
        store.get(0)
        store.get(1)
        store.get(0)  # 1 is now least recently used
        store.get(2)  # evicts 1
        assert store.resident_users() == [0, 2]
        assert store.counters.evictions == 1

    def test_eviction_rehydration_round_trip(
        self, gowalla_split: SplitDataset
    ) -> None:
        """Evict a user with live events; rehydration must replay them."""
        logged = {}

        def event_source(user, start):
            return list(logged.get(user, []))[start:]

        store = self.make_store(gowalla_split, event_source=event_source)
        user = 0
        suffix = gowalla_split.full_sequence(user).items[
            gowalla_split.train_boundary(user):
        ].tolist()
        store.get(user)  # materialize before logging (WAL contract)
        for item in suffix:
            logged.setdefault(user, []).append(item)
            store.append(user, item)
        before = store.state_fingerprint(user)
        assert store.evict(user)
        assert not store.evict(user)  # already gone
        after = store.state_fingerprint(user)
        assert after == before
        assert store.counters.rehydrations == 1

    def test_rehydration_without_events_is_cold_build(
        self, gowalla_split: SplitDataset
    ) -> None:
        store = self.make_store(gowalla_split, event_source=lambda user, start: [])
        fingerprint = store.state_fingerprint(0)
        store.evict(0)
        assert store.state_fingerprint(0) == fingerprint
        assert store.counters.rehydrations == 0

    def test_get_returns_store_session_for_every_provider(
        self, gowalla_split: SplitDataset, tmp_path
    ) -> None:
        """One session type, whatever backs the histories."""
        providers = {
            "heap arena": gowalla_split.history_store(base="train"),
            "mmap arena": gowalla_split.history_store(
                base="train", directory=str(tmp_path / "arena")
            ),
            "none": None,
            "callable": gowalla_split.train_sequence,
        }
        base = len(gowalla_split.train_sequence(0))
        for name, provider in providers.items():
            store = SessionStore(
                SMALL_WINDOW.window_size,
                SMALL_WINDOW.min_gap,
                history_provider=provider,
            )
            session = store.get(0)
            assert isinstance(session, StoreSession), name
            assert session.t == (0 if provider is None else base), name

    def test_capacity_validation(self) -> None:
        with pytest.raises(ServingError, match="capacity"):
            SessionStore(10, 2, capacity=0)

    def test_counters_as_dict(self, gowalla_split: SplitDataset) -> None:
        store = self.make_store(gowalla_split)
        store.get(0)
        store.get(0)
        counters = store.counters.as_dict()
        assert counters["hits"] == 1
        assert counters["misses"] == 1
        assert counters["hit_rate"] == pytest.approx(0.5)


class _CountingList(list):
    """A list that counts element reads (a spy on the WAL's records)."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


class TestWALRehydration:
    """Rebuilds over a HistoryStore read only WAL events the store lacks."""

    def make_store(self, split: SplitDataset, log: EventLog) -> SessionStore:
        return SessionStore(
            SMALL_WINDOW.window_size,
            SMALL_WINDOW.min_gap,
            capacity=1,
            history_provider=split.history_store(base="train"),
            event_source=log.events_for,
        )

    def test_steady_state_miss_reads_no_wal_events(
        self, gowalla_split: SplitDataset, tmp_path, monkeypatch
    ) -> None:
        log = EventLog.open(tmp_path / "events.log")
        store = self.make_store(gowalla_split, log)
        user = 0
        store.get(user)  # materialize before logging (WAL contract)
        for item in (3, 5, 3, 7):
            log.append(user, item)
            store.append(user, item)
        digest = store.state_fingerprint(user)
        spy = _CountingList(log._events)
        monkeypatch.setattr(log, "_events", spy)
        for other in (1, 2, 3):
            store.get(other)  # capacity 1: each evicts the user
            assert store.state_fingerprint(user) == digest
        assert spy.reads == 0
        assert store.counters.misses >= 7
        log.close()

    def test_crash_gap_replays_only_unseen_events(
        self, gowalla_split: SplitDataset, tmp_path, monkeypatch
    ) -> None:
        log = EventLog.open(tmp_path / "events.log")
        store = self.make_store(gowalla_split, log)
        user = 0
        store.get(user)
        for item in (3, 5):
            log.append(user, item)
            store.append(user, item)
        # Logged but never applied: the gap a crash between the WAL
        # write and the session update leaves behind.
        for item in (7, 3, 9):
            log.append(user, item)
        spy = _CountingList(log._events)
        monkeypatch.setattr(log, "_events", spy)
        store.get(1)  # evicts the user
        rebuilt = store.get(user)
        assert spy.reads == 3
        assert rebuilt.n_live_events == 5
        direct = LiveSession(
            user,
            SMALL_WINDOW.window_size,
            SMALL_WINDOW.min_gap,
            history=gowalla_split.train_sequence(user),
        )
        for item in (3, 5, 7, 3, 9):
            direct.append(item)
        assert rebuilt.state_fingerprint() == direct.state_fingerprint()
        log.close()


def test_fingerprint_matches_scoring_session(
    gowalla_split: SplitDataset,
) -> None:
    """The digest is shared: live and offline sessions agree on it."""
    user = 2
    sequence = gowalla_split.full_sequence(user)
    boundary = gowalla_split.train_boundary(user)
    live = LiveSession(
        user,
        SMALL_WINDOW.window_size,
        SMALL_WINDOW.min_gap,
        history=gowalla_split.train_sequence(user),
    )
    for item in sequence.items[boundary:].tolist():
        live.append(item)
    offline = ScoringSession(
        sequence,
        SMALL_WINDOW.window_size,
        min_gap=SMALL_WINDOW.min_gap,
        start=len(sequence),
    )
    assert live.state_fingerprint() == offline.state_fingerprint()
    # And the digest is sensitive: one more event changes it.
    live.append(int(sequence.items[0]))
    assert live.state_fingerprint() != offline.state_fingerprint()
