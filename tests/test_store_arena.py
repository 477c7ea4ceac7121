"""Units for the columnar session-memory arena and the HistoryStore API.

Covers the arena columns themselves (validation, zero-copy slicing,
save/open round-trips and their integrity checks), both store
implementations (including the dict store's lazy fetch adapter), the
fixed-size :class:`~repro.store.session.StoreSession`, and the
deterministic memory accounting. Cross-representation equivalence under random schedules
lives in ``test_store_equivalence.py``.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.data.sequence import ConsumptionSequence
from repro.engine.session import ScoringSession, fingerprint_history
from repro.exceptions import DataError, StoreError
from repro.store import (
    ArenaHistoryStore,
    ArenaHistoryView,
    DictHistoryStore,
    SessionArena,
    StoreSession,
    deep_sizeof,
    histories_digest,
    make_history_store,
    store_memory_profile,
)

HISTORIES = [
    [0, 1, 0, 2, 0, 1],
    [3, 4, 3, 4],
    [],
    [5] * 7,
]


class TestSessionArena:
    def test_from_histories_layout(self):
        arena = SessionArena.from_histories(HISTORIES)
        assert arena.n_users == 4
        assert arena.n_events == sum(len(h) for h in HISTORIES)
        assert arena.items.dtype == np.int32
        assert arena.offsets.dtype == np.int64
        for user, history in enumerate(HISTORIES):
            assert arena.length(user) == len(history)
            assert arena.user_items(user).tolist() == history

    def test_user_items_is_zero_copy(self):
        arena = SessionArena.from_histories(HISTORIES)
        assert np.shares_memory(arena.user_items(0), arena.items)

    def test_columns_are_read_only(self):
        arena = SessionArena.from_histories(HISTORIES)
        with pytest.raises(ValueError):
            arena.items[0] = 99

    def test_out_of_range_user_is_empty(self):
        arena = SessionArena.from_histories(HISTORIES)
        assert arena.length(99) == 0
        assert arena.user_items(99).size == 0

    def test_rejects_negative_items(self):
        with pytest.raises(StoreError):
            SessionArena.from_histories([[0, -1]])

    def test_rejects_items_beyond_int32(self):
        with pytest.raises(StoreError):
            SessionArena.from_histories([[2**31]])

    def test_rejects_bad_offsets(self):
        items = np.array([1, 2, 3], dtype=np.int32)
        with pytest.raises(StoreError):
            SessionArena(items, np.array([0, 2], dtype=np.int64))
        with pytest.raises(StoreError):
            SessionArena(items, np.array([1, 3], dtype=np.int64))
        with pytest.raises(StoreError):
            SessionArena(items, np.array([0, 2, 1, 3], dtype=np.int64))

    def test_rejects_wrong_dtypes(self):
        with pytest.raises(StoreError):
            SessionArena(
                np.array([1], dtype=np.int64),
                np.array([0, 1], dtype=np.int64),
            )
        with pytest.raises(StoreError):
            SessionArena(
                np.array([1], dtype=np.int32),
                np.array([0, 1], dtype=np.int32),
            )

    def test_digest_is_computable_from_histories(self):
        arena = SessionArena.from_histories(HISTORIES)
        assert arena.digest == histories_digest(iter(HISTORIES))
        # Same items, different user boundaries: a different arena.
        assert arena.digest != histories_digest(
            [HISTORIES[0] + HISTORIES[1], [], [], HISTORIES[3]]
        )

    def test_save_open_roundtrip(self, tmp_path):
        directory = str(tmp_path / "arena")
        arena = SessionArena.from_histories(HISTORIES)
        assert not SessionArena.exists(directory)
        arena.save(directory)
        assert SessionArena.exists(directory)
        for mmap in (True, False):
            reopened = SessionArena.open(directory, mmap=mmap)
            assert isinstance(reopened.items, np.memmap) is mmap
            for user, history in enumerate(HISTORIES):
                assert reopened.user_items(user).tolist() == history

    def test_open_missing_directory_raises(self, tmp_path):
        with pytest.raises(StoreError):
            SessionArena.open(str(tmp_path / "nope"))


class TestArenaHistoryView:
    def test_behaves_like_consumption_sequence(self):
        arena = SessionArena.from_histories(HISTORIES)
        view = ArenaHistoryView(0, arena.user_items(0))
        reference = ConsumptionSequence(0, HISTORIES[0])
        assert len(view) == len(reference)
        assert list(view) == list(reference)
        for t in range(len(reference) + 1):
            for item in set(HISTORIES[0]):
                assert view.last_position_before(
                    item, t
                ) == reference.last_position_before(item, t)

    def test_construction_copies_nothing(self):
        arena = SessionArena.from_histories(HISTORIES)
        raw = arena.user_items(0)
        view = ArenaHistoryView(0, raw)
        assert np.shares_memory(view.items, arena.items)


@pytest.mark.parametrize("kind", ["dict", "arena"])
class TestHistoryStoreProtocol:
    """Contracts both implementations must satisfy identically."""

    def build(self, kind):
        if kind == "dict":
            return DictHistoryStore.from_histories(HISTORIES)
        return make_history_store(HISTORIES)

    def test_slice_contents(self, kind):
        store = self.build(kind)
        for user, history in enumerate(HISTORIES):
            view = store.slice(user)
            if not history:
                assert view is None
            else:
                assert view.items.tolist() == history
                assert view.user == user

    def test_slice_unknown_user_is_none(self, kind):
        assert self.build(kind).slice(999) is None

    def test_append_positions_and_fusion(self, kind):
        store = self.build(kind)
        base = len(HISTORIES[0])
        assert store.append(0, 9) == base
        assert store.append(0, 8) == base + 1
        assert store.base_length(0) == base
        assert store.live_count(0) == 2
        assert store.length(0) == base + 2
        assert store.slice(0).items.tolist() == HISTORIES[0] + [9, 8]

    def test_cold_user_grows_from_empty(self, kind):
        store = self.build(kind)
        assert store.append(777, 3) == 0
        assert store.base_length(777) == 0
        assert store.live_count(777) == 1
        assert store.slice(777).items.tolist() == [3]

    def test_item_at(self, kind):
        store = self.build(kind)
        store.append(1, 6)
        assert store.item_at(1, 0) == HISTORIES[1][0]
        assert store.item_at(1, len(HISTORIES[1])) == 6
        with pytest.raises(StoreError):
            store.item_at(1, len(HISTORIES[1]) + 1)
        with pytest.raises(StoreError):
            store.item_at(1, -1)

    def test_recent_items_spans_base_and_tail(self, kind):
        store = self.build(kind)
        store.append(0, 9)
        assert store.recent_items(0, 3).tolist() == [0, 1, 9]
        assert store.recent_items(0, 100).tolist() == HISTORIES[0] + [9]
        assert store.recent_items(0, 0).size == 0
        assert store.recent_items(2, 5).size == 0

    def test_users_lists_active_histories(self, kind):
        store = self.build(kind)
        assert list(store.users()) == [0, 1, 3]
        store.append(2, 1)
        store.append(42, 5)
        assert list(store.users()) == [0, 1, 2, 3, 42]

    def test_fingerprint_matches_scoring_session(self, kind):
        store = self.build(kind)
        store.append(0, 2)
        items = HISTORIES[0] + [2]
        session = ScoringSession(
            ConsumptionSequence(0, items), 4, min_gap=2, start=len(items)
        )
        assert store.fingerprint(0, 4, 2) == session.state_fingerprint()
        assert store.fingerprint(0, 4, 2) == fingerprint_history(
            0, np.asarray(items), 4, 2
        )

    def test_rejects_negative_ids(self, kind):
        store = self.build(kind)
        with pytest.raises(StoreError):
            store.append(-1, 0)
        with pytest.raises(StoreError):
            store.append(0, -1)


class TestArenaHistoryStore:
    def test_base_slice_is_zero_copy(self):
        store = ArenaHistoryStore.from_histories(HISTORIES)
        view = store.slice(0)
        assert isinstance(view, ArenaHistoryView)
        assert np.shares_memory(view.items, store.arena.items)

    def test_fused_view_is_cached_until_append(self):
        store = ArenaHistoryStore.from_histories(HISTORIES)
        store.append(0, 9)
        first = store.slice(0)
        assert store.slice(0) is first
        store.append(0, 8)
        second = store.slice(0)
        assert second is not first
        assert second.items.tolist() == HISTORIES[0] + [9, 8]

    def test_append_rejects_items_beyond_int32(self):
        store = ArenaHistoryStore.from_histories(HISTORIES)
        with pytest.raises(StoreError):
            store.append(0, 2**31)

    def test_tail_doubles_past_initial_capacity(self):
        store = ArenaHistoryStore.from_histories([[]])
        for i in range(50):
            store.append(0, i)
        assert store.live_count(0) == 50
        assert store.slice(0).items.tolist() == list(range(50))

    def test_compact_preserves_contents_and_fingerprints(self):
        store = ArenaHistoryStore.from_histories(HISTORIES)
        for item in (7, 8, 9):
            store.append(0, item)
        store.append(5, 1)  # tail-only user beyond the arena
        before = {
            user: (store.slice(user).items.tolist(), store.fingerprint(user, 4, 2))
            for user in store.users()
        }
        assert store.n_tail_events == 4
        store.compact()
        assert store.n_tail_events == 0
        assert store.live_count(0) == 0
        assert store.base_length(0) == len(HISTORIES[0]) + 3
        for user, (items, digest) in before.items():
            assert store.slice(user).items.tolist() == items
            assert store.fingerprint(user, 4, 2) == digest

    def test_compact_without_tails_is_identity(self):
        store = ArenaHistoryStore.from_histories(HISTORIES)
        arena = store.arena
        assert store.compact() is arena

    def test_open_reuses_saved_columns(self, tmp_path):
        directory = str(tmp_path / "arena")
        SessionArena.from_histories(HISTORIES).save(directory)
        store = ArenaHistoryStore(SessionArena.open(directory))
        assert isinstance(store.arena.items, np.memmap)
        assert store.slice(0).items.tolist() == HISTORIES[0]


def _corrupt(directory: str, damage: str) -> None:
    """Damage a saved arena the way a reused or crashed run dir can."""
    meta_path = os.path.join(directory, "arena.json")
    if damage == "torn-meta":
        with open(meta_path, "r+") as handle:
            handle.truncate(7)
    elif damage == "truncated-items":
        items_path = os.path.join(directory, "items.npy")
        os.truncate(items_path, os.path.getsize(items_path) - 8)
    elif damage == "no-digest":
        with open(meta_path) as handle:
            meta = json.load(handle)
        del meta["digest"]
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)


class TestMakeHistoryStore:
    def test_kinds(self, tmp_path):
        heap = make_history_store(HISTORIES)
        assert isinstance(heap, ArenaHistoryStore)
        assert not isinstance(heap.arena.items, np.memmap)
        mmap_store = make_history_store(
            HISTORIES, directory=str(tmp_path / "a")
        )
        assert isinstance(mmap_store.arena.items, np.memmap)

    def test_arena_mmap_reuses_existing_directory(self, tmp_path):
        directory = tmp_path / "shared"
        make_history_store(HISTORIES, directory=str(directory))
        packed = (directory / "items.npy").stat().st_mtime_ns
        # A second open with the same histories maps the saved columns
        # without repacking, which is how cluster shards share one copy.
        again = make_history_store(iter(HISTORIES), directory=str(directory))
        assert (directory / "items.npy").stat().st_mtime_ns == packed
        for user, history in enumerate(HISTORIES):
            assert again.base_length(user) == len(history)
        assert again.slice(0).items.tolist() == HISTORIES[0]

    @pytest.mark.parametrize(
        "damage", ["mismatch", "torn-meta", "truncated-items", "no-digest"]
    )
    def test_reuse_rejects_a_saved_arena_that_does_not_match(
        self, tmp_path, damage
    ):
        directory = str(tmp_path / "shared")
        make_history_store(HISTORIES, directory=directory)
        _corrupt(directory, damage)
        histories = HISTORIES
        if damage == "mismatch":
            histories = [[9, 9], [8], [7, 7, 7]]
        with pytest.raises(StoreError, match="shared"):
            make_history_store(histories, directory=directory)


class TestDictHistoryStoreFetch:
    """The lazy adapter behind ``SessionStore(history_provider=callable)``."""

    def build(self):
        calls = []

        def fetch(user):
            calls.append(user)
            if 0 <= user < len(HISTORIES):
                return ConsumptionSequence(user, HISTORIES[user])
            return None

        return DictHistoryStore(fetch=fetch), calls

    def test_fetches_each_user_once_on_first_touch(self):
        store, calls = self.build()
        assert calls == []
        assert store.slice(0).items.tolist() == HISTORIES[0]
        assert store.base_length(0) == len(HISTORIES[0])
        assert store.append(0, 9) == len(HISTORIES[0])
        assert store.slice(0).items.tolist() == HISTORIES[0] + [9]
        assert calls == [0]

    def test_cold_user_grows_from_empty(self):
        store, calls = self.build()
        assert store.slice(777) is None
        assert store.append(777, 3) == 0
        assert store.recent_items(777, 5).tolist() == [3]
        assert calls == [777]

    def test_fingerprints_match_the_arena(self):
        store, _ = self.build()
        arena = ArenaHistoryStore.from_histories(HISTORIES)
        for target in (store, arena):
            target.append(1, 3)
            target.append(9, 4)
        for user in (0, 1, 2, 3, 9):
            digest = arena.fingerprint(user, 4, 2)
            assert store.fingerprint(user, 4, 2) == digest


class TestStoreSession:
    WS, MG = 4, 2

    def sessions(self):
        store = ArenaHistoryStore.from_histories(HISTORIES)
        return store, store.session(0, self.WS, self.MG)

    def test_seeded_from_history(self):
        _, session = self.sessions()
        assert session.t == len(HISTORIES[0])
        # history ...2, 0, 1 → window [0, 2, 0, 1], Ω = {0, 1}
        assert session.window_length() == self.WS
        assert session.window_count(0) == 2
        assert session.candidates() == [2]

    def test_append_updates_store_and_state(self):
        store, session = self.sessions()
        position = session.append(2)
        assert position == len(HISTORIES[0])
        assert store.live_count(0) == 1
        assert session.t == len(HISTORIES[0]) + 1
        assert session.sequence().items.tolist() == HISTORIES[0] + [2]

    def test_two_writers_detected(self):
        store, session = self.sessions()
        store.append(0, 5)
        with pytest.raises(DataError):
            session.append(6)

    def test_n_live_events_survives_session_loss(self):
        store, session = self.sessions()
        session.append(2)
        rebuilt = store.session(0, self.WS, self.MG)
        assert rebuilt.n_live_events == 1
        assert rebuilt.t == session.t

    def test_last_position_falls_back_past_ring(self):
        store = ArenaHistoryStore.from_histories([[7] + [1, 2, 3, 4] * 3])
        session = store.session(0, self.WS, self.MG)
        assert session.last_position(7) == 0  # far outside the ring span
        assert session.last_position(4) == 12
        assert session.last_position(99) == -1
        assert session.last_positions([7, 4, 99]).tolist() == [0, 12, -1]

    def test_is_next_target_matches_definition(self):
        _, session = self.sessions()
        # window multiset {0:2, 1:1, 2:1}, Ω multiset {0, 1}
        assert session.is_next_target(2)
        assert not session.is_next_target(0)  # inside Ω
        assert not session.is_next_target(5)  # not in window

    def test_fingerprint_matches_live_walk(self):
        from repro.serving.state import LiveSession

        store, session = self.sessions()
        live = LiveSession(
            0, self.WS, self.MG, history=ConsumptionSequence(0, HISTORIES[0])
        )
        assert session.state_fingerprint() == live.state_fingerprint()
        for item in (2, 2, 0, 3, 1, 0):
            session.append(item)
            live.append(item)
            assert session.state_fingerprint() == live.state_fingerprint()
            assert session.candidates() == live.candidates()

    def test_validation(self):
        store = ArenaHistoryStore.from_histories(HISTORIES)
        with pytest.raises(DataError):
            StoreSession(store, 0, 0)
        with pytest.raises(DataError):
            StoreSession(store, 0, 4, min_gap=-1)
        with pytest.raises(DataError):
            StoreSession(store, -1, 4)


class TestMemoryAccounting:
    def test_deep_sizeof_deduplicates(self):
        shared = list(range(100))
        assert deep_sizeof([shared, shared]) < 2 * deep_sizeof([shared])

    def test_views_cost_wrapper_not_buffer(self):
        buffer = np.zeros(100_000, dtype=np.int64)
        owned = deep_sizeof([buffer.copy() for _ in range(4)])
        borrowed = deep_sizeof([buffer[:] for _ in range(4)])
        # Four views chase the one shared base buffer, counted once.
        assert borrowed < owned / 3

    def test_profile_shape(self):
        store = ArenaHistoryStore.from_histories(HISTORIES)
        profile = store_memory_profile(store, store.users())
        assert profile["active_users"] == 3.0
        assert profile["resident_bytes"] > 0
        assert profile["bytes_per_user"] == pytest.approx(
            profile["resident_bytes"] / 3
        )

    def test_arena_beats_dict_on_long_histories(self):
        # Ids above the small-int cache, so the dict store pays the real
        # boxed-int cost a production vocabulary pays.
        histories = [[1000 + i % 50 for i in range(400)] for _ in range(64)]
        arena = ArenaHistoryStore.from_histories(histories)
        dense = DictHistoryStore.from_histories(histories)
        assert deep_sizeof(dense) > 4 * deep_sizeof(arena)
