"""Tier-2 soak: the arena at a million users.

Builds a 1M-user synthetic arena directly from columns (the layout is
the API: ``items[offsets[u]:offsets[u+1]]``), then exercises slicing,
live appends, eviction/rehydration churn, compaction, and the mmap
round-trip at scale. Excluded from tier-1 by the ``tier2`` marker; run
with ``pytest -m tier2 tests/test_store_soak.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving.state import SessionStore
from repro.store import (
    ArenaHistoryStore,
    SessionArena,
    store_memory_profile,
)

pytestmark = pytest.mark.tier2

N_USERS = 1_000_000
N_ITEMS = 5_000
WS, MG = 10, 2


@pytest.fixture(scope="module")
def million_user_store() -> ArenaHistoryStore:
    rng = np.random.default_rng(4242)
    lengths = rng.integers(4, 16, size=N_USERS).astype(np.int64)
    offsets = np.zeros(N_USERS + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    items = rng.integers(0, N_ITEMS, size=int(offsets[-1])).astype(np.int32)
    return ArenaHistoryStore(SessionArena(items, offsets))


def sample_users(n: int = 500) -> np.ndarray:
    return np.random.default_rng(7).integers(0, N_USERS, size=n)


class TestMillionUserSoak:
    def test_slices_match_raw_columns(self, million_user_store):
        store = million_user_store
        arena = store.arena
        for user in sample_users():
            user = int(user)
            view = store.slice(user)
            expected = arena.items[
                arena.offsets[user] : arena.offsets[user + 1]
            ]
            assert view.items.tolist() == expected.tolist()
            assert np.shares_memory(view.items, arena.items)

    def test_bytes_per_user_stay_columnar(self, million_user_store):
        store = million_user_store
        profile = store_memory_profile(store, range(N_USERS))
        # ~9.5 avg events × 4 bytes + 8 bytes of offset ≈ 46; anything
        # pointer-per-event would be an order of magnitude above this.
        assert profile["bytes_per_user"] < 100

    def test_live_appends_and_fingerprints_at_scale(
        self, million_user_store
    ):
        store = million_user_store
        rng = np.random.default_rng(11)
        for user in sample_users(200):
            user = int(user)
            session = store.session(user, WS, MG)
            before = session.state_fingerprint()
            for item in rng.integers(0, N_ITEMS, size=5):
                session.append(int(item))
            rebuilt = store.session(user, WS, MG)
            assert rebuilt.n_live_events == session.n_live_events
            assert rebuilt.state_fingerprint() == session.state_fingerprint()
            assert rebuilt.state_fingerprint() != before

    def test_eviction_churn_over_lru_store(self, million_user_store):
        session_store = SessionStore(
            WS, MG, capacity=64, history_provider=million_user_store
        )
        users = [int(u) for u in sample_users(1_000)]
        digests = {
            user: session_store.get(user).state_fingerprint()
            for user in users
        }
        for user in reversed(users):  # every get past 64 is a rehydration
            assert session_store.get(user).state_fingerprint() == (
                digests[user]
            )
        assert session_store.counters.evictions > 0

    def test_compaction_at_scale(self, million_user_store):
        store = million_user_store
        touched = [int(u) for u in sample_users(300)]
        expected = {}
        for user in touched:
            store.append(user, user % N_ITEMS)
            expected[user] = store.slice(user).items.tolist()
        # Earlier soak tests may have left tails on overlapping users,
        # so compaction folds live_count events, not exactly one.
        folded = {
            user: store.base_length(user) + store.live_count(user)
            for user in touched
        }
        store.compact()
        assert store.n_tail_events == 0
        for user in touched:
            assert store.slice(user).items.tolist() == expected[user]
            assert store.base_length(user) == folded[user]

    def test_mmap_roundtrip_at_scale(self, million_user_store, tmp_path):
        directory = str(tmp_path / "arena")
        million_user_store.arena.save(directory)
        reopened = ArenaHistoryStore(SessionArena.open(directory))
        assert isinstance(reopened.arena.items, np.memmap)
        assert reopened.arena.n_users == N_USERS
        for user in sample_users(100):
            user = int(user)
            assert reopened.fingerprint(user, WS, MG) == (
                million_user_store.fingerprint(user, WS, MG)
            )
