"""Cross-representation equivalence of the history stores.

The arena is only allowed to exist because it is *bit-identical* to the
representations it replaces. This suite proves it three ways:

* a hypothesis property drives a dict-backed and an arena-backed
  :class:`~repro.store.session.StoreSession` (plus a ``LiveSession``
  oracle) through random interleaved append/evict/rehydrate schedules
  and asserts element- and fingerprint-identity after every step;
* the serving path answers identically over a heap arena, an mmap
  arena, the dict-store oracle and a per-user fetch callable (the
  adapter ``SessionStore`` keeps for it), for TS-PPR, PPR, FPMC, and
  Recency;
* the offline evaluation protocol produces the same MaAP/MiAP whether
  it walks split sequences, dict-store or arena views, sequentially or
  forked.

Plus the satellite regression: LRU eviction + rehydration over a store
is a zero-copy re-seed — no history re-fetch, no WAL re-replay, no
memory growth.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

settings.register_profile(
    "repro-store",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro-store")

from conftest import SMALL_WINDOW

from repro.config import EvaluationConfig, TSPPRConfig
from repro.data.sequence import ConsumptionSequence
from repro.data.split import SplitDataset
from repro.evaluation.protocol import evaluate_recommender
from repro.models.fpmc import FPMCRecommender
from repro.models.ppr import PPRRecommender
from repro.models.recency import RecencyRecommender
from repro.models.tsppr import TSPPRRecommender
from repro.serving.service import (
    RecommendService,
    ServiceConfig,
    service_for_split,
)
from repro.serving.state import LiveSession, SessionStore
from repro.store import DictHistoryStore, deep_sizeof, make_history_store

QUICK = TSPPRConfig(max_epochs=3000, seed=3)
K = 10

# Small alphabets force repetition; RRC only exists under repetition.
histories_strategy = st.lists(
    st.integers(min_value=0, max_value=7), min_size=0, max_size=40
)
#: One schedule step: an item to append, or None = evict + rehydrate.
schedule_strategy = st.lists(
    st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
    min_size=1,
    max_size=30,
)


class TestStoreSessionProperty:
    @given(
        history=histories_strategy,
        schedule=schedule_strategy,
        window_size=st.integers(min_value=1, max_value=6),
        min_gap=st.integers(min_value=0, max_value=3),
    )
    def test_dict_arena_live_identical_under_interleaving(
        self, history, schedule, window_size, min_gap
    ):
        stores = {
            "dict": DictHistoryStore.from_histories([history]),
            "arena": make_history_store([history]),
        }
        sessions = {
            kind: store.session(0, window_size, min_gap)
            for kind, store in stores.items()
        }
        oracle = LiveSession(
            0,
            window_size,
            min_gap,
            history=ConsumptionSequence(0, history),
        )
        probe_items = range(8)
        for step in schedule:
            if step is None:
                # Evict + rehydrate: the session object dies, the store
                # keeps the history; a rebuilt session must be
                # indistinguishable. (The oracle keeps its state — that
                # is the bar rehydration has to clear.)
                sessions = {
                    kind: store.session(0, window_size, min_gap)
                    for kind, store in stores.items()
                }
            else:
                oracle.append(step)
                for session in sessions.values():
                    session.append(step)
            reference = sessions["dict"]
            for session in sessions.values():
                assert session.t == oracle.t
                assert session.state_fingerprint() == (
                    oracle.state_fingerprint()
                )
                assert session.candidates() == oracle.candidates()
                assert (
                    session.sequence().items.tolist()
                    == oracle.sequence().items.tolist()
                )
                assert session.last_positions(probe_items).tolist() == (
                    oracle.last_positions(probe_items).tolist()
                )
                for item in probe_items:
                    assert session.is_next_target(item) == (
                        oracle.is_next_target(item)
                    )
                assert session.n_live_events == reference.n_live_events

    @given(history=histories_strategy, extra=schedule_strategy)
    def test_store_fingerprints_agree_across_kinds(self, history, extra):
        stores = {
            "dict": DictHistoryStore.from_histories([history]),
            "arena": make_history_store([history]),
        }
        for step in extra:
            if step is None:
                continue
            for store in stores.values():
                store.append(0, step)
        digests = {
            kind: store.fingerprint(0, 5, 2)
            for kind, store in stores.items()
        }
        assert len(set(digests.values())) == 1


def served_answers(model, split, users, provider=None, store_dir=None):
    """Step each user's test suffix through a service; collect answers.

    Without ``provider`` the service is ``service_for_split``'s (a heap
    arena, or an mmap arena under ``store_dir``); with one, a
    ``SessionStore`` over that provider.
    """
    config = ServiceConfig(
        window=SMALL_WINDOW, default_k=K, n_items=split.n_items
    )
    if provider is None:
        service = service_for_split(
            model, split, config=config, store_dir=store_dir
        )
    else:
        store = SessionStore(
            SMALL_WINDOW.window_size,
            SMALL_WINDOW.min_gap,
            history_provider=provider,
        )
        service = RecommendService(model, store, config=config)
    answers = {user: [] for user in users}
    fingerprints = {}
    with service:
        for user in users:
            suffix = split.full_sequence(user).items[
                split.train_boundary(user):
            ].tolist()
            for item in suffix:
                result = service.step(user, item, k=K)
                if result is not None:
                    answers[user].append(result.items)
            fingerprints[user] = service.state_fingerprint(user)
    return answers, fingerprints


class TestServingStoreEquivalence:
    USERS = (0, 1, 2, 3)

    def assert_all_stores_agree(self, model, split, tmp_path):
        backings = {
            "heap arena": {},
            "mmap arena": {"store_dir": str(tmp_path / "arena")},
            "dict oracle": {
                "provider": DictHistoryStore.from_histories(
                    split.train_sequence(user).items
                    for user in range(split.n_users)
                )
            },
            # Shaped like the benchmark host's post-run WAL rebuild.
            "callable": {
                "provider": lambda user: (
                    split.train_sequence(user)
                    if 0 <= user < split.n_users
                    else None
                )
            },
        }
        reference = None
        for name, backing in backings.items():
            got = served_answers(model, split, self.USERS, **backing)
            if reference is None:
                reference = got
                assert any(got[0].values()), "no queries were answered"
            else:
                assert got == reference, f"{name} diverges"

    def test_recency(self, gowalla_split: SplitDataset, tmp_path) -> None:
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        self.assert_all_stores_agree(model, gowalla_split, tmp_path)

    def test_tsppr(self, gowalla_split: SplitDataset, tmp_path) -> None:
        model = TSPPRRecommender(QUICK).fit(gowalla_split, SMALL_WINDOW)
        self.assert_all_stores_agree(model, gowalla_split, tmp_path)

    def test_ppr(self, gowalla_split: SplitDataset, tmp_path) -> None:
        model = PPRRecommender(QUICK).fit(gowalla_split, SMALL_WINDOW)
        self.assert_all_stores_agree(model, gowalla_split, tmp_path)

    def test_fpmc(self, gowalla_split: SplitDataset, tmp_path) -> None:
        model = FPMCRecommender(QUICK).fit(gowalla_split, SMALL_WINDOW)
        self.assert_all_stores_agree(model, gowalla_split, tmp_path)


class TestEvaluationStoreEquivalence:
    def test_maap_miap_identical_over_store(
        self, fitted_tsppr, gowalla_split: SplitDataset
    ) -> None:
        config = EvaluationConfig()
        reference = evaluate_recommender(fitted_tsppr, gowalla_split, config)
        stores = (
            DictHistoryStore.from_histories(
                gowalla_split.full_sequence(user).items
                for user in range(gowalla_split.n_users)
            ),
            gowalla_split.history_store(base="full"),
        )
        for store in stores:
            result = evaluate_recommender(
                fitted_tsppr, gowalla_split, config, history_store=store
            )
            assert result == reference

    def test_parallel_walk_over_store_identical(
        self, fitted_tsppr, gowalla_split: SplitDataset
    ) -> None:
        config = EvaluationConfig()
        store = gowalla_split.history_store(base="full")
        sequential = evaluate_recommender(
            fitted_tsppr, gowalla_split, config, history_store=store
        )
        forked = evaluate_recommender(
            fitted_tsppr,
            gowalla_split,
            config,
            history_store=store,
            workers=2,
        )
        assert forked == sequential


class TestEvictionRehydration:
    """Satellite fix: rehydration over a store is a view, not a copy."""

    def store_pair(self, split: SplitDataset, capacity: int = 1):
        provider = split.history_store(base="train")
        store = SessionStore(
            SMALL_WINDOW.window_size,
            SMALL_WINDOW.min_gap,
            capacity=capacity,
            history_provider=provider,
        )
        return provider, store

    def test_rehydrated_base_session_is_zero_copy(
        self, gowalla_split: SplitDataset
    ) -> None:
        provider, store = self.store_pair(gowalla_split)
        first = store.get(0)
        digest = first.state_fingerprint()
        store.get(1)  # capacity=1 → evicts user 0
        rebuilt = store.get(0)
        assert rebuilt is not first
        assert rebuilt.state_fingerprint() == digest
        # The base history was never copied: the rebuilt session's view
        # borrows the arena column directly.
        assert np.shares_memory(
            rebuilt.sequence().items, provider.arena.items
        )

    def test_rehydration_does_not_replay_wal_tail(
        self, gowalla_split: SplitDataset
    ) -> None:
        provider = gowalla_split.history_store(base="train")
        calls = []

        def event_source(user: int, start: int):
            calls.append(user)
            return ([1, 2, 3] if user == 0 else [])[start:]

        store = SessionStore(
            SMALL_WINDOW.window_size,
            SMALL_WINDOW.min_gap,
            capacity=1,
            history_provider=provider,
            event_source=event_source,
        )
        first = store.get(0)
        assert first.n_live_events == 3  # cold build replays the log
        digest = first.state_fingerprint()
        replays_after_cold = len(calls)
        for other in (1, 2, 3):
            store.get(other)  # each evicts user 0 again
            rebuilt = store.get(0)
            assert rebuilt.state_fingerprint() == digest
            assert rebuilt.n_live_events == 3
        # The store kept the live tail, so every rehydration replayed a
        # zero-length log suffix — but never re-applied the events.
        assert store.counters.rehydrations >= 4

    def test_eviction_cycles_do_not_grow_memory(
        self, gowalla_split: SplitDataset
    ) -> None:
        provider, store = self.store_pair(gowalla_split)
        users = list(range(min(8, gowalla_split.n_users)))
        for user in users:
            store.get(user).append(5)

        def settled_size() -> int:
            # One walk over both, so objects shared between the provider
            # and the resident session are counted exactly once.
            return deep_sizeof((provider, store))

        # Warm every fused-view cache once (the first sequence() call
        # per user fuses base + tail lazily) and let the LRU dict settle
        # its internal table through a few churn cycles, then baseline.
        views = {user: store.get(user).sequence() for user in users}
        for _ in range(3):
            for user in users:
                store.get(user)
        baseline = settled_size()
        for _ in range(50):
            for user in users:
                # capacity=1 → every get is a rehydration, and every
                # rehydration hands back the *same* cached fused view —
                # nothing is re-fetched or re-copied.
                assert store.get(user).sequence() is views[user]
        # Reachable memory is exactly flat; the old copy-per-rehydration
        # path allocated a fresh history copy on every cycle.
        assert settled_size() == baseline

    def test_eviction_cycles_do_not_grow_rss(
        self, gowalla_split: SplitDataset
    ) -> None:
        import resource

        provider, store = self.store_pair(gowalla_split)
        users = list(range(min(8, gowalla_split.n_users)))
        for _ in range(5):  # warm allocator pools and caches
            for user in users:
                store.get(user)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for _ in range(300):
            for user in users:
                store.get(user)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is in KiB on Linux; the old copy-per-rehydration
        # path grew by the base-history size every cycle.
        assert after - before < 16 * 1024
