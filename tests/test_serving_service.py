"""RecommendService contracts: online/offline bit-identity and degradation.

The acceptance bar for the serving layer: replaying a held-out event
stream through :class:`RecommendService` must yield recommendation lists
**array-identical** to the offline evaluation protocol (same model, same
queries) — for TS-PPR, PPR, FPMC, and Recency — regardless of the
scoring loop's batch shape. Deadlines degrade to the Recency baseline
instead of failing, and the fallback itself is deterministic and
well-defined. ``close()`` racing a submit or an ingest neither strands
a request nor breaks an append.
"""

from __future__ import annotations

import threading
import time
from typing import List

import numpy as np
import pytest

from conftest import SMALL_WINDOW

from repro.config import TSPPRConfig, WindowConfig
from repro.data.split import SplitDataset
from repro.engine.query import Query
from repro.evaluation.protocol import collect_queries
from repro.exceptions import ServingError
from repro.models.base import Recommender
from repro.models.fpmc import FPMCRecommender
from repro.models.ppr import PPRRecommender
from repro.models.recency import RecencyRecommender
from repro.models.tsppr import TSPPRRecommender
from repro.serving.service import (
    RecommendService,
    ServiceConfig,
    service_for_split,
)
from repro.serving.state import SessionStore

#: Training budget small enough for per-test fits of the learned models.
QUICK = TSPPRConfig(max_epochs=3000, seed=3)

K = 10


def small_config(**overrides) -> ServiceConfig:
    defaults = dict(window=SMALL_WINDOW, default_k=K)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def offline_recommendations(
    model: Recommender, split: SplitDataset, user: int
) -> List[List[int]]:
    """The offline protocol's top-K lists for one user's test suffix."""
    queries = collect_queries(
        split.full_sequence(user),
        split.train_boundary(user),
        SMALL_WINDOW.window_size,
        SMALL_WINDOW.min_gap,
        user=user,
    )
    if not queries:
        return []
    return model.recommend_batch(split.full_sequence(user), queries, K)


def replay_online(
    model: Recommender, split: SplitDataset, users, **config_overrides
) -> dict:
    """Replay each user's test suffix through a live service."""
    config = small_config(
        n_items=split.n_items, **config_overrides
    )
    online = {user: [] for user in users}
    with service_for_split(model, split, config=config) as service:
        for user in users:
            items = split.full_sequence(user).items[
                split.train_boundary(user):
            ].tolist()
            for item in items:
                result = service.step(user, item, k=K)
                if result is not None:
                    online[user].append(result.items)
    return online


def assert_online_matches_offline(
    model: Recommender, split: SplitDataset, n_users: int = 4
) -> int:
    users = list(range(min(n_users, split.n_users)))
    online = replay_online(model, split, users)
    compared = 0
    for user in users:
        offline = offline_recommendations(model, split, user)
        assert len(online[user]) == len(offline), (
            f"user {user}: online answered {len(online[user])} queries, "
            f"offline protocol has {len(offline)}"
        )
        for t_index, (live, ref) in enumerate(zip(online[user], offline)):
            assert live == ref, (
                f"{type(model).__name__} diverges for user {user} at "
                f"query {t_index}: online {live} vs offline {ref}"
            )
            compared += 1
    assert compared > 0, "fixture produced no evaluation queries"
    return compared


class TestOnlineOfflineEquivalence:
    def test_recency(self, gowalla_split: SplitDataset) -> None:
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        assert_online_matches_offline(model, gowalla_split)

    def test_tsppr(self, gowalla_split: SplitDataset) -> None:
        model = TSPPRRecommender(QUICK).fit(gowalla_split, SMALL_WINDOW)
        assert_online_matches_offline(model, gowalla_split)

    def test_ppr(self, gowalla_split: SplitDataset) -> None:
        model = PPRRecommender(QUICK).fit(gowalla_split, SMALL_WINDOW)
        assert_online_matches_offline(model, gowalla_split)

    def test_fpmc(self, gowalla_split: SplitDataset) -> None:
        model = FPMCRecommender(QUICK).fit(gowalla_split, SMALL_WINDOW)
        assert_online_matches_offline(model, gowalla_split)

    def test_batch_shape_does_not_matter(
        self, gowalla_split: SplitDataset
    ) -> None:
        """One query per model call (naive) and the defaults agree."""
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        users = [0, 1, 2]
        naive = replay_online(
            model, gowalla_split, users, check_interval=1, max_inflight_rows=1
        )
        batched = replay_online(model, gowalla_split, users)
        assert naive == batched

    def test_concurrent_submissions_are_isolated(
        self, gowalla_split: SplitDataset
    ) -> None:
        """Many threads hammering recommend() get per-submit-time answers."""
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        config = small_config(n_items=gowalla_split.n_items)
        users = [0, 1, 2, 3]
        with service_for_split(model, gowalla_split, config=config) as service:
            errors: List[BaseException] = []

            answers = {user: [] for user in users}

            def hammer(user: int) -> None:
                try:
                    sequence = gowalla_split.full_sequence(user)
                    boundary = gowalla_split.train_boundary(user)
                    for item in sequence.items[boundary:boundary + 20].tolist():
                        result = service.recommend(user, k=K)
                        answers[user].append((result.t, result.items))
                        service.ingest(user, item)
                except BaseException as exc:  # noqa: BLE001 - checked below
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(user,)) for user in users
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors, errors
            snapshot = service.metrics_snapshot()
            assert snapshot["counters"]["errors"] == 0
            assert snapshot["counters"]["events"] == 20 * len(users)
            # Every answer must match a serial single-user replay: each
            # request saw exactly the history before its captured t.
            for user in users:
                sequence = gowalla_split.full_sequence(user)
                boundary = gowalla_split.train_boundary(user)
                full = sequence.items[:boundary + 20].tolist()
                for t, items in answers[user]:
                    from repro.engine.session import ScoringSession

                    session = ScoringSession(
                        type(sequence)(user, full[:t]),
                        SMALL_WINDOW.window_size,
                        min_gap=SMALL_WINDOW.min_gap,
                        start=t,
                    )
                    candidates = session.candidates()
                    if not candidates:
                        assert items == []
                        continue
                    expected = model.recommend_batch(
                        type(sequence)(user, full[:t]),
                        [Query(t=t, candidates=tuple(candidates))],
                        K,
                    )[0]
                    assert items == expected, (
                        f"user {user} t={t}: concurrent answer diverges"
                    )


class TestColdIngest:
    def test_first_contact_ingest_applies_once(
        self, tmp_path, tiny_split: SplitDataset
    ) -> None:
        """Regression: logging before the session exists must not double-apply."""
        from repro.serving.events import EventLog

        log = EventLog.open(tmp_path / "events.log")
        store = SessionStore(
            SMALL_WINDOW.window_size,
            SMALL_WINDOW.min_gap,
            event_source=log.events_for,
        )
        fitted = RecencyRecommender().fit(tiny_split, SMALL_WINDOW)
        with RecommendService(
            fitted, store, event_log=log, config=small_config(n_items=6)
        ) as service:
            # User 5 has no base history and no resident session: the
            # very first touch is an ingest.
            service.ingest(5, 3)
            service.ingest(5, 4)
            session = store.get(5)
            assert session.t == 2
            assert session.window_counts_map() == {3: 1, 4: 1}
            # And rehydration replays the same two events, once.
            fingerprint = session.state_fingerprint()
            store.evict(5)
            assert store.state_fingerprint(5) == fingerprint


class SlowScorer(RecencyRecommender):
    """Recency with a configurable scoring delay and an inverted ranking.

    The inversion guarantees the fallback (true Recency order) is
    *distinguishable* from the slow model's answer, so the deadline
    tests can tell which path produced a result.
    """

    def __init__(self, delay_s: float = 0.05) -> None:
        super().__init__()
        self.delay_s = delay_s

    def score_batch(self, sequence, queries):
        time.sleep(self.delay_s)
        return [-scores for scores in super().score_batch(sequence, queries)]


class TestDeadlines:
    def fit_slow(self, split: SplitDataset, delay_s: float) -> SlowScorer:
        model = SlowScorer(delay_s)
        model.fit(split, SMALL_WINDOW)
        return model

    def recency_reference(
        self, service: RecommendService, user: int
    ) -> List[int]:
        """What the Recency fallback must return for the user right now."""
        session = service.store.get(user)
        candidates = session.candidates()
        lasts = session.last_positions(candidates)
        scores = RecencyRecommender.scores_from_last_positions(
            lasts, session.t
        )
        order = np.argsort(-scores, kind="stable")[:K]
        return [int(candidates[int(i)]) for i in order]

    def test_deadline_zero_always_falls_back(
        self, gowalla_split: SplitDataset
    ) -> None:
        """deadline_ms=0 expires at dequeue: deterministic fallback path."""
        model = self.fit_slow(gowalla_split, delay_s=0.0)
        config = small_config(n_items=gowalla_split.n_items)
        with service_for_split(model, gowalla_split, config=config) as service:
            expected = self.recency_reference(service, 0)
            result = service.recommend(0, k=K, deadline_ms=0.0)
            assert result.degraded
            assert result.items == expected
            snapshot = service.metrics_snapshot()
            assert snapshot["counters"]["deadline_fallbacks"] == 1

    def test_slow_model_misses_deadline(
        self, gowalla_split: SplitDataset
    ) -> None:
        """The model overruns mid-scoring: post-scoring fallback."""
        model = self.fit_slow(gowalla_split, delay_s=0.2)
        config = small_config(n_items=gowalla_split.n_items)
        with service_for_split(model, gowalla_split, config=config) as service:
            expected = self.recency_reference(service, 0)
            result = service.recommend(0, k=K, deadline_ms=50.0)
            assert result.degraded
            assert result.items == expected

    def test_generous_deadline_uses_model(
        self, gowalla_split: SplitDataset
    ) -> None:
        model = self.fit_slow(gowalla_split, delay_s=0.0)
        config = small_config(n_items=gowalla_split.n_items)
        with service_for_split(model, gowalla_split, config=config) as service:
            # Build a state with several Ω-eligible candidates (1, 2, 3
            # fall outside the last-Ω=2 steps) so order inversion shows.
            user = gowalla_split.n_users + 1
            for item in (1, 2, 3, 4, 5):
                service.ingest(user, item)
            recency_order = self.recency_reference(service, user)
            assert len(recency_order) >= 2
            result = service.recommend(user, k=K, deadline_ms=60_000.0)
            assert not result.degraded
            # The inverted scorer must NOT match the Recency order.
            assert result.items != recency_order
            assert sorted(result.items) == sorted(recency_order)

    def test_default_deadline_from_config(
        self, gowalla_split: SplitDataset
    ) -> None:
        model = self.fit_slow(gowalla_split, delay_s=0.0)
        config = small_config(
            n_items=gowalla_split.n_items, default_deadline_ms=0.0
        )
        with service_for_split(model, gowalla_split, config=config) as service:
            assert service.recommend(0, k=K).degraded


class TestServiceEdges:
    def fitted(self, split: SplitDataset) -> RecencyRecommender:
        return RecencyRecommender().fit(split, SMALL_WINDOW)

    def test_empty_candidates_resolve_empty(
        self, gowalla_split: SplitDataset
    ) -> None:
        model = self.fitted(gowalla_split)
        config = small_config(n_items=gowalla_split.n_items)
        with service_for_split(model, gowalla_split, config=config) as service:
            # A brand-new user past the dataset has no history at all.
            result = service.recommend(gowalla_split.n_users + 5, k=K)
            assert result.items == []
            assert not result.degraded
            snapshot = service.metrics_snapshot()
            assert snapshot["counters"]["empty_candidate_requests"] == 1

    def test_duplicate_with_different_item_is_rejected_without_wal(
        self, gowalla_split: SplitDataset
    ) -> None:
        """The dedup check reads the session, so it needs no event log."""
        model = self.fitted(gowalla_split)
        config = small_config(n_items=gowalla_split.n_items)
        with service_for_split(model, gowalla_split, config=config) as service:
            assert service.event_log is None
            position = service.ingest(0, 5, client_seq=0)
            assert service.ingest(0, 5, client_seq=0) == position
            with pytest.raises(ServingError, match="item 5 is committed"):
                service.ingest(0, 7, client_seq=0)
            session = service.store.get(0)
            assert session.t == position + 1
            assert session.n_live_events == 1
            assert int(session.sequence()[position]) == 5
            counters = service.metrics_snapshot()["counters"]
            assert counters["duplicate_events"] == 1
            assert counters["events"] == 1

    def test_rejects_unfitted_model(self, gowalla_split: SplitDataset) -> None:
        store = SessionStore(SMALL_WINDOW.window_size, SMALL_WINDOW.min_gap)
        with pytest.raises(ServingError, match="fitted"):
            RecommendService(
                RecencyRecommender(), store, config=small_config()
            )

    def test_rejects_window_mismatch(self, gowalla_split: SplitDataset) -> None:
        model = self.fitted(gowalla_split)
        store = SessionStore(window_size=50, min_gap=5)
        with pytest.raises(ServingError, match="window"):
            RecommendService(model, store, config=small_config())

    def test_rejects_bad_requests(self, gowalla_split: SplitDataset) -> None:
        model = self.fitted(gowalla_split)
        config = small_config(n_items=gowalla_split.n_items)
        with service_for_split(model, gowalla_split, config=config) as service:
            with pytest.raises(ServingError, match="k must be positive"):
                service.recommend(0, k=0)
            with pytest.raises(ServingError, match="user"):
                service.ingest(-1, 0)
            with pytest.raises(ServingError, match="vocabulary"):
                service.ingest(0, gowalla_split.n_items + 10)
            with pytest.raises(ServingError, match="vocabulary"):
                service.ingest(0, -2)
        with pytest.raises(ServingError, match="closed"):
            service.recommend(0)

    def test_config_validation(self) -> None:
        with pytest.raises(ServingError, match="default_k"):
            ServiceConfig(default_k=0)
        with pytest.raises(ServingError, match="default_deadline_ms"):
            ServiceConfig(default_deadline_ms=-5.0)

    def test_scoring_failure_fails_request_not_service(
        self, gowalla_split: SplitDataset
    ) -> None:
        class Exploding(RecencyRecommender):
            def score_batch(self, sequence, queries):
                raise RuntimeError("boom")

        model = Exploding().fit(gowalla_split, SMALL_WINDOW)
        config = small_config(n_items=gowalla_split.n_items)
        with service_for_split(model, gowalla_split, config=config) as service:
            with pytest.raises(ServingError, match="boom"):
                service.recommend(0, k=K)
            snapshot = service.metrics_snapshot()
            assert snapshot["counters"]["errors"] == 1
            # The worker survives: an empty-candidate request still works.
            result = service.recommend(gowalla_split.n_users + 5, k=K)
            assert result.items == []

    def test_metrics_snapshot_shape(self, gowalla_split: SplitDataset) -> None:
        model = self.fitted(gowalla_split)
        config = small_config(n_items=gowalla_split.n_items)
        with service_for_split(model, gowalla_split, config=config) as service:
            suffix = gowalla_split.full_sequence(0).items[
                gowalla_split.train_boundary(0):
            ].tolist()
            for item in suffix:
                service.step(0, item, k=K)
            snapshot = service.metrics_snapshot()
        counters = snapshot["counters"]
        assert counters["events"] == len(suffix)
        assert counters["requests"] == counters["recommendations"]
        assert counters["requests"] > 0
        assert snapshot["latency"]["request_latency"]["count"] == (
            counters["recommendations"]
        )
        assert snapshot["session_cache"]["misses"] == 1
        assert 0 < snapshot["mean_batch_size"] <= 64


class _AnnouncingLock:
    """Wraps the store lock; signals when ``thread_name`` starts acquiring."""

    def __init__(self, lock, thread_name: str) -> None:
        self._lock = lock
        self._thread_name = thread_name
        self.reached = threading.Event()

    def __enter__(self):
        if threading.current_thread().name == self._thread_name:
            self.reached.set()
        self._lock.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self._lock.release()


class TestCloseOrdering:
    """close() racing a concurrent submit or ingest never strands it."""

    def test_submit_racing_close_is_refused_not_stranded(
        self, gowalla_split: SplitDataset
    ) -> None:
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        config = small_config(n_items=gowalla_split.n_items)
        service = service_for_split(model, gowalla_split, config=config)
        store = service.store
        lock = _AnnouncingLock(store.lock, "racing-submit")
        store._lock = lock
        outcome = {}

        def submit() -> None:
            try:
                outcome["handle"] = service.submit(0, k=K)
            except ServingError as exc:
                outcome["error"] = exc

        submitter = threading.Thread(target=submit, name="racing-submit")
        with store.lock:
            submitter.start()
            # The submit is now queued on the store lock, past any
            # check made before it; close() runs to completion first.
            assert lock.reached.wait(timeout=5.0)
            service.close()
        submitter.join(timeout=5.0)
        assert not submitter.is_alive()
        if "handle" in outcome:
            # Accepted means answered: a stopped worker left it hanging.
            assert outcome["handle"].result(timeout=2.0).items
        assert "closed" in str(outcome.get("error")), outcome

    def test_close_waits_for_an_ingest_mid_append(
        self, tmp_path, gowalla_split: SplitDataset
    ) -> None:
        from repro.serving.events import EventLog

        appending = threading.Event()

        class SlowWrites:
            def on_write(self) -> None:
                appending.set()
                time.sleep(0.3)

        log = EventLog.open(tmp_path / "events.log", fault_injector=SlowWrites())
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        config = small_config(n_items=gowalla_split.n_items)
        service = service_for_split(
            model, gowalla_split, event_log=log, config=config
        )
        outcome = {}

        def ingest() -> None:
            try:
                outcome["position"] = service.ingest(0, 1)
            except Exception as exc:  # noqa: BLE001 - asserted below
                outcome["error"] = exc

        writer = threading.Thread(target=ingest)
        writer.start()
        assert appending.wait(timeout=5.0)
        service.close()
        writer.join(timeout=5.0)
        assert not writer.is_alive()
        assert "error" not in outcome, outcome
        # The append committed before the log sealed, and later ingests
        # are refused with a typed error.
        assert EventLog.open(tmp_path / "events.log", readonly=True).events_for(
            0
        ) == [1]
        with pytest.raises(ServingError, match="closed"):
            service.ingest(0, 2)

    def test_second_close_waits_for_the_first(
        self, tmp_path, gowalla_split: SplitDataset
    ) -> None:
        from repro.serving.events import EventLog

        log = EventLog.open(tmp_path / "events.log")
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        config = small_config(n_items=gowalla_split.n_items)
        service = service_for_split(
            model, gowalla_split, event_log=log, config=config
        )
        service.ingest(0, 1)
        sealing, release = threading.Event(), threading.Event()
        seal = log.seal

        def slow_seal():
            sealing.set()
            assert release.wait(timeout=10.0)
            return seal()

        log.seal = slow_seal
        first = threading.Thread(target=service.close)
        first.start()
        assert sealing.wait(timeout=5.0)
        second = threading.Thread(target=service.close)
        second.start()
        second.join(timeout=0.3)
        # The first close is still sealing, so the second must not have
        # returned yet.
        assert second.is_alive()
        release.set()
        for thread in (first, second):
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        assert log.manifest_path.exists()
