"""In-flight scoring-loop contracts: bit-identity, manual pump, accounting.

The continuously fed scoring loop must be *invisible* in the answers:
for every model, any chunk size, any admission-control bound, and any
interleaving of mid-batch admissions and early retirements, the
recommendation lists must equal the offline protocol's bit for bit.
This suite pins that, plus the single-step manual-pump contract, the
row accounting of admission control, and the split fallback
accounting.
"""

from __future__ import annotations

from typing import List

import pytest

from conftest import SMALL_WINDOW

from repro.data.split import SplitDataset
from repro.engine.query import Query
from repro.exceptions import ServingError
from repro.models.fpmc import FPMCRecommender
from repro.models.ppr import PPRRecommender
from repro.models.recency import RecencyRecommender
from repro.models.tsppr import TSPPRRecommender
from repro.serving.service import ServiceConfig, service_for_split
from test_serving_service import (
    K,
    QUICK,
    SlowScorer,
    offline_recommendations,
    replay_online,
    small_config,
)

MODEL_FACTORIES = {
    "recency": lambda: RecencyRecommender(),
    "tsppr": lambda: TSPPRRecommender(QUICK),
    "ppr": lambda: PPRRecommender(QUICK),
    "fpmc": lambda: FPMCRecommender(QUICK),
}


class TestInflightBitIdentity:
    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_inflight_equals_offline(
        self, name: str, gowalla_split: SplitDataset
    ) -> None:
        model = MODEL_FACTORIES[name]().fit(gowalla_split, SMALL_WINDOW)
        users = [0, 1, 2, 3]
        inflight = replay_online(model, gowalla_split, users)
        for user in users:
            offline = offline_recommendations(model, gowalla_split, user)
            assert inflight[user] == offline, (
                f"{name}: in-flight diverges from offline for user {user}"
            )

    def test_chunk_shape_does_not_matter(
        self, gowalla_split: SplitDataset
    ) -> None:
        """check_interval 1, 3, and 64 answer identically."""
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        users = [0, 1, 2]
        replays = [
            replay_online(
                model, gowalla_split, users, check_interval=interval
            )
            for interval in (1, 3, 64)
        ]
        assert replays[0] == replays[1] == replays[2]

    def test_admission_bound_does_not_matter(
        self, gowalla_split: SplitDataset
    ) -> None:
        """max_inflight_rows=1 forces constant overflow; answers unchanged.

        Every request is wider than one row, so each admits only into an
        empty batch (the no-starvation rule) and every other submission
        waits in overflow — the most hostile admission-control schedule.
        """
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        users = [0, 1]
        tight = replay_online(
            model, gowalla_split, users, max_inflight_rows=1
        )
        roomy = replay_online(
            model, gowalla_split, users, max_inflight_rows=32768
        )
        assert tight == roomy


class TestManualPump:
    def test_replay_identical_under_manual_pump(
        self, gowalla_split: SplitDataset
    ) -> None:
        """The pump-driven loop replays exactly like the worker-driven one."""
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        users = [0, 1]
        manual = replay_online(
            model, gowalla_split, users, manual_pump=True
        )
        threaded = replay_online(model, gowalla_split, users)
        assert manual == threaded

    def test_pump_drains_everything_submitted(
        self, gowalla_split: SplitDataset
    ) -> None:
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        config = small_config(
            n_items=gowalla_split.n_items, manual_pump=True
        )
        with service_for_split(
            model, gowalla_split, config=config
        ) as service:
            handles = [service.submit(user, k=K) for user in (0, 1, 2, 0, 1)]
            completed = service.pump()
            assert completed == len(handles)
            for pending in handles:
                # Already resolved: a zero-timeout wait must succeed.
                assert pending.result(timeout=0.0).items
            assert service.pump() == 0

    def test_mid_batch_admission_and_early_retirement(
        self, gowalla_split: SplitDataset
    ) -> None:
        """Kernel-boundary admissions/retirements stay bit-identical.

        Drives the engine one kernel at a time (check_interval=2) and
        submits new requests *between* boundaries, so later kernels run
        while earlier requests have retired and new ones were admitted
        mid-flight — the exact schedule the background worker produces
        under load.
        """
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        config = small_config(
            n_items=gowalla_split.n_items,
            check_interval=2,
            manual_pump=True,
        )
        with service_for_split(
            model, gowalla_split, config=config
        ) as service:
            engine = service._engine
            handles = [service.submit(user, k=K) for user in (0, 0, 0, 1, 1)]
            with service._pump_lock:
                service._drain_submissions()
                assert engine.n_inflight == 5
                # Boundary 1: two of user 0's requests retire early while
                # the rest stay admitted.
                assert engine.step() == 2
                assert engine.n_inflight == 3
            assert handles[0].result(timeout=0.0) is not None
            # Mid-batch admission: a new user arrives between kernels.
            handles.append(service.submit(2, k=K))
            assert service.pump() == 4
            assert engine.idle and engine.live_rows == 0
            # Every answer equals the offline kernel on the same state
            # (nothing was ingested, so each user's state is unchanged).
            for pending in handles:
                result = pending.result(timeout=0.0)
                session = service.store.get(result.user)
                assert result.t == session.t
                query = Query(t=session.t, candidates=session.candidates())
                expected = model.recommend_batch(
                    session.sequence(), [query], K
                )[0]
                assert result.items == expected

    def test_recommend_pumps_in_manual_mode(
        self, gowalla_split: SplitDataset
    ) -> None:
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        config = small_config(
            n_items=gowalla_split.n_items, manual_pump=True
        )
        with service_for_split(
            model, gowalla_split, config=config
        ) as service:
            # No background worker exists, yet recommend() must resolve.
            assert service._worker is None
            result = service.recommend(0, k=K, timeout=5.0)
            assert result.items

    def test_close_flushes_manual_service(
        self, gowalla_split: SplitDataset
    ) -> None:
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        config = small_config(
            n_items=gowalla_split.n_items, manual_pump=True
        )
        service = service_for_split(model, gowalla_split, config=config)
        pending = service.submit(0, k=K)
        service.close()
        assert pending.result(timeout=0.0).items


class TestAccounting:
    def test_scored_vs_fallback_split(
        self, gowalla_split: SplitDataset
    ) -> None:
        """Queue-expiry and scoring-overrun fallbacks count separately."""
        model = SlowScorer(delay_s=0.0)
        model.fit(gowalla_split, SMALL_WINDOW)
        config = small_config(n_items=gowalla_split.n_items)
        with service_for_split(
            model, gowalla_split, config=config
        ) as service:
            service.recommend(0, k=K)                       # scored
            service.recommend(0, k=K, deadline_ms=0.0)      # queue-expired
            model.delay_s = 0.2
            service.recommend(0, k=K, deadline_ms=50.0)     # overran scoring
            counters = service.metrics_snapshot()["counters"]
        assert counters["scored_answers"] == 1
        assert counters["fallback_answers"] == 2
        assert counters["fallbacks_queue_expired"] == 1
        assert counters["fallbacks_scoring_overrun"] == 1
        # Back-compat total still equals the split sum.
        assert counters["deadline_fallbacks"] == 2

    def test_inflight_gauges_are_sampled(
        self, gowalla_split: SplitDataset
    ) -> None:
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        config = small_config(n_items=gowalla_split.n_items)
        with service_for_split(
            model, gowalla_split, config=config
        ) as service:
            for _ in range(5):
                service.recommend(0, k=K)
            snapshot = service.metrics_snapshot()
        gauges = snapshot["gauges"]
        assert gauges["batch_occupancy_rows"]["count"] > 0
        assert gauges["inflight_requests"]["count"] > 0
        assert gauges["inflight_requests"]["max"] >= 1
        assert snapshot["latency"]["admission_wait"]["count"] >= 5
        assert 0 < snapshot["mean_batch_size"] <= 64

    def test_live_rows_track_admitted_requests(
        self, gowalla_split: SplitDataset
    ) -> None:
        """Rows added on admit retire after every kernel, even a failed one."""

        class Flaky(RecencyRecommender):
            fail = False

            def score_batch(self, sequence, queries):
                if self.fail:
                    raise RuntimeError("boom")
                return super().score_batch(sequence, queries)

        model = Flaky().fit(gowalla_split, SMALL_WINDOW)
        config = small_config(
            n_items=gowalla_split.n_items, check_interval=2, manual_pump=True
        )
        with service_for_split(
            model, gowalla_split, config=config
        ) as service:
            engine = service._engine
            for fail in (False, True):
                model.fail = fail
                handles = [
                    service.submit(user, k=K) for user in (0, 0, 0, 1, 2)
                ]
                with service._pump_lock:
                    service._drain_submissions()
                    assert engine.live_rows == sum(
                        len(pending.candidates) for pending in handles
                    ) > 0
                    while not engine.idle:
                        engine.step()
                        assert engine.live_rows == sum(
                            len(pending.candidates)
                            for queued in engine.queues.values()
                            for pending in queued
                        )
                assert engine.live_rows == 0
                for pending in handles:
                    if fail:
                        with pytest.raises(ServingError, match="boom"):
                            pending.result(timeout=0.0)
                    else:
                        assert pending.result(timeout=0.0).items

    def test_config_validation(self) -> None:
        with pytest.raises(ServingError, match="max_inflight_rows"):
            ServiceConfig(max_inflight_rows=0)
        with pytest.raises(ServingError, match="check_interval"):
            ServiceConfig(check_interval=0)
