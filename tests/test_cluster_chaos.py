"""Chaos acceptance: 4 shards under live load survive a worker kill.

The bar (mirrors the CI ``chaos`` job, excluded from tier 1):

* sustained concurrent client load through the router — writes with
  idempotency seqs, reads with no special handling;
* a :class:`~repro.resilience.faults.ProcessFaultInjector` SIGKILL lands
  on a live worker mid-stream;
* the supervisor restarts the shard by WAL replay and only readmits it
  after proving bit-identical fingerprints (RUNNING + restart count is
  the observable proof — a mismatch parks the shard FAILED);
* **no client request errors**: reads during the outage may come back
  ``degraded`` (base-history Recency) and are counted; writes are held
  and retried by the router until the shard returns;
* afterwards, every user's state is exactly the acknowledged write
  stream — nothing lost, nothing double-applied by the retries — and
  fingerprints through the router match an independent readonly WAL
  replay.
"""

from __future__ import annotations

import threading
import time

import pytest

from conftest import SMALL_WINDOW

from repro.cluster import ClusterRouter, RUNNING, ShardSupervisor
from repro.data.split import temporal_split
from repro.models.recency import RecencyRecommender
from repro.resilience.faults import ProcessFaultInjector
from repro.serving import ServiceConfig, ServingClient
from repro.synth.gowalla import generate_gowalla

N_SHARDS = 4
ROUNDS = 12


@pytest.mark.chaos
class TestShardKillUnderLoad:
    def test_kill_one_worker_mid_stream(self, tmp_path) -> None:
        """SIGKILL lands mid-in-flight-batch.

        Requests admitted to the scoring loop die with the worker; the
        supervisor must still restart the shard by WAL replay with
        bit-identical fingerprints, and the router must hide the whole
        episode from clients.
        """
        split = temporal_split(
            generate_gowalla(
                random_state=31, user_factor=0.5, length_factor=0.6
            )
        )
        users = list(range(split.n_users))
        model = RecencyRecommender().fit(split, SMALL_WINDOW)
        config = ServiceConfig(window=SMALL_WINDOW, n_items=split.n_items)
        supervisor = ShardSupervisor(
            split,
            model,
            config,
            n_shards=N_SHARDS,
            run_dir=tmp_path / "cluster",
            heartbeat_interval_s=0.1,
            heartbeat_timeout_s=0.5,
            max_missed_heartbeats=3,
        )
        supervisor.start()
        router = ClusterRouter(
            supervisor, port=0, event_retry_deadline_s=120.0
        ).start()
        try:
            self._run_load_with_kill(split, users, supervisor, router)
        finally:
            router.close()
            supervisor.close()

    def _run_load_with_kill(self, split, users, supervisor, router) -> None:
        errors = []
        acked = {user: [] for user in users}
        degraded_seen = threading.Event()
        lock = threading.Lock()
        degraded_count = [0]

        groups = [users[i::3] for i in range(3)]
        # Each load thread passes this barrier once its round 2 is
        # acked; the kill lands right after, with ten rounds to go.
        warmed_up = threading.Barrier(len(groups) + 1)

        def load(user_group) -> None:
            # One writer client per thread: each user has exactly one
            # writer, which is the idempotency protocol's assumption.
            with ServingClient(router.url, timeout=60.0) as client:
                try:
                    for round_no in range(ROUNDS):
                        for user in user_group:
                            item = (user * 7 + round_no) % split.n_items
                            client.ingest(user, item)
                            acked[user].append(item)
                            reply = client.recommend(user, k=5)
                            if reply["degraded"]:
                                degraded_seen.set()
                                with lock:
                                    degraded_count[0] += 1
                        if round_no == 1:
                            warmed_up.wait(timeout=120.0)
                except Exception as exc:  # noqa: BLE001 - the assertion target
                    errors.append((user_group, repr(exc)))
                    warmed_up.abort()

        threads = [
            threading.Thread(target=load, args=(group,)) for group in groups
        ]
        for thread in threads:
            thread.start()

        # Once load is flowing, SIGKILL the shard owning user 0 —
        # mid-stream, no warning, no log seal.
        try:
            warmed_up.wait(timeout=120.0)
        except threading.BrokenBarrierError:
            pytest.fail(f"load failed before the kill: {errors}")
        victim = supervisor.ring.owner(users[0])
        injector = ProcessFaultInjector()
        injector.kill(supervisor.pid_of(victim))
        assert injector.kills, "the kill never landed"
        alive = sum(thread.is_alive() for thread in threads)
        assert alive == len(threads), (
            f"only {alive}/{len(threads)} load threads outlived the kill"
        )

        for thread in threads:
            thread.join(timeout=300.0)
        assert not any(thread.is_alive() for thread in threads)

        # Hard acceptance: zero client-visible errors under the kill.
        assert errors == [], f"client requests failed: {errors}"

        # The supervisor restarted the victim via WAL replay and only
        # readmitted it after the fingerprint check passed. The monitor
        # may not have seen the death yet while the state still reads
        # RUNNING, so wait for the restart itself.
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if (
                supervisor.restart_counts()[victim] >= 1
                and supervisor.states()[victim] == RUNNING
            ):
                break
            time.sleep(0.1)
        assert supervisor.states()[victim] == RUNNING
        assert supervisor.restart_counts()[victim] >= 1

        # Degraded reads were served during the outage and counted.
        with ServingClient(router.url) as client:
            merged = client.metrics()
        router_counters = merged["router"]["counters"]
        if degraded_seen.is_set():
            assert degraded_count[0] > 0
            assert router_counters["degraded_answers"] == degraded_count[0]

        # Exactly-once effects: every user's live state is precisely its
        # acknowledged write stream — the retries neither lost nor
        # double-applied an event.
        with ServingClient(router.url, timeout=60.0) as verify:
            for user in users:
                state = verify.state(user)
                assert state["live_events"] == len(acked[user]), (
                    f"user {user}: {state['live_events']} committed vs "
                    f"{len(acked[user])} acknowledged"
                )

            # End-to-end bit-identity: fingerprints through the router
            # match an independent readonly replay of each shard's WAL.
            for shard in supervisor.shard_names():
                for user, expected in supervisor.expected_fingerprints(
                    shard
                ).items():
                    assert verify.state(user)["fingerprint"] == expected
