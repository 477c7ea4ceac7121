"""Sharded-cluster integration: routing, aggregation, restart, drain.

Real worker *processes* (forked), a real supervisor, a real router —
these tests exercise the same stack ``repro-serve cluster`` runs, just
at 2–3 shards on a tiny synthetic split. The heavyweight chaos sweep
(4 shards under sustained load) lives in ``test_cluster_chaos.py``
behind the ``chaos`` marker.
"""

from __future__ import annotations

import time

import pytest

from conftest import SMALL_WINDOW

from repro.cluster import (
    ClusterRouter,
    RUNNING,
    STOPPED,
    ShardSupervisor,
)
from repro.data.split import SplitDataset
from repro.exceptions import ServingError, ServingUnavailableError
from repro.models.recency import RecencyRecommender
from repro.serving import ServiceConfig, ServingClient, service_for_split
from repro.store import SessionArena

#: Every user of the conftest gowalla split (it has 6).
USERS = list(range(6))


def cluster_config(split: SplitDataset) -> ServiceConfig:
    return ServiceConfig(window=SMALL_WINDOW, n_items=split.n_items)


def make_supervisor(
    split: SplitDataset, tmp_path, n_shards: int, **overrides
) -> ShardSupervisor:
    model = RecencyRecommender().fit(split, SMALL_WINDOW)
    options = dict(
        heartbeat_interval_s=0.1,
        heartbeat_timeout_s=0.5,
        max_missed_heartbeats=3,
    )
    options.update(overrides)
    return ShardSupervisor(
        split,
        model,
        cluster_config(split),
        n_shards=n_shards,
        run_dir=tmp_path / "cluster",
        **options,
    )


def stream_for(split: SplitDataset, users) -> list:
    """A few held-out events per user, interleaved across users."""
    events = []
    for step in range(3):
        for user in users:
            items = split.full_sequence(user).items
            boundary = split.train_boundary(user)
            if boundary + step < len(items):
                events.append((user, int(items[boundary + step])))
    return events


def wait_for_state(supervisor, shard, state, timeout=60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if supervisor.states()[shard] == state:
            return
        time.sleep(0.05)
    raise AssertionError(
        f"{shard} never reached {state}: {supervisor.states()}"
    )


@pytest.fixture()
def cluster(gowalla_split: SplitDataset, tmp_path):
    """A running 2-shard cluster behind a router, plus a client."""
    supervisor = make_supervisor(gowalla_split, tmp_path, n_shards=2)
    supervisor.start()
    router = ClusterRouter(
        supervisor, port=0, event_retry_deadline_s=90.0
    ).start()
    try:
        with ServingClient(router.url, timeout=30.0) as client:
            yield supervisor, router, client
    finally:
        router.close()
        supervisor.close()


class TestRouting:
    def test_cluster_matches_single_node_reference(
        self, gowalla_split: SplitDataset, tmp_path, cluster
    ) -> None:
        """Sharding must not change a single answer.

        The same event stream through the cluster and through one
        single-node service must yield identical recommendations for
        every user — per-user state only depends on that user's events,
        and routing pins each user to one shard.
        """
        supervisor, router, client = cluster
        stream = stream_for(gowalla_split, USERS)
        for user, item in stream:
            client.ingest(user, item)
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        with service_for_split(
            model, gowalla_split, config=cluster_config(gowalla_split)
        ) as reference:
            for user, item in stream:
                reference.ingest(user, item)
            for user in USERS:
                expected = reference.recommend(user, k=8).items
                assert client.recommend_items(user, k=8) == expected

    def test_requests_land_on_the_owning_shard(self, cluster) -> None:
        supervisor, router, client = cluster
        for user in USERS:
            reply = client.recommend(user, k=3)
            assert reply["shard"] == supervisor.ring.owner(user)

    def test_state_forwarding(self, cluster) -> None:
        supervisor, router, client = cluster
        client.ingest(0, 1)
        state = client.state(0)
        assert state["live_events"] == 1
        assert state["shard"] == supervisor.ring.owner(0)

    def test_ring_route_exposes_topology(self, cluster) -> None:
        supervisor, router, client = cluster
        ring = client._request("/ring")
        assert ring["shards"] == list(supervisor.ring.shards)
        assert ring["vnodes"] == supervisor.ring.vnodes
        assert all(ring["states"][s] == RUNNING for s in ring["shards"])
        assert all(ring["endpoints"][s] for s in ring["shards"])

    def test_healthz_reports_shard_states(self, cluster) -> None:
        supervisor, router, client = cluster
        health = client._request("/healthz")
        assert health["status"] == "ok"
        assert health["running"] == 2

    def test_error_reply_does_not_poison_router_connection(
        self, cluster
    ) -> None:
        """Unknown POST routes are answered without reading the body."""
        _, _, client = cluster
        for _ in range(3):
            with pytest.raises(ServingError, match="HTTP 404"):
                client._request("/nope", {"user": 0, "item": 1})
            assert client.recommend(0, k=3)["degraded"] is False

    def test_router_close_cuts_pooled_connections(self, cluster) -> None:
        _, router, client = cluster
        assert client.health()  # leaves one pooled connection
        router.close()
        with pytest.raises(ServingUnavailableError):
            client._request("/healthz", retries=0)


class TestMergedMetrics:
    def test_merge_is_exact_across_shards(
        self, gowalla_split: SplitDataset, cluster
    ) -> None:
        """Router counters == sums of per-shard counters, exactly."""
        supervisor, router, client = cluster
        stream = stream_for(gowalla_split, USERS)
        for user, item in stream:
            client.ingest(user, item)
        for user in USERS:
            client.recommend(user, k=5)
        merged = client.metrics()
        per_shard = []
        for name in supervisor.shard_names():
            with ServingClient(supervisor.url_of(name)) as shard_client:
                per_shard.append(shard_client.metrics())
        for counter in ("events", "requests"):
            assert merged["counters"][counter] == sum(
                s["counters"][counter] for s in per_shard
            )
        assert merged["counters"]["events"] == len(stream)
        merged_n = merged["histogram_state"]["request_latency"]["n"]
        assert merged_n == sum(
            s["histogram_state"]["request_latency"]["n"] for s in per_shard
        )
        assert merged["router"]["shards_reporting"] == 2
        assert merged["router"]["counters"]["router_events"] == len(stream)


class TestRestart:
    def test_kill_restart_replay_readmit(
        self, gowalla_split: SplitDataset, cluster
    ) -> None:
        """The acceptance path: crash → WAL replay → fingerprint → ring."""
        supervisor, router, client = cluster
        stream = stream_for(gowalla_split, USERS)
        for user, item in stream:
            client.ingest(user, item)
        victim = supervisor.ring.owner(USERS[0])
        victims_users = [
            u for u in USERS if supervisor.ring.owner(u) == victim
        ]
        pre = {u: client.state(u)["fingerprint"] for u in victims_users}
        old_pid = supervisor.kill_shard(victim)

        # While the shard restarts, its users still get answers —
        # degraded base-history Recency, flagged as such.
        degraded_seen = False
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            reply = client.recommend(victims_users[0], k=5)
            if reply["degraded"]:
                degraded_seen = True
                break
            time.sleep(0.02)
        assert degraded_seen, "outage produced no degraded answer"

        wait_for_state(supervisor, victim, RUNNING)
        assert supervisor.restart_counts()[victim] == 1
        assert supervisor.pid_of(victim) != old_pid
        # Bit-identical rehydration, observed end-to-end through the
        # router: same fingerprints as before the kill.
        post = {u: client.state(u)["fingerprint"] for u in victims_users}
        assert post == pre
        # And the stream continues: appends and live answers work.
        assert client.recommend(victims_users[0], k=5)["degraded"] is False
        client.ingest(victims_users[0], 1)
        assert (
            client.state(victims_users[0])["live_events"]
            == len([1 for u, _ in stream if u == victims_users[0]]) + 1
        )

    def test_expected_fingerprints_are_readonly(
        self, gowalla_split: SplitDataset, cluster
    ) -> None:
        """Supervisor-side replay must not disturb the live shard."""
        supervisor, router, client = cluster
        client.ingest(0, 1)
        client.ingest(0, 2)
        shard = supervisor.ring.owner(0)
        expected = supervisor.expected_fingerprints(shard)
        assert expected[0] == client.state(0)["fingerprint"]
        # The live worker kept serving throughout.
        assert client.state(0)["live_events"] == 2

    def test_hung_shard_is_detected_and_recycled(
        self, gowalla_split: SplitDataset, tmp_path
    ) -> None:
        """A hang (no crash!) must also trip heartbeats and restart."""
        supervisor = make_supervisor(
            gowalla_split,
            tmp_path,
            n_shards=2,
            heartbeat_timeout_s=0.3,
            max_missed_heartbeats=2,
        )
        supervisor.start()
        try:
            from repro.resilience.faults import ProcessFaultInjector

            victim = supervisor.ring.owner(0)
            injector = ProcessFaultInjector()
            injector.hang(supervisor.url_of(victim), seconds=30.0)
            assert injector.hangs  # the fault landed
            deadline = time.monotonic() + 90.0
            while time.monotonic() < deadline:
                if supervisor.restart_counts()[victim] == 1:
                    break
                time.sleep(0.05)
            assert supervisor.restart_counts()[victim] == 1
            wait_for_state(supervisor, victim, RUNNING, timeout=90.0)
            with ServingClient(supervisor.url_of(victim)) as client:
                assert client.health()
        finally:
            supervisor.close()


class TestDrain:
    def test_drain_migrates_users_bit_identically(
        self, gowalla_split: SplitDataset, tmp_path
    ) -> None:
        supervisor = make_supervisor(gowalla_split, tmp_path, n_shards=3)
        supervisor.start()
        try:
            with ClusterRouter(supervisor, port=0).start() as router, (
                ServingClient(router.url, timeout=30.0)
            ) as client:
                stream = stream_for(gowalla_split, USERS)
                for user, item in stream:
                    client.ingest(user, item)
                retiree = supervisor.ring.owner(USERS[0])
                moving = [
                    u for u in USERS if supervisor.ring.owner(u) == retiree
                ]
                staying = [u for u in USERS if u not in moving]
                pre = {u: client.state(u)["fingerprint"] for u in USERS}

                report = supervisor.drain(retiree)

                assert report["drained"] == retiree
                assert set(report["migrated_users"]) == set(moving)
                assert retiree not in supervisor.ring
                assert supervisor.states()[retiree] == STOPPED
                # Every user — migrated or not — fingerprints identically
                # and keeps taking writes through the router.
                for user in USERS:
                    assert client.state(user)["fingerprint"] == pre[user]
                    client.ingest(user, 1)
                for user in moving:
                    assert client.state(user)["shard"] != retiree
                for user in staying:
                    # Consistent hashing: survivors' users never moved.
                    owner = supervisor.ring.owner(user)
                    assert client.state(user)["shard"] == owner
        finally:
            supervisor.close()

    def test_cannot_drain_the_last_shard(
        self, gowalla_split: SplitDataset, tmp_path
    ) -> None:
        supervisor = make_supervisor(gowalla_split, tmp_path, n_shards=1)
        supervisor.start()
        try:
            with pytest.raises(ServingError, match="last shard"):
                supervisor.drain("shard-0")
        finally:
            supervisor.close()


class TestClientLifetimes:
    def test_restart_and_drain_close_their_clients(
        self, gowalla_split: SplitDataset, tmp_path, opened_clients
    ) -> None:
        """The restart check and both drain passes close their clients."""
        supervisor = make_supervisor(gowalla_split, tmp_path, n_shards=3)
        supervisor.start()
        try:
            with ClusterRouter(supervisor, port=0).start() as router, (
                ServingClient(router.url, timeout=30.0)
            ) as client:
                for user, item in stream_for(gowalla_split, USERS):
                    client.ingest(user, item)
            victim = supervisor.ring.owner(USERS[0])
            supervisor.kill_shard(victim)
            deadline = time.monotonic() + 60.0
            while supervisor.restart_counts()[victim] < 1:
                assert time.monotonic() < deadline, "no restart observed"
                time.sleep(0.05)
            built = len(opened_clients)
            report = supervisor.drain(victim)
            assert report["migrated_events"] > 0
            assert len(opened_clients) > built  # the drain's own clients
        finally:
            supervisor.close()
        # Router and probe clients close with their owners; the others
        # must already have been closed where they were used.
        assert all(client.closed for client in opened_clients)


class TestValidation:
    def test_supervisor_rejects_bad_shapes(
        self, gowalla_split: SplitDataset, tmp_path
    ) -> None:
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        with pytest.raises(ServingError, match="n_shards"):
            ShardSupervisor(
                gowalla_split,
                model,
                cluster_config(gowalla_split),
                n_shards=0,
                run_dir=tmp_path,
            )
        supervisor = make_supervisor(gowalla_split, tmp_path, n_shards=1)
        with pytest.raises(ServingError, match="unknown shard"):
            supervisor.pid_of("shard-99")
        with pytest.raises(ServingError, match="no live process"):
            supervisor.pid_of("shard-0")  # never started

    def test_router_503_without_seq_during_outage(
        self, gowalla_split: SplitDataset, cluster
    ) -> None:
        """No idempotency seq → no blind retry → typed 503, fast."""
        supervisor, router, client = cluster
        victim = supervisor.ring.owner(0)
        supervisor.kill_shard(victim)
        raw = ServingClient(router.url, timeout=10.0, track_seq=False)
        try:
            with pytest.raises(ServingError, match="idempotency seq"):
                # The kill already landed; the very next forward fails
                # and, with no seq to retry on, surfaces immediately.
                for _ in range(200):
                    raw.ingest(0, 1)
        finally:
            raw.close()
            # Leave the fixture healthy for teardown.
            wait_for_state(supervisor, victim, RUNNING)


class TestSharedArena:
    def test_shards_share_one_mmap_arena(
        self, gowalla_split: SplitDataset, tmp_path
    ) -> None:
        """``store_dir`` packs the columns once for all shards.

        The supervisor saves the arena there before any worker forks;
        every shard maps the same files read-only. The served
        fingerprints must still match ``expected_fingerprints`` — which
        replays over a freshly packed heap arena, never the shared
        files — so agreement here is a live identity proof through real
        processes.
        """
        shared = tmp_path / "arena"
        supervisor = make_supervisor(
            gowalla_split, tmp_path, n_shards=2, store_dir=shared
        )
        assert SessionArena.exists(str(shared))
        specs = [supervisor._handle(n).spec for n in supervisor.shard_names()]
        assert {spec.store_dir for spec in specs} == {shared}
        supervisor.start()
        router = ClusterRouter(supervisor, port=0).start()
        try:
            with ServingClient(router.url, timeout=30.0) as client:
                for user, item in stream_for(gowalla_split, USERS):
                    client.ingest(user, item)
                for user in USERS:
                    assert client.recommend_items(user, k=5)
                    shard = supervisor.ring.owner(user)
                    expected = supervisor.expected_fingerprints(shard, [user])
                    assert client.state(user)["fingerprint"] == expected[user]
        finally:
            router.close()
            supervisor.close()
