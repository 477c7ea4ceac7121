"""HTTP transport round-trips: server routes, client, error mapping.

Every test binds to an ephemeral port (``port=0``) so the suite can run
in parallel and on busy machines. The server under test fronts a real
:class:`RecommendService` over the Recency model, so these are true
end-to-end round-trips: socket → handler → micro-batch queue → model →
JSON reply.
"""

from __future__ import annotations

import http.client
import json
import os
import time
import urllib.request

import pytest

from conftest import SMALL_WINDOW

from repro.config import WindowConfig
from repro.data.split import SplitDataset
from repro.exceptions import ServingError, ServingUnavailableError
from repro.models.recency import RecencyRecommender
from repro.serving import (
    EventLog,
    RecommendServer,
    ServiceConfig,
    ServingClient,
    service_for_split,
)
from repro.serving.server import MAX_BODY_BYTES


@pytest.fixture()
def served(gowalla_split: SplitDataset):
    """A running ephemeral-port server + client over Recency."""
    model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
    config = ServiceConfig(window=SMALL_WINDOW, n_items=gowalla_split.n_items)
    service = service_for_split(model, gowalla_split, config=config)
    server = RecommendServer(service, port=0).start()
    try:
        yield server, ServingClient(server.url), gowalla_split
    finally:
        server.close()


@pytest.fixture()
def served_with_log(gowalla_split: SplitDataset, tmp_path):
    """Like ``served`` but write-ahead logged (idempotency needs the WAL)."""
    model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
    config = ServiceConfig(window=SMALL_WINDOW, n_items=gowalla_split.n_items)
    log = EventLog.open(tmp_path / "events.log")
    service = service_for_split(
        model, gowalla_split, event_log=log, config=config
    )
    server = RecommendServer(service, port=0).start()
    try:
        yield server, ServingClient(server.url), gowalla_split
    finally:
        server.close()


def count_connections(server: RecommendServer) -> list:
    """Record the peer address of every connection ``server`` accepts."""
    accepted = []
    httpd = server._httpd
    process_request = httpd.process_request

    def counting(request, client_address) -> None:
        accepted.append(client_address)
        process_request(request, client_address)

    httpd.process_request = counting
    return accepted


class TestRoutes:
    def test_healthz(self, served) -> None:
        _, client, _ = served
        assert client.health()

    def test_event_then_recommend_round_trip(self, served) -> None:
        server, client, split = served
        user = 0
        boundary = split.train_boundary(user)
        item = int(split.full_sequence(user).items[boundary])
        assert client.ingest(user, item) == boundary
        reply = client.recommend(user, k=5)
        assert reply["user"] == user
        assert reply["t"] == boundary + 1
        assert isinstance(reply["items"], list)
        assert len(reply["items"]) <= 5
        assert reply["degraded"] is False
        assert reply["request_id"].startswith("r")
        assert reply["latency_ms"] >= 0
        # recommend_items strips the envelope; state is unchanged, so a
        # repeated request returns the same ranking.
        assert client.recommend_items(user, k=5) == [
            int(i) for i in reply["items"]
        ]
        # And the answer matches calling the service directly.
        direct = server.service.recommend(user, k=5)
        assert direct.items == [int(i) for i in reply["items"]]

    def test_metrics_endpoint(self, served) -> None:
        _, client, split = served
        client.ingest(0, int(split.full_sequence(0).items[0]))
        client.recommend(0, k=3)
        snapshot = client.metrics()
        assert snapshot["counters"]["events"] >= 1
        assert snapshot["counters"]["requests"] >= 1
        assert "request_latency" in snapshot["latency"]
        assert "session_cache" in snapshot

    def test_unknown_routes_404(self, served) -> None:
        server, client, _ = served
        with pytest.raises(ServingError, match="HTTP 404"):
            client._request("/nope")
        with pytest.raises(ServingError, match="HTTP 404"):
            client._request("/nope", {"user": 0})


class TestErrorMapping:
    def test_missing_field_is_400(self, served) -> None:
        _, client, _ = served
        with pytest.raises(ServingError, match="missing required field"):
            client._request("/events", {"user": 0})

    def test_non_integer_field_is_400(self, served) -> None:
        _, client, _ = served
        with pytest.raises(ServingError, match="must be an integer"):
            client._request("/events", {"user": 0, "item": "many"})

    def test_vocabulary_violation_is_400(self, served) -> None:
        _, client, split = served
        with pytest.raises(ServingError, match="vocabulary"):
            client.ingest(0, split.n_items + 50)

    def test_non_object_body_is_400(self, served) -> None:
        server, _, _ = served
        request = urllib.request.Request(
            f"{server.url}/events",
            data=json.dumps([1, 2]).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(request, timeout=10)
        assert exc_info.value.code == 400

    def test_malformed_json_is_400(self, served) -> None:
        server, _, _ = served
        request = urllib.request.Request(
            f"{server.url}/events",
            data=b"{oops",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(request, timeout=10)
        assert exc_info.value.code == 400

    def test_unreachable_server(self) -> None:
        client = ServingClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServingError, match="cannot reach"):
            client.ingest(0, 0)
        assert client.health() is False


class TestIdempotency:
    def test_retried_event_is_deduplicated(self, served_with_log) -> None:
        """A retransmitted append returns the original position, once."""
        server, client, split = served_with_log
        user = 0
        item = int(split.full_sequence(user).items[split.train_boundary(user)])
        first = client.ingest(user, item, seq=0)
        duplicate = client.ingest(user, item, seq=0)  # the retry
        assert duplicate == first
        state = client.state(user)
        assert state["live_events"] == 1  # applied exactly once
        assert client.metrics()["counters"]["duplicate_events"] == 1

    def test_fresh_client_resumes_seq_from_state(
        self, served_with_log
    ) -> None:
        """A reconnecting client initializes its counter from ``/state``."""
        server, client, split = served_with_log
        user, items = 1, [3, 5, 3]
        for item in items:
            client.ingest(user, item)
        fresh = ServingClient(server.url)  # no memory of the first client
        position = fresh.ingest(user, 7)
        assert position == split.train_boundary(user) + len(items)
        assert client.state(user)["live_events"] == len(items) + 1

    def test_seq_gap_is_rejected(self, served_with_log) -> None:
        _, client, _ = served_with_log
        with pytest.raises(ServingError, match="skips ahead"):
            client.ingest(2, 1, seq=5)

    def test_duplicate_with_different_item_is_rejected(
        self, served_with_log
    ) -> None:
        """A dedup hit must carry the committed item, else the client lies."""
        _, client, _ = served_with_log
        client.ingest(3, 11, seq=0)
        with pytest.raises(ServingError, match="committed there"):
            client.ingest(3, 12, seq=0)

    def test_state_route_matches_service(self, served_with_log) -> None:
        server, client, split = served_with_log
        user = 4
        client.ingest(user, 2)
        state = client.state(user)
        direct = server.service.user_state(user)
        assert state == direct
        assert state["user"] == user
        assert state["live_events"] == 1
        assert state["t"] == split.train_boundary(user) + 1
        assert isinstance(state["fingerprint"], str)


class TestAvailabilityAndTimeouts:
    def test_unreachable_is_typed_unavailable(self) -> None:
        client = ServingClient("http://127.0.0.1:9", timeout=0.5, retries=0)
        with pytest.raises(ServingUnavailableError):
            client.recommend(0)
        # Still catchable as the serving-layer base error.
        assert issubclass(ServingUnavailableError, ServingError)

    def test_http_errors_stay_plain_serving_errors(self, served) -> None:
        """A server that *answered* is not 'unavailable' — no blind retry."""
        _, client, _ = served
        with pytest.raises(ServingError) as exc_info:
            client._request("/nope")
        assert not isinstance(exc_info.value, ServingUnavailableError)

    def test_per_request_timeout_honored(self, served) -> None:
        """A hung server trips the caller's timeout, not the default."""
        server, client, _ = served
        client.hang(1.2)
        tight = ServingClient(server.url, timeout=30.0, retries=0)
        start = time.monotonic()
        with pytest.raises(ServingUnavailableError):
            tight.recommend(0, timeout=0.3)
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"timeout ignored: waited {elapsed:.2f}s"
        # Once the hang window closes the server answers again.
        time.sleep(1.2)
        assert tight.health()

    def test_retries_eventually_reach_recovering_server(self, served) -> None:
        """Bounded backoff rides out an outage shorter than the budget."""
        server, _, _ = served
        hangy = ServingClient(
            server.url, timeout=0.2, retries=8, backoff_s=0.1, max_backoff_s=0.4
        )
        ServingClient(server.url).hang(0.8)
        reply = hangy.recommend(0, k=3)  # first attempts time out, later wins
        assert reply["degraded"] is False


class TestLifecycle:
    def test_ephemeral_port_resolved(self, served) -> None:
        server, _, _ = served
        host, port = server.address
        assert port != 0
        assert server.url == f"http://{host}:{port}"

    def test_close_is_idempotent_and_final(
        self, gowalla_split: SplitDataset
    ) -> None:
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        config = ServiceConfig(
            window=SMALL_WINDOW, n_items=gowalla_split.n_items
        )
        service = service_for_split(model, gowalla_split, config=config)
        server = RecommendServer(service, port=0).start()
        url = server.url
        server.close()
        client = ServingClient(url, timeout=0.5)
        assert client.health() is False
        # The underlying service refuses new work once closed.
        with pytest.raises(ServingError, match="closed"):
            service.recommend(0)

    def test_two_servers_can_coexist(self, gowalla_split: SplitDataset) -> None:
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        config = ServiceConfig(
            window=SMALL_WINDOW, n_items=gowalla_split.n_items
        )
        with RecommendServer(
            service_for_split(model, gowalla_split, config=config), port=0
        ).start() as one, RecommendServer(
            service_for_split(model, gowalla_split, config=config), port=0
        ).start() as two:
            assert one.address != two.address
            assert ServingClient(one.url).health()
            assert ServingClient(two.url).health()


class TestPersistentConnections:
    def test_sequential_requests_share_one_connection(self, served) -> None:
        server, client, _ = served
        accepted = count_connections(server)
        for request in range(50):
            if request % 2:
                assert client.health()
            else:
                client.recommend(0, k=3)
        assert len(accepted) == 1

    def test_sequential_events_do_not_stall(self, served) -> None:
        """Guard against the ~40 ms Nagle/delayed-ACK stall per reply."""
        _, client, split = served
        items = split.full_sequence(0).items
        start = time.monotonic()
        for step in range(200):
            client.ingest(0, int(items[step % len(items)]))
        elapsed = time.monotonic() - start
        assert elapsed < 4.0, f"200 events took {elapsed:.2f}s"

    def test_error_replies_do_not_poison_the_connection(self, served) -> None:
        """After each bad request the same client's next request works."""
        server, client, _ = served
        accepted = count_connections(server)
        bad_requests = [
            ("/nope", {"user": 0}, "HTTP 404"),  # unknown POST route
            (  # the server may reject before the client finished sending
                "/events",
                {"user": 0, "item": 1, "pad": "x" * MAX_BODY_BYTES},
                "too large|Broken pipe|reset",
            ),
            ("/events", {"user": 0}, "missing required field"),
        ]
        for path, payload, message in bad_requests:
            with pytest.raises(ServingError, match=message):
                client._request(path, payload, retries=0)
            assert client.recommend(0, k=3)["user"] == 0
        # Every error reply closed its connection, and the good request
        # after it reconnected: one connection per bad request, plus the
        # one the last good request left open.
        assert len(accepted) == len(bad_requests) + 1

    @pytest.mark.parametrize(
        "method, path, length, status, message",
        [
            ("POST", "/events", "twelve", 400, b"malformed Content-Length"),
            ("GET", "/healthz", "11", 200, b"ok"),  # body never read
        ],
    )
    def test_unread_body_closes_the_connection(
        self, served, method, path, length, status, message
    ) -> None:
        server, _, _ = served
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.putrequest(method, path)
            connection.putheader("Content-Length", length)
            connection.endheaders(b'{"user": 0}')
            reply = connection.getresponse()
            assert reply.status == status
            assert reply.getheader("Connection") == "close"
            assert message in reply.read()
            # The leftover body died with the connection: a request on
            # a fresh one parses cleanly.
            connection.request("GET", "/healthz")
            reply = connection.getresponse()
            assert reply.status == 200
            assert json.loads(reply.read()) == {"status": "ok"}
        finally:
            connection.close()

    def test_close_cuts_pooled_connections(
        self, gowalla_split: SplitDataset
    ) -> None:
        """A kept-alive client sees a closed server as unavailable."""
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        config = ServiceConfig(
            window=SMALL_WINDOW, n_items=gowalla_split.n_items
        )
        server = RecommendServer(
            service_for_split(model, gowalla_split, config=config), port=0
        ).start()
        client = ServingClient(server.url, timeout=5.0, retries=0)
        assert client.health()  # leaves one pooled connection
        server.close()
        with pytest.raises(ServingUnavailableError):
            client.recommend(0, k=3)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_never_sends_on_parent_socket(self, served) -> None:
        server, client, _ = served
        accepted = count_connections(server)
        assert client.health()
        pid = os.fork()
        if pid == 0:  # child: exit without returning into pytest
            code = 1
            try:
                code = 0 if client.health() else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert len(accepted) == 2  # the child had to connect on its own
        assert client.health()
        assert len(accepted) == 2  # and the parent's socket still works
