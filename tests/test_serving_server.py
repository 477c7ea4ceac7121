"""HTTP transport round-trips: server routes, client, error mapping.

Every test binds to an ephemeral port (``port=0``) so the suite can run
in parallel and on busy machines. The server under test fronts a real
:class:`RecommendService` over the Recency model, so these are true
end-to-end round-trips: socket → handler → scoring queue → model →
JSON reply.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import threading
import time
import urllib.request

import pytest

from conftest import SMALL_WINDOW

from repro.config import WindowConfig
from repro.data.split import SplitDataset
from repro.exceptions import ServingError, ServingUnavailableError
from repro.models.recency import RecencyRecommender
from repro.resilience.faults import ProcessFaultInjector
from repro.serving import (
    EventLog,
    RecommendServer,
    ServiceConfig,
    ServingClient,
    service_for_split,
)
from repro.serving.wire import MAX_BODY_BYTES, MAX_HEADER_LINES, MAX_LINE_BYTES


@pytest.fixture()
def served(gowalla_split: SplitDataset):
    """A running ephemeral-port server + client over Recency."""
    model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
    config = ServiceConfig(window=SMALL_WINDOW, n_items=gowalla_split.n_items)
    service = service_for_split(model, gowalla_split, config=config)
    server = RecommendServer(service, port=0).start()
    try:
        with ServingClient(server.url) as client:
            yield server, client, gowalla_split
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
        with ServingClient(server.url) as client:
            yield server, client, gowalla_split
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
        exc_info.value.close()
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
        exc_info.value.close()
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
        # A client with no memory of the first one.
        with ServingClient(server.url) as fresh:
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
        with ServingClient(server.url, timeout=30.0, retries=0) as tight:
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
        server, client, _ = served
        with ServingClient(
            server.url, timeout=0.2, retries=8, backoff_s=0.1, max_backoff_s=0.4
        ) as hangy:
            client.hang(0.8)
            reply = hangy.recommend(0, k=3)  # early attempts time out
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
            for server in (one, two):
                with ServingClient(server.url) as client:
                    assert client.health()


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
            (  # refused by the client before a byte is sent
                "/events",
                {"user": 0, "item": 1, "pad": "x" * MAX_BODY_BYTES},
                "too large",
            ),
            ("/events", {"user": 0}, "missing required field"),
        ]
        for path, payload, message in bad_requests:
            with pytest.raises(ServingError, match=message):
                client._request(path, payload, retries=0)
            assert client.recommend(0, k=3)["user"] == 0
        # Every error reply closed its connection, and the good request
        # after it reconnected: one connection per bad request the server
        # answered (all but the oversized one, which never left the
        # client), plus the one the last good request left open.
        assert len(accepted) == len(bad_requests)

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


class TestClientLifetimes:
    def test_fault_injector_closes_its_client(
        self, served, opened_clients
    ) -> None:
        server, client, _ = served
        ProcessFaultInjector().hang(server.url, 0.0)
        assert len(opened_clients) == 1
        assert opened_clients[0].closed
        assert client.health()


class TestBodyLimit:
    @pytest.mark.parametrize(
        "payload",
        [
            {"user": 0, "item": 1, "pad": "x" * MAX_BODY_BYTES},
            # A seq makes /events retryable; the refusal still is not.
            {"user": 0, "item": 1, "seq": 0, "pad": "x" * MAX_BODY_BYTES},
        ],
    )
    def test_oversized_payload_is_refused_before_sending(
        self, served, payload
    ) -> None:
        server, client, _ = served
        accepted = count_connections(server)
        with pytest.raises(ServingError, match="too large") as exc_info:
            client._request("/events", payload, retries=5)
        assert not isinstance(exc_info.value, ServingUnavailableError)
        assert accepted == []  # not a byte sent, no attempt retried
        assert client.state(0)["live_events"] == 0

    def test_body_at_the_limit_goes_through(self, served) -> None:
        """Client and server share the limit: a body of exactly
        ``MAX_BODY_BYTES`` is sent and taken, one byte more is not."""
        _, client, _ = served
        base = len(json.dumps({"user": 0, "item": 1, "pad": ""}))
        payload = {"user": 0, "item": 1, "pad": "x" * (MAX_BODY_BYTES - base)}
        assert client._request("/events", payload)["position"] >= 0
        payload["pad"] += "x"
        with pytest.raises(ServingError, match="too large"):
            client._request("/events", payload)


def raw_exchange(server: RecommendServer, data: bytes, send=None) -> bytes:
    """Send ``data`` on a fresh socket; return all the server wrote
    before closing it. ``send`` (optional) runs after the first reply
    byte arrives, with the socket, to send more."""
    with socket.create_connection(server.address, timeout=10) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)
            if send is not None:
                send(sock)
                send = None


def split_replies(stream: bytes) -> list:
    """Cut a server's byte stream into ``(status, headers, body)``."""
    replies = []
    while stream:
        head, _, stream = stream.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        replies.append((int(status_line.split()[1]), headers, stream[:length]))
        stream = stream[length:]
    return replies


def post(body: bytes, *headers: str, version: str = "HTTP/1.1") -> bytes:
    head = "".join(f"{header}\r\n" for header in headers)
    return f"POST /events {version}\r\n{head}\r\n".encode() + body


EVENT = b'{"user": 0, "item": 1}'


class TestServerCodec:
    """Raw-socket requests against the server's HTTP/1.1 parser."""

    def test_lower_case_content_length(self, served) -> None:
        server, _, _ = served
        stream = raw_exchange(
            server,
            post(EVENT, f"content-length: {len(EVENT)}")
            + b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        (event, event_headers, body), (health, headers, _) = split_replies(
            stream
        )
        assert event == 200 and json.loads(body)["item"] == 1
        assert "connection" not in event_headers  # kept alive
        assert health == 200 and headers["connection"] == "close"

    @pytest.mark.parametrize(
        "headers, message",
        [
            (
                (f"Content-Length: {len(EVENT)}", "Content-Length: 7"),
                b"conflicting Content-Length",
            ),
            (
                (f"Content-Length: {len(EVENT)}", "Transfer-Encoding: chunked"),
                b"Transfer-Encoding",
            ),
            (("Content-Length: -1",), b"malformed Content-Length"),
            (("Host 127.0.0.1",), b"without a colon"),
        ],
    )
    def test_bad_framing_is_400_and_closes(
        self, served, headers, message
    ) -> None:
        server, client, _ = served
        # A second request after the bad one is never answered: the
        # connection closes after the 400.
        stream = raw_exchange(
            server, post(EVENT, *headers) + b"GET /healthz HTTP/1.1\r\n\r\n"
        )
        [(status, reply_headers, body)] = split_replies(stream)
        assert status == 400
        assert reply_headers["connection"] == "close"
        assert message in body
        assert client.state(0)["live_events"] == 0

    def test_header_line_limit(self, served) -> None:
        server, _, _ = served
        fields = [f"X-Filler-{n}: {n}" for n in range(MAX_HEADER_LINES - 1)]
        at_limit = post(EVENT, f"Content-Length: {len(EVENT)}", *fields)
        over = post(EVENT, f"Content-Length: {len(EVENT)}", "X-One: 1", *fields)
        at_limit += b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        assert [r[0] for r in split_replies(raw_exchange(server, at_limit))] == [
            200,
            200,
        ]
        [(status, headers, _)] = split_replies(raw_exchange(server, over))
        assert status == 431 and headers["connection"] == "close"

    def test_header_line_length_limit(self, served) -> None:
        server, _, _ = served
        request = post(EVENT, "X-Long: " + "x" * MAX_LINE_BYTES)
        [(status, _, _)] = split_replies(raw_exchange(server, request))
        assert status == 431

    @pytest.mark.parametrize(
        "line, status",
        [
            (b"GET /healthz HTTP/2.0", 505),
            (b"GET /healthz HTTP/1.2", 505),
            (b"GET /healthz HTTQ/1.1", 400),
            (b"GET /healthz", 400),
            (b"GET /healthz HTTP/1.1 extra", 400),
        ],
    )
    def test_request_line_is_strict(self, served, line, status) -> None:
        server, _, _ = served
        [(answered, headers, body)] = split_replies(
            raw_exchange(server, line + b"\r\n\r\n")
        )
        assert answered == status and headers["connection"] == "close"
        assert "error" in json.loads(body)

    def test_http_1_0_is_answered_then_closed(self, served) -> None:
        server, _, _ = served
        stream = raw_exchange(
            server,
            b"GET /healthz HTTP/1.0\r\n\r\nGET /healthz HTTP/1.0\r\n\r\n",
        )
        [(status, headers, body)] = split_replies(stream)
        assert status == 200 and json.loads(body) == {"status": "ok"}
        assert headers["connection"] == "close"

    def test_connection_close_is_honoured(self, served) -> None:
        server, _, _ = served
        stream = raw_exchange(
            server,
            post(EVENT, f"Content-Length: {len(EVENT)}", "Connection: close")
            + b"GET /healthz HTTP/1.1\r\n\r\n",
        )
        [(status, headers, _)] = split_replies(stream)
        assert status == 200 and headers["connection"] == "close"

    def test_expect_100_continue(self, served) -> None:
        server, _, _ = served
        stream = raw_exchange(
            server,
            post(
                b"",
                f"Content-Length: {len(EVENT)}",
                "Expect: 100-continue",
                "Connection: close",
            ),
            send=lambda sock: sock.sendall(EVENT),
        )
        (interim, _, _), (status, _, body) = split_replies(stream)
        assert interim == 100
        assert status == 200 and json.loads(body)["position"] >= 0


class FakeServer:
    """A socket server answering every request with ``reply``.

    Counts the connections it accepts. ``drip`` writes the reply one
    byte at a time; ``hang_up`` closes the connection after it.
    """

    def __init__(
        self, reply: bytes, drip: bool = False, hang_up: bool = False
    ) -> None:
        self.reply, self.drip, self.hang_up = reply, drip, hang_up
        self.accepted = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % self._listener.getsockname()[1]
        self._threads = [threading.Thread(target=self._accept)]
        self._threads[0].start()

    def _accept(self) -> None:
        while True:
            try:
                connection, _ = self._listener.accept()
            except OSError:  # listener closed
                return
            self.accepted += 1
            thread = threading.Thread(target=self._answer, args=(connection,))
            self._threads.append(thread)
            thread.start()

    def _answer(self, connection: socket.socket) -> None:
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with connection:
            pending = b""
            while True:
                while b"\r\n\r\n" not in pending:  # our GETs carry no body
                    chunk = connection.recv(65536)
                    if not chunk:
                        return
                    pending += chunk
                _, _, pending = pending.partition(b"\r\n\r\n")
                if self.drip:
                    for byte in self.reply:
                        connection.sendall(bytes([byte]))
                else:
                    connection.sendall(self.reply)
                if self.hang_up:
                    return

    def close(self) -> None:
        # shutdown wakes the blocked accept; joining every thread then
        # proves no fake-server connection outlived the test.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        for thread in self._threads:
            thread.join(timeout=10)
            assert not thread.is_alive()


OK_REPLY = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b'Content-Length: 16\r\n\r\n{"status": "ok"}'
)


class TestClientCodec:
    """The client's reply parser against scripted servers."""

    def fake(self, reply: bytes, **options) -> FakeServer:
        server = FakeServer(reply, **options)
        self._fakes.append(server)
        return server

    @pytest.fixture(autouse=True)
    def _close_fakes(self):
        self._fakes = []
        yield
        for server in self._fakes:
            server.close()

    def test_reply_written_byte_by_byte(self) -> None:
        server = self.fake(OK_REPLY, drip=True)
        with ServingClient(server.url, timeout=10, retries=0) as client:
            for _ in range(2):
                assert client._request("/healthz") == {"status": "ok"}
        assert server.accepted == 1  # and the connection was kept

    def test_reply_without_content_length_is_torn(self) -> None:
        reply = b'HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{"status": "ok"}'
        server = self.fake(reply, hang_up=True)
        with ServingClient(server.url, timeout=10, retries=0) as client:
            with pytest.raises(ServingUnavailableError, match="Content-Length"):
                client._request("/healthz")

    def test_truncated_body_is_torn(self) -> None:
        server = self.fake(OK_REPLY[:-4], hang_up=True)
        with ServingClient(server.url, timeout=10, retries=0) as client:
            with pytest.raises(ServingUnavailableError, match="closed"):
                client._request("/healthz")

    def test_stray_bytes_leave_the_connection_unpooled(self) -> None:
        server = self.fake(OK_REPLY + b"HTTP/1.1 200 OK\r\n")
        with ServingClient(server.url, timeout=10, retries=0) as client:
            for _ in range(3):
                assert client._request("/healthz") == {"status": "ok"}
        assert server.accepted == 3
