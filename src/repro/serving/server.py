"""Stdlib JSON-over-HTTP front end for :class:`RecommendService`.

No framework, no new dependency: a :class:`http.server.ThreadingHTTPServer`
whose handler translates four routes into service calls:

===========  ======  ====================================================
Route        Method  Body / response
===========  ======  ====================================================
/events      POST    ``{"user": u, "item": i, "seq"?: s}`` → committed
                     position (``seq`` makes retried appends idempotent)
/recommend   POST    ``{"user": u, "k"?: n, "deadline_ms"?: d}`` →
                     ranked items + degraded flag
/metrics     GET     full metrics snapshot (counters, latency, cache)
/healthz     GET     liveness probe
/state       GET     ``?user=u`` → position, live-event count, and state
                     fingerprint (supervisor readmission checks, client
                     idempotency-counter initialization)
/admin/hang  POST    ``{"seconds": s}`` → stall every *subsequent*
                     request for ``s`` seconds (chaos hook simulating a
                     hung worker; the supervisor must detect and react)
===========  ======  ====================================================

Connections are persistent (HTTP/1.1 keep-alive with ``TCP_NODELAY``):
a client pays the TCP handshake and the handler-thread start once per
connection, not once per request. Error replies close their connection,
and :meth:`RecommendServer.close` cuts every live one.

Handler threads funnel into the service's micro-batching queue, so
concurrent HTTP clients are exactly what fills scoring batches. Request
logging goes through :mod:`repro.logging_utils` with the service's
per-request ids — the default ``BaseHTTPRequestHandler`` stderr writes
are disabled.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Set, Tuple

from repro.exceptions import ReproError, ServingError
from repro.logging_utils import get_logger
from repro.serving.service import RecommendService

logger = get_logger("serving.server")

#: Reject request bodies beyond this size (a liveness guard, not a quota).
MAX_BODY_BYTES = 1 << 20


def _cut(connection: socket.socket) -> None:
    """Shut a socket down both ways; its handler thread then sees EOF."""
    try:
        connection.shutdown(socket.SHUT_RDWR)
    except OSError:  # already closed by the peer or by its handler
        pass


class KeepAliveHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server that can cut its persistent connections.

    Under HTTP/1.1 a handler thread serves one connection until the
    client hangs up, so stopping the accept loop alone would leave idle
    keep-alive connections answering after the service behind them
    closed. :meth:`close` stops accepting and then shuts down every open
    connection, so clients see the same unavailability a refused
    connection gives them.
    """

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], handler: type) -> None:
        super().__init__(address, handler)
        self._connections: Set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        self._closing = False

    def track(self, connection: socket.socket) -> None:
        with self._connections_lock:
            if not self._closing:
                self._connections.add(connection)
                return
        _cut(connection)  # accepted while close() ran

    def untrack(self, connection: socket.socket) -> None:
        with self._connections_lock:
            self._connections.discard(connection)

    def close(self) -> None:
        """Stop the accept loop, cut every live connection, unbind."""
        self.shutdown()
        with self._connections_lock:
            self._closing = True
            live = list(self._connections)
        for connection in live:
            _cut(connection)
        self.server_close()


class JSONRequestHandler(BaseHTTPRequestHandler):
    """JSON-over-HTTP/1.1 plumbing shared by the shard and router handlers.

    Connections persist between requests. A connection is kept only
    after a successful reply to a request whose body was read in full:
    any reply with status >= 400 — and any reply leaving body bytes
    unread — carries ``Connection: close``, so leftover bytes can never
    be parsed as the next request.
    """

    protocol_version = "HTTP/1.1"
    # Headers and body go out as two writes; with Nagle on, a persistent
    # connection stalls every reply on the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True
    server: KeepAliveHTTPServer

    def setup(self) -> None:
        super().setup()
        self.server.track(self.connection)

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            self.server.untrack(self.connection)

    def parse_request(self) -> bool:
        parsed = super().parse_request()
        # Body bytes sit unread on the connection until _read_json runs.
        self._body_pending = parsed and (
            self.headers.get("Content-Length", "0").strip() != "0"
            or "Transfer-Encoding" in self.headers
        )
        return parsed

    # Silence the default stderr access log; we log through `repro`.
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        logger.debug("%s %s", self.address_string(), format % args)

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if status >= 400 or self._body_pending:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # The client gave up (timeout, retry elsewhere) before the
            # reply went out; nothing to answer anymore.
            logger.debug("client disconnected before reply on %s", self.path)
            self.close_connection = True

    def _read_json(self) -> dict:
        if "Transfer-Encoding" in self.headers:
            raise ServingError("chunked request bodies are not supported")
        declared = self.headers.get("Content-Length", "0")
        try:
            length = int(declared)
        except ValueError as exc:
            raise ServingError(
                f"malformed Content-Length {declared!r}"
            ) from exc
        if length < 0:
            raise ServingError(f"malformed Content-Length {declared!r}")
        if length > MAX_BODY_BYTES:
            raise ServingError(f"request body too large ({length} bytes)")
        raw = self.rfile.read(length) if length else b""
        self._body_pending = False
        try:
            payload = json.loads(raw or b"{}")
        except json.JSONDecodeError as exc:
            raise ServingError(f"request body is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServingError("request body must be a JSON object")
        return payload

    @staticmethod
    def _field(payload: dict, name: str) -> int:
        if name not in payload:
            raise ServingError(f"missing required field {name!r}")
        try:
            return int(payload[name])
        except (TypeError, ValueError) as exc:
            raise ServingError(f"field {name!r} must be an integer") from exc

    @staticmethod
    def _query_field(query: str, name: str) -> int:
        values = urllib.parse.parse_qs(query).get(name)
        if not values:
            raise ServingError(f"missing required query param {name!r}")
        try:
            return int(values[0])
        except ValueError as exc:
            raise ServingError(
                f"query param {name!r} must be an integer"
            ) from exc


class _Handler(JSONRequestHandler):
    """Route HTTP requests into the wrapped service."""

    #: Set by RecommendServer before the server starts.
    service: RecommendService

    def _hang_if_armed(self) -> None:
        """Chaos gate: stall this handler while a hang window is open."""
        until = getattr(self.server, "hang_until", 0.0)
        now = time.monotonic()
        if now < until:
            time.sleep(until - now)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            self._hang_if_armed()
            parsed = urllib.parse.urlsplit(self.path)
            if parsed.path == "/healthz":
                self._send_json(200, {"status": "ok"})
            elif parsed.path == "/metrics":
                self._send_json(200, self.service.metrics_snapshot())
            elif parsed.path == "/state":
                user = self._query_field(parsed.query, "user")
                self._send_json(200, self.service.user_state(user))
            else:
                self._send_json(404, {"error": f"unknown route {self.path}"})
        except ReproError as exc:
            self._send_json(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - must answer the socket
            logger.warning("GET %s failed: %s", self.path, exc)
            self._send_json(500, {"error": str(exc)})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            if self.path == "/admin/hang":
                # The hang request itself answers immediately; only
                # requests arriving inside the window stall.
                payload = self._read_json()
                seconds = float(payload.get("seconds", 0.0))
                self.server.hang_until = time.monotonic() + seconds  # type: ignore[attr-defined]
                self._send_json(200, {"hanging_s": seconds})
                return
            self._hang_if_armed()
            payload = self._read_json()
            if self.path == "/events":
                user = self._field(payload, "user")
                item = self._field(payload, "item")
                seq = self._field(payload, "seq") if "seq" in payload else None
                position = self.service.ingest(user, item, client_seq=seq)
                self._send_json(
                    200, {"user": user, "item": item, "position": position}
                )
            elif self.path == "/recommend":
                user = self._field(payload, "user")
                k = (
                    self._field(payload, "k") if "k" in payload else None
                )
                deadline_ms = payload.get("deadline_ms")
                if deadline_ms is not None:
                    deadline_ms = float(deadline_ms)
                result = self.service.recommend(
                    user, k=k, deadline_ms=deadline_ms
                )
                self._send_json(
                    200,
                    {
                        "request_id": result.request_id,
                        "user": result.user,
                        "t": result.t,
                        "items": result.items,
                        "degraded": result.degraded,
                        "latency_ms": round(1e3 * result.latency_s, 3),
                    },
                )
            else:
                self._send_json(404, {"error": f"unknown route {self.path}"})
        except ReproError as exc:
            self._send_json(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - must answer the socket
            logger.warning("POST %s failed: %s", self.path, exc)
            self._send_json(500, {"error": str(exc)})


class RecommendServer:
    """Own one HTTP listener bound to one :class:`RecommendService`.

    ``start()`` serves from a daemon thread (tests, embedding);
    ``serve_forever()`` blocks (the CLI). ``close()`` shuts the listener
    and every kept-alive connection down and closes the service —
    sealing the event log, so a restarted server recovers by replay.
    """

    def __init__(
        self,
        service: RecommendService,
        host: str = "127.0.0.1",
        port: int = 8423,
    ) -> None:
        handler = type("BoundHandler", (_Handler,), {"service": service})
        self.service = service
        self._httpd = KeepAliveHTTPServer((host, port), handler)
        self._httpd.hang_until = 0.0  # type: ignore[attr-defined] - chaos gate
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — port resolved if 0 was requested."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "RecommendServer":
        """Serve from a background daemon thread."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serving-http",
            daemon=True,
        )
        self._thread.start()
        logger.info("serving on %s", self.url)
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        logger.info("serving on %s", self.url)
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:
            logger.info("interrupted; shutting down")
        finally:
            self.close()

    def close(self) -> None:
        """Stop the listener, cut live connections, close the service.

        Closing the service seals the event log.
        """
        self._httpd.close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.service.close()

    def __enter__(self) -> "RecommendServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
