"""JSON-over-HTTP/1.1 front end for :class:`RecommendService`.

No framework, no new dependency: a :class:`http.server.ThreadingHTTPServer`
accept loop whose handler translates the routes below into service
calls:

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

:class:`JSONRequestHandler` keeps :class:`http.server.BaseHTTPRequestHandler`'s
read loop but frames requests and replies itself, with the strict
limits of :mod:`repro.serving.wire`: a split-based header parser in
place of the stdlib's :mod:`email.parser` one, ``Content-Length``-only
bodies, and every reply — protocol errors included — one JSON buffer
written with a single ``send``.

Handler threads funnel into the service's in-flight scoring queue, so
concurrent HTTP clients are exactly what fills scoring kernels. Request
logging goes through :mod:`repro.logging_utils` with the service's
per-request ids — the default ``BaseHTTPRequestHandler`` stderr writes
are disabled.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import time
import urllib.parse
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Set, Tuple

from repro.exceptions import ReproError, ServingError
from repro.logging_utils import get_logger
from repro.serving.service import RecommendService
from repro.serving.wire import (
    MAX_BODY_BYTES,
    MAX_HEADER_LINES,
    MAX_LINE_BYTES,
    Headers,
)

logger = get_logger("serving.server")

#: Request versions served; any other HTTP version gets 505.
_VERSIONS = ("HTTP/1.1", "HTTP/1.0")


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
        self._date: Tuple[int, bytes] = (0, b"")

    def date_line(self) -> bytes:
        """The ``Date`` header line, formatted once per second."""
        now = int(time.time())
        second, line = self._date
        if second != now:
            line = f"Date: {formatdate(now, usegmt=True)}\r\n".encode("ascii")
            self._date = (now, line)
        return line

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

    :class:`BaseHTTPRequestHandler` still owns the read loop: the request
    line and its 414 limit, socket timeouts, the 501 for unknown methods
    and dispatch to ``do_<METHOD>``. This class parses the rest of the
    request and writes every reply:

    * the request line has exactly three words and names HTTP/1.1 or
      HTTP/1.0 (else 400, or 505 for another version);
    * at most :data:`~repro.serving.wire.MAX_HEADER_LINES` header lines
      of at most :data:`~repro.serving.wire.MAX_LINE_BYTES` each (else
      431), each with a colon (else 400);
    * a body is framed by one ``Content-Length``; a malformed or
      conflicting length, or any ``Transfer-Encoding``, gets 400;
    * ``Expect: 100-continue`` is answered before the body is read.

    Connections persist between requests unless the request is HTTP/1.0
    or says ``Connection: close``. A connection is kept only after a
    successful reply to a request whose body was read in full: any reply
    with status >= 400 — and any reply leaving body bytes unread —
    carries ``Connection: close``, so leftover bytes can never be parsed
    as the next request.
    """

    protocol_version = "HTTP/1.1"
    # A reply is one write, but one larger than a segment (a /metrics
    # snapshot) would still hold its tail for the client's delayed ACK
    # (~40 ms) under Nagle.
    disable_nagle_algorithm = True
    server: KeepAliveHTTPServer
    _body_length = 0
    _body_pending = False

    def setup(self) -> None:
        super().setup()
        self.server.track(self.connection)

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            self.server.untrack(self.connection)

    def parse_request(self) -> bool:
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        self._body_pending = False
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip(
            "\r\n"
        )
        words = self.requestline.split()
        if len(words) != 3:
            self.send_error(400, f"bad request line {self.requestline!r}")
            return False
        command, path, version = words
        if version not in _VERSIONS:
            status = 505 if version.startswith("HTTP/") else 400
            self.send_error(status, f"unsupported version {version!r}")
            return False
        self.command, self.request_version = command, version
        # As http.server does: "//host/path" must not read as a URL.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path

        headers = self.headers = Headers()
        for _ in range(MAX_HEADER_LINES + 1):
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                self.send_error(431, "header line too long")
                return False
            if line in (b"\r\n", b"\n"):
                break
            if not line:  # the peer hung up mid-request
                return False
            if not headers.add_line(line):
                self.send_error(400, "header line without a colon")
                return False
        else:
            self.send_error(431, "too many header lines")
            return False

        try:
            length = headers.content_length()
        except ValueError as exc:
            self.send_error(400, str(exc))
            return False
        if "Transfer-Encoding" in headers:
            self.send_error(
                400, "Transfer-Encoding is not supported; send Content-Length"
            )
            return False
        self._body_length = length or 0
        # Body bytes sit unread on the connection until _read_json runs.
        self._body_pending = self._body_length > 0
        self.close_connection = version == "HTTP/1.0" or headers.has_token(
            "Connection", "close"
        )
        if version == "HTTP/1.1" and headers.has_token("Expect", "100-continue"):
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return True

    # Silence the default stderr access log; we log through `repro`.
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("%s %s", self.address_string(), format % args)

    def send_error(
        self,
        code: int,
        message: Optional[str] = None,
        explain: Optional[str] = None,
    ) -> None:
        """Answer a protocol error as JSON, like every other reply."""
        if message is None:
            message = self.responses.get(code, ("error",))[0]
        self.log_error("code %d, message %s", code, message)
        self._send_json(code, {"error": message})

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        close = status >= 400 or self._body_pending or self.close_connection
        reason = self.responses.get(status, ("",))[0]
        head = (
            f"{self.protocol_version} {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        ).encode("latin-1")
        try:
            self.wfile.write(
                b"".join(
                    (
                        head,
                        self.server.date_line(),
                        b"Connection: close\r\n\r\n" if close else b"\r\n",
                        body,
                    )
                )
            )
        except (BrokenPipeError, ConnectionResetError):
            # The client gave up (timeout, retry elsewhere) before the
            # reply went out; nothing to answer anymore.
            logger.debug(
                "client disconnected before reply to %r", self.requestline
            )
            close = True
        self.close_connection = close
        self.log_request(status, len(body))

    def _read_json(self) -> dict:
        length = self._body_length
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
