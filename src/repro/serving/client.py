"""HTTP client for the serving endpoints.

Speaks the same routes as :mod:`repro.serving.server` (and the cluster
router, which mounts the identical surface) over the strict HTTP/1.1
subset of :mod:`repro.serving.wire`. Connections persist: each client
keeps a small, lock-guarded pool of idle connections shared by every
thread using it (the router shares one client per shard across its
handler threads). A connection is one ``TCP_NODELAY`` socket with its
read buffer; a request goes out in one ``sendall`` and its reply is read
by splitting the header block and then exactly ``Content-Length`` body
bytes. A pooled connection the peer has closed is dropped before reuse,
and one that fails mid-request — or holds bytes past the reply it just
read — is closed, never pooled again. A client inherited by a forked
child forgets the parent's connections instead of sending on them.

Failures are typed:

* 4xx/5xx replies surface as :class:`~repro.exceptions.ServingError`
  carrying the server's error message — the server *answered*, the
  request was wrong; so does a payload over
  :data:`~repro.serving.wire.MAX_BODY_BYTES`, refused before sending;
* connection failures, timeouts and torn replies (one cut short, or
  without ``Content-Length``) surface as
  :class:`~repro.exceptions.ServingUnavailableError` — the request may
  never have been processed, so idempotent retries are safe.

Every request honors a ``timeout=`` argument (falling back to the
client default), and transient failures are retried with bounded
exponential backoff. Retrying ``/events`` is only safe when the append
is idempotent, so the client attaches a per-user sequence number to
each event (``track_seq=True``, the default): the server deduplicates a
retried append whose first attempt actually committed. Counters are
initialized from the server's ``/state`` on first contact with a user
and assume a single writer per user — exactly what consistent-hash
routing guarantees in the cluster.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import urllib.parse
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ServingError, ServingUnavailableError
from repro.serving.wire import MAX_BODY_BYTES, Headers

#: Idle connections kept per client; more concurrent requests than this
#: still run, their surplus connections are closed on return.
_MAX_IDLE = 8

#: Largest reply header block read before the reply counts as torn.
_MAX_HEAD_BYTES = 1 << 16


class _Connection:
    """One HTTP/1.1 connection: a ``TCP_NODELAY`` socket and its buffer.

    Raises :class:`OSError` for every failure, torn replies included
    (:class:`ConnectionError`), so the caller has one error to type.
    """

    def __init__(self, address: Tuple[str, int], timeout: float) -> None:
        self.sock = socket.create_connection(address, timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = bytearray()

    def _receive(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("connection closed before the reply ended")
        self.buffer += chunk

    def exchange(self, request: bytes) -> Tuple[int, str, bytes, bool]:
        """Send ``request``; return the reply's status, reason, body and
        whether the connection may carry another request."""
        self.sock.sendall(request)
        buffer = self.buffer
        while True:
            end = buffer.find(b"\r\n\r\n")
            if end >= 0:
                break
            if len(buffer) > _MAX_HEAD_BYTES:
                raise ConnectionError("reply header block too large")
            self._receive()
        status_line, *lines = bytes(buffer[:end]).split(b"\r\n")
        parts = status_line.split(b" ", 2)
        if (
            len(parts) < 2
            or not parts[0].startswith(b"HTTP/1.")
            or not (len(parts[1]) == 3 and parts[1].isdigit())
        ):
            raise ConnectionError(f"malformed status line {status_line[:80]!r}")
        headers = Headers()
        for line in lines:
            if not headers.add_line(line):
                raise ConnectionError("reply header line without a colon")
        try:
            length = headers.content_length()
        except ValueError as exc:
            raise ConnectionError(str(exc)) from None
        if length is None:
            raise ConnectionError("reply has no Content-Length")
        start = end + 4
        stop = start + length
        while len(buffer) < stop:
            self._receive()
        body = bytes(buffer[start:stop])
        del buffer[:stop]
        # Bytes past the reply mean the exchange is out of step.
        keep = (
            not buffer
            and parts[0] == b"HTTP/1.1"
            and not headers.has_token("Connection", "close")
        )
        reason = parts[2].decode("latin-1") if len(parts) > 2 else ""
        return int(parts[1]), reason, body, keep

    def close(self) -> None:
        self.sock.close()


def _reusable(connection: _Connection) -> bool:
    """Whether an idle pooled connection is open with nothing unread.

    A non-blocking peek, not ``select``: it works for any descriptor
    number. An empty read means the peer closed; stray bytes mean the
    exchange is out of step — neither connection may carry a request.
    """
    try:
        connection.sock.setblocking(False)
        connection.sock.recv(1, socket.MSG_PEEK)
    except BlockingIOError:
        return True
    except OSError:
        return False
    return False


class ServingClient:
    """Talk to one :class:`~repro.serving.server.RecommendServer` or router.

    Parameters
    ----------
    base_url:
        Endpoint root, e.g. ``http://127.0.0.1:8423``.
    timeout:
        Default per-request timeout in seconds.
    retries:
        Transient-failure retries per request (on top of the first
        attempt). ``0`` disables retrying.
    backoff_s / max_backoff_s:
        Exponential-backoff schedule: attempt *i* sleeps
        ``min(backoff_s * 2**i, max_backoff_s)`` before retrying.
    track_seq:
        Attach per-user sequence numbers to ``/events`` so retried
        appends are deduplicated server-side. Disable only for
        multi-writer setups where this client does not own its users.

    The client is thread-safe and holds open connections; :meth:`close`
    (or a ``with`` block) releases them.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 2,
        backoff_s: float = 0.05,
        max_backoff_s: float = 2.0,
        track_seq: bool = True,
    ) -> None:
        if retries < 0:
            raise ServingError(f"retries must be >= 0, got {retries}")
        if backoff_s < 0 or max_backoff_s < 0:
            raise ServingError("backoff delays must be non-negative")
        self.base_url = base_url.rstrip("/")
        parts = urllib.parse.urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ServingError(f"expected an http:// base URL, got {base_url!r}")
        try:
            self._address = (parts.hostname, parts.port or 80)
        except ValueError as exc:
            raise ServingError(f"bad port in {base_url!r}") from exc
        host = parts.hostname
        if ":" in host:  # an IPv6 literal
            host = f"[{host}]"
        self._host = f"{host}:{self._address[1]}"
        self._prefix = parts.path
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s
        self.track_seq = track_seq
        self._next_seq: Dict[int, int] = {}
        self._idle: List[_Connection] = []
        self._pool_lock = threading.Lock()
        self._pool_pid = os.getpid()

    # ------------------------------------------------------------------
    # Connection pool
    # ------------------------------------------------------------------
    def _forget_inherited(self) -> None:
        """In a forked child, drop the parent's pooled connections.

        The copies are closed without ``shutdown``, which would cut the
        parent's sockets too, and the lock is replaced because another
        parent thread may have held it at the fork.
        """
        if self._pool_pid == os.getpid():
            return
        inherited, self._idle = self._idle, []
        self._pool_lock = threading.Lock()
        self._pool_pid = os.getpid()
        for connection in inherited:
            connection.close()

    def _checkout(self, timeout: float) -> _Connection:
        self._forget_inherited()
        while True:
            with self._pool_lock:
                connection = self._idle.pop() if self._idle else None
            if connection is None:
                return _Connection(self._address, timeout)
            if _reusable(connection):
                connection.sock.settimeout(timeout)
                return connection
            self._discard(connection)

    def _checkin(self, connection: _Connection) -> None:
        with self._pool_lock:
            if len(self._idle) < _MAX_IDLE:
                self._idle.append(connection)
                return
        self._discard(connection)

    @staticmethod
    def _discard(connection: _Connection) -> None:
        """Close for good; ``shutdown`` so the server sees EOF even if a
        forked child still holds a copy of the descriptor."""
        try:
            connection.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        connection.close()

    def close(self) -> None:
        """Close every idle pooled connection; later requests reconnect."""
        self._forget_inherited()
        with self._pool_lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            self._discard(connection)

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _encode(self, path: str, payload: Optional[dict]) -> bytes:
        """The whole request — head and body — as one buffer."""
        head = f"{self._prefix}{path} HTTP/1.1\r\nHost: {self._host}\r\n"
        if payload is None:
            return f"GET {head}\r\n".encode("ascii")
        body = json.dumps(payload).encode("utf-8")
        if len(body) > MAX_BODY_BYTES:
            raise ServingError(
                f"{path}: request body too large ({len(body)} bytes, "
                f"limit {MAX_BODY_BYTES})"
            )
        return (
            f"POST {head}Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii") + body

    def _attempt(
        self, path: str, request: bytes, timeout: float
    ) -> Dict[str, object]:
        connection = None
        try:
            connection = self._checkout(timeout)
            status, reason, body, keep = connection.exchange(request)
        except OSError as exc:
            # Unreachable, socket timeouts, resets, and torn HTTP
            # exchanges: the server never answered. The connection may
            # still deliver a late reply, so it is never reused.
            if connection is not None:
                self._discard(connection)
            raise ServingUnavailableError(
                f"cannot reach {self.base_url}{path}: {exc}"
            ) from exc
        if keep:
            self._checkin(connection)
        else:
            self._discard(connection)
        if status >= 400:
            try:
                message = json.loads(body.decode("utf-8")).get("error", reason)
            except Exception:  # noqa: BLE001 - body may not be JSON
                message = reason
            if status == 503:
                # Service Unavailable is transient by definition (the
                # cluster router answers it while a shard restarts):
                # typed as unavailability so idempotent calls retry.
                raise ServingUnavailableError(
                    f"{path} failed with HTTP 503: {message}"
                )
            raise ServingError(f"{path} failed with HTTP {status}: {message}")
        return json.loads(body.decode("utf-8"))

    def _request(
        self,
        path: str,
        payload: Optional[dict] = None,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
    ) -> Dict[str, object]:
        """One request with bounded-backoff retries on unavailability."""
        request = self._encode(path, payload)
        timeout = self.timeout if timeout is None else float(timeout)
        retries = self.retries if retries is None else int(retries)
        attempt = 0
        while True:
            try:
                return self._attempt(path, request, timeout)
            except ServingUnavailableError:
                if attempt >= retries:
                    raise
                time.sleep(
                    min(self.backoff_s * (2 ** attempt), self.max_backoff_s)
                )
                attempt += 1

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def ingest(
        self,
        user: int,
        item: int,
        seq: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> int:
        """Send one consumption event; returns its committed position.

        With ``track_seq`` (default) the event carries a per-user
        sequence number, making retries idempotent; the counter is
        initialized from ``/state`` on first contact. An explicit
        ``seq`` overrides the tracked counter (and does not advance it).
        """
        payload: Dict[str, object] = {"user": int(user), "item": int(item)}
        tracked = seq is None and self.track_seq
        if tracked:
            if user not in self._next_seq:
                self._next_seq[user] = int(
                    self.state(user, timeout=timeout)["live_events"]  # type: ignore[arg-type]
                )
            seq = self._next_seq[user]
        if seq is not None:
            payload["seq"] = int(seq)
        # Without a seq the append is not idempotent: a retry could
        # double-apply, so unavailability surfaces after one attempt.
        reply = self._request(
            "/events",
            payload,
            timeout=timeout,
            retries=None if seq is not None else 0,
        )
        if tracked:
            self._next_seq[user] = int(seq) + 1  # type: ignore[arg-type]
        return int(reply["position"])  # type: ignore[arg-type]

    def recommend(
        self,
        user: int,
        k: Optional[int] = None,
        deadline_ms: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, object]:
        """Ask for a top-k list; returns the full response payload."""
        payload: Dict[str, object] = {"user": user}
        if k is not None:
            payload["k"] = k
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        return self._request("/recommend", payload, timeout=timeout)

    def recommend_items(
        self,
        user: int,
        k: Optional[int] = None,
        deadline_ms: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> List[int]:
        """Just the ranked item list of :meth:`recommend`."""
        return [
            int(item)
            for item in self.recommend(user, k, deadline_ms, timeout=timeout)[
                "items"
            ]  # type: ignore[union-attr]
        ]

    def state(
        self, user: int, timeout: Optional[float] = None
    ) -> Dict[str, object]:
        """Position, live-event count, and fingerprint of one user."""
        query = urllib.parse.urlencode({"user": int(user)})
        return self._request(f"/state?{query}", timeout=timeout)

    def metrics(self, timeout: Optional[float] = None) -> Dict[str, object]:
        return self._request("/metrics", timeout=timeout)

    def health(self, timeout: Optional[float] = None) -> bool:
        """Whether the server answers its liveness probe."""
        try:
            reply = self._request(
                "/healthz", timeout=timeout, retries=0
            )
            return reply.get("status") == "ok"
        except ServingError:
            return False

    def hang(self, seconds: float, timeout: Optional[float] = None) -> None:
        """Arm the server's chaos hang gate (testing/ops hook)."""
        self._request(
            "/admin/hang", {"seconds": float(seconds)}, timeout=timeout
        )
