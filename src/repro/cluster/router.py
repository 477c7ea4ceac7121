"""The cluster front-end: one address, N shards, graceful degradation.

:class:`ClusterRouter` mounts the *same* HTTP surface as a single
:class:`~repro.serving.server.RecommendServer` — ``/events``,
``/recommend``, ``/metrics``, ``/healthz``, ``/state`` — so a
:class:`~repro.serving.client.ServingClient` cannot tell a cluster from
one node. Per route:

* ``/events`` and ``/recommend`` forward to the shard owning the user
  (consistent hashing via the supervisor's ring), with per-request
  timeouts and bounded-backoff retries. A failed forward is reported to
  the supervisor (:meth:`ShardSupervisor.report_failure`), accelerating
  failure detection beyond the heartbeat cadence. Forwards reuse
  persistent connections: one pooled client per shard, shared by every
  handler thread.
* While the owning shard is down (restarting from its WAL, draining, or
  hung), the router **degrades instead of erroring**:

  - ``/recommend`` answers immediately from the Recency baseline over
    the user's *base* history (live events unavailable until the shard
    returns) — the same score arithmetic and tie-breaking as
    :class:`~repro.models.recency.RecencyRecommender`, flagged
    ``degraded: true`` and counted in ``degraded_answers``;
  - ``/events`` *waits*: appends carrying an idempotency ``seq`` are
    retried against the recovering shard until
    ``event_retry_deadline_s`` — WAL replay typically completes well
    inside it — so no committed-then-lost writes and no duplicates.
    Appends without a ``seq`` are never blind-retried (they are not
    idempotent) and fail fast with 503.

* ``/metrics`` merges every reachable shard's snapshot with
  :func:`~repro.serving.metrics.merge_snapshots` — *exact*, because
  counters and integer-nanosecond histograms are associative — and adds
  the router's own counters plus per-shard supervisor states.
* ``/ring`` (router-only route) exposes the shard list and ring
  topology so smart clients can bypass the router and talk to shards
  directly.
"""

from __future__ import annotations

import threading
import time
import urllib.parse
from typing import Dict, Optional, Tuple

from repro.exceptions import ReproError, ServingError, ServingUnavailableError
from repro.logging_utils import get_logger
from repro.models.base import rank_top_k
from repro.models.recency import RecencyRecommender
from repro.serving.server import JSONRequestHandler, KeepAliveHTTPServer
from repro.serving.state import SessionStore
from repro.serving.metrics import merge_snapshots
from repro.cluster.supervisor import ShardClients, ShardSupervisor

logger = get_logger("cluster.router")


class _RouterHandler(JSONRequestHandler):
    """Translate HTTP requests into shard forwards / local fallbacks."""

    #: Set by ClusterRouter before the server starts.
    router: "ClusterRouter"

    def _answer(self, thunk) -> None:
        try:
            status, payload = thunk()
            self._send_json(status, payload)
        except ServingUnavailableError as exc:
            self._send_json(503, {"error": str(exc)})
        except ReproError as exc:
            self._send_json(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - must answer the socket
            logger.warning("%s %s failed: %s", self.command, self.path, exc)
            self._send_json(500, {"error": str(exc)})

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urllib.parse.urlsplit(self.path)
        if parsed.path == "/healthz":
            self._answer(lambda: (200, self.router.health_payload()))
        elif parsed.path == "/metrics":
            self._answer(lambda: (200, self.router.merged_metrics()))
        elif parsed.path == "/ring":
            self._answer(lambda: (200, self.router.ring_payload()))
        elif parsed.path == "/state":
            self._answer(lambda: (200, self.router.forward_state(
                self._query_field(parsed.query, "user")
            )))
        else:
            self._send_json(404, {"error": f"unknown route {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/events":
            self._answer(lambda: (200, self.router.forward_event(self._read_json())))
        elif self.path == "/recommend":
            self._answer(
                lambda: (200, self.router.forward_recommend(self._read_json()))
            )
        else:
            self._send_json(404, {"error": f"unknown route {self.path}"})


class ClusterRouter:
    """HTTP front-end multiplexing one serving surface over the shards.

    Parameters
    ----------
    supervisor:
        The (started) :class:`ShardSupervisor` owning ring and workers.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port.
    forward_timeout_s / forward_retries:
        Per-forward timeout and transient-failure retries.
    event_retry_deadline_s:
        How long an idempotent ``/events`` forward keeps retrying while
        the owning shard restarts before giving up with 503. Sized to
        comfortably cover a WAL-replay restart.
    """

    def __init__(
        self,
        supervisor: ShardSupervisor,
        host: str = "127.0.0.1",
        port: int = 0,
        forward_timeout_s: float = 30.0,
        forward_retries: int = 2,
        event_retry_deadline_s: float = 30.0,
    ) -> None:
        self.supervisor = supervisor
        self.forward_timeout_s = forward_timeout_s
        self.forward_retries = forward_retries
        self.event_retry_deadline_s = event_retry_deadline_s
        # Shard clients forward verbatim: the *end client* owns the
        # idempotency seqs, the router must not inject its own.
        self._clients = ShardClients(
            timeout=forward_timeout_s,
            retries=forward_retries,
            track_seq=False,
        )
        # Base-history-only sessions powering the degraded Recency
        # fallback; no event_source on purpose — while a shard is down
        # its live events are unreadable, and serving *base* Recency is
        # the documented degradation, not a correctness bug.
        self._fallback_store = SessionStore(
            supervisor.config.window.window_size,
            supervisor.config.window.min_gap,
            capacity=256,
            history_provider=supervisor.history_provider(),
        )
        self._default_k = supervisor.config.default_k
        self.counters: Dict[str, int] = {
            "router_events": 0,
            "router_recommends": 0,
            "degraded_answers": 0,
            "forward_failures": 0,
            "event_retry_waits": 0,
        }
        self._counter_lock = threading.Lock()
        handler = type("BoundRouterHandler", (_RouterHandler,), {"router": self})
        self._httpd = KeepAliveHTTPServer((host, port), handler)
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ClusterRouter":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-cluster-router",
            daemon=True,
        )
        self._thread.start()
        logger.info(
            "router on %s fronting %d shard(s)",
            self.url, len(self.supervisor.ring),
        )
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (CLI path)."""
        logger.info("router on %s", self.url)
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:
            logger.info("interrupted; shutting down")
        finally:
            self.close()

    def close(self) -> None:
        """Stop the listener, cut live connections, drop shard pools."""
        self._httpd.close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._clients.close()

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _count(self, name: str, delta: int = 1) -> None:
        with self._counter_lock:
            self.counters[name] += delta

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def forward_event(self, payload: dict) -> dict:
        """Route an append to the owning shard; wait out a restart.

        With an idempotency ``seq`` the forward is safe to retry, so
        unavailability (shard FAILED / restarting / hung) is absorbed by
        polling until ``event_retry_deadline_s``. Without a seq a retry
        could double-apply, so the first unavailability surfaces as 503.
        """
        user = _RouterHandler._field(payload, "user")
        item = _RouterHandler._field(payload, "item")
        seq = (
            _RouterHandler._field(payload, "seq")
            if "seq" in payload
            else None
        )
        self._count("router_events")
        deadline = time.monotonic() + self.event_retry_deadline_s
        waited = False
        while True:
            owner, url = self.supervisor.endpoint_for(user)
            if url is not None:
                client = self._clients.get(owner, url)
                try:
                    position = client.ingest(
                        user, item, seq=seq,
                        timeout=self.forward_timeout_s,
                    )
                    return {
                        "user": user,
                        "item": item,
                        "position": position,
                        "shard": owner,
                    }
                except ServingUnavailableError:
                    self._count("forward_failures")
                    self.supervisor.report_failure(owner)
            if seq is None:
                raise ServingUnavailableError(
                    f"shard {owner} for user {user} is unavailable and the "
                    f"append carries no idempotency seq (cannot retry safely)"
                )
            if time.monotonic() >= deadline:
                raise ServingUnavailableError(
                    f"shard {owner} for user {user} did not recover within "
                    f"{self.event_retry_deadline_s:.1f}s"
                )
            if not waited:
                waited = True
                self._count("event_retry_waits")
            time.sleep(0.05)

    def forward_recommend(self, payload: dict) -> dict:
        """Route a query to the owning shard, or degrade to base Recency."""
        user = _RouterHandler._field(payload, "user")
        k = _RouterHandler._field(payload, "k") if "k" in payload else None
        deadline_ms = payload.get("deadline_ms")
        self._count("router_recommends")
        owner, url = self.supervisor.endpoint_for(user)
        if url is not None:
            client = self._clients.get(owner, url)
            try:
                reply = client.recommend(
                    user, k=k, deadline_ms=deadline_ms,
                    timeout=self.forward_timeout_s,
                )
                reply["shard"] = owner
                return reply
            except ServingUnavailableError:
                self._count("forward_failures")
                self.supervisor.report_failure(owner)
        return self._degraded_recommend(user, k, owner)

    def _degraded_recommend(
        self, user: int, k: Optional[int], owner: str
    ) -> dict:
        """Recency over the base history — correct, just not live."""
        start = time.perf_counter()
        k = self._default_k if k is None else int(k)
        if k <= 0:
            raise ServingError(f"k must be positive, got {k}")
        if user < 0:
            raise ServingError(f"user must be non-negative, got {user}")
        with self._fallback_store.lock:
            session = self._fallback_store.get(user)
            t = session.t
            candidates = tuple(session.candidates())
            lasts = (
                session.last_positions(candidates) if candidates else None
            )
        if candidates:
            scores = RecencyRecommender.scores_from_last_positions(lasts, t)
            items = rank_top_k(
                candidates, scores, k, owner="cluster degraded fallback"
            )
        else:
            items = []
        self._count("degraded_answers")
        logger.debug(
            "user %d: shard %s down, served degraded base-Recency top-%d",
            user, owner, k,
        )
        return {
            "request_id": f"degraded-{owner}-{user}",
            "user": user,
            "t": t,
            "items": items,
            "degraded": True,
            "shard": owner,
            "latency_ms": round(1e3 * (time.perf_counter() - start), 3),
        }

    def forward_state(self, user: int) -> dict:
        """Route a state read; wait out a restart (reads are idempotent)."""
        deadline = time.monotonic() + self.event_retry_deadline_s
        while True:
            owner, url = self.supervisor.endpoint_for(user)
            if url is not None:
                client = self._clients.get(owner, url)
                try:
                    reply = client.state(user, timeout=self.forward_timeout_s)
                    reply["shard"] = owner
                    return reply
                except ServingUnavailableError:
                    self._count("forward_failures")
                    self.supervisor.report_failure(owner)
            if time.monotonic() >= deadline:
                raise ServingUnavailableError(
                    f"shard {owner} for user {user} did not recover within "
                    f"{self.event_retry_deadline_s:.1f}s"
                )
            time.sleep(0.05)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def health_payload(self) -> dict:
        """Router liveness plus the supervisor's shard states."""
        states = self.supervisor.states()
        return {
            "status": "ok",
            "shards": states,
            "running": sum(1 for s in states.values() if s == "RUNNING"),
        }

    def ring_payload(self) -> dict:
        """Topology for smart clients that want to talk to shards directly."""
        ring = self.supervisor.ring
        states = self.supervisor.states()
        endpoints = {}
        for name in ring.shards:
            try:
                endpoints[name] = self.supervisor.url_of(name)
            except ServingError:
                endpoints[name] = None
        return {
            "shards": list(ring.shards),
            "vnodes": ring.vnodes,
            "states": states,
            "endpoints": endpoints,
        }

    def merged_metrics(self) -> dict:
        """Exact cluster-wide snapshot: shard merges + router counters.

        Unreachable shards are skipped (and listed), not errors — the
        merge is over whoever answered, which is still exact for them
        because histogram/counter merging is associative.
        """
        snapshots = []
        unreachable = []
        for name in self.supervisor.ring.shards:
            try:
                url = self.supervisor.url_of(name)
                snapshots.append(
                    self._clients.get(name, url).metrics(
                        timeout=self.forward_timeout_s
                    )
                )
            except (ServingError, ServingUnavailableError):
                unreachable.append(name)
        merged = merge_snapshots(snapshots) if snapshots else {}
        with self._counter_lock:
            router_counters = dict(self.counters)
        merged["router"] = {
            "counters": router_counters,
            "shard_states": self.supervisor.states(),
            "shards_reporting": len(snapshots),
            "shards_unreachable": unreachable,
        }
        return merged
