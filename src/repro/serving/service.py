"""The online recommendation service: ingest events, answer queries.

:class:`RecommendService` is the bridge between a fitted
:class:`~repro.models.base.Recommender` and live traffic. It owns three
moving parts:

* a :class:`~repro.serving.state.SessionStore` of live per-user
  window/Ω/recency state, updated O(1) per ingested event;
* an optional :class:`~repro.serving.events.EventLog` written
  write-ahead (the event is durable *before* it mutates session state),
  which makes crash recovery a pure replay;
* one continuously fed **in-flight scoring loop**: submitted requests
  are admitted into per-user queues, and the loop *admits newly
  submitted requests and retires completed ones at every kernel
  boundary* — after each chunk of at most ``check_interval`` queries
  of one user, answered by one
  :meth:`~repro.models.base.Recommender.recommend_batch` call. Users
  take round-robin turns at the boundaries, so one user's burst cannot
  stall every other queued request (head-of-line blocking), and there
  is no fixed straggler wait: whatever is admitted is scored
  immediately. Each chunk's ascending-``t`` queries ride one
  session walk, the same amortization the offline engine exploits.

Correctness contract: a request's position ``t`` and candidate tuple
are captured synchronously at submit time under the store lock, and the
kernel scores from exactly that tuple. Whatever shape the loop produces
— chunk sizes, admissions and retirements mid-batch, overflow order —
each request is answered from exactly the history before its ``t``:
recommendations are bit-identical to the offline evaluation protocol
and independent of batching, concurrency, or timing.

Deadlines degrade gracefully instead of failing: each request may carry
a deadline; when the model misses it (or the request expired while
queued), the service answers from the Recency baseline computed directly
from session state (same score arithmetic and tie-breaking as
:class:`~repro.models.recency.RecencyRecommender` — the fallback is a
real, well-defined recommender, just a cheaper one) and marks the
response degraded.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.config import WindowConfig
from repro.data.split import SplitDataset
from repro.engine.query import Query
from repro.exceptions import ServingError
from repro.logging_utils import get_logger
from repro.models.base import Recommender, rank_top_k
from repro.models.recency import RecencyRecommender
from repro.serving.events import EventLog
from repro.serving.metrics import ServingMetrics
from repro.serving.state import DEFAULT_CAPACITY, SessionStore

logger = get_logger("serving.service")

#: The values :attr:`ServiceConfig.online` accepts.
ONLINE_MODES = ("off", "isgd")

#: Inclusive ``(low, high)`` bounds of :class:`ServiceConfig`'s numeric
#: knobs; a value outside them is rejected at construction.
KNOB_RANGES = {
    "check_interval": (1, 4096),
    "max_inflight_rows": (1, 1 << 22),
    "online_lr": (1e-6, 1.0),
    "online_batch": (1, 4096),
}


@dataclass(frozen=True)
class ServiceConfig:
    """Operational knobs of one :class:`RecommendService`.

    The field defaults are the system defaults of ``repro-serve``'s
    flags. ``check_interval``, ``max_inflight_rows``, ``online_lr`` and
    ``online_batch`` must lie in :data:`KNOB_RANGES`, and ``online`` in
    :data:`ONLINE_MODES`; anything else raises :class:`ServingError`
    naming the field.

    Attributes
    ----------
    window:
        The RRC protocol parameters sessions are built with.
    default_k:
        Top-N size when a request does not specify one.
    max_inflight_rows:
        Admission-control bound on the total candidate rows of the
        admitted requests. Requests beyond it wait in the overflow
        queue (FIFO) until rows retire; a single oversized request is
        still admitted when nothing is in flight, so no request can
        starve.
    check_interval:
        The kernel-boundary granularity — at most this many queries
        are scored per ``recommend_batch`` call before the loop
        re-checks admissions, retirements, and deadlines;
        ``check_interval=1`` scores one query per model call.
    manual_pump:
        When true, no background scoring thread is started; the loop
        only runs when :meth:`RecommendService.pump` (or
        :meth:`RecommendService.recommend`, which pumps for you) is
        called on the caller's thread. Deterministic single-threaded
        driving for tests and replay harnesses.
    default_deadline_ms:
        Deadline applied to requests that do not carry their own;
        ``None`` disables deadlines (requests always wait for the
        model).
    n_items:
        Optional item-vocabulary bound; ingested events outside it are
        rejected before touching any state.
    online / online_lr / online_batch:
        Incremental model updates (``repro.online``): ``"off"`` keeps
        factors frozen (the default); ``"isgd"`` applies per-event SGD
        updates on the ingest path through an
        :class:`~repro.online.trainer.OnlineTrainer`, with the given
        learning rate and flush batch window. The live model stays
        bit-identical to a checkpoint+WAL-replay rebuild.
    """

    window: WindowConfig = field(default_factory=WindowConfig)
    default_k: int = 10
    max_inflight_rows: int = 32768
    check_interval: int = 16
    manual_pump: bool = False
    default_deadline_ms: Optional[float] = None
    n_items: Optional[int] = None
    online: str = "off"
    online_lr: float = 0.05
    online_batch: int = 256

    def __post_init__(self) -> None:
        if self.default_k <= 0:
            raise ServingError(f"default_k must be positive, got {self.default_k}")
        if self.online not in ONLINE_MODES:
            raise ServingError(
                f"online must be one of {ONLINE_MODES}, got {self.online!r}"
            )
        for name, (low, high) in KNOB_RANGES.items():
            value = getattr(self, name)
            if not low <= value <= high:
                raise ServingError(
                    f"{name} must be in [{low}, {high}], got {value}"
                )
        if self.default_deadline_ms is not None and self.default_deadline_ms < 0:
            raise ServingError(
                f"default_deadline_ms must be non-negative, got "
                f"{self.default_deadline_ms}"
            )


@dataclass(frozen=True)
class RecommendResult:
    """One answered recommend request."""

    request_id: str
    user: int
    t: int
    items: List[int]
    degraded: bool
    latency_s: float


class _PendingRequest:
    """A submitted request: captured query state plus a waitable slot."""

    __slots__ = (
        "request_id",
        "user",
        "t",
        "candidates",
        "k",
        "deadline",
        "lasts",
        "submitted",
        "_done",
        "_result",
        "_error",
    )

    def __init__(
        self,
        request_id: str,
        user: int,
        t: int,
        candidates: tuple,
        k: int,
        deadline: Optional[float],
        lasts: Optional[np.ndarray],
    ) -> None:
        self.request_id = request_id
        self.user = user
        self.t = t
        self.candidates = candidates
        self.k = k
        self.deadline = deadline
        self.lasts = lasts
        self.submitted = time.monotonic()
        self._done = threading.Event()
        self._result: Optional[RecommendResult] = None
        self._error: Optional[BaseException] = None

    def resolve(self, items: List[int], degraded: bool) -> None:
        self._result = RecommendResult(
            request_id=self.request_id,
            user=self.user,
            t=self.t,
            items=items,
            degraded=degraded,
            latency_s=time.monotonic() - self.submitted,
        )
        self._done.set()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    def result(self, timeout: Optional[float] = None) -> RecommendResult:
        if not self._done.wait(timeout):
            raise ServingError(
                f"request {self.request_id} timed out after {timeout}s"
            )
        if self._error is not None:
            raise ServingError(
                f"request {self.request_id} failed: {self._error}"
            ) from self._error
        assert self._result is not None
        return self._result


#: Queue sentinel telling the scoring worker to exit.
_SHUTDOWN = object()


class RecommendService:
    """Live recommendation service over a fitted recommender.

    Parameters
    ----------
    model:
        A fitted, *deterministic* recommender (scoring must be a pure
        function of the history — the scoring loop regroups and
        reorders calls).
    store:
        The live session store. Wire its ``event_source`` to
        ``event_log.events_for`` so eviction rehydrates through the log.
    event_log:
        Optional write-ahead log; without one, ingested events survive
        only as long as the process (and eviction loses them).
    config:
        Operational knobs; defaults match the paper's protocol.
    online_trainer:
        Optional :class:`~repro.online.trainer.OnlineTrainer` over the
        *same* model. Every committed ingest is fed to it (pre-event
        session state, WAL seq) before being applied to the session;
        its metrics object becomes the service's, so online counters
        and gauges flow through ``/metrics`` unmodified. Required when
        ``config.online != "off"``
        (:func:`service_for_split` builds and catches it up for you).
    """

    def __init__(
        self,
        model: Recommender,
        store: SessionStore,
        event_log: Optional[EventLog] = None,
        config: Optional[ServiceConfig] = None,
        online_trainer: Optional[object] = None,
    ) -> None:
        config = config or ServiceConfig()
        if not model.is_fitted:
            raise ServingError("RecommendService requires a fitted model")
        if not model.deterministic:
            raise ServingError(
                "RecommendService requires a deterministic model: "
                "the scoring loop regroups and reorders scoring calls"
            )
        if (
            store.window_size != config.window.window_size
            or store.min_gap != config.window.min_gap
        ):
            raise ServingError(
                f"store window ({store.window_size}, {store.min_gap}) does "
                f"not match service window ({config.window.window_size}, "
                f"{config.window.min_gap})"
            )
        if config.online != "off" and online_trainer is None:
            raise ServingError(
                f"config.online={config.online!r} requires an "
                f"online_trainer (service_for_split wires one)"
            )
        if online_trainer is not None and online_trainer.model is not model:
            raise ServingError(
                "online_trainer must wrap the service's own model "
                "instance — updates would otherwise go to a different "
                "copy of the factors"
            )
        self.model = model
        self.store = store
        self.event_log = event_log
        self.config = config
        self.online_trainer = online_trainer
        # One metrics object: adopting the trainer's keeps any catch-up
        # replay counters and merges online gauges through /metrics.
        self.metrics = (
            online_trainer.metrics
            if online_trainer is not None
            else ServingMetrics()
        )
        self._request_ids = itertools.count()
        self._queue: "queue.Queue[object]" = queue.Queue()
        self._closed = False
        self._close_done = threading.Event()
        # Serializes scoring-loop execution between the background
        # worker and manual pump() callers; all engine mutation happens
        # under it.
        self._pump_lock = threading.Lock()
        self._engine = _InflightEngine(self)
        self._worker: Optional[threading.Thread] = None
        if not config.manual_pump:
            self._worker = threading.Thread(
                target=self._inflight_loop,
                name="repro-serving-batcher",
                daemon=True,
            )
            self._worker.start()
        logger.info(
            "service started: model=%s window=(%d, %d) check_interval=%d "
            "max_inflight_rows=%d",
            model.name or type(model).__name__,
            config.window.window_size,
            config.window.min_gap,
            config.check_interval,
            config.max_inflight_rows,
        )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(
        self, user: int, item: int, client_seq: Optional[int] = None
    ) -> int:
        """Apply one consumption event; returns its sequence position.

        Write-ahead discipline: the event is committed to the log first,
        then applied to the live session. A crash between the two
        replays the logged event on restart; a crash before the log
        write leaves no trace anywhere — either way state stays exactly
        replayable.

        The session is materialized *before* the log write: rehydration
        replays every previously-logged event, so logging first and then
        letting ``store.get`` rebuild would apply the new event twice.

        ``client_seq`` makes retries idempotent: it is the index this
        event should take among the user's *live* events (0-based). A
        ``client_seq`` below the session's live-event count means the
        append already committed — the original position is returned
        without re-applying (the retried duplicate of a request whose
        reply was lost). The item must match the one the session holds
        at that position, with or without a WAL; a mismatch means the
        client's counter diverged and raises. A ``client_seq`` beyond
        the live count is a gap (events lost client-side) and also
        raises. Assumes one writer per user — the cluster's
        consistent-hash routing guarantees exactly that.
        """
        user, item = int(user), int(item)
        if user < 0:
            raise ServingError(f"user must be non-negative, got {user}")
        if item < 0 or (
            self.config.n_items is not None and item >= self.config.n_items
        ):
            raise ServingError(
                f"item {item} outside the vocabulary "
                f"[0, {self.config.n_items})"
            )
        with self.store.lock:
            # close() sets _closed under this lock, so an ingest either
            # completes its WAL append before the log closes or is
            # refused here.
            if self._closed:
                raise ServingError("service is closed")
            session = self.store.get(user)
            if client_seq is not None:
                client_seq = int(client_seq)
                if client_seq < 0:
                    raise ServingError(
                        f"client_seq must be non-negative, got {client_seq}"
                    )
                n_live = session.n_live_events
                if client_seq < n_live:
                    position = session.t - n_live + client_seq
                    committed = int(session.sequence()[position])
                    if committed != item:
                        raise ServingError(
                            f"duplicate event for user {user} at live seq "
                            f"{client_seq} carries item {item}, but item "
                            f"{committed} is committed there"
                        )
                    self.metrics.inc("duplicate_events")
                    return position
                if client_seq > n_live:
                    raise ServingError(
                        f"client_seq {client_seq} for user {user} skips "
                        f"ahead of the live stream (next is {n_live})"
                    )
            if self.event_log is not None:
                event = self.event_log.append(user, item)
                if self.online_trainer is not None:
                    # Committed to the WAL, not yet in the session: the
                    # trainer captures against the exact pre-event state
                    # a replay rebuild would reconstruct.
                    self.online_trainer.observe(
                        event.seq, user, item, session, ts=event.ts
                    )
            elif self.online_trainer is not None:
                self.online_trainer.observe_next(user, item, session)
            position = session.append(item)
        self.metrics.inc("events")
        return position

    # ------------------------------------------------------------------
    # Recommendation
    # ------------------------------------------------------------------
    def submit(
        self,
        user: int,
        k: Optional[int] = None,
        deadline_ms: Optional[float] = None,
    ) -> _PendingRequest:
        """Enqueue one recommend request; returns a waitable handle.

        The query state (position, Ω-filtered candidates, and — when a
        deadline is set — the last-position vector the Recency fallback
        needs) is captured *now*, under the store lock; later ingests
        cannot leak into this request.

        The closed check and the enqueue happen under the same store
        lock :meth:`close` takes to enqueue the shutdown sentinel, so a
        request either lands ahead of the sentinel (and is drained) or
        is refused — it can never be stranded behind a stopped worker.
        """
        k = self.config.default_k if k is None else int(k)
        if k <= 0:
            raise ServingError(f"k must be positive, got {k}")
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        request_id = f"r{next(self._request_ids):08d}"
        with self.store.lock:
            if self._closed:
                raise ServingError("service is closed")
            session = self.store.get(int(user))
            t = session.t
            candidates = tuple(session.candidates())
            lasts = (
                session.last_positions(candidates)
                if deadline_ms is not None and candidates
                else None
            )
            deadline = (
                time.monotonic() + deadline_ms / 1e3
                if deadline_ms is not None
                else None
            )
            pending = _PendingRequest(
                request_id, int(user), t, candidates, k, deadline, lasts
            )
            self.metrics.inc("requests")
            if candidates:
                self._queue.put(pending)
        if not candidates:
            # Nothing recommendable (cold user or everything Ω-excluded):
            # answer empty without occupying the scoring loop.
            self.metrics.inc("empty_candidate_requests")
            pending.resolve([], degraded=False)
            logger.debug(
                "request %s user=%d t=%d: empty candidate set",
                request_id, user, t,
            )
            return pending
        logger.debug(
            "request %s user=%d t=%d k=%d candidates=%d deadline_ms=%s",
            request_id, user, t, k, len(candidates), deadline_ms,
        )
        return pending

    def recommend(
        self,
        user: int,
        k: Optional[int] = None,
        deadline_ms: Optional[float] = None,
        timeout: Optional[float] = 60.0,
    ) -> RecommendResult:
        """Submit and wait: the synchronous request path.

        Under ``manual_pump`` there is no background worker, so this
        drives :meth:`pump` on the caller's thread until the queue is
        drained before waiting on the handle.
        """
        pending = self.submit(user, k, deadline_ms)
        if self.config.manual_pump:
            self.pump()
        result = pending.result(timeout)
        self.metrics.observe("request_latency", result.latency_s)
        self.metrics.inc("recommendations")
        return result

    def pump(self) -> int:
        """Run the scoring loop synchronously until no work remains.

        Drains every request currently queued, and everything already
        admitted, on the *caller's* thread, then returns the number of
        requests completed. This is the single-step manual-pump
        contract: after ``pump()`` returns, every request submitted
        before the call has been resolved — whether or not a background
        worker is also running (the pump lock serializes them; work is
        completed exactly once).

        The pump still advances one kernel boundary at a time — at most
        ``check_interval`` queries per model call, admitting and
        retiring between calls — so manual driving exercises the same
        loop shape as the background worker.
        """
        engine = self._engine
        completed = 0
        while True:
            with self._pump_lock:
                if self._drain_submissions():
                    # Not ours to consume: hand it back to the worker.
                    self._queue.put(_SHUTDOWN)
                if engine.idle:
                    return completed
                completed += engine.step()

    def step(
        self, user: int, item: int, k: Optional[int] = None
    ) -> Optional[RecommendResult]:
        """Replay primitive: recommend-if-target, then ingest ``item``.

        Mirrors one position of the offline evaluation walk — a
        recommendation is produced exactly when the incoming consumption
        is an RRC target with a non-empty candidate set (the
        ``collect_queries`` filter), *before* the event is applied.
        Used by the equivalence suite, the benchmark, and ``replay``.

        The contract is independent of the loop's shape: ``step``
        observes the session *before* ingesting, the recommend request
        captures its query state at submit, and the call blocks until
        the answer is resolved — so interleaving steps with any knob
        setting (including ``manual_pump`` driving) replays the offline
        walk position for position.
        """
        with self.store.lock:
            session = self.store.get(int(user))
            is_target = session.is_next_target(int(item)) and bool(
                session.candidates()
            )
        result = self.recommend(user, k) if is_target else None
        self.ingest(user, item)
        return result

    # ------------------------------------------------------------------
    # In-flight worker
    # ------------------------------------------------------------------
    def _inflight_loop(self) -> None:
        engine = self._engine
        stop = False
        while True:
            if not stop and engine.idle:
                # Nothing in flight: block for the next submission
                # without holding the pump lock (a manual pump may run
                # concurrently and must not be blocked by our wait).
                head = self._queue.get()
                if head is _SHUTDOWN:
                    stop = True
                else:
                    with self._pump_lock:
                        engine.take(head)  # type: ignore[arg-type]
            with self._pump_lock:
                stop = self._drain_submissions() or stop
                if not engine.idle:
                    engine.step()
                    continue
            if stop:
                return

    def _drain_submissions(self) -> bool:
        """Move every queued submission into the engine.

        Returns whether the shutdown sentinel was consumed.
        """
        stop = False
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                # Requests already queued behind the sentinel were
                # submitted concurrently with close(); drain them too so
                # shutdown never strands a handle.
                stop = True
                continue
            self._engine.take(item)  # type: ignore[arg-type]
        return stop

    def _score_user_chunk(
        self, user: int, group: List[_PendingRequest]
    ) -> None:
        """One kernel: answer a chunk of one user's requests.

        Each query carries the candidate tuple captured at submit, so
        the model scores exactly what the request saw.
        """
        now = time.monotonic()
        live: List[_PendingRequest] = []
        for pending in group:
            if pending.deadline is not None and now > pending.deadline:
                # Expired while queued/admitted: don't make it later
                # still — serve the cheap fallback immediately.
                self._resolve_fallback(pending, cause="queue_expired")
            else:
                live.append(pending)
        if not live:
            return
        with self.store.lock:
            sequence = self.store.get(user).sequence()
        queries = [
            Query(t=pending.t, candidates=pending.candidates)
            for pending in live
        ]
        max_k = max(pending.k for pending in live)
        start = time.perf_counter()
        ranked_lists = self.model.recommend_batch(sequence, queries, max_k)
        self.metrics.observe("scoring_latency", time.perf_counter() - start)
        finished = time.monotonic()
        for pending, ranked in zip(live, ranked_lists):
            if pending.deadline is not None and finished > pending.deadline:
                self._resolve_fallback(pending, cause="scoring_overrun")
            else:
                self.metrics.inc("scored_answers")
                pending.resolve(ranked[: pending.k], degraded=False)

    def _resolve_fallback(self, pending: _PendingRequest, cause: str) -> None:
        """Answer from the Recency baseline computed off captured state.

        ``cause`` is either ``"queue_expired"`` (the deadline passed
        before the model was ever invoked for this request) or
        ``"scoring_overrun"`` (the model ran but finished too late);
        the two are counted separately so a saturated queue and a slow
        model are distinguishable in ``/metrics``.
        """
        self.metrics.inc("deadline_fallbacks")
        self.metrics.inc("fallback_answers")
        self.metrics.inc(f"fallbacks_{cause}")
        if pending.lasts is None:
            # Deadline-less requests never reach here, but stay safe.
            pending.resolve([], degraded=True)
            return
        scores = RecencyRecommender.scores_from_last_positions(
            pending.lasts, pending.t
        )
        items = rank_top_k(
            pending.candidates, scores, pending.k, owner="serving fallback"
        )
        logger.debug(
            "request %s user=%d t=%d: deadline missed (%s), served Recency "
            "fallback", pending.request_id, pending.user, pending.t, cause,
        )
        pending.resolve(items, degraded=True)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def state_fingerprint(self, user: int) -> str:
        """Digest of one user's live session state (rehydrates if needed)."""
        return self.store.state_fingerprint(int(user))

    def user_state(self, user: int) -> Dict[str, object]:
        """Position, live-event count, and fingerprint of one user.

        Served on ``/state``; the supervisor uses the fingerprint to
        prove a restarted shard rehydrated bit-identically before
        readmitting it, and clients use ``live_events`` to initialize
        their idempotency counters.
        """
        user = int(user)
        if user < 0:
            raise ServingError(f"user must be non-negative, got {user}")
        with self.store.lock:
            session = self.store.get(user)
            return {
                "user": session.user,
                "t": session.t,
                "live_events": session.n_live_events,
                "fingerprint": session.state_fingerprint(),
            }

    def metrics_snapshot(self) -> Dict[str, object]:
        """Counters + latency histograms + session-cache stats, one dict."""
        return self.metrics.as_dict(self.store.counters.as_dict())

    def close(self) -> None:
        """Stop the scoring worker, drain pending work, seal the log.

        ``_closed`` is set and the shutdown sentinel enqueued under the
        store lock, which :meth:`submit` and :meth:`ingest` hold while
        they check it: every accepted request is queued ahead of the
        sentinel (so the worker drains it), and no ingest can still be
        appending when the log closes below.

        A second call waits until the first has finished, so when it
        returns the online updates are flushed and the log is sealed.
        """
        with self.store.lock:
            closing = self._closed
            self._closed = True
            if not closing and self._worker is not None:
                self._queue.put(_SHUTDOWN)
        if closing:
            self._close_done.wait()
            return
        try:
            if self._worker is not None:
                self._worker.join(timeout=30.0)
            else:
                # Manual-pump services have no worker; flush whatever was
                # submitted so no handle is left hanging.
                self.pump()
            if self.online_trainer is not None:
                self.online_trainer.flush()
            if self.event_log is not None:
                self.event_log.close()
        finally:
            self._close_done.set()
        logger.info("service closed")

    def __enter__(self) -> "RecommendService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class _InflightEngine:
    """Mutable state of the continuously batched scoring loop.

    Not thread-safe on its own: the service serializes every call
    through its pump lock. Two structures cooperate:

    * ``queues`` — per-user FIFO queues of admitted requests, walked
      round-robin so each kernel boundary serves the next user in turn
      (one user's burst cannot monopolize the loop);
    * ``overflow`` — submissions held back by the ``max_inflight_rows``
      admission bound, re-examined (FIFO) at every boundary.

    ``live_rows`` counts the candidate rows of the admitted requests
    (each holds its captured tuple): added on admit, subtracted when
    the request retires after its kernel.
    """

    __slots__ = ("service", "config", "queues", "overflow", "n_inflight",
                 "live_rows")

    def __init__(self, service: "RecommendService") -> None:
        self.service = service
        self.config = service.config
        self.queues: "OrderedDict[int, Deque[_PendingRequest]]" = OrderedDict()
        self.overflow: Deque[_PendingRequest] = deque()
        self.n_inflight = 0
        self.live_rows = 0

    @property
    def idle(self) -> bool:
        """True when nothing is admitted and nothing waits in overflow."""
        return self.n_inflight == 0 and not self.overflow

    def _fits(self, pending: _PendingRequest) -> bool:
        # An empty batch always admits — even a request wider than the
        # row budget — so admission control can never starve a request.
        if self.n_inflight == 0:
            return True
        rows = self.live_rows + len(pending.candidates)
        return rows <= self.config.max_inflight_rows

    def _admit(self, pending: _PendingRequest) -> None:
        metrics = self.service.metrics
        metrics.observe(
            "admission_wait", time.monotonic() - pending.submitted
        )
        self.live_rows += len(pending.candidates)
        self.queues.setdefault(pending.user, deque()).append(pending)
        self.n_inflight += 1

    def _admit_overflow(self) -> None:
        while self.overflow and self._fits(self.overflow[0]):
            self._admit(self.overflow.popleft())

    def take(self, pending: _PendingRequest) -> None:
        """Admit a submission, or park it in overflow if rows are full.

        Earlier overflow entries keep priority: a new submission only
        admits directly when nothing is already waiting.
        """
        self._admit_overflow()
        if self.overflow or not self._fits(pending):
            self.overflow.append(pending)
        else:
            self._admit(pending)

    def step(self) -> int:
        """One kernel boundary; returns the number of requests completed.

        Picks the next user round-robin, scores at most
        ``check_interval`` of its queued requests with one model call,
        resolves them, retires their rows, and refills from
        overflow — so admission and retirement happen between every
        kernel, never only between full batches.
        """
        self._admit_overflow()
        if not self.queues:
            return 0
        service = self.service
        metrics = service.metrics
        metrics.observe_gauge("batch_occupancy_rows", self.live_rows)
        metrics.observe_gauge("inflight_requests", self.n_inflight)
        metrics.observe_gauge(
            "queue_depth", service._queue.qsize() + len(self.overflow)
        )
        user = next(iter(self.queues))
        user_queue = self.queues[user]
        chunk: List[_PendingRequest] = []
        while user_queue and len(chunk) < self.config.check_interval:
            chunk.append(user_queue.popleft())
        if user_queue:
            self.queues.move_to_end(user)
        else:
            del self.queues[user]
        metrics.inc("batches")
        metrics.inc("batched_requests", len(chunk))
        try:
            service._score_user_chunk(user, chunk)
        except Exception as exc:  # noqa: BLE001 - reported per request
            metrics.inc("errors", len(chunk))
            logger.warning(
                "scoring failed for user %d (%d request(s)): %s",
                user, len(chunk), exc,
            )
            for pending in chunk:
                pending.fail(exc)
        finally:
            self.live_rows -= sum(len(p.candidates) for p in chunk)
            self.n_inflight -= len(chunk)
        return len(chunk)


def service_for_split(
    model: Recommender,
    split: SplitDataset,
    event_log: Optional[EventLog] = None,
    config: Optional[ServiceConfig] = None,
    capacity: int = DEFAULT_CAPACITY,
    store_dir: Optional[str] = None,
    online_checkpoint_dir: Optional[str] = None,
) -> RecommendService:
    """Wire a service whose base histories are a split's training prefixes.

    The canonical online/offline topology: sessions start from
    ``split.train_sequence(user)`` and the held-out test suffix arrives
    as live events, so replaying it through :meth:`RecommendService.step`
    reproduces the offline evaluation protocol position for position.

    The training prefixes are packed into a columnar session-memory
    arena: on the heap, or — with ``store_dir`` — saved there and
    memory-mapped (a directory already holding the same arena is
    reused). Both answer bit-identically.

    With ``config.online="isgd"`` an
    :class:`~repro.online.trainer.OnlineTrainer` is built over the
    model, restored from the newest checkpoint under
    ``online_checkpoint_dir`` (when given), and **caught up** on the
    recovered log before the service opens: every committed event is
    replayed through a throwaway session store — base histories only,
    never the serving store, so arena tails are not polluted — with
    events before the checkpoint cursor only advancing session state
    and later ones applying ISGD updates. The factors the service
    starts with are therefore bit-identical to the ones a never-crashed
    live trainer would hold.
    """
    config = config or ServiceConfig(n_items=split.n_items)
    history_store = split.history_store(base="train", directory=store_dir)

    trainer = None
    if config.online != "off":
        from repro.online.trainer import OnlineTrainer
        from repro.resilience.checkpoint import CheckpointManager

        manager = (
            CheckpointManager(online_checkpoint_dir)
            if online_checkpoint_dir is not None
            else None
        )
        trainer = OnlineTrainer(
            model,
            learning_rate=config.online_lr,
            batch_window=config.online_batch,
            checkpoint_manager=manager,
        )
        trainer.load_latest()
        if event_log is not None and len(event_log) > 0:
            # Catch-up replay over a throwaway heap arena of the base
            # histories (never the serving store, whose tails it would
            # pollute): capture sees exactly the states the live
            # trainer saw.
            catchup_store = SessionStore(
                config.window.window_size,
                config.window.min_gap,
                capacity=max(split.n_users, 1),
                history_provider=split.history_store(base="train"),
            )
            trainer.replay(event_log.iter_events(), catchup_store)

    session_store = SessionStore(
        config.window.window_size,
        config.window.min_gap,
        capacity=capacity,
        history_provider=history_store,
        event_source=(
            event_log.events_for if event_log is not None else None
        ),
    )
    return RecommendService(
        model,
        session_store,
        event_log=event_log,
        config=config,
        online_trainer=trainer,
    )
