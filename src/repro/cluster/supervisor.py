"""Worker lifecycle management: heartbeats, WAL-replay restarts, draining.

:class:`ShardSupervisor` owns N worker processes and a
:class:`~repro.cluster.ring.HashRing` assigning users to them. Each
worker moves through a small state machine::

    PENDING ──ready──▶ RUNNING ◀──recovered─── DEGRADED
                         │  ▲                     │
                  drain  │  │ verified      missed heartbeats /
                         ▼  │                dead process
                     DRAINING  FAILED ◀───────────┘
                         │        │ respawn + WAL replay
                         ▼        ▼
                      STOPPED   (PENDING → fingerprint check → RUNNING)

* **Heartbeats.** A monitor thread polls every worker's ``/healthz``
  with a short timeout. A miss marks the shard ``DEGRADED``; enough
  consecutive misses — or a dead process — marks it ``FAILED`` and
  triggers a restart. The router can accelerate detection by calling
  :meth:`report_failure` when a forward fails.
* **Restart = WAL replay, proven bit-identical.** Before readmitting a
  restarted shard to the ring, the supervisor opens the shard's event
  log *readonly*, rebuilds every logged user's expected session state
  (base history + replay — the same rule single-node recovery uses),
  and compares ``state_fingerprint`` digests against the restarted
  worker's ``/state`` answers. Only a bit-identical shard returns to
  ``RUNNING``; a mismatch parks it ``FAILED`` loudly.
* **Drain.** :meth:`drain` stops a shard gracefully (SIGTERM → log
  seal), replays its committed WAL into the surviving owners (per-user
  order preserved; appends carry idempotency seqs), verifies the
  migrated fingerprints, and shrinks the ring — consistent hashing
  guarantees only the drained shard's users move.

While a shard is ``PENDING``/``DEGRADED``/``FAILED``/``DRAINING``,
:meth:`endpoint_for` returns no URL for its users — the router degrades
those requests (Recency fallback for reads, bounded retry for writes)
instead of erroring.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.cluster.ring import HashRing
from repro.cluster.worker import WorkerSpec, read_endpoint, run_worker
from repro.data.split import SplitDataset
from repro.exceptions import ServingError
from repro.logging_utils import get_logger
from repro.models.base import Recommender
from repro.serving.client import ServingClient
from repro.serving.events import EventLog
from repro.serving.service import ServiceConfig
from repro.serving.state import SessionStore

logger = get_logger("cluster.supervisor")

#: Worker lifecycle states.
PENDING = "PENDING"
RUNNING = "RUNNING"
DEGRADED = "DEGRADED"
FAILED = "FAILED"
DRAINING = "DRAINING"
STOPPED = "STOPPED"

#: States in which the heartbeat monitor probes a worker.
_MONITORED = (RUNNING, DEGRADED)


class ShardClients:
    """One pooled :class:`ServingClient` per shard, thread-safe.

    A shard that restarts comes back on a new port; its client is then
    replaced and the old one's connections closed. ``options`` are the
    :class:`ServingClient` keyword arguments every client gets.
    """

    def __init__(self, **options: object) -> None:
        self._options = options
        self._clients: Dict[str, ServingClient] = {}
        self._lock = threading.Lock()

    def get(self, name: str, url: str) -> ServingClient:
        stale = None
        with self._lock:
            client = self._clients.get(name)
            if client is None or client.base_url != url.rstrip("/"):
                stale = client
                client = self._clients[name] = ServingClient(
                    url, **self._options  # type: ignore[arg-type]
                )
        if stale is not None:
            stale.close()
        return client

    def close(self) -> None:
        with self._lock:
            clients = list(self._clients.values())
            self._clients.clear()
        for client in clients:
            client.close()


class WorkerHandle:
    """Mutable supervisor-side view of one worker process."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.url: Optional[str] = None
        self.state = STOPPED
        self.misses = 0
        self.restarts = 0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def __repr__(self) -> str:
        return (
            f"WorkerHandle(name={self.name!r}, state={self.state}, "
            f"pid={self.pid}, restarts={self.restarts})"
        )


class ShardSupervisor:
    """Spawn, monitor, restart, and drain the cluster's shard workers.

    Parameters
    ----------
    split / model / config:
        The serving artifacts every worker mounts (inherited through a
        fork context — the model is fitted once, not per shard).
    n_shards:
        Number of worker processes.
    run_dir:
        Directory holding each shard's WAL and endpoint file.
    capacity:
        Per-shard session-store LRU capacity.
    vnodes:
        Ring points per shard (ownership granularity).
    heartbeat_interval_s / heartbeat_timeout_s / max_missed_heartbeats:
        Monitor cadence, per-probe timeout, and how many consecutive
        misses escalate DEGRADED → FAILED (a dead process escalates
        immediately).
    fsync_policy:
        Durability policy of every shard WAL.
    start_timeout_s:
        How long to wait for a spawned worker to publish its endpoint
        and answer ``/healthz``.
    store:
        History backing of every shard's sessions (see
        :func:`repro.serving.service.service_for_split`). With
        ``"arena-mmap"`` the supervisor packs the training histories
        once under ``run_dir/arena`` before spawning, and all shards map
        that one read-only copy.
    """

    def __init__(
        self,
        split: SplitDataset,
        model: Recommender,
        config: ServiceConfig,
        n_shards: int,
        run_dir: Union[str, Path],
        capacity: int = 1024,
        host: str = "127.0.0.1",
        vnodes: int = 64,
        heartbeat_interval_s: float = 0.25,
        heartbeat_timeout_s: float = 1.0,
        max_missed_heartbeats: int = 3,
        fsync_policy: str = "always",
        start_timeout_s: float = 60.0,
        store: str = "arena",
    ) -> None:
        if n_shards < 1:
            raise ServingError(f"n_shards must be >= 1, got {n_shards}")
        if max_missed_heartbeats < 1:
            raise ServingError(
                f"max_missed_heartbeats must be >= 1, "
                f"got {max_missed_heartbeats}"
            )
        self.split = split
        self.model = model
        self.config = config
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.max_missed_heartbeats = max_missed_heartbeats
        self.start_timeout_s = start_timeout_s
        self.store = store
        store_dir: Optional[Path] = None
        if store == "arena-mmap":
            # Pack once before any fork; every shard then opens the same
            # saved columns read-only instead of re-packing per process.
            store_dir = self.run_dir / "arena"
            split.history_store(
                kind="arena-mmap", base="train", directory=str(store_dir)
            )
        names = [f"shard-{index}" for index in range(n_shards)]
        self.ring = HashRing(names, vnodes=vnodes)
        self._handles: Dict[str, WorkerHandle] = {
            name: WorkerHandle(
                WorkerSpec(
                    name=name,
                    log_path=self.run_dir / f"{name}.log",
                    endpoint_path=self.run_dir / f"{name}.endpoint.json",
                    host=host,
                    capacity=capacity,
                    fsync_policy=fsync_policy,
                    store=store,
                    store_dir=store_dir,
                )
            )
            for name in names
        }
        self._lock = threading.RLock()
        # Readiness probes and heartbeats reuse one client per shard.
        self._probes = ShardClients(timeout=heartbeat_timeout_s, retries=0)
        self._wake = threading.Event()
        self._closed = False
        self._monitor: Optional[threading.Thread] = None
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            self._mp = multiprocessing.get_context()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def shard_names(self) -> List[str]:
        return list(self._handles)

    def states(self) -> Dict[str, str]:
        """Current lifecycle state of every shard."""
        with self._lock:
            return {name: h.state for name, h in self._handles.items()}

    def restart_counts(self) -> Dict[str, int]:
        with self._lock:
            return {name: h.restarts for name, h in self._handles.items()}

    def pid_of(self, name: str) -> int:
        """The live worker pid of ``name`` (chaos tests kill through this)."""
        handle = self._handle(name)
        with self._lock:
            if handle.process is None or handle.pid is None:
                raise ServingError(f"shard {name!r} has no live process")
            return handle.pid

    def url_of(self, name: str) -> str:
        handle = self._handle(name)
        with self._lock:
            if handle.url is None:
                raise ServingError(f"shard {name!r} has no endpoint yet")
            return handle.url

    def endpoint_for(self, user: int) -> Tuple[str, Optional[str]]:
        """The owning shard's ``(name, url)``; url is ``None`` unless RUNNING."""
        owner = self.ring.owner(user)
        with self._lock:
            handle = self._handles[owner]
            url = handle.url if handle.state == RUNNING else None
        return owner, url

    def history_provider(self) -> Callable:
        """Base-history fetch over the supervisor's split (shared shape)."""
        split = self.split

        def history(user: int):
            if 0 <= user < split.n_users:
                return split.train_sequence(user)
            return None

        return history

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardSupervisor":
        """Spawn every worker, wait until healthy, start the monitor."""
        for handle in self._handles.values():
            self._spawn(handle)
        for handle in self._handles.values():
            self._await_ready(handle)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-cluster-monitor", daemon=True
        )
        self._monitor.start()
        logger.info(
            "cluster up: %d shard(s) %s", len(self._handles),
            {n: h.url for n, h in self._handles.items()},
        )
        return self

    def close(self) -> None:
        """Stop the monitor, then terminate every worker gracefully."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._wake.set()
        if self._monitor is not None:
            self._monitor.join(timeout=10.0)
            self._monitor = None
        for handle in self._handles.values():
            self._stop_worker(handle, graceful=True)
            with self._lock:
                handle.state = STOPPED
        self._probes.close()

    def __enter__(self) -> "ShardSupervisor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Spawning / readiness
    # ------------------------------------------------------------------
    def _handle(self, name: str) -> WorkerHandle:
        if name not in self._handles:
            raise ServingError(f"unknown shard {name!r}")
        return self._handles[name]

    def _spawn(self, handle: WorkerHandle) -> None:
        spec = handle.spec
        if spec.endpoint_path.exists():
            spec.endpoint_path.unlink()
        process = self._mp.Process(
            target=run_worker,
            args=(spec, self.split, self.model, self.config),
            name=f"repro-{spec.name}",
            daemon=True,
        )
        process.start()
        with self._lock:
            handle.process = process
            handle.url = None
            handle.state = PENDING
            handle.misses = 0

    def _await_ready(self, handle: WorkerHandle) -> None:
        """Block until the worker publishes its endpoint and answers."""
        deadline = time.monotonic() + self.start_timeout_s
        while time.monotonic() < deadline:
            if handle.process is not None and not handle.process.is_alive():
                raise ServingError(
                    f"shard {handle.name} exited during startup "
                    f"(exitcode {handle.process.exitcode})"
                )
            endpoint = read_endpoint(handle.spec.endpoint_path)
            if endpoint is not None:
                url = str(endpoint["url"])
                if self._probes.get(handle.name, url).health():
                    with self._lock:
                        handle.url = url
                        handle.state = RUNNING
                        handle.misses = 0
                    return
            time.sleep(0.02)
        raise ServingError(
            f"shard {handle.name} did not become healthy within "
            f"{self.start_timeout_s:.1f}s"
        )

    def _stop_worker(self, handle: WorkerHandle, graceful: bool) -> None:
        """SIGTERM (graceful: seals the WAL) or SIGKILL, then reap."""
        process = handle.process
        if process is None:
            return
        if process.is_alive():
            try:
                os.kill(process.pid, signal.SIGTERM if graceful else signal.SIGKILL)  # type: ignore[arg-type]
            except (ProcessLookupError, OSError):
                pass
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                try:
                    os.kill(process.pid, signal.SIGKILL)  # type: ignore[arg-type]
                except (ProcessLookupError, OSError):
                    pass
                process.join(timeout=5.0)
        else:
            process.join(timeout=1.0)

    # ------------------------------------------------------------------
    # Health monitoring
    # ------------------------------------------------------------------
    def report_failure(self, name: str) -> None:
        """Router hook: a forward to ``name`` failed — check it *now*."""
        handle = self._handle(name)
        with self._lock:
            if handle.state == RUNNING:
                handle.state = DEGRADED
            handle.misses += 1
        self._wake.set()

    def _monitor_loop(self) -> None:
        while True:
            self._wake.wait(timeout=self.heartbeat_interval_s)
            self._wake.clear()
            with self._lock:
                if self._closed:
                    return
                candidates = [
                    h for h in self._handles.values()
                    if h.state in _MONITORED
                ]
            for handle in candidates:
                try:
                    self._check(handle)
                except Exception:  # noqa: BLE001 - monitor must survive
                    logger.exception(
                        "monitor check of %s failed", handle.name
                    )

    def _check(self, handle: WorkerHandle) -> None:
        process = handle.process
        if process is not None and not process.is_alive():
            logger.warning(
                "%s: process died (exitcode %s) — restarting via WAL replay",
                handle.name, process.exitcode,
            )
            self._restart(handle)
            return
        url = handle.url
        if url is not None and self._probes.get(handle.name, url).health():
            with self._lock:
                if handle.state == DEGRADED:
                    logger.info("%s: heartbeat recovered", handle.name)
                if handle.state in _MONITORED:
                    handle.state = RUNNING
                    handle.misses = 0
            return
        with self._lock:
            handle.misses += 1
            misses = handle.misses
            if handle.state == RUNNING:
                handle.state = DEGRADED
        logger.warning(
            "%s: missed heartbeat %d/%d",
            handle.name, misses, self.max_missed_heartbeats,
        )
        if misses >= self.max_missed_heartbeats:
            self._restart(handle)

    # ------------------------------------------------------------------
    # Restart via WAL replay
    # ------------------------------------------------------------------
    def expected_fingerprints(
        self, name: str, users: Optional[List[int]] = None
    ) -> Dict[int, str]:
        """What a bit-identical rehydration of ``name`` must fingerprint.

        Pure readonly inspection: replay the shard's committed WAL over
        the base histories — the single-node recovery rule — without
        touching the artifact. Deliberately built on the legacy callable
        provider regardless of ``self.store``: comparing these digests
        against an arena-backed worker's proves the two history
        representations are bit-identical, not just self-consistent.
        """
        spec = self._handle(name).spec
        if not spec.log_path.exists():
            return {}
        log = EventLog.open(spec.log_path, readonly=True)
        store = SessionStore(
            self.config.window.window_size,
            self.config.window.min_gap,
            capacity=max(len(log.users()), 1),
            history_provider=self.history_provider(),
            event_source=log.events_for,
        )
        targets = log.users() if users is None else users
        return {user: store.get(user).state_fingerprint() for user in targets}

    def _restart(self, handle: WorkerHandle) -> None:
        """FAILED → respawn → prove WAL replay bit-identical → readmit."""
        with self._lock:
            handle.state = FAILED
        self._stop_worker(handle, graceful=False)
        expected = self.expected_fingerprints(handle.name)
        self._spawn(handle)
        with self._lock:
            handle.state = PENDING  # not routable until verified
        try:
            self._await_ready_unrouted(handle)
        except ServingError:
            with self._lock:
                handle.state = FAILED
            logger.error("%s: restart failed to come up", handle.name)
            return
        client = ServingClient(
            handle.url or "",
            timeout=max(self.heartbeat_timeout_s, 5.0),
            retries=2,
        )
        for user, fingerprint in expected.items():
            rebuilt = client.state(user)["fingerprint"]
            if rebuilt != fingerprint:
                with self._lock:
                    handle.state = FAILED
                logger.error(
                    "%s: rehydrated state for user %d diverged "
                    "(expected %s, got %s) — shard stays FAILED",
                    handle.name, user, fingerprint, rebuilt,
                )
                return
        with self._lock:
            handle.state = RUNNING
            handle.misses = 0
            handle.restarts += 1
        logger.info(
            "%s: restarted and readmitted (%d user fingerprint(s) verified, "
            "restart #%d)", handle.name, len(expected), handle.restarts,
        )

    def _await_ready_unrouted(self, handle: WorkerHandle) -> None:
        """Like :meth:`_await_ready` but leaves the state PENDING."""
        deadline = time.monotonic() + self.start_timeout_s
        while time.monotonic() < deadline:
            if handle.process is not None and not handle.process.is_alive():
                raise ServingError(
                    f"shard {handle.name} exited during restart"
                )
            endpoint = read_endpoint(handle.spec.endpoint_path)
            if endpoint is not None:
                url = str(endpoint["url"])
                if self._probes.get(handle.name, url).health():
                    with self._lock:
                        handle.url = url
                    return
            time.sleep(0.02)
        raise ServingError(f"shard {handle.name} restart timed out")

    # ------------------------------------------------------------------
    # Chaos hooks
    # ------------------------------------------------------------------
    def kill_shard(self, name: str) -> int:
        """SIGKILL the live worker (hard crash); returns the killed pid.

        The monitor notices the dead process on its next tick and
        drives the WAL-replay restart; callers who want immediate
        reaction can follow up with :meth:`report_failure`.
        """
        pid = self.pid_of(name)
        os.kill(pid, signal.SIGKILL)
        self._wake.set()
        return pid

    # ------------------------------------------------------------------
    # Draining / rebalancing
    # ------------------------------------------------------------------
    def drain(self, name: str) -> Dict[str, object]:
        """Retire ``name``: migrate its users onto the survivors.

        Steps: mark DRAINING (the router degrades its users meanwhile),
        stop the worker gracefully (seals its WAL), shrink the ring,
        replay the shard's committed events into the new owners in
        global order (per-user order is thereby preserved, and each
        append carries an idempotency seq), then verify every migrated
        user's fingerprint on its new owner. Returns a migration report.
        """
        handle = self._handle(name)
        with self._lock:
            if len(self.ring) < 2:
                raise ServingError(
                    "cannot drain the last shard on the ring"
                )
            if handle.state not in (RUNNING, DEGRADED):
                raise ServingError(
                    f"shard {name!r} is {handle.state}, not drainable"
                )
            handle.state = DRAINING
        self._stop_worker(handle, graceful=True)
        expected = self.expected_fingerprints(name)
        new_ring = self.ring.without(name)
        moved: Dict[str, List[int]] = {}
        if handle.spec.log_path.exists():
            log = EventLog.open(handle.spec.log_path, readonly=True)
            clients: Dict[str, ServingClient] = {}
            for event in log.events():
                owner = new_ring.owner(event.user)
                client = clients.get(owner)
                if client is None:
                    client = clients[owner] = ServingClient(
                        self.url_of(owner), timeout=30.0, retries=3
                    )
                client.ingest(event.user, event.item)
                moved.setdefault(owner, []).append(event.user)
        # Swap the ring only after the migration is fully applied: until
        # here the drained users resolve to the DRAINING shard (no url),
        # so the router held their writes instead of racing the replay.
        with self._lock:
            self.ring = new_ring
            handle.state = STOPPED
        mismatches = []
        for owner, users in moved.items():
            client = ServingClient(self.url_of(owner), timeout=30.0, retries=3)
            for user in sorted(set(users)):
                if client.state(user)["fingerprint"] != expected[user]:
                    mismatches.append((owner, user))
        if mismatches:
            raise ServingError(
                f"drain of {name!r} migrated users with diverged state: "
                f"{mismatches}"
            )
        report = {
            "drained": name,
            "migrated_events": sum(len(u) for u in moved.values()),
            "migrated_users": sorted(
                {user for users in moved.values() for user in users}
            ),
            "new_owners": {o: sorted(set(u)) for o, u in moved.items()},
        }
        logger.info("drained %s: %s", name, report)
        return report
