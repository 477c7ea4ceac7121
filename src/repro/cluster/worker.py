"""One shard of the serving cluster: a worker process entry point.

A worker is a full single-node serving stack — private
:class:`~repro.serving.state.SessionStore`, private write-ahead
:class:`~repro.serving.events.EventLog`, in-flight batched
:class:`~repro.serving.service.RecommendService`, stdlib HTTP listener —
owning the users the ring assigns to it. Workers are deliberately
ring-agnostic: any worker *can* serve any user (its base histories cover
the whole split), which is what makes rebalancing a pure event
migration; the router is the only component enforcing ownership.

Lifecycle protocol with the supervisor:

* the worker binds an ephemeral port and publishes
  ``{"pid", "port", "url"}`` to its endpoint file via an atomic write —
  the supervisor polls that file to learn where the shard came up;
* ``SIGTERM`` is a *graceful* stop: the HTTP listener drains, the
  service closes, and the event log is sealed (drain path);
* ``SIGKILL`` is a *crash*: nothing is sealed and the log may carry a
  torn tail — recovery on the next spawn is WAL replay, exactly like
  the single-node crash tests.

``run_worker`` is spawned through a fork multiprocessing context, so
the already-fitted model and split are inherited by memory, not
re-fitted per shard — restarting a crashed shard costs replay time, not
training time.
"""

from __future__ import annotations

import json
import os
import signal
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from repro.data.split import SplitDataset
from repro.logging_utils import get_logger
from repro.models.base import Recommender
from repro.resilience.atomic import atomic_write_json
from repro.serving.events import EventLog
from repro.serving.server import RecommendServer
from repro.serving.service import ServiceConfig, service_for_split
from repro.serving.state import DEFAULT_CAPACITY

logger = get_logger("cluster.worker")


@dataclass(frozen=True)
class WorkerSpec:
    """Identity and on-disk locations of one shard worker.

    Attributes
    ----------
    name:
        Shard name, also its ring identity (e.g. ``shard-2``).
    log_path:
        The shard's private write-ahead event log.
    endpoint_path:
        Where the worker publishes its bound address (atomic JSON).
    host:
        Bind address for the worker's HTTP listener.
    capacity:
        Max resident live sessions before LRU eviction.
    fsync_policy:
        The shard WAL's durability policy (see
        :meth:`~repro.serving.events.EventLog.open`).
    store_dir:
        Where the packed base-history columns live, memory-mapped. The
        supervisor points every shard at one shared saved arena, so N
        shards on one box map the same read-only pages instead of
        holding N copies. ``None``: each shard packs a private heap
        arena.
    """

    name: str
    log_path: Path
    endpoint_path: Path
    host: str = "127.0.0.1"
    capacity: int = DEFAULT_CAPACITY
    fsync_policy: str = "always"
    store_dir: Optional[Path] = None


def read_endpoint(path: Path) -> Optional[Dict[str, object]]:
    """The worker's published ``{"pid", "port", "url"}``, or ``None``.

    Tolerates the file not existing yet (worker still booting); the
    write itself is atomic, so a present file is always complete.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        endpoint = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(endpoint, dict) or "url" not in endpoint:
        return None
    return endpoint


def run_worker(
    spec: WorkerSpec,
    split: SplitDataset,
    model: Recommender,
    config: ServiceConfig,
) -> None:
    """Child-process main: build the shard stack and serve until signalled."""
    # SIGTERM → the graceful-shutdown path serve_forever already has for
    # KeyboardInterrupt: stop the listener, close the service, seal the
    # log. (Raising from the handler is safe: the serve loop is a pure
    # poll loop on the main thread.)
    def _terminate(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    event_log = EventLog.open(spec.log_path, fsync_policy=spec.fsync_policy)
    service = service_for_split(
        model,
        split,
        event_log=event_log,
        config=config,
        capacity=spec.capacity,
        store_dir=spec.store_dir,
    )
    server = RecommendServer(service, host=spec.host, port=0)
    atomic_write_json(
        spec.endpoint_path,
        {"pid": os.getpid(), "port": server.address[1], "url": server.url},
    )
    if len(event_log):
        logger.info(
            "%s: recovered %d event(s) across %d user(s) from %s",
            spec.name, len(event_log), len(event_log.users()), spec.log_path,
        )
    logger.info("%s: serving on %s", spec.name, server.url)
    server.serve_forever()
