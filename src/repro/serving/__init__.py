"""The online serving layer: live sessions, event log, in-flight batched service.

Everything before this package was offline — train a model, walk a
pre-loaded split, report accuracy. :mod:`repro.serving` turns the
trained artifacts into a long-lived service that ingests consumption
events as they happen and answers "what should user *u* reconsume
now?", while staying bit-identical to the offline evaluation protocol:

* :mod:`~repro.serving.state` — :class:`SessionStore` (LRU-bounded
  residency of :class:`~repro.store.session.StoreSession` objects over
  one columnar history arena; an evicted user is re-seeded from the
  store, replaying only event-log records it lacks) and
  :class:`LiveSession` (the list-carrying window/Ω/recency oracle the
  equivalence suites compare against);
* :mod:`~repro.serving.events` — the crc-checked append-only
  :class:`EventLog`, written write-ahead so crash recovery is pure
  replay;
* :mod:`~repro.serving.service` — :class:`RecommendService`, admitting
  concurrent requests into one continuously fed in-flight loop over
  the engine's ``score_batch`` kernels, with per-request deadlines
  degrading to the Recency baseline;
* :mod:`~repro.serving.server` / :mod:`~repro.serving.client` —
  stdlib-only JSON over persistent HTTP/1.1 connections, framed by the
  strict codec in :mod:`~repro.serving.wire`;
* :mod:`~repro.serving.metrics` — latency histograms (p50/p95/p99),
  request/fallback/eviction counters, and session-cache hit rate,
  exposed on ``/metrics`` — with exact, order-independent cross-shard
  merging (:func:`merge_snapshots`) for the cluster router.

The sharded, fault-tolerant deployment of this stack lives in
:mod:`repro.cluster`.
"""

from repro.serving.client import ServingClient
from repro.serving.events import Event, EventLog, scan_events
from repro.serving.metrics import (
    LatencyHistogram,
    ServingMetrics,
    merge_snapshots,
)
from repro.serving.server import RecommendServer
from repro.serving.service import (
    RecommendResult,
    RecommendService,
    ServiceConfig,
    service_for_split,
)
from repro.serving.state import LiveSession, SessionStore

__all__ = [
    "Event",
    "EventLog",
    "LatencyHistogram",
    "LiveSession",
    "RecommendResult",
    "RecommendServer",
    "RecommendService",
    "ServiceConfig",
    "ServingClient",
    "ServingMetrics",
    "SessionStore",
    "merge_snapshots",
    "scan_events",
    "service_for_split",
]
