"""Which public calls are wrapped per layer, and the per-layer metrics.

Each ``install_*`` function patches the public entry points of a group
of layers on one :class:`~tracing.Tracer`. The serving shard set is
installed in the process that forks the shards, so the workers inherit
it; the client set only in the load generator.
"""

from __future__ import annotations

import bisect
import functools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from tracing import Tracer, child_time, self_times

#: Every per-layer metric, in report order: (name, unit). A traced run
#: reports all of them; a layer that does no work on a workload reads 0.
PER_LAYER_METRICS: List[Tuple[str, str]] = [
    ("http.overhead_ms_p50", "ms"),
    ("http.overhead_ms_p99", "ms"),
    ("router.forward_ms_p50", "ms"),
    ("router.forward_ms_p99", "ms"),
    ("router.hop_ms_p50", "ms"),
    ("router.errors", "count"),
    ("service.ingest_ms_p50", "ms"),
    ("service.ingest_ms_p99", "ms"),
    ("service.submit_ms_p50", "ms"),
    ("service.submit_ms_p99", "ms"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p99", "ms"),
    ("service.kernels", "count"),
    ("service.queries_per_kernel", "ratio"),
    ("store.gets", "count"),
    ("store.get_ms_p99", "ms"),
    ("store.hit_ratio", "ratio"),
    ("wal.appends", "count"),
    ("wal.append_ms_p50", "ms"),
    ("wal.append_ms_p99", "ms"),
    ("online.observe_ms_p50", "ms"),
    ("online.observe_ms_p99", "ms"),
    ("online.flushes", "count"),
    ("online.flush_ms_p99", "ms"),
    ("online.updates_per_event", "ratio"),
    ("engine.fill_s", "s"),
    ("engine.fill_rows", "count"),
    ("model.score_s", "s"),
    ("model.queries", "count"),
    ("model.topk_s", "s"),
    ("data.load_s", "s"),
    ("data.split_s", "s"),
    ("features.model_fit_s", "s"),
    ("features.cache_build_s", "s"),
    ("sampling.sample_s", "s"),
    ("sampling.quadruples", "count"),
    ("optim.sgd_s", "s"),
    ("optim.draw_s", "s"),
    ("optim.block_s", "s"),
    ("optim.dependency_s", "s"),
    ("optim.check_s", "s"),
    ("optim.blocks", "count"),
    ("optim.checks", "count"),
    ("optim.updates", "count"),
    ("optim.updates_per_block", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ratio", "ratio"),
]

_UNITS = dict(PER_LAYER_METRICS)


def layer_report(values: Dict[str, float]) -> Dict[str, dict]:
    """Every per-layer metric with its unit; absent layers read 0."""
    unknown = set(values) - set(_UNITS)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER_METRICS
    }


# ----------------------------------------------------------------------
# Installing wrappers
# ----------------------------------------------------------------------
def _user_key(kind: str):
    """Request key of a call whose first argument after ``self`` is the user."""
    return lambda args, kwargs: [kind, int(args[1] if len(args) > 1 else kwargs["user"])]


def _payload_key(kind: str):
    return lambda args, kwargs: [kind, int(args[1]["user"])]


def _degraded(args: tuple, kwargs: dict, result: dict):
    return {"degraded": 1} if result.get("degraded") else None


def _install_fill(tracer: Tracer) -> None:
    from repro.engine.features import SessionFeatureMatrix

    tracer.span(
        SessionFeatureMatrix, "matrix", "engine.fill",
        info=lambda args, kwargs, result: {"rows": int(result.shape[0])},
    )


def install_client(tracer: Tracer) -> None:
    """HTTP transport, client side: the calls the load generator makes."""
    from repro.serving.client import ServingClient

    tracer.span(ServingClient, "ingest", "http.ingest", key=_user_key("e"))
    tracer.span(ServingClient, "recommend", "http.recommend", key=_user_key("r"))


def install_router(tracer: Tracer) -> None:
    from repro.cluster.router import ClusterRouter

    tracer.span(ClusterRouter, "forward_event", "router.event", key=_payload_key("e"))
    tracer.span(
        ClusterRouter, "forward_recommend", "router.recommend",
        key=_payload_key("r"), info=_degraded,
    )


def install_scoring(tracer: Tracer) -> None:
    """Service capture/queue, store, feature fill, kernel and top-k."""
    import repro.models.base as models_base
    from repro.models.base import Recommender
    from repro.models.tsppr import TSPPRRecommender
    from repro.serving.service import RecommendService
    from repro.serving.state import SessionStore

    tracer.span(RecommendService, "ingest", "service.ingest", key=_user_key("e"))
    tracer.span(RecommendService, "recommend", "service.recommend", key=_user_key("r"))
    tracer.span(
        RecommendService, "submit", "service.submit", key=_user_key("r"),
        info=lambda args, kwargs, handle: {"t": int(handle.t)},
    )
    tracer.span(
        Recommender, "recommend_batch", "service.kernel",
        key=lambda args, kwargs: ["b", int(args[1].user)],
        info=lambda args, kwargs, result: {"ts": [int(q.t) for q in args[2]]},
    )
    tracer.span(SessionStore, "get", "store.get")
    _install_fill(tracer)
    tracer.span(
        TSPPRRecommender, "score_batch", "model.score",
        info=lambda args, kwargs, result: {"queries": len(result)},
    )
    tracer.span(models_base, "rank_top_k", "model.topk")


def install_write_path(tracer: Tracer) -> None:
    """WAL append and online learning (serve_http only)."""
    from repro.online.adapters import TSPPROnlineAdapter
    from repro.online.trainer import OnlineTrainer
    from repro.serving.events import EventLog

    tracer.span(EventLog, "append", "wal.append")
    tracer.span(
        OnlineTrainer, "observe", "online.observe",
        info=lambda args, kwargs, updated: {"update": int(bool(updated))},
    )
    tracer.span(TSPPROnlineAdapter, "flush", "online.flush")


def install_fit(tracer: Tracer) -> None:
    """Data loading, features, sampling and the SGD loop."""
    import repro.data.loaders as loaders
    import repro.data.split as split_module
    import repro.models.tsppr as tsppr
    import repro.optim.kernels as kernels
    from repro.features.cache import QuadrupleFeatureCache
    from repro.features.vectorizer import BehavioralFeatureModel

    tracer.span(loaders, "load_event_log", "data.load")
    tracer.span(split_module, "temporal_split", "data.split")
    tracer.span(BehavioralFeatureModel, "fit", "features.model_fit")
    tracer.span(QuadrupleFeatureCache, "build", "features.cache_build")
    _install_fill(tracer)
    tracer.span(
        tsppr, "sample_quadruples", "sampling.sample",
        info=lambda args, kwargs, result: {"n": len(result)},
    )
    tracer.span(kernels, "dependency_batches", "optim.dependency")

    callbacks = (
        ("draw_block", "optim.draw"),
        ("apply_block", "optim.block"),
        ("batch_margin", "optim.check"),
    )

    def make(run_sgd):
        traced = tracer.wrap(
            run_sgd, "optim.sgd", None,
            lambda args, kwargs, result: {"updates": int(result.n_updates)},
        )

        @functools.wraps(run_sgd)
        def run(*args, **kwargs):
            for argument, name in callbacks:
                if kwargs.get(argument) is not None:
                    kwargs[argument] = tracer.wrap(kwargs[argument], name)
            return traced(*args, **kwargs)

        return run

    tracer.around(tsppr, "run_sgd", make)


#: ``--delay`` targets of the self-test: layer -> (module, class, attr).
DELAY_TARGETS = {
    "wal": ("repro.serving.events", "EventLog", "append"),
    "fill": ("repro.engine.features", "SessionFeatureMatrix", "matrix"),
}


def install_delay(tracer: Tracer, spec: Optional[str]) -> None:
    """Apply a ``layer:milliseconds`` fixed delay (self-test only)."""
    if not spec:
        return
    import importlib

    layer, _, millis = spec.partition(":")
    module_name, class_name, attr = DELAY_TARGETS[layer]
    owner = getattr(importlib.import_module(module_name), class_name)
    tracer.delay(owner, attr, float(millis) / 1e3)


# ----------------------------------------------------------------------
# Analysis helpers
# ----------------------------------------------------------------------
def pct_ms(values: Sequence[float], q: float) -> float:
    """Percentile ``q`` of durations in seconds, in milliseconds (0 if empty)."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) * 1e3


def by_name(spans: Iterable[tuple]) -> Dict[str, List[tuple]]:
    grouped: Dict[str, List[tuple]] = {}
    for span in spans:
        grouped.setdefault(span[1], []).append(span)
    return grouped


def in_window(spans: Iterable[tuple], start: float, end: float) -> List[tuple]:
    return [span for span in spans if start <= span[2] <= end]


def contained(outer: List[tuple], inner: List[tuple], slack: float = 1e-4) -> Dict[int, tuple]:
    """Inner span id -> the outer span with the same key enclosing it.

    Spans of one key (one user's requests of one kind) never overlap at
    a level — each client thread waits for its reply — so the enclosing
    span is the latest one starting before the inner span.
    """
    starts: Dict[tuple, List[float]] = {}
    spans: Dict[tuple, List[tuple]] = {}
    for span in sorted(outer, key=lambda s: s[2]):
        key = tuple(span[5])
        starts.setdefault(key, []).append(span[2])
        spans.setdefault(key, []).append(span)
    found: Dict[int, tuple] = {}
    for span in inner:
        key = tuple(span[5])
        index = bisect.bisect_right(starts.get(key, []), span[2] + slack) - 1
        if index < 0:
            continue
        candidate = spans[key][index]
        if span[3] <= candidate[3] + slack:
            found[span[0]] = candidate
    return found


def kernel_for(kernels: List[tuple]):
    """Index kernels by user; returns ``lookup(user, t, after) -> kernel``."""
    per_user: Dict[int, List[tuple]] = {}
    for span in sorted(kernels, key=lambda s: s[2]):
        per_user.setdefault(span[5][1], []).append(span)
    starts = {user: [s[2] for s in spans] for user, spans in per_user.items()}

    def lookup(user: int, t: int, after: float) -> Optional[tuple]:
        spans = per_user.get(user, [])
        index = bisect.bisect_left(starts.get(user, []), after)
        for span in spans[index:]:
            if span[6] and t in span[6]["ts"]:
                return span
        return None

    return lookup


def scoring_layers(spans: List[tuple], rounds: int) -> Tuple[Dict[str, float], Dict[int, Tuple[float, tuple]]]:
    """Service capture/queue, store, fill, kernel and top-k metrics.

    Returns the metrics and, per submit span id, ``(queue wait, kernel
    span)`` so callers can attribute a request's latency.
    """
    groups = by_name(spans)
    own = self_times(spans)
    fills = child_time(spans, ("engine.fill",))
    submits = groups.get("service.submit", [])
    kernels = groups.get("service.kernel", [])
    lookup = kernel_for(kernels)
    waits: List[float] = []
    matched: Dict[int, Tuple[float, tuple]] = {}
    for span in submits:
        kernel = lookup(span[5][1], span[6]["t"], span[3])
        if kernel is not None:
            wait = kernel[2] - span[3]
            waits.append(wait)
            matched[span[0]] = (wait, kernel)
    queries = [len(span[6]["ts"]) for span in kernels if span[6]]
    scores = groups.get("model.score", [])
    fill_spans = groups.get("engine.fill", [])
    metrics = {
        "service.submit_ms_p50": pct_ms([s[3] - s[2] for s in submits], 50),
        "service.submit_ms_p99": pct_ms([s[3] - s[2] for s in submits], 99),
        "service.queue_wait_ms_p50": pct_ms(waits, 50),
        "service.queue_wait_ms_p99": pct_ms(waits, 99),
        "service.kernels": len(kernels) / rounds,
        "service.queries_per_kernel": float(np.mean(queries)) if queries else 0.0,
        "store.get_ms_p99": pct_ms([s[3] - s[2] for s in groups.get("store.get", [])], 99),
        "engine.fill_s": sum(s[3] - s[2] for s in fill_spans) / rounds,
        "engine.fill_rows": sum(s[6]["rows"] for s in fill_spans if s[6]) / rounds,
        "model.score_s": sum(s[3] - s[2] - fills.get(s[0], 0.0) for s in scores) / rounds,
        "model.queries": sum(s[6]["queries"] for s in scores if s[6]) / rounds,
        "model.topk_s": sum(own[s[0]] for s in groups.get("model.topk", [])) / rounds,
    }
    return metrics, matched
