"""Serving observability: latency histograms and request counters.

Everything the service measures lands here: request/event/fallback/error
counters, scoring-loop occupancy, and fixed-bucket latency histograms
with p50/p95/p99 estimates. The whole registry renders to one plain
dict, which is what the HTTP ``/metrics`` endpoint returns and what
:meth:`ServingMetrics.dump` writes (atomically, via the resilience
layer) next to the experiment journals so a benchmark run leaves a
machine-readable latency table behind.

Histograms use ~60 log-spaced bucket bounds between 10µs and 60s;
percentiles report the upper bound of the bucket containing the rank,
i.e. a ≤8% overestimate — the right bias for latency SLOs.

Histograms are **exactly mergeable**: all internal state is integral
(bucket counts, totals in integer nanoseconds), so merging shard
snapshots is associative and order-independent — the cluster router's
``/metrics`` aggregation via :func:`merge_snapshots` is exact, not an
approximation.

Besides durations, the in-flight scoring loop samples *depth-like*
integers at every kernel boundary — request-queue depth and
batch occupancy (candidate rows of the admitted requests). Those land in
:class:`GaugeStats`: count/total/max in plain integers, so the same
exact-merge guarantee holds for the ``gauges`` block of a snapshot.
"""

from __future__ import annotations

import bisect
import threading
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.resilience.atomic import atomic_write_json


def _default_bounds() -> List[float]:
    """Log-spaced bucket upper bounds (seconds), ~8% apart, 10µs → 60s."""
    bounds: List[float] = []
    value = 1e-5
    while value < 60.0:
        bounds.append(value)
        value *= 1.08
    bounds.append(60.0)
    return bounds


class LatencyHistogram:
    """Fixed-bucket histogram of durations in seconds.

    Observations beyond the last bound land in a +inf overflow bucket;
    percentile estimates then report the last finite bound.
    """

    def __init__(self, bounds: Optional[List[float]] = None) -> None:
        self.bounds = list(bounds) if bounds is not None else _default_bounds()
        if sorted(self.bounds) != self.bounds or not self.bounds:
            raise ValueError("histogram bounds must be non-empty and sorted")
        self.counts = [0] * (len(self.bounds) + 1)
        self.n = 0
        # Totals/extrema in integer nanoseconds: integer addition is
        # associative and exact, which is what makes cross-shard merges
        # independent of merge order.
        self.total_ns = 0
        self.max_ns = 0

    @property
    def total(self) -> float:
        """Sum of observations in seconds."""
        return self.total_ns / 1e9

    @property
    def max_seen(self) -> float:
        """Largest observation in seconds."""
        return self.max_ns / 1e9

    def observe(self, seconds: float) -> None:
        index = bisect.bisect_left(self.bounds, seconds)
        self.counts[index] += 1
        self.n += 1
        nanos = int(round(seconds * 1e9))
        self.total_ns += nanos
        if nanos > self.max_ns:
            self.max_ns = nanos

    # ------------------------------------------------------------------
    # Exact merging (cross-shard aggregation)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """JSON-ready full state; :meth:`from_state` round-trips it."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "n": self.n,
            "total_ns": self.total_ns,
            "max_ns": self.max_ns,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "LatencyHistogram":
        histogram = cls(bounds=[float(b) for b in state["bounds"]])  # type: ignore[union-attr]
        counts = [int(c) for c in state["counts"]]  # type: ignore[union-attr]
        if len(counts) != len(histogram.counts):
            raise ValueError(
                f"histogram state has {len(counts)} buckets, "
                f"bounds imply {len(histogram.counts)}"
            )
        histogram.counts = counts
        histogram.n = int(state["n"])  # type: ignore[arg-type]
        histogram.total_ns = int(state["total_ns"])  # type: ignore[arg-type]
        histogram.max_ns = int(state["max_ns"])  # type: ignore[arg-type]
        return histogram

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other`` in. Exact: only integer adds and a max."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.n += other.n
        self.total_ns += other.total_ns
        self.max_ns = max(self.max_ns, other.max_ns)
        return self

    def percentile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile (0..1)."""
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must lie in [0, 1], got {q}")
        if self.n == 0:
            return 0.0
        rank = max(1, int(q * self.n + 0.5))
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.bounds[-1]
        return self.bounds[-1]

    def summary(self) -> Dict[str, float]:
        """count/mean/max plus the standard p50/p95/p99, in milliseconds."""
        mean = (self.total / self.n) if self.n else 0.0
        return {
            "count": self.n,
            "mean_ms": round(1e3 * mean, 4),
            "p50_ms": round(1e3 * self.percentile(0.50), 4),
            "p95_ms": round(1e3 * self.percentile(0.95), 4),
            "p99_ms": round(1e3 * self.percentile(0.99), 4),
            "max_ms": round(1e3 * self.max_seen, 4),
        }


class GaugeStats:
    """Exactly mergeable summary of an integer-valued gauge.

    Queue depth and batch occupancy are sampled at kernel boundaries;
    what matters operationally is how deep they run on average and at
    worst. State is three integers (count, total, max), so merging is
    associative, order-independent, and lossless — the same contract as
    :class:`LatencyHistogram`, for depth-like numbers.
    """

    __slots__ = ("n", "total", "max_seen")

    def __init__(self) -> None:
        self.n = 0
        self.total = 0
        self.max_seen = 0

    def observe(self, value: int) -> None:
        value = int(value)
        if value < 0:
            raise ValueError(f"gauge samples must be non-negative, got {value}")
        self.n += 1
        self.total += value
        if value > self.max_seen:
            self.max_seen = value

    def state_dict(self) -> Dict[str, int]:
        """JSON-ready full state; :meth:`from_state` round-trips it."""
        return {"n": self.n, "total": self.total, "max": self.max_seen}

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "GaugeStats":
        gauge = cls()
        gauge.n = int(state["n"])  # type: ignore[arg-type]
        gauge.total = int(state["total"])  # type: ignore[arg-type]
        gauge.max_seen = int(state["max"])  # type: ignore[arg-type]
        return gauge

    def merge(self, other: "GaugeStats") -> "GaugeStats":
        """Fold ``other`` in. Exact: integer adds and a max."""
        self.n += other.n
        self.total += other.total
        self.max_seen = max(self.max_seen, other.max_seen)
        return self

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.n,
            "mean": round(self.total / self.n, 3) if self.n else 0.0,
            "max": self.max_seen,
        }


class ServingMetrics:
    """Thread-safe registry of every number the service exposes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {
            "requests": 0,
            "events": 0,
            "recommendations": 0,
            "empty_candidate_requests": 0,
            "scored_answers": 0,
            "fallback_answers": 0,
            "deadline_fallbacks": 0,
            "fallbacks_queue_expired": 0,
            "fallbacks_scoring_overrun": 0,
            "duplicate_events": 0,
            "errors": 0,
            "batches": 0,
            "batched_requests": 0,
        }
        self._histograms: Dict[str, LatencyHistogram] = {
            "request_latency": LatencyHistogram(),
            "scoring_latency": LatencyHistogram(),
            "admission_wait": LatencyHistogram(),
        }
        self._gauges: Dict[str, GaugeStats] = {
            "queue_depth": GaugeStats(),
            "batch_occupancy_rows": GaugeStats(),
            "inflight_requests": GaugeStats(),
        }

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def observe(self, name: str, seconds: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = LatencyHistogram()
            histogram.observe(seconds)

    def observe_gauge(self, name: str, value: int) -> None:
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = GaugeStats()
            gauge.observe(value)

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def as_dict(
        self, store_counters: Optional[Dict[str, float]] = None
    ) -> Dict[str, object]:
        """One JSON-ready snapshot: counters, histograms, cache stats."""
        with self._lock:
            counters = dict(self._counters)
            latencies = {
                name: histogram.summary()
                for name, histogram in self._histograms.items()
            }
            states = {
                name: histogram.state_dict()
                for name, histogram in self._histograms.items()
            }
            gauges = {
                name: gauge.summary() for name, gauge in self._gauges.items()
            }
            gauge_states = {
                name: gauge.state_dict()
                for name, gauge in self._gauges.items()
            }
        batches = counters.get("batches", 0)
        payload: Dict[str, object] = {
            "counters": counters,
            "latency": latencies,
            "histogram_state": states,
            "gauges": gauges,
            "gauge_state": gauge_states,
            "mean_batch_size": (
                round(counters.get("batched_requests", 0) / batches, 3)
                if batches
                else 0.0
            ),
        }
        if store_counters is not None:
            payload["session_cache"] = store_counters
        return payload

    def dump(
        self,
        path: Union[str, Path],
        store_counters: Optional[Dict[str, float]] = None,
    ) -> Path:
        """Atomically write the snapshot as JSON (crash-safe, journal-style)."""
        return atomic_write_json(path, self.as_dict(store_counters))


#: session_cache keys that merge by summation (hit_rate is derived).
_CACHE_SUM_KEYS = ("hits", "misses", "evictions", "rehydrations")


def merge_snapshots(snapshots: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Exactly merge :meth:`ServingMetrics.as_dict` payloads.

    The cluster router aggregates its shards' ``/metrics`` snapshots
    with this. Counters and histogram states sum; derived values
    (percentile summaries, hit rate, mean batch size) are recomputed
    from the merged exact state — so the result is associative and
    independent of shard order: ``merge([a, merge([b, c])])``,
    ``merge([merge([a, b]), c])``, and ``merge`` over any permutation
    all produce the same payload (the property test in
    ``tests/test_serving_metrics.py`` pins this).
    """
    counters: Dict[str, int] = {}
    histograms: Dict[str, LatencyHistogram] = {}
    gauges: Dict[str, GaugeStats] = {}
    cache: Dict[str, float] = {}
    saw_cache = False
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():  # type: ignore[union-attr]
            counters[name] = counters.get(name, 0) + int(value)
        for name, state in snapshot.get("histogram_state", {}).items():  # type: ignore[union-attr]
            incoming = LatencyHistogram.from_state(state)
            if name in histograms:
                histograms[name].merge(incoming)
            else:
                histograms[name] = incoming
        for name, state in snapshot.get("gauge_state", {}).items():  # type: ignore[union-attr]
            incoming_gauge = GaugeStats.from_state(state)
            if name in gauges:
                gauges[name].merge(incoming_gauge)
            else:
                gauges[name] = incoming_gauge
        session_cache = snapshot.get("session_cache")
        if session_cache is not None:
            saw_cache = True
            for key in _CACHE_SUM_KEYS:
                cache[key] = cache.get(key, 0) + session_cache.get(key, 0)  # type: ignore[union-attr]
    batches = counters.get("batches", 0)
    payload: Dict[str, object] = {
        "counters": {name: counters[name] for name in sorted(counters)},
        "latency": {
            name: histograms[name].summary() for name in sorted(histograms)
        },
        "histogram_state": {
            name: histograms[name].state_dict() for name in sorted(histograms)
        },
        "gauges": {name: gauges[name].summary() for name in sorted(gauges)},
        "gauge_state": {
            name: gauges[name].state_dict() for name in sorted(gauges)
        },
        "mean_batch_size": (
            round(counters.get("batched_requests", 0) / batches, 3)
            if batches
            else 0.0
        ),
    }
    if saw_cache:
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        cache["hit_rate"] = (cache.get("hits", 0) / lookups) if lookups else 0.0
        payload["session_cache"] = cache
    return payload
