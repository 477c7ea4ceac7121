"""Measured validation of candidate configurations.

The cost model ranks; this module *measures*. A
:class:`ServingWorkload` replays one seeded bursty arrival schedule
(:class:`~repro.tuning.load.LoadGenerator` — the same pacing the
serving/cluster benches use) through a real
:class:`~repro.serving.service.RecommendService` built from a candidate
knob dict, and reports the latency percentiles and completed
throughput. A :class:`TrainingWorkload` times a real (small) ``fit``
under candidate ``fit_workers`` / ``sgd_block`` values.

Both workloads are deterministic in everything but wall-clock: the
split, the model, the event stream, and the arrival schedule are all
seeded, so two candidates are compared under identical offered load.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.config import TSPPRConfig, WindowConfig
from repro.exceptions import TuningError
from repro.logging_utils import get_logger
from repro.tuning.cost import WorkloadShape
from repro.tuning.load import LoadGenerator

logger = get_logger("tuning.measure")

#: Serving-side knobs consumed by ServiceConfig (the rest go to the
#: session-store wiring).
_SERVICE_KNOBS = (
    "check_interval",
    "max_inflight_rows",
    "admission_wait_ms",
)

#: Bursty-schedule shape of the quick workload (mirrors the serving
#: bench's calm-heavy regime at a smaller scale).
QUICK_BURSTY = dict(calm_rate_hz=400.0, burst_size=12, calm_between=24)


def _interleaved_stream(split) -> List[Tuple[int, int]]:
    """Round-robin the users' held-out suffixes, like live traffic."""
    per_user = {
        user: split.full_sequence(user)
        .items[split.train_boundary(user):]
        .tolist()
        for user in range(split.n_users)
    }
    stream: List[Tuple[int, int]] = []
    longest = max(len(items) for items in per_user.values())
    for step in range(longest):
        for user in range(split.n_users):
            if step < len(per_user[user]):
                stream.append((user, per_user[user][step]))
    return stream


@dataclass
class ServingWorkload:
    """One reproducible serving workload a candidate config is measured on."""

    split: object
    model: object
    stream: List[Tuple[int, int]]
    arrivals: np.ndarray
    window: WindowConfig
    shape: WorkloadShape
    top_n: int = 10

    @classmethod
    def quick(
        cls,
        seed: int = 7,
        n_events: int = 280,
        model_name: str = "recency",
        window: Optional[WindowConfig] = None,
        schedule_seed: int = 808,
    ) -> "ServingWorkload":
        """A seconds-scale workload for CLI tuning (Recency by default).

        The kernel constants come from the probe, so a cheap model here
        still produces a correctly *shaped* schedule; pass a fitted
        TS-PPR and a heavier split (as the autotune bench does) when
        the absolute numbers must match a benchmark baseline.
        """
        from repro.data.split import temporal_split
        from repro.models.recency import RecencyRecommender
        from repro.models.tsppr import TSPPRRecommender
        from repro.synth.base import SyntheticConfig, generate_dataset

        config = SyntheticConfig(
            name="tune-serving",
            n_users=4,
            n_items=1200,
            sequence_length_range=(420, 520),
            catalog_size_range=(90, 130),
            zipf_exponent=0.8,
            p_explore_range=(0.2, 0.3),
            memory_span=120,
            frequency_exponent=0.05,
            recency_exponent=0.05,
            explore_weight_exponent=0.0,
        )
        split = temporal_split(generate_dataset(config, seed))
        window = window or WindowConfig()
        if model_name == "recency":
            model = RecencyRecommender().fit(split, window)
        elif model_name == "tsppr":
            model = TSPPRRecommender(
                TSPPRConfig(max_epochs=2000, seed=seed)
            ).fit(split, window)
        else:
            raise TuningError(
                f"unknown tune workload model {model_name!r}; expected "
                f"'recency' or 'tsppr'"
            )
        stream = _interleaved_stream(split)[:n_events]
        arrivals = LoadGenerator.bursty_times(
            len(stream), seed=schedule_seed, **QUICK_BURSTY
        )
        return cls.from_parts(
            split, model, stream, arrivals, window, **QUICK_BURSTY
        )

    @classmethod
    def from_parts(
        cls,
        split,
        model,
        stream: List[Tuple[int, int]],
        arrivals: np.ndarray,
        window: WindowConfig,
        *,
        calm_rate_hz: float,
        burst_size: int,
        calm_between: int,
        top_n: int = 10,
    ) -> "ServingWorkload":
        """Wrap explicit parts (the bench's path) into a workload."""
        width = float(
            np.mean([
                max(len(set(split.train_sequence(u).items.tolist())), 1)
                for u in range(split.n_users)
            ])
        )
        shape = WorkloadShape(
            calm_rate_hz=calm_rate_hz,
            burst_size=burst_size,
            calm_between=calm_between,
            candidates_per_request=width,
            requests=len(stream),
            active_users=split.n_users,
        )
        return cls(
            split=split,
            model=model,
            stream=list(stream),
            arrivals=np.asarray(arrivals, dtype=np.float64),
            window=window,
            shape=shape,
            top_n=top_n,
        )

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def _drive_once(self, knobs: Mapping[str, object]) -> Dict[str, float]:
        from repro.serving.service import ServiceConfig, service_for_split

        overrides = {
            name: knobs[name] for name in _SERVICE_KNOBS if name in knobs
        }
        config = ServiceConfig(
            window=self.window,
            default_k=self.top_n,
            n_items=self.split.n_items,
            **overrides,  # type: ignore[arg-type]
        )
        capacity = int(knobs.get("capacity", 1024))
        store = str(knobs.get("store", "arena"))
        latencies: List[float] = []
        pending = []
        with service_for_split(
            self.model, self.split, config=config,
            capacity=capacity, store=store,
        ) as service:
            session_store = service.store
            start = time.perf_counter()
            for index, (user, item) in enumerate(self.stream):
                delay = self.arrivals[index] - (time.perf_counter() - start)
                if delay > 0:
                    time.sleep(delay)
                with session_store.lock:
                    session = session_store.get(user)
                    is_target = session.is_next_target(item) and bool(
                        session.candidates()
                    )
                if is_target:
                    pending.append(service.submit(user, k=self.top_n))
                service.ingest(user, item)
            for handle in pending:
                latencies.append(handle.result(timeout=600.0).latency_s)
            elapsed = time.perf_counter() - start
        if not latencies:
            raise TuningError(
                "serving workload produced no recommend requests; the "
                "stream has no RRC targets"
            )
        stats = LoadGenerator.percentiles_ms(latencies)
        stats["requests"] = float(len(latencies))
        stats["requests_per_s"] = round(len(latencies) / elapsed, 1)
        stats["elapsed_s"] = round(elapsed, 3)
        return stats

    def measure(
        self, knobs: Mapping[str, object], reps: int = 1
    ) -> Dict[str, float]:
        """Replay the schedule ``reps`` times; best rep by p99.

        Paced runs all take the same wall-clock (the schedule dictates
        it), so best-of-reps by the guarded percentile suppresses
        scheduler noise, exactly as the serving bench does.
        """
        best: Optional[Dict[str, float]] = None
        for _ in range(max(1, reps)):
            stats = self._drive_once(knobs)
            if best is None or stats["p99_ms"] < best["p99_ms"]:
                best = stats
        assert best is not None
        return best


@dataclass
class TrainingWorkload:
    """A small real ``fit`` timed under candidate training knobs."""

    split: object
    window: WindowConfig
    config: TSPPRConfig = field(
        default_factory=lambda: TSPPRConfig(max_epochs=4000, seed=11)
    )

    @classmethod
    def quick(cls, seed: int = 7) -> "TrainingWorkload":
        from repro.data.split import temporal_split
        from repro.synth.base import SyntheticConfig, generate_dataset

        config = SyntheticConfig(
            name="tune-training",
            n_users=6,
            n_items=900,
            sequence_length_range=(320, 400),
            catalog_size_range=(70, 110),
            zipf_exponent=0.8,
            p_explore_range=(0.2, 0.3),
            memory_span=100,
            frequency_exponent=0.05,
            recency_exponent=0.05,
            explore_weight_exponent=0.0,
        )
        split = temporal_split(generate_dataset(config, seed))
        return cls(split=split, window=WindowConfig())

    def measure(
        self, knobs: Mapping[str, object], reps: int = 1
    ) -> Dict[str, float]:
        """Time a fresh fit per rep; best rep by wall-clock."""
        from repro.models.tsppr import TSPPRRecommender

        fit_workers = int(knobs.get("fit_workers", 1))
        sgd_block = int(knobs.get("sgd_block", 0))
        best: Optional[float] = None
        for _ in range(max(1, reps)):
            model = TSPPRRecommender(self.config)
            start = time.perf_counter()
            model.fit(
                self.split,
                self.window,
                fit_workers=fit_workers,
                sgd_block=sgd_block or None,
            )
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
        assert best is not None
        return {
            "fit_s": round(best, 3),
            # The shared p99 key lets the tuner pick "measured best" with
            # one comparator across subsystems.
            "p99_ms": round(best * 1e3, 3),
            "p50_ms": round(best * 1e3, 3),
        }


__all__ = [
    "QUICK_BURSTY",
    "ServingWorkload",
    "TrainingWorkload",
]
