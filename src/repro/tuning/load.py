"""Seeded arrival processes shared by the benchmarks.

Latency measurements are only comparable when every configuration
replays the *same* arrival schedule, so the generators here are seeded
and pure. They started life in ``benchmarks/conftest.py`` pacing the
serving/cluster benches; one implementation now lives in the library,
the bench conftest re-exports it and perfbench's ``serve_burst``
workload imports it.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np


class LoadGenerator:
    """Deterministic arrival processes shared by the benchmarks.

    Latency guards are only comparable when every mode replays the
    *same* arrival schedule, so the generators are seeded and pure: the
    serving bench replays one schedule from :meth:`bursty_times`
    across its best-of-reps runs, and the cluster benches pace their
    client threads with :meth:`poisson_gaps` instead of ad-hoc tight
    loops.
    """

    @staticmethod
    def poisson_gaps(n: int, rate_hz: float, seed: int) -> np.ndarray:
        """``n`` exponential inter-arrival gaps (seconds) at ``rate_hz``."""
        rng = np.random.default_rng(seed)
        return rng.exponential(1.0 / rate_hz, size=n)

    @staticmethod
    def bursty_times(
        n: int,
        *,
        seed: int,
        calm_rate_hz: float,
        burst_size: int,
        calm_between: int,
    ) -> np.ndarray:
        """Absolute arrival times of a bursty (Markov-modulated) process.

        Alternates a calm phase — ``calm_between`` arrivals with
        exponential gaps at ``calm_rate_hz`` — with a burst phase of
        ``burst_size`` simultaneous arrivals. Bursts queue behind
        each other's kernels while calm singles each start a busy
        period of their own, so the schedule exercises both the
        scoring loop's admission and its tail.
        """
        rng = np.random.default_rng(seed)
        times: List[float] = []
        t = 0.0
        while len(times) < n:
            for _ in range(calm_between):
                t += rng.exponential(1.0 / calm_rate_hz)
                times.append(t)
                if len(times) >= n:
                    break
            if len(times) >= n:
                break
            t += rng.exponential(1.0 / calm_rate_hz)
            times.extend([t] * min(burst_size, n - len(times)))
        return np.asarray(times[:n], dtype=np.float64)

    @staticmethod
    def percentiles_ms(latencies) -> Dict[str, float]:
        """p50/p95/p99 of a latency list (seconds in, milliseconds out)."""
        values = np.asarray(latencies, dtype=np.float64) * 1e3
        return {
            "p50_ms": round(float(np.percentile(values, 50)), 3),
            "p95_ms": round(float(np.percentile(values, 95)), 3),
            "p99_ms": round(float(np.percentile(values, 99)), 3),
        }


__all__ = ["LoadGenerator"]
