"""Shared pieces of the workloads: round plan, results, summaries."""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

#: A run repeats set-up + measurement this many times (untraced), so
#: set-up time and every end-to-end figure are medians or pools of
#: independent rounds.
ROUNDS = 3

#: Seed of every workload's synthetic dataset. The data stay fixed so
#: that run-to-run spread measures the program, not the data; the run's
#: ``--seed`` decides how the traffic over them is ordered and paced.
DATA_SEED = 101

#: Minimum latency samples per round: at least ten beyond its p99 (which
#: the record keeps), and a hundred beyond the reported p90.
MIN_LATENCY_SAMPLES = 1000

#: ``serve_http``'s host times this many fits of its serving model after
#: each round; ``fit_s`` is the best of all of them.
#: Spreading the fits over the run keeps one slow stretch of the machine
#: from setting the figure.
FITS_PER_ROUND = 10

#: End-to-end metrics: (name, unit, direction). Every workload reports
#: all of them; see README.md for each one's definition per workload.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("success_ratio", "ratio", "higher"),
    ("fit_s", "s", "lower"),
    ("maap10", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


def round_plan(trace: int) -> List[bool]:
    """Which rounds run traced: none, or one after an untraced one."""
    return [False, True] if trace else [False] * ROUNDS


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    @property
    def correct(self) -> bool:
        return not self.errors


def percentile_ms(latencies_s: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies_s, dtype=np.float64), q)) * 1e3


def round_percentile_ms(rounds: List[List[float]], q: float, speeds=None) -> float:
    """Median over rounds of each round's percentile ``q`` (in ms).

    A stall that hits one round moves that round's tail only, so the
    median of the rounds stays on the typical value. With ``speeds``,
    each round's percentile is first scaled by its host speed.
    """
    speeds = speeds or [1.0] * len(rounds)
    return median([percentile_ms(latencies, q) * speed for latencies, speed in zip(rounds, speeds)])


def cpu_time(function) -> float:
    """CPU seconds this process spends in one call of ``function()``.

    Process CPU time leaves out the time the host gives to other tenants
    (steal) and the time other processes hold the cores. For
    single-threaded work on an idle machine it equals wall time.
    """
    gc.collect()
    start = time.process_time()
    function()
    return time.process_time() - start


def cpu_repeats(function, repeats: int, references: List[float]) -> List[float]:
    """CPU seconds of each of ``repeats`` calls of ``function()``.

    Each call follows one run of the reference work, whose CPU time is
    appended to ``references`` (see :func:`host_speed`).
    """
    times = []
    for _ in range(repeats):
        references.append(cpu_time(reference_work))
        times.append(cpu_time(function))
    return times


#: CPU seconds :func:`reference_work` takes at best on the development
#: machine (2 vCPUs of a shared host, when the host is quiet).
REFERENCE_S = 0.045

_REFERENCE_ROWS = np.random.default_rng(0).random((64, 16))


def reference_work() -> None:
    """A fixed job of interpreter and small-array numpy work.

    It calls nothing of the program under test, so a change to the
    program never changes its cost; only the host's speed does.
    """
    total = 0
    for i in range(400_000):
        total += i * i
    vector = _REFERENCE_ROWS[0].copy()
    for i in range(6_000):
        vector += _REFERENCE_ROWS[i % 64] * 0.01
        vector -= vector.mean()


def host_speed(references: List[float]) -> float:
    """How fast the host ran this run, relative to the development machine.

    The best CPU time of the reference work over the run, divided into
    :data:`REFERENCE_S`: 1.0 when the host was as quiet as the
    development machine at its best, below 1.0 when other tenants kept
    it slower for the whole run. A CPU-bound time multiplied by it reads
    as seconds at the development machine's speed. Interpreter and
    numpy work slow down about alike when the host is busy, so the
    factor takes out most of a slow stretch that lasts a whole run,
    which no best-of-N can.
    """
    return REFERENCE_S / best(references)


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def best(values) -> float:
    """Fastest of repeated CPU-clock timings of the same work.

    Other tenants on the host's cores slow the same work by up to ~50%
    for stretches of seconds to minutes; they only ever add time, and on
    the CPU clock nothing makes the work run faster than its cost. The
    fastest repeat is the one they hindered least (``timeit``'s rule).
    """
    return float(min(values))


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def overhead_ratio(traced: List[float], untraced: List[float]) -> float:
    """Traced end-to-end figure over the untraced one, minus one."""
    return median(traced) / median(untraced) - 1.0
