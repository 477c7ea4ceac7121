"""Analytic cost model ranking candidate configurations before measurement.

The autotuner enumerates every candidate configuration of a subsystem's
knob spaces — dozens to hundreds — but only the top few are worth
validating by real (seconds-long) measurement. This module predicts, for
each candidate, the latency shape a bursty workload would see and the
resident memory the configuration commits to, using only the machine
constants from one quick probe (:mod:`repro.tuning.probe`):

* a scoring kernel over ``q`` queries of width ``w`` costs
  ``overhead + us_per_row * q * w`` microseconds (the probe's
  least-squares line);
* the in-flight loop admits at kernel boundaries: a calm single waits
  one admission poll (only when the growth gate is enabled) plus one
  single-query kernel (the p50); the last request of a burst of ``B``
  drains behind ``ceil(B / check_interval)`` boundary kernels, and a
  ``max_inflight_rows`` bound below the burst's row demand serializes
  extra admission passes on top (the p99);
* memory is ``capacity × bytes_per_user[store]`` plus the row budget
  the admitted requests may hold.

The model is deliberately simple — monotone in every knob and correct
about *ordering*, which is all ranking needs; absolute accuracy comes
from the measured validation pass. The training-side model prices the
fork-pool cache build (startup cost vs. per-row payoff, capped at the
core count) and the block-SGD kernel amortization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping

from repro.exceptions import TuningError
from repro.tuning.probe import MachineProbe

#: Poll period (ms) of the in-flight growth-gated admission wait; one
#: poll is what a calm single pays when the gate is enabled (mirrors
#: ``repro.serving.service._COALESCE_POLL_S``).
ADMISSION_POLL_MS = 0.5

#: Bytes charged per admitted candidate row. Admitted requests hold
#: their captured candidate tuples, so ``max_inflight_rows`` bounds
#: that memory too; the charge keeps the row bound in the ranking.
ROW_BYTES = 16.0


@dataclass(frozen=True)
class WorkloadShape:
    """The arrival/shape facts the serving cost model conditions on.

    Mirrors the bursty load-generator parameters plus the per-request
    candidate width, so predictions describe the same schedule the
    measured validation replays.
    """

    calm_rate_hz: float = 400.0
    burst_size: int = 16
    calm_between: int = 32
    candidates_per_request: float = 64.0
    requests: int = 200
    active_users: int = 4


@dataclass(frozen=True)
class Prediction:
    """Predicted cost of one candidate configuration."""

    p50_ms: float
    p99_ms: float
    mem_bytes: float

    def rank_key(self, tiebreak: str = "") -> tuple:
        """Sort key: tail first, then typical latency, then memory.

        ``tiebreak`` (the candidate's canonical string) makes the total
        order deterministic across equal predictions, which resume
        identity depends on.
        """
        return (
            round(self.p99_ms, 6),
            round(self.p50_ms, 6),
            round(self.mem_bytes, 1),
            tiebreak,
        )


class CostModel:
    """Analytic time/memory predictions calibrated by one machine probe."""

    def __init__(self, probe: MachineProbe) -> None:
        self.probe = probe

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------
    def kernel_ms(self, queries: float, width: float) -> float:
        """Predicted one-call scoring time for ``queries`` × ``width`` rows."""
        rows = max(queries, 0.0) * max(width, 1.0)
        return (
            self.probe.kernel_overhead_us + self.probe.kernel_us_per_row * rows
        ) / 1e3

    # ------------------------------------------------------------------
    # Serving / cluster
    # ------------------------------------------------------------------
    def predict_serving(
        self, knobs: Mapping[str, object], shape: WorkloadShape
    ) -> Prediction:
        """Latency/memory prediction for one serving (or cluster) config."""
        width = shape.candidates_per_request
        burst = max(int(shape.burst_size), 1)
        check_interval = int(knobs.get("check_interval", 16))
        max_rows = int(knobs.get("max_inflight_rows", 32768))
        admission_wait_ms = float(knobs.get("admission_wait_ms", 0.0))
        poll = ADMISSION_POLL_MS if admission_wait_ms > 0 else 0.0
        p50 = poll + self.kernel_ms(1, width)
        # The burst drains in ceil(B/check_interval) boundary kernels; a
        # row bound below the burst's demand forces extra admission
        # passes that serialize on retirements.
        n_chunks = math.ceil(burst / check_interval)
        p99 = poll + n_chunks * self.kernel_ms(
            min(burst, check_interval), width
        )
        demanded_rows = burst * width
        if max_rows < demanded_rows:
            p99 *= demanded_rows / max_rows
        capacity = int(knobs.get("capacity", 1024))
        store = str(knobs.get("store", "arena"))
        bytes_per_user = self.probe.bytes_per_user.get(store)
        if bytes_per_user is None:
            # Probe skipped the store sweep: assume parity so memory
            # never silently breaks the ranking.
            bytes_per_user = 256.0
        mem = capacity * bytes_per_user + max_rows * ROW_BYTES
        return Prediction(
            p50_ms=round(p50, 6), p99_ms=round(p99, 6), mem_bytes=round(mem, 1)
        )

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def predict_training(
        self,
        knobs: Mapping[str, object],
        n_quadruples: int = 50_000,
        check_interval: int = 5_000,
    ) -> Prediction:
        """Predicted fit cost for one training config.

        The cache build parallelizes across ``fit_workers`` fork
        workers (payoff capped at the core count, each worker paying
        the probed startup cost); the SGD loop pays one kernel-call
        overhead per block, so tiny ``sgd_block`` values re-pay the
        call overhead ``check_interval / sgd_block`` times per
        convergence check.
        """
        fit_workers = int(knobs.get("fit_workers", 1))
        sgd_block = int(knobs.get("sgd_block", 0))
        effective = max(1, min(fit_workers, self.probe.cpu_count))
        row_us = self.probe.kernel_us_per_row
        build_ms = (n_quadruples * row_us) / 1e3 / effective
        if fit_workers > 1:
            build_ms += self.probe.fork_startup_ms * fit_workers
        block = check_interval if sgd_block == 0 else min(
            sgd_block, check_interval
        )
        n_calls = math.ceil(check_interval / max(block, 1))
        sgd_ms = (
            n_calls * self.probe.kernel_overhead_us
            + check_interval * row_us
        ) / 1e3
        # Peak block-kernel working set grows with the block size.
        mem = float(block) * 512.0
        total = build_ms + sgd_ms
        return Prediction(
            p50_ms=round(total, 6), p99_ms=round(total, 6),
            mem_bytes=round(mem, 1),
        )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def predict(
        self,
        subsystem: str,
        knobs: Mapping[str, object],
        shape: WorkloadShape,
    ) -> Prediction:
        """Route one candidate to the subsystem's predictor."""
        if subsystem in ("serving", "cluster"):
            return self.predict_serving(knobs, shape)
        if subsystem == "training":
            return self.predict_training(knobs)
        raise TuningError(f"unknown subsystem {subsystem!r}")

    def memory_budget_bytes(self, fraction: float = 0.5) -> float:
        """Memory a configuration may commit to (0 = unknown, no bound)."""
        return self.probe.mem_available_bytes * fraction


def predictions_as_dict(prediction: Prediction) -> Dict[str, float]:
    """JSON-ready rendering of one prediction."""
    return {
        "p50_ms": prediction.p50_ms,
        "p99_ms": prediction.p99_ms,
        "mem_bytes": prediction.mem_bytes,
    }


__all__ = [
    "ADMISSION_POLL_MS",
    "CostModel",
    "Prediction",
    "WorkloadShape",
    "predictions_as_dict",
]
