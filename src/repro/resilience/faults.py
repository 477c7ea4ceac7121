"""Deterministic fault injection for crash-safety tests.

The resilience guarantees of this library — resume-equals-uninterrupted
training, never-torn persistence — are only worth anything if tests can
*kill the process at an adversarial moment* and watch recovery happen.
:class:`FaultInjector` provides exactly that: deterministic "crash at
update K" / "raise on write M" triggers threaded through the SGD loop
and the atomic-write layer, plus :class:`CrashingFile`, a file wrapper
that tears a write mid-payload to simulate a power cut.

Crash points can be pinned explicitly or derived from a seed
(:meth:`FaultInjector.from_seed`), so property-style tests can sweep
arbitrary crash moments while staying reproducible.
"""

from __future__ import annotations

import os
import signal
from typing import IO, Any, List, Optional, Tuple

import numpy as np


class FaultInjected(RuntimeError):
    """Raised when a scheduled fault fires.

    Deliberately *not* a :class:`~repro.exceptions.ReproError`:
    production error handling that catches the library's exception
    hierarchy must never swallow an injected crash, otherwise the
    crash-safety tests would prove nothing.
    """


class FaultInjector:
    """Counts updates/writes and raises at pre-registered crash points.

    Parameters
    ----------
    crash_at_update:
        Raise :class:`FaultInjected` when the K-th SGD update is about
        to run (updates 1..K-1 execute, update K never does).
    crash_on_write:
        Raise when the M-th persistence write is about to run; the
        atomic-write layer guarantees the target file is untouched.

    Either trigger may be ``None`` (disabled). Counters keep advancing
    after a fault fires, but each trigger fires at most once per
    :meth:`reset`.
    """

    def __init__(
        self,
        crash_at_update: Optional[int] = None,
        crash_on_write: Optional[int] = None,
    ) -> None:
        for name, value in (
            ("crash_at_update", crash_at_update),
            ("crash_on_write", crash_on_write),
        ):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        self.crash_at_update = crash_at_update
        self.crash_on_write = crash_on_write
        self.updates_seen = 0
        self.writes_seen = 0

    @classmethod
    def from_seed(
        cls,
        seed: int,
        max_update: Optional[int] = None,
        max_write: Optional[int] = None,
    ) -> "FaultInjector":
        """Derive crash points deterministically from ``seed``.

        Each enabled trigger is drawn uniformly from ``[1, max_*]``, so
        sweeping seeds sweeps arbitrary-but-reproducible crash moments.
        """
        rng = np.random.default_rng(seed)
        crash_at_update = (
            int(rng.integers(1, max_update + 1)) if max_update else None
        )
        crash_on_write = (
            int(rng.integers(1, max_write + 1)) if max_write else None
        )
        return cls(
            crash_at_update=crash_at_update, crash_on_write=crash_on_write
        )

    def on_update(self) -> None:
        """Hook called by the SGD loop before each update."""
        self.updates_seen += 1
        if self.updates_seen == self.crash_at_update:
            raise FaultInjected(
                f"injected crash at update {self.updates_seen}"
            )

    def on_write(self) -> None:
        """Hook called by the persistence layer before each write."""
        self.writes_seen += 1
        if self.writes_seen == self.crash_on_write:
            raise FaultInjected(f"injected crash at write {self.writes_seen}")

    def disarm(self) -> None:
        """Disable both triggers (counters keep running)."""
        self.crash_at_update = None
        self.crash_on_write = None

    def reset(self) -> None:
        """Zero the counters so the triggers can fire again."""
        self.updates_seen = 0
        self.writes_seen = 0

    def __repr__(self) -> str:
        return (
            f"FaultInjector(crash_at_update={self.crash_at_update}, "
            f"crash_on_write={self.crash_on_write}, "
            f"updates_seen={self.updates_seen}, writes_seen={self.writes_seen})"
        )


class ProcessFaultInjector:
    """Kill or hang *live worker processes* — the cluster chaos hooks.

    Where :class:`FaultInjector` crashes code paths inside one process,
    this one attacks whole processes, which is what the sharded serving
    cluster must survive:

    * :meth:`kill` delivers ``SIGKILL`` — no atexit, no log seal, no
      graceful anything; exactly the hard-crash the WAL-replay restart
      path is specified against;
    * :meth:`hang` arms a worker's ``/admin/hang`` gate over HTTP, so
      every subsequent request (including health checks) stalls — the
      slow-shard failure mode heartbeat monitoring must catch.

    Both record what they did (``kills`` / ``hangs``) so chaos tests can
    assert the fault actually landed.
    """

    def __init__(self) -> None:
        self.kills: List[int] = []
        self.hangs: List[Tuple[str, float]] = []

    def kill(self, pid: int) -> None:
        """SIGKILL ``pid`` and wait for the zombie to be reapable."""
        os.kill(int(pid), signal.SIGKILL)
        self.kills.append(int(pid))

    def hang(self, base_url: str, seconds: float, timeout: float = 5.0) -> None:
        """Stall every subsequent request of the worker at ``base_url``."""
        # Imported here: resilience must not depend on serving at import
        # time (serving already imports resilience).
        from repro.serving.client import ServingClient

        with ServingClient(base_url, timeout=timeout, retries=0) as client:
            client.hang(seconds, timeout=timeout)
        self.hangs.append((base_url, float(seconds)))

    def __repr__(self) -> str:
        return (
            f"ProcessFaultInjector(kills={self.kills}, hangs={self.hangs})"
        )


class CrashingFile:
    """File-like wrapper that dies mid-write after a byte budget.

    Simulates a torn write (power cut, full disk): the first
    ``crash_after_bytes`` bytes reach the underlying handle, the rest
    are dropped and :class:`FaultInjected` is raised. Used against
    :func:`~repro.resilience.atomic.atomic_writer` to prove that a torn
    temporary never replaces the committed file.
    """

    def __init__(self, handle: IO[bytes], crash_after_bytes: int) -> None:
        if crash_after_bytes < 0:
            raise ValueError(
                f"crash_after_bytes must be >= 0, got {crash_after_bytes}"
            )
        self._handle = handle
        self._budget = int(crash_after_bytes)
        self._written = 0

    def write(self, data: bytes) -> int:
        remaining = self._budget - self._written
        if len(data) > remaining:
            self._handle.write(data[:remaining])
            self._written = self._budget
            raise FaultInjected(
                f"injected torn write after {self._budget} bytes"
            )
        self._handle.write(data)
        self._written += len(data)
        return len(data)

    def __getattr__(self, name: str) -> Any:
        # Delegate flush/close/fileno/... to the wrapped handle.
        return getattr(self._handle, name)
