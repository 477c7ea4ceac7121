"""The online trainer: WAL-fed ISGD with bit-identical replay rebuilds.

:class:`OnlineTrainer` sits on the serving ingest path (or walks a
recovered :class:`~repro.serving.events.EventLog` offline) and turns
committed consumption events into incremental factor updates through a
per-model :class:`~repro.online.adapters.OnlineAdapter`. Three rules
give it the WAL-replay identity invariant:

1. **Capture at observe time.** Every update's ingredients (negative
   draw, feature difference, basket) are computed against the user's
   *pre-event* session state the moment the event is observed — state
   that the serving layer already rebuilds bit-identically from base
   histories + WAL replay.
2. **Own the randomness.** Negative draws come from the trainer's
   private RNG, consumed in strict event order; its bit-generator state
   rides in every checkpoint, so a rebuild resumes the exact stream.
3. **Flush through order-preserving kernels.** Buffered updates are
   applied by the offline block kernels, whose conflict-free level
   scheduling keeps every conflicting pair in order — the
   ``online_batch`` window is pure throughput, never semantics.

Flushes are inline but rare: an ingest pays only the microsecond-scale
capture until the buffer reaches ``batch_window`` (default 256), so
batched kernel work lands on well under 1% of ingests and stays out of
the serving p99 (``BENCH_online.json`` guards the ratio). Whoever
trips a flush — the window, an explicit ``flush()``, a checkpoint —
drains the whole buffer in observe order, so flush placement never
changes application order, and therefore never changes a parameter
bit.

Consequently ``live updates == checkpoint + replay of the remaining
WAL``, bit for bit, which :func:`fingerprint_params` digests verify
(``tests/test_online_trainer.py``, and under injected mid-stream
crashes in ``tests/test_online_recovery.py``).

Checkpoints reuse :mod:`repro.resilience`'s atomic, sha256-checksummed
:class:`~repro.resilience.checkpoint.CheckpointManager`; ``n_updates``
stores the event cursor (events observed, not updates applied).
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.exceptions import OnlineError
from repro.logging_utils import get_logger
from repro.online.adapters import Update, adapter_for
from repro.resilience.checkpoint import CheckpointManager, TrainingState
from repro.serving.metrics import ServingMetrics
from repro.serving.service import ServiceConfig

logger = get_logger("online.trainer")


def fingerprint_params(params: Dict[str, np.ndarray]) -> str:
    """Canonical sha256 digest of named parameter arrays.

    Covers name, dtype, shape, and raw bytes in sorted-name order —
    two models agree on this digest iff their parameters are
    bit-identical. The online analogue of the session layer's
    ``fingerprint_state``.
    """
    digest = hashlib.sha256()
    for name in sorted(params):
        array = np.ascontiguousarray(params[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(array.dtype).encode("ascii"))
        digest.update(repr(array.shape).encode("ascii"))
        digest.update(array.tobytes())
    return digest.hexdigest()


class OnlineTrainer:
    """Applies per-event ISGD updates with a bounded flush buffer.

    Parameters
    ----------
    model:
        A fitted TS-PPR/PPR/FPMC recommender (the live serving model —
        updates mutate its factor arrays in place).
    learning_rate / batch_window:
        The ``online_lr`` / ``online_batch`` knobs: per-event step
        size, and how many captured updates buffer before one batched
        kernel flush. ``None`` takes :class:`ServiceConfig`'s default.
    seed:
        Seed of the trainer's private negative-sampling RNG. Live
        trainer and replay rebuild must agree on it (both default it).
    metrics:
        Optional :class:`ServingMetrics` to publish counters/gauges
        into; the service shares its own so online metrics merge
        through ``/metrics`` (and the cluster merge) for free.
    checkpoint_manager:
        Optional :class:`CheckpointManager` for atomic checksummed
        online checkpoints.

    Thread safety: all trainer state (buffer, cursor, RNG, the factor
    arrays it mutates) lives under one non-reentrant lock. The service
    calls :meth:`observe` while holding its store lock and the trainer
    never takes the store lock, so the only cross-object order is
    ``store -> trainer`` and neither path can deadlock.
    """

    def __init__(
        self,
        model,
        learning_rate: Optional[float] = None,
        batch_window: Optional[int] = None,
        seed: int = 0,
        metrics: Optional[ServingMetrics] = None,
        checkpoint_manager: Optional[CheckpointManager] = None,
    ) -> None:
        if learning_rate is None:
            learning_rate = ServiceConfig.online_lr
        if batch_window is None:
            batch_window = ServiceConfig.online_batch
        if learning_rate <= 0:
            raise OnlineError(
                f"learning_rate must be positive, got {learning_rate}"
            )
        if batch_window < 1:
            raise OnlineError(
                f"batch_window must be >= 1, got {batch_window}"
            )
        self.adapter = adapter_for(model, learning_rate)
        self.batch_window = int(batch_window)
        self.rng = np.random.default_rng(seed)
        self.metrics = metrics if metrics is not None else ServingMetrics()
        self.checkpoint_manager = checkpoint_manager
        self._buffer: List[Update] = []
        self._cursor = 0  # next WAL seq expected
        self._oldest_pending_ts: Optional[float] = None
        self._lock = threading.Lock()

    @property
    def model(self):
        return self.adapter.model

    @property
    def cursor(self) -> int:
        """Next WAL sequence number this trainer expects."""
        with self._lock:
            return self._cursor

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def observe(
        self,
        seq: int,
        user: int,
        item: int,
        session,
        ts: Optional[float] = None,
    ) -> bool:
        """Consume one committed event against its pre-event session.

        Must be called *before* the event is applied to ``session``
        (capture needs the pre-event state) and in strict WAL order —
        a sequence gap means live trainer and log have diverged and
        raises rather than silently desynchronizing. Returns whether
        the event produced an update.
        """
        with self._lock:
            return self._observe_locked(seq, user, item, session, ts)

    def observe_next(
        self,
        user: int,
        item: int,
        session,
        ts: Optional[float] = None,
    ) -> bool:
        """:meth:`observe` for log-less services: self-assigns the seq."""
        with self._lock:
            return self._observe_locked(
                self._cursor, user, item, session, ts
            )

    def _observe_locked(
        self,
        seq: int,
        user: int,
        item: int,
        session,
        ts: Optional[float],
    ) -> bool:
        if seq != self._cursor:
            raise OnlineError(
                f"online trainer expected WAL seq {self._cursor}, "
                f"got {seq}: event stream and model have diverged"
            )
        self._cursor += 1
        self.metrics.inc("online_events")
        update = self.adapter.capture(user, item, session, self.rng)
        if update is None:
            return False
        self._buffer.append(update)
        if ts is not None and self._oldest_pending_ts is None:
            self._oldest_pending_ts = ts
        self.metrics.inc("online_updates")
        self.metrics.observe_gauge(
            "online_buffered_updates", len(self._buffer)
        )
        if len(self._buffer) >= self.batch_window:
            self._flush_locked()
        return True

    def flush(self) -> int:
        """Apply any buffered updates now; returns how many."""
        with self._lock:
            return self._flush_locked()

    def _flush_locked(self) -> int:
        batch = self._buffer
        if not batch:
            return 0
        self._buffer = []
        oldest = self._oldest_pending_ts
        self._oldest_pending_ts = None
        start = time.perf_counter()
        self.adapter.flush(batch)
        elapsed = time.perf_counter() - start
        self.metrics.observe("online_flush_latency", elapsed)
        if oldest is not None:
            lag_ms = max(0.0, time.time() - oldest) * 1e3
            self.metrics.observe_gauge("online_update_lag_ms", int(lag_ms))
        if elapsed > 0:
            self.metrics.observe_gauge(
                "online_updates_per_second", int(len(batch) / elapsed)
            )
        self.metrics.observe_gauge("online_buffered_updates", 0)
        return len(batch)

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self):
        """Flush, then atomically persist factors + RNG + event cursor.

        Holds the lock across the flush and the state read: the
        persisted cursor must count exactly the events whose updates
        the persisted factors contain, so concurrent observes are
        paused for the duration.
        """
        if self.checkpoint_manager is None:
            raise OnlineError("online trainer has no checkpoint manager")
        with self._lock:
            self._flush_locked()
            params = {
                name: np.array(array, copy=True)
                for name, array in self.adapter.params().items()
            }
            state = TrainingState(
                n_updates=self._cursor,
                converged=False,
                history=[],
                streak=0,
                params=params,
                rng_state=self.rng.bit_generator.state,
            )
            path = self.checkpoint_manager.save(state)
        logger.info(
            "online checkpoint at WAL seq %d -> %s", state.n_updates, path
        )
        return path

    def load_latest(self) -> int:
        """Restore the newest valid checkpoint; returns the event cursor.

        Without one (or without a manager) the trainer keeps the
        freshly fitted factors and a cursor of 0 — replay then starts
        from the beginning of the log.
        """
        if self.checkpoint_manager is None:
            return 0
        with self._lock:
            if self._buffer or self._cursor:
                raise OnlineError(
                    "load_latest must run before any event is observed"
                )
            state = self.checkpoint_manager.load_latest()
            if state is None:
                return 0
            self.adapter.set_params(state.params)
            if state.rng_state is not None:
                self.rng.bit_generator.state = state.rng_state
            self._cursor = int(state.n_updates)
        logger.info("online trainer resumed at WAL seq %d", self._cursor)
        return self._cursor

    # ------------------------------------------------------------------
    # Replay / verification
    # ------------------------------------------------------------------
    def replay(self, events: Iterable, store) -> int:
        """Walk committed events through ``store``, updating the model.

        Events below the trainer's cursor (already reflected in the
        restored factors) only advance session state; later ones feed
        :meth:`observe` before being applied — exactly the live ingest
        order. ``store`` must be lossless over the replay (capacity at
        least the user population, or an ``event_source`` wired to the
        same log) so pre-event capture state never degrades. Returns
        the number of events walked.
        """
        n_events = 0
        for event in events:
            with store.lock:
                if event.seq < self._cursor:
                    store.append(event.user, event.item)
                else:
                    session = store.get(event.user)
                    self.observe(
                        event.seq, event.user, event.item, session,
                        ts=event.ts,
                    )
                    session.append(event.item)
            n_events += 1
        self.flush()
        return n_events

    def model_fingerprint(self) -> str:
        """Digest of the current factors (pending updates flushed first)."""
        with self._lock:
            self._flush_locked()
            return fingerprint_params(self.adapter.params())


__all__ = ["OnlineTrainer", "fingerprint_params"]
