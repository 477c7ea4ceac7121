"""The unified history-access API: ``HistoryStore`` and ``HistoryView``.

Before this package the repo kept per-user consumption histories in
three divergent shapes: dict/list-backed
:class:`~repro.data.sequence.ConsumptionSequence` objects on the data
side, the Python-list ``_items`` of a serving
:class:`~repro.serving.state.LiveSession`, and ad-hoc
``{user: [items]}`` dicts in tests and tools. A :class:`HistoryStore`
replaces all three behind one protocol:

* :meth:`HistoryStore.slice` — the user's full history (base + live
  tail) as a :class:`HistoryView`, a
  :class:`~repro.data.sequence.ConsumptionSequence`-compatible object
  every model, session, and feature kernel already consumes;
* :meth:`HistoryStore.append` — ingest one live consumption event into
  the user's tail segment;
* :meth:`HistoryStore.fingerprint` — the canonical
  :func:`~repro.engine.session.fingerprint_state` digest of the user's
  end-of-history window/Ω/recency state, bit-comparable across every
  store implementation and with live/offline sessions.

Serving, evaluation and online replay run on
:class:`~repro.store.arena.ArenaHistoryStore`, the columnar
session-memory arena (heap or memory-mapped).
:class:`~repro.store.dict_store.DictHistoryStore` is the list-backed
reference: the equivalence suite drives both through random interleaved
append/evict/rehydrate schedules and asserts element- and
fingerprint-identity, and it adapts a per-user fetch callable to this
protocol.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.data.sequence import ConsumptionSequence
from repro.exceptions import StoreError

#: A history view is any ``ConsumptionSequence``-compatible object:
#: models, sessions, windows, and feature kernels consume views and
#: plain sequences interchangeably. Arena-backed stores return zero-copy
#: subclasses (:class:`~repro.store.arena.ArenaHistoryView`).
HistoryView = ConsumptionSequence


class HistoryStore(ABC):
    """Storage of every user's consumption history behind one API.

    A store separates each user's history into an immutable **base**
    (the dataset-side prefix the store was built from) and a growable
    **live tail** (events ingested through :meth:`append`). The split is
    observable — :meth:`base_length` / :meth:`live_count` — because the
    serving layer's WAL-replay recovery needs to know how many live
    events the store already holds; the *contents* are always served
    fused, in consumption order, by :meth:`slice`.

    Implementations must be usable for any non-negative user id: users
    outside the base (cold users, served purely from live events) have
    an empty base and grow a tail like anyone else.
    """

    # ------------------------------------------------------------------
    # Core protocol
    # ------------------------------------------------------------------
    @abstractmethod
    def slice(self, user: int) -> Optional[HistoryView]:
        """The user's full history (base + tail), or ``None`` if empty.

        ``None`` is the answer for users the store knows nothing about;
        a user with any base or live events always gets a view. Views
        are snapshots: a later :meth:`append` is not visible through a
        previously returned view.
        """

    @abstractmethod
    def append(self, user: int, item: int) -> int:
        """Append one live event to the user's tail; returns its position.

        Histories are append-ordered, exactly like the WAL.
        """

    @abstractmethod
    def base_length(self, user: int) -> int:
        """Number of base (pre-live) consumptions of ``user``."""

    @abstractmethod
    def live_count(self, user: int) -> int:
        """Number of live events appended for ``user`` so far."""

    # ------------------------------------------------------------------
    # Derived accessors (override for O(1)/zero-copy fast paths)
    # ------------------------------------------------------------------
    def length(self, user: int) -> int:
        """Total history length: base plus live tail."""
        return self.base_length(user) + self.live_count(user)

    def item_at(self, user: int, position: int) -> int:
        """The item consumed at ``position`` of the user's history."""
        if position < 0:
            raise StoreError(
                f"position must be non-negative, got {position}"
            )
        view = self.slice(user)
        if view is None or position >= len(view):
            raise StoreError(
                f"position {position} outside user {user}'s history of "
                f"length {0 if view is None else len(view)}"
            )
        return int(view[position])

    def recent_items(self, user: int, n: int) -> np.ndarray:
        """The last ``n`` consumptions (fewer if the history is shorter).

        This is the window-seeding primitive: building a live session
        over a store touches only this suffix, never the full history —
        the base implementation slices a view, arena stores override it
        with an O(``n``) gather that avoids materializing anything else.
        """
        view = self.slice(user)
        if view is None:
            return np.empty(0, dtype=np.int64)
        return view.items[max(0, len(view) - n):]

    def fingerprint(self, user: int, window_size: int, min_gap: int = 0) -> str:
        """Canonical digest of the user's end-of-history session state.

        Equals ``ScoringSession(slice(user), window_size, min_gap,
        start=length).state_fingerprint()`` and the digest of a
        :class:`~repro.serving.state.LiveSession` fed the same events —
        one string comparison proves two stores (or a store and a live
        session) hold bit-identical observable state.
        """
        from repro.engine.session import fingerprint_history

        view = self.slice(user)
        items = (
            view.items if view is not None else np.empty(0, dtype=np.int64)
        )
        return fingerprint_history(user, items, window_size, min_gap)

    def session(self, user: int, window_size: int, min_gap: int = 0):
        """A live :class:`~repro.store.session.StoreSession` over this store."""
        from repro.store.session import StoreSession

        return StoreSession(self, user, window_size, min_gap)
