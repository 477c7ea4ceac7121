"""Live per-user session state for the online serving layer.

Offline, a :class:`~repro.engine.session.ScoringSession` walks a
*pre-loaded* sequence; it cannot ingest a consumption event that was not
known at construction. :class:`LiveSession` keeps the same window/Ω/
recency bookkeeping over a *growable* history: :meth:`LiveSession.append`
applies one live event with the exact O(1) dictionary updates of
``ScoringSession.advance``, so after any number of appends the state is
bit-identical (same multisets, same candidates, same last positions —
asserted via the shared :func:`~repro.engine.session.fingerprint_state`
digest) to a fresh offline session built over the concatenated history.

:class:`SessionStore` keeps many live sessions resident under an LRU
capacity bound. Its sessions are always
:class:`~repro.store.session.StoreSession` objects over one
:class:`~repro.store.base.HistoryStore`: the history (base *and* live
tail) survives eviction inside the store, so an evicted user is
rehydrated by an O(window) re-seed over a zero-copy view — no re-fetch,
no copy, no replay. Eviction is invisible to correctness; it only costs
latency. No serving path builds a :class:`LiveSession`: it is the
independent list-carrying oracle the equivalence suites and benchmarks
compare store sessions against.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Union

import numpy as np

from repro.data.sequence import ConsumptionSequence
from repro.engine.session import fingerprint_state
from repro.exceptions import DataError, ServingError
from repro.store.arena import ArenaHistoryStore
from repro.store.base import HistoryStore
from repro.store.dict_store import DictHistoryStore
from repro.store.session import StoreSession

#: Fetches one user's base (pre-serving) history, or ``None`` for a user
#: unknown to the dataset (served cold, from live events only).
HistoryProvider = Callable[[int], Optional[ConsumptionSequence]]

#: :class:`SessionStore`'s default LRU capacity (resident sessions).
DEFAULT_CAPACITY = 1024

#: The largest capacity :class:`SessionStore` accepts.
MAX_CAPACITY = 1 << 24


def check_capacity(capacity: int) -> int:
    """``capacity`` if it lies in ``[1, MAX_CAPACITY]``, else :class:`ServingError`."""
    if not 1 <= capacity <= MAX_CAPACITY:
        raise ServingError(
            f"capacity must be in [1, {MAX_CAPACITY}], got {capacity}"
        )
    return capacity


class LiveSession:
    """Window/Ω/recency state of one user, updatable one event at a time.

    Parameters
    ----------
    user:
        Dense user index.
    window_size / min_gap:
        The ``|W|`` / ``Ω`` protocol parameters; ``min_gap=0`` disables
        the Ω-filter exactly as in :class:`ScoringSession`.
    history:
        Optional base history the session starts from; live events are
        appended after it.
    """

    __slots__ = (
        "user",
        "window_size",
        "min_gap",
        "_items",
        "_t",
        "_window_counts",
        "_recent_counts",
        "_last_pos",
        "_n_live",
        "_sequence_cache",
    )

    def __init__(
        self,
        user: int,
        window_size: int,
        min_gap: int = 0,
        history: Optional[ConsumptionSequence] = None,
    ) -> None:
        if window_size <= 0:
            raise DataError(f"window_size must be positive, got {window_size}")
        if min_gap < 0:
            raise DataError(f"min_gap must be non-negative, got {min_gap}")
        if history is not None and history.user != user:
            raise DataError(
                f"history belongs to user {history.user}, not {user}"
            )
        self.user = int(user)
        self.window_size = window_size
        self.min_gap = min_gap
        items: List[int] = (
            history.items.tolist() if history is not None else []
        )
        self._items = items
        self._t = len(items)
        # Same seeding as ScoringSession(start=len(history)): one forward
        # pass over the prefix fills the three state dicts.
        window_counts: Dict[int, int] = {}
        for item in items[max(0, self._t - window_size):]:
            window_counts[item] = window_counts.get(item, 0) + 1
        recent_counts: Dict[int, int] = {}
        if min_gap > 0:
            for item in items[max(0, self._t - min_gap):]:
                recent_counts[item] = recent_counts.get(item, 0) + 1
        last_pos: Dict[int, int] = {}
        for position, item in enumerate(items):
            last_pos[item] = position
        self._window_counts = window_counts
        self._recent_counts = recent_counts
        self._last_pos = last_pos
        self._n_live = 0
        self._sequence_cache: Optional[ConsumptionSequence] = None

    # ------------------------------------------------------------------
    # Live updates
    # ------------------------------------------------------------------
    @property
    def t(self) -> int:
        """Current position: state describes the window before ``t``."""
        return self._t

    @property
    def n_live_events(self) -> int:
        """Events appended since construction (= events needing replay)."""
        return self._n_live

    def append(self, item: int) -> int:
        """Ingest one live consumption event; returns its position.

        The update rule is ``ScoringSession.advance`` verbatim, except
        the consumed item arrives from the outside instead of being read
        from a pre-loaded sequence.
        """
        item = int(item)
        if item < 0:
            raise DataError(f"item indices must be non-negative, got {item}")
        t = self._t
        items = self._items
        items.append(item)
        self._last_pos[item] = t
        window_counts = self._window_counts
        window_counts[item] = window_counts.get(item, 0) + 1
        tail = t - self.window_size
        if tail >= 0:
            leaving = items[tail]
            remaining = window_counts[leaving] - 1
            if remaining:
                window_counts[leaving] = remaining
            else:
                del window_counts[leaving]
        if self.min_gap > 0:
            recent_counts = self._recent_counts
            recent_counts[item] = recent_counts.get(item, 0) + 1
            tail = t - self.min_gap
            if tail >= 0:
                leaving = items[tail]
                remaining = recent_counts[leaving] - 1
                if remaining:
                    recent_counts[leaving] = remaining
                else:
                    del recent_counts[leaving]
        self._t = t + 1
        self._n_live += 1
        self._sequence_cache = None
        return t

    # ------------------------------------------------------------------
    # State accessors (contracts identical to ScoringSession's)
    # ------------------------------------------------------------------
    def window_length(self) -> int:
        """Number of consumptions in the window before ``t``."""
        return min(self._t, self.window_size)

    def window_count(self, item: int) -> int:
        """Occurrences of ``item`` in the window before ``t``."""
        return self._window_counts.get(int(item), 0)

    def window_counts_map(self) -> Dict[int, int]:
        """The live item → window-count dict. Treat as read-only."""
        return self._window_counts

    def candidates(self) -> List[int]:
        """The Ω-filtered RRC candidate set before ``t`` (sorted)."""
        recent = self._recent_counts
        if recent:
            return sorted(
                [item for item in self._window_counts if item not in recent]
            )
        return sorted(self._window_counts)

    def last_position(self, item: int) -> int:
        """``l_ut(v)`` — last occurrence strictly before ``t`` (-1 if never)."""
        return self._last_pos.get(int(item), -1)

    def last_positions(self, items) -> np.ndarray:
        """Last occurrences before ``t`` for many items (-1 if never)."""
        last_pos = self._last_pos
        keys = items.tolist() if isinstance(items, np.ndarray) else items
        return np.array(
            [last_pos.get(int(key), -1) for key in keys], dtype=np.int64
        )

    def last_positions_list(self, keys) -> List[int]:
        """Plain-int last positions (feature-filler fast path)."""
        last_pos = self._last_pos
        return [last_pos.get(int(key), -1) for key in keys]

    def is_next_target(self, item: int) -> bool:
        """Whether consuming ``item`` *now* would be an RRC target.

        Mirrors ``ScoringSession.is_target``: the item repeats from the
        window (gap ≤ ``window_size``) and was not consumed within the
        last ``min_gap`` steps. The serving replay path uses this to
        decide which stream positions get a recommendation, exactly as
        the offline protocol's target filter.
        """
        last = self.last_position(item)
        if last < 0:
            return False
        gap = self._t - last
        return self.min_gap < gap <= self.window_size

    def sequence(self) -> ConsumptionSequence:
        """The full history (base + live events) as an immutable sequence.

        Models score against this exact object, so the serving path and
        the offline protocol feed kernels identical inputs. The O(n)
        materialization is cached and invalidated by :meth:`append`.
        """
        if self._sequence_cache is None:
            self._sequence_cache = ConsumptionSequence(self.user, self._items)
        return self._sequence_cache

    def state_fingerprint(self) -> str:
        """Digest comparable with ``ScoringSession.state_fingerprint``."""
        return fingerprint_state(
            self.user,
            self._t,
            self.window_size,
            self.min_gap,
            self._window_counts,
            self._recent_counts,
            self._last_pos,
        )

    def __repr__(self) -> str:
        return (
            f"LiveSession(user={self.user}, t={self._t}, "
            f"live={self._n_live}, window_size={self.window_size}, "
            f"min_gap={self.min_gap})"
        )


class StoreCounters:
    """Mutable hit/miss/eviction/rehydration tallies of one store."""

    __slots__ = ("hits", "misses", "evictions", "rehydrations")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rehydrations = 0

    def as_dict(self) -> Dict[str, float]:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "rehydrations": self.rehydrations,
            "hit_rate": (self.hits / total) if total else 0.0,
        }


class SessionStore:
    """LRU-bounded cache of :class:`~repro.store.session.StoreSession` objects.

    Parameters
    ----------
    window_size / min_gap:
        Protocol parameters every session is built with.
    capacity:
        Maximum resident sessions, in ``[1, MAX_CAPACITY]``; accessing
        a new user past capacity evicts the least-recently-used one.
    history_provider:
        The :class:`~repro.store.base.HistoryStore` holding every
        user's history (``history_store``). ``None`` means an empty
        arena: every user is cold and grows a live tail. A per-user
        fetch callable is also accepted and adapted into a
        :class:`~repro.store.dict_store.DictHistoryStore` that fetches
        each user's base on first touch.
    event_source:
        Optional callable ``(user, start) -> iterable of item ids``
        returning the user's *logged live events* in append order, from
        the ``start``-th on (the event log's per-user replay view,
        :meth:`~repro.serving.events.EventLog.events_for`). A build
        replays the events the store does not hold yet — the gap a
        crash leaves — so state is never lost, provided every live
        event was logged before it was applied.

    All public methods are thread-safe (one lock; sessions are only
    mutated under it through :meth:`append`).
    """

    def __init__(
        self,
        window_size: int,
        min_gap: int,
        capacity: int = DEFAULT_CAPACITY,
        history_provider: Optional[
            Union[HistoryStore, HistoryProvider]
        ] = None,
        event_source: Optional[Callable[[int, int], Iterable[int]]] = None,
    ) -> None:
        self.window_size = window_size
        self.min_gap = min_gap
        self.capacity = check_capacity(capacity)
        if history_provider is None:
            history_provider = ArenaHistoryStore.from_histories([])
        elif not isinstance(history_provider, HistoryStore):
            history_provider = DictHistoryStore(fetch=history_provider)
        self.history_store: HistoryStore = history_provider
        self.event_source = event_source
        self.counters = StoreCounters()
        self._sessions: "OrderedDict[int, StoreSession]" = OrderedDict()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._sessions)

    @property
    def lock(self) -> threading.RLock:
        """The store lock; the service holds it across capture points."""
        return self._lock

    def resident_users(self) -> List[int]:
        """Users currently resident, least-recently-used first."""
        with self._lock:
            return list(self._sessions)

    def get(self, user: int) -> StoreSession:
        """The user's live session, rehydrating (and evicting) as needed."""
        with self._lock:
            session = self._sessions.get(user)
            if session is not None:
                self.counters.hits += 1
                self._sessions.move_to_end(user)
                return session
            self.counters.misses += 1
            session = self._build(user)
            self._sessions[user] = session
            while len(self._sessions) > self.capacity:
                self._sessions.popitem(last=False)
                self.counters.evictions += 1
            return session

    def append(self, user: int, item: int) -> int:
        """Apply one live event to the user's session; returns position.

        When the event is also being written to the log that backs
        ``event_source``, materialize the session (``get``) *before* the
        log write: a first access afterwards would replay the new event
        during the rebuild and then apply it a second time here.
        """
        with self._lock:
            return self.get(user).append(item)

    def evict(self, user: int) -> bool:
        """Explicitly drop a user's resident session (testing/ops hook)."""
        with self._lock:
            if self._sessions.pop(user, None) is None:
                return False
            self.counters.evictions += 1
            return True

    def state_fingerprint(self, user: int) -> str:
        """Digest of the user's (possibly rehydrated) session state."""
        with self._lock:
            return self.get(user).state_fingerprint()

    def _build(self, user: int) -> StoreSession:
        """Rebuild a session: an O(window) re-seed over the store.

        The store retained both base and live tail across eviction, so
        only WAL events it has *not* seen yet (from ``live_count`` on,
        i.e. a crash-restart gap) are read and replayed; a steady-state
        miss reads none.
        """
        store = self.history_store
        session = store.session(user, self.window_size, self.min_gap)
        if self.event_source is not None:
            for item in self.event_source(user, store.live_count(user)):
                session.append(item)
        if store.live_count(user):
            # The user had live state to restore — whether it came back
            # from the store's tail (free) or the WAL (replay).
            self.counters.rehydrations += 1
        return session

    def __repr__(self) -> str:
        return (
            f"SessionStore(resident={len(self._sessions)}, "
            f"capacity={self.capacity})"
        )
