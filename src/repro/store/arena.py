"""The columnar session-memory arena.

A :class:`SessionArena` packs every user's base history into two
contiguous numpy columns — the cu_seqlens idiom of variable-length
batch kernels:

::

    items   : int32[total]          one entry per consumption, all users
    offsets : int64[n_users + 1]    user u's history = items[offsets[u]:offsets[u+1]]

User ``u``'s history is the zero-copy slice
``items[offsets[u]:offsets[u+1]]`` — no per-user Python objects, no
pointer-per-element lists, and the whole arena can live in one
mmap-backed file (:meth:`SessionArena.save` / :meth:`SessionArena.open`)
so resident memory is only what the OS pages in. A saved arena carries
a content digest (:func:`histories_digest`), so a directory is reused
only for the histories it was packed from.

:class:`ArenaHistoryStore` implements the
:class:`~repro.store.base.HistoryStore` protocol on top: reads are
zero-copy :class:`ArenaHistoryView` slices of the arena, live appends go
to small per-user **tail segments** (growable int32 buffers with
amortized doubling) that :meth:`ArenaHistoryStore.compact`
merges back into a fresh arena. Eviction of a serving session costs
nothing here — the tail stays in the store, so rehydration is a view,
not a copy.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.data.sequence import ConsumptionSequence
from repro.exceptions import StoreError
from repro.resilience.atomic import atomic_write_json
from repro.store.base import HistoryStore

#: Items are stored as int32: ids must fit the encoding.
_MAX_ITEM = np.iinfo(np.int32).max

#: Initial capacity of a per-user tail segment (doubles as it grows).
_TAIL_INITIAL_CAPACITY = 8

_ITEMS_FILE = "items.npy"
_OFFSETS_FILE = "offsets.npy"
_META_FILE = "arena.json"


def _as_item_column(values: Sequence[int]) -> np.ndarray:
    """Validate and narrow one user's items to the int32 encoding."""
    array = np.asarray(values, dtype=np.int64)
    if array.ndim != 1:
        raise StoreError(
            f"items must be one-dimensional, got shape {array.shape}"
        )
    if array.size:
        low, high = int(array.min()), int(array.max())
        if low < 0:
            raise StoreError("item indices must be non-negative")
        if high > _MAX_ITEM:
            raise StoreError(
                f"item {high} does not fit the arena's int32 encoding"
            )
    return array.astype(np.int32)


def histories_digest(histories: Iterable[Sequence[int]]) -> str:
    """The content digest an arena packed from ``histories`` would carry.

    sha256 over the int32 item bytes, user by user, then the int64
    offsets — :attr:`SessionArena.digest` of the packed columns,
    computed one history at a time without concatenating them.
    """
    hasher = hashlib.sha256()
    lengths = [0]
    for history in histories:
        column = _as_item_column(history)
        hasher.update(column)
        lengths.append(column.size)
    hasher.update(np.cumsum(lengths, dtype=np.int64))
    return hasher.hexdigest()


def _read_meta(directory: str) -> dict:
    """The saved arena's metadata; any unreadable file is a StoreError."""
    meta_path = os.path.join(directory, _META_FILE)
    if not os.path.exists(meta_path):
        raise StoreError(f"no arena found under {directory!r}")
    try:
        with open(meta_path) as handle:
            meta = json.load(handle)
    except (OSError, ValueError) as exc:
        raise StoreError(
            f"unreadable arena metadata under {directory!r}: {exc}"
        ) from exc
    return meta


class ArenaHistoryView(ConsumptionSequence):
    """A user's history as a zero-copy window into arena columns.

    Behaviourally a :class:`~repro.data.sequence.ConsumptionSequence`
    (every model, session, and feature kernel consumes it unchanged);
    representationally a borrowed read-only int32 slice — construction
    copies nothing and allocates only the wrapper object.
    """

    __slots__ = ()

    def __init__(self, user: int, raw: np.ndarray) -> None:
        # Deliberately bypasses ConsumptionSequence.__init__: the parent
        # would copy to an owned int64 array, which is exactly the
        # per-user cost the arena exists to avoid. ``raw`` is trusted to
        # be a validated, read-only 1-D slice of an arena column.
        self.user = int(user)
        self._items = raw
        self._positions_of = None


class SessionArena:
    """Immutable columnar base histories for a population of users.

    Parameters
    ----------
    items:
        All users' consumptions concatenated, int32, consumption order
        within each user.
    offsets:
        int64 array of ``n_users + 1`` cumulative lengths; user ``u``
        owns ``items[offsets[u]:offsets[u+1]]``.
    """

    __slots__ = ("items", "offsets")

    def __init__(self, items: np.ndarray, offsets: np.ndarray) -> None:
        # asanyarray, not asarray: mmap-backed columns must keep their
        # np.memmap identity so accounting can tell pages from heap.
        items = np.asanyarray(items)
        offsets = np.asanyarray(offsets)
        if items.dtype != np.int32:
            raise StoreError(
                f"arena items must be int32, got {items.dtype}"
            )
        if items.ndim != 1 or offsets.ndim != 1:
            raise StoreError("arena columns must be one-dimensional")
        if offsets.dtype != np.int64:
            raise StoreError(
                f"arena offsets must be int64, got {offsets.dtype}"
            )
        if offsets.size < 1 or offsets[0] != 0 or offsets[-1] != items.size:
            raise StoreError(
                f"offsets must run from 0 to items.size ({items.size}), got "
                f"[{offsets[0] if offsets.size else '∅'}, "
                f"{offsets[-1] if offsets.size else '∅'}]"
            )
        if offsets.size > 1 and np.any(np.diff(offsets) < 0):
            raise StoreError("offsets must be non-decreasing")
        for column in (items, offsets):
            if not isinstance(column, np.memmap):
                column.setflags(write=False)
        self.items = items
        self.offsets = offsets

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_histories(
        cls, histories: Iterable[Sequence[int]]
    ) -> "SessionArena":
        """Pack per-user histories (index = dense user id) into an arena."""
        columns = [_as_item_column(history) for history in histories]
        lengths = np.array([c.size for c in columns], dtype=np.int64)
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        items = (
            np.concatenate(columns)
            if columns
            else np.empty(0, dtype=np.int32)
        )
        return cls(items, offsets)

    @classmethod
    def from_sequences(
        cls, sequences: Iterable[ConsumptionSequence]
    ) -> "SessionArena":
        """Pack dense-user-indexed sequences (as from a ``Dataset``)."""
        return cls.from_histories(
            sequence.items for sequence in sequences
        )

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def n_users(self) -> int:
        return int(self.offsets.size - 1)

    @property
    def n_events(self) -> int:
        return int(self.items.size)

    @property
    def nbytes(self) -> int:
        """Total column bytes (counts mmap-backed columns at full size)."""
        return int(self.items.nbytes + self.offsets.nbytes)

    @property
    def digest(self) -> str:
        """sha256 of the columns; equals :func:`histories_digest` of the
        histories this arena was packed from."""
        hasher = hashlib.sha256()
        hasher.update(np.ascontiguousarray(self.items))
        hasher.update(np.ascontiguousarray(self.offsets))
        return hasher.hexdigest()

    def length(self, user: int) -> int:
        """History length of ``user`` (0 for users outside the arena)."""
        if not 0 <= user < self.n_users:
            return 0
        return int(self.offsets[user + 1] - self.offsets[user])

    def user_items(self, user: int) -> np.ndarray:
        """Zero-copy int32 slice of ``user``'s history."""
        if not 0 <= user < self.n_users:
            return np.empty(0, dtype=np.int32)
        return self.items[self.offsets[user] : self.offsets[user + 1]]

    # ------------------------------------------------------------------
    # Persistence (mmap backing)
    # ------------------------------------------------------------------
    def save(self, directory: str) -> None:
        """Write the columns under ``directory`` (one ``.npy`` per column).

        The metadata, with the content digest, is written last and
        atomically: a directory holding ``arena.json`` holds every column.
        """
        os.makedirs(directory, exist_ok=True)
        np.save(os.path.join(directory, _ITEMS_FILE), self.items)
        np.save(os.path.join(directory, _OFFSETS_FILE), self.offsets)
        atomic_write_json(
            os.path.join(directory, _META_FILE),
            {
                "version": 2,
                "n_users": self.n_users,
                "n_events": self.n_events,
                "digest": self.digest,
            },
        )

    @classmethod
    def exists(cls, directory: str) -> bool:
        """Whether ``directory`` holds a saved arena."""
        return os.path.exists(os.path.join(directory, _META_FILE))

    @classmethod
    def saved_digest(cls, directory: str) -> Optional[str]:
        """The content digest a saved arena recorded (``None`` if none)."""
        return _read_meta(directory).get("digest")

    @classmethod
    def open(cls, directory: str, mmap: bool = True) -> "SessionArena":
        """Load a saved arena, mmap-backed by default.

        With ``mmap=True`` the columns are ``np.memmap`` views: resident
        memory is only the pages actually touched, so a million-user
        arena costs near-zero RAM until sliced. Missing, torn or
        truncated files raise :class:`~repro.exceptions.StoreError`.
        """
        _read_meta(directory)
        mode = "r" if mmap else None
        try:
            items = np.load(
                os.path.join(directory, _ITEMS_FILE), mmap_mode=mode
            )
            offsets = np.load(
                os.path.join(directory, _OFFSETS_FILE), mmap_mode=mode
            )
        except (OSError, ValueError) as exc:
            raise StoreError(
                f"unreadable arena columns under {directory!r}: {exc}"
            ) from exc
        return cls(items, offsets)

    def __repr__(self) -> str:
        backing = "mmap" if isinstance(self.items, np.memmap) else "ram"
        return (
            f"SessionArena(users={self.n_users}, events={self.n_events}, "
            f"backing={backing})"
        )


class _TailSegment:
    """One user's live consumptions: a growable int32 column.

    Capacity doubles as it fills (amortized O(1) appends); a tail holding
    ``n`` events costs ~``4n`` bytes plus one small Python object,
    against ~28 bytes *per event* for a list of boxed ints.
    """

    __slots__ = ("items", "length")

    def __init__(self) -> None:
        self.items = np.empty(_TAIL_INITIAL_CAPACITY, dtype=np.int32)
        self.length = 0

    def push(self, item: int) -> None:
        if self.length == self.items.size:
            self.items = np.concatenate(
                [self.items, np.empty(self.items.size, dtype=np.int32)]
            )
        self.items[self.length] = item
        self.length += 1

    def view(self) -> np.ndarray:
        return self.items[: self.length]


class ArenaHistoryStore(HistoryStore):
    """:class:`~repro.store.base.HistoryStore` over a columnar arena.

    Reads of base-only users are zero-copy arena slices; a user with
    live events gets a cached fused int32 view (base ++ tail) that is
    invalidated by the next append and rebuilt lazily. Appends are O(1)
    amortized into the user's tail segment; :meth:`compact` folds every
    tail into a fresh arena when tails grow large.

    Writes are serialized with an internal lock so the store is safe to
    share between a serving ``SessionStore`` and read-only consumers
    (router fallbacks, fingerprint probes). The serving layer's
    one-writer-per-user discipline still applies to *ordering*, exactly
    as it does for the WAL.
    """

    def __init__(self, arena: SessionArena) -> None:
        self.arena = arena
        self._tails: Dict[int, _TailSegment] = {}
        self._fused: Dict[int, ArenaHistoryView] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_histories(
        cls, histories: Iterable[Sequence[int]]
    ) -> "ArenaHistoryStore":
        return cls(SessionArena.from_histories(histories))

    # ------------------------------------------------------------------
    # HistoryStore protocol
    # ------------------------------------------------------------------
    def slice(self, user: int) -> Optional[ArenaHistoryView]:
        user = int(user)
        with self._lock:
            tail = self._tails.get(user)
            if tail is None or tail.length == 0:
                raw = self.arena.user_items(user)
                if raw.size == 0:
                    return None
                return ArenaHistoryView(user, raw)
            fused = self._fused.get(user)
            if fused is None:
                base = self.arena.user_items(user)
                combined = np.empty(
                    base.size + tail.length, dtype=np.int32
                )
                combined[: base.size] = base
                combined[base.size :] = tail.view()
                combined.setflags(write=False)
                fused = ArenaHistoryView(user, combined)
                self._fused[user] = fused
            return fused

    def append(self, user: int, item: int) -> int:
        user, item = int(user), int(item)
        if user < 0:
            raise StoreError(f"user must be non-negative, got {user}")
        if not 0 <= item <= _MAX_ITEM:
            raise StoreError(
                f"item {item} does not fit the arena's int32 encoding"
            )
        with self._lock:
            tail = self._tails.get(user)
            if tail is None:
                tail = self._tails[user] = _TailSegment()
            position = self.arena.length(user) + tail.length
            tail.push(item)
            self._fused.pop(user, None)
            return position

    def base_length(self, user: int) -> int:
        return self.arena.length(int(user))

    def live_count(self, user: int) -> int:
        tail = self._tails.get(int(user))
        return tail.length if tail is not None else 0

    def item_at(self, user: int, position: int) -> int:
        user = int(user)
        if position < 0:
            raise StoreError(
                f"position must be non-negative, got {position}"
            )
        base_length = self.arena.length(user)
        if position < base_length:
            return int(self.arena.user_items(user)[position])
        with self._lock:
            tail = self._tails.get(user)
            live = tail.length if tail is not None else 0
            if position >= base_length + live:
                raise StoreError(
                    f"position {position} outside user {user}'s history of "
                    f"length {base_length + live}"
                )
            assert tail is not None
            return int(tail.items[position - base_length])

    def recent_items(self, user: int, n: int) -> np.ndarray:
        """Last ``n`` consumptions, gathered without fusing full history."""
        user = int(user)
        if n <= 0:
            return np.empty(0, dtype=np.int32)
        with self._lock:
            tail = self._tails.get(user)
            live = tail.length if tail is not None else 0
            if live >= n:
                assert tail is not None
                return tail.items[live - n : live].copy()
            base = self.arena.user_items(user)
            take = min(n - live, base.size)
            out = np.empty(take + live, dtype=np.int32)
            if take:
                out[:take] = base[base.size - take :]
            if live:
                assert tail is not None
                out[take:] = tail.view()
            return out

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    @property
    def n_tail_events(self) -> int:
        """Total live events currently held in tail segments."""
        with self._lock:
            return sum(tail.length for tail in self._tails.values())

    def users(self) -> Iterable[int]:
        """Users with any history: arena rows plus tail-only cold users."""
        with self._lock:
            known = {
                user
                for user in range(self.arena.n_users)
                if self.arena.length(user) > 0
            }
            known.update(
                user
                for user, tail in self._tails.items()
                if tail.length > 0
            )
        return sorted(known)

    def compact(self) -> "SessionArena":
        """Fold every tail segment into a fresh arena; tails reset empty.

        After compaction the store answers identically (same slices,
        same fingerprints) but every history is again one contiguous
        arena run — ``base_length`` grows, ``live_count`` drops to zero.
        Returns the new arena.
        """
        with self._lock:
            if not any(tail.length for tail in self._tails.values()):
                self._tails.clear()
                self._fused.clear()
                return self.arena
            n_users = max(
                self.arena.n_users,
                max(self._tails) + 1 if self._tails else 0,
            )
            histories = []
            for user in range(n_users):
                base = self.arena.user_items(user)
                tail = self._tails.get(user)
                if tail is None or tail.length == 0:
                    histories.append(base)
                else:
                    histories.append(
                        np.concatenate([base, tail.view()])
                    )
            self.arena = SessionArena.from_histories(histories)
            self._tails.clear()
            self._fused.clear()
            return self.arena

    def __repr__(self) -> str:
        return (
            f"ArenaHistoryStore(arena={self.arena!r}, "
            f"tail_users={len(self._tails)}, tail_events={self.n_tail_events})"
        )
