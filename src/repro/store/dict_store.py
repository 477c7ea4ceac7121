"""The dict/list reference implementation of :class:`HistoryStore`.

One Python list of boxed ints per user, wrapped in the store protocol.
It has three jobs: the semantic reference the arena store is proven
element- and fingerprint-identical against (the hypothesis equivalence
suite drives both through the same schedules), the baseline
``BENCH_memory.json`` measures the arena against, and the adapter that
lets a :class:`~repro.serving.state.SessionStore` accept a per-user
fetch callable (``fetch``: base histories are fetched on first touch).
It is deliberately simple and deliberately memory-hungry.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.data.sequence import ConsumptionSequence
from repro.exceptions import StoreError
from repro.store.base import HistoryStore


class DictHistoryStore(HistoryStore):
    """Per-user Python lists behind the :class:`HistoryStore` protocol.

    ``fetch`` maps a user to its base history (``None`` = cold user); it
    is called once per user, on first touch, for users ``histories``
    does not cover.
    """

    def __init__(
        self,
        histories: Optional[Dict[int, Sequence[int]]] = None,
        fetch: Optional[
            Callable[[int], Optional[ConsumptionSequence]]
        ] = None,
    ) -> None:
        self._base: Dict[int, List[int]] = {}
        if histories:
            for user, items in histories.items():
                user = int(user)
                if user < 0:
                    raise StoreError(
                        f"user must be non-negative, got {user}"
                    )
                as_list = [int(item) for item in items]
                if any(item < 0 for item in as_list):
                    raise StoreError("item indices must be non-negative")
                self._base[user] = as_list
        self._fetch = fetch
        self._tails: Dict[int, List[int]] = {}
        self._lock = threading.RLock()

    @classmethod
    def from_histories(
        cls, histories: Iterable[Sequence[int]]
    ) -> "DictHistoryStore":
        """Build from dense-user-indexed histories (index = user id)."""
        return cls(
            {user: items for user, items in enumerate(histories)}
        )

    def _base_of(self, user: int) -> List[int]:
        """The user's base list, fetched on first touch when lazy."""
        base = self._base.get(user)
        if base is None and self._fetch is not None:
            history = self._fetch(user)
            base = [] if history is None else history.items.tolist()
            self._base[user] = base
        return base if base is not None else []

    # ------------------------------------------------------------------
    # HistoryStore protocol
    # ------------------------------------------------------------------
    def slice(self, user: int) -> Optional[ConsumptionSequence]:
        user = int(user)
        with self._lock:
            base = self._base_of(user)
            tail = self._tails.get(user)
            if not base and not tail:
                return None
            items = base + (tail or [])
            return ConsumptionSequence(user, items)

    def append(self, user: int, item: int) -> int:
        user, item = int(user), int(item)
        if user < 0:
            raise StoreError(f"user must be non-negative, got {user}")
        if item < 0:
            raise StoreError(
                f"item indices must be non-negative, got {item}"
            )
        with self._lock:
            tail = self._tails.setdefault(user, [])
            position = len(self._base_of(user)) + len(tail)
            tail.append(item)
            return position

    def base_length(self, user: int) -> int:
        with self._lock:
            return len(self._base_of(int(user)))

    def live_count(self, user: int) -> int:
        return len(self._tails.get(int(user), ()))

    def item_at(self, user: int, position: int) -> int:
        user = int(user)
        if position < 0:
            raise StoreError(
                f"position must be non-negative, got {position}"
            )
        with self._lock:
            base = self._base_of(user)
            tail = self._tails.get(user, [])
            if position < len(base):
                return base[position]
            if position < len(base) + len(tail):
                return tail[position - len(base)]
            raise StoreError(
                f"position {position} outside user {user}'s history of "
                f"length {len(base) + len(tail)}"
            )

    def recent_items(self, user: int, n: int) -> np.ndarray:
        user = int(user)
        if n <= 0:
            return np.empty(0, dtype=np.int64)
        with self._lock:
            base = self._base_of(user)
            tail = self._tails.get(user, [])
            combined = (
                tail[-n:]
                if len(tail) >= n
                else base[max(0, len(base) - (n - len(tail))):] + tail
            )
        return np.asarray(combined, dtype=np.int64)

    def users(self) -> Iterable[int]:
        """Users with any history, sorted."""
        with self._lock:
            known = {user for user, items in self._base.items() if items}
            known.update(
                user for user, tail in self._tails.items() if tail
            )
        return sorted(known)

    def __repr__(self) -> str:
        return (
            f"DictHistoryStore(users={len(self._base)}, "
            f"tail_users={len(self._tails)})"
        )
