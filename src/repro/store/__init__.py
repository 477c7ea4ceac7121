"""Columnar session memory behind the unified :class:`HistoryStore` API.

See :mod:`repro.store.base` for the protocol, :mod:`repro.store.arena`
for the columnar arena implementation, and :mod:`repro.store.session`
for the store-native live session the serving layer runs on.
"""

from typing import Iterable, Optional, Sequence

from repro.exceptions import StoreError
from repro.store.arena import (
    ArenaHistoryStore,
    ArenaHistoryView,
    SessionArena,
    histories_digest,
)
from repro.store.base import HistoryStore, HistoryView
from repro.store.dict_store import DictHistoryStore
from repro.store.memory import deep_sizeof, store_memory_profile
from repro.store.session import StoreSession


def make_history_store(
    histories: Iterable[Sequence[int]],
    directory: Optional[str] = None,
) -> ArenaHistoryStore:
    """Pack dense-user-indexed histories (index = user id) into an arena.

    Without ``directory`` the columns live on the heap. With one, they
    are saved there and reopened memory-mapped, so base histories cost
    file pages, not heap. A directory that already holds a saved arena
    is reused without repacking — which is how N cluster shards on one
    box map one shared read-only copy — but only if its recorded content
    digest matches ``histories``; otherwise :class:`StoreError`.
    """
    if directory is None:
        return ArenaHistoryStore.from_histories(histories)
    if SessionArena.exists(directory):
        saved = SessionArena.saved_digest(directory)
        if saved is None:
            raise StoreError(
                f"the arena saved under {directory!r} records no content "
                f"digest; remove it so it is repacked"
            )
        if saved != histories_digest(histories):
            raise StoreError(
                f"the arena saved under {directory!r} was not packed from "
                f"these histories; remove it or choose another directory"
            )
    else:
        SessionArena.from_histories(histories).save(directory)
    return ArenaHistoryStore(SessionArena.open(directory, mmap=True))


__all__ = [
    "ArenaHistoryStore",
    "ArenaHistoryView",
    "DictHistoryStore",
    "HistoryStore",
    "HistoryView",
    "SessionArena",
    "StoreSession",
    "deep_sizeof",
    "histories_digest",
    "make_history_store",
    "store_memory_profile",
]
