"""Every consumption of many sequences, indexed by occurrence.

The fit's data-proportional steps — the Eq 18 reconsumption ratio, the
quadruple sampler and the quadruple feature cache — ask for many
``(user, item, t)`` at once what a window walk answers one position at a
time: where did the user last consume the item before ``t``, and how
often in ``[t - |W|, t)``? :class:`OccurrenceIndex` answers for whole
arrays. The sequences are laid end to end, so position ``p`` of user
``u`` is event ``starts[u] + p`` of ``N``. Each event has its item and
position, and ``prev``/``next``: the positions of the same user's
previous and next occurrence of the same item (``-1`` / :data:`NO_NEXT`
if none). ``keys`` holds ``item * N + event`` sorted, i.e. the events in
(item, user, position) order, so one user's occurrences of one item are
a contiguous run that ``np.searchsorted`` probes. One sort of the keys
builds it all.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DataError

#: ``next`` of an event whose item the user never consumes again.
NO_NEXT = np.iinfo(np.int32).max


class OccurrenceIndex:
    """Occurrence columns over ``histories[u]``, user ``u``'s items in order.

    ``starts`` (``int64``, ``n_users + 1``) bounds each user's events;
    ``items``, ``positions``, ``prev`` and ``next`` are ``int32`` per
    event and ``keys`` is ``int64`` (see module docstring). ``prev`` and
    ``next`` are linked on first use: the feature fill reads ``keys``
    only.
    """

    __slots__ = ("starts", "items", "positions", "keys", "_n_items", "_links")

    def __init__(self, histories: Sequence[np.ndarray]) -> None:
        lengths = np.fromiter(
            (history.size for history in histories), dtype=np.int64,
            count=len(histories),
        )
        starts = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=starts[1:])
        n_events = int(starts[-1])
        items = (
            np.concatenate(histories).astype(np.int64, copy=False)
            if n_events else np.zeros(0, dtype=np.int64)
        )
        n_items = int(items.max()) + 1 if n_events else 0
        # int32 columns, and keys below 2**63: both hold for any history
        # that fits in memory, but a silent wrap would corrupt every
        # lookup, so refuse rather than assume.
        if max(n_events, n_items) >= NO_NEXT or (n_items + 2) * n_events >= 2**63:
            raise DataError(
                f"{n_events} events over {n_items} items exceed the "
                f"occurrence index's int32 columns"
            )
        events = np.arange(n_events, dtype=np.int64)
        # Every key is distinct, so a plain sort puts the events in
        # (item, event) order, several times faster than a stable argsort.
        keys = items * n_events + events
        keys.sort()
        self.keys = keys
        self.starts = starts
        self.items = items.astype(np.int32)
        self.positions = (events - np.repeat(starts[:-1], lengths)).astype(np.int32)
        self._n_items = n_items
        self._links: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def prev(self) -> np.ndarray:
        return self._linked()[0]

    @property
    def next(self) -> np.ndarray:
        return self._linked()[1]

    def _linked(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._links is None:
            n_events = len(self)
            positions = self.positions
            sorted_items, order = np.divmod(self.keys, max(n_events, 1))
            # Neighbours in (item, event) order are the same user's
            # consecutive occurrences of one item when the items match
            # and the earlier event lies inside the later one's user.
            later = order[1:]
            earlier = order[:-1]
            same = (sorted_items[1:] == sorted_items[:-1]) & (
                earlier >= later - positions[later]
            )
            later, earlier = later[same], earlier[same]
            prev = np.full(n_events, -1, dtype=np.int32)
            prev[later] = positions[earlier]
            following = np.full(n_events, NO_NEXT, dtype=np.int32)
            following[earlier] = positions[later]
            self._links = (prev, following)
        return self._links

    def __len__(self) -> int:
        return int(self.starts[-1])

    def owners(self, events: np.ndarray) -> np.ndarray:
        """The user each event index belongs to (``int64``)."""
        return np.searchsorted(self.starts, events, side="right") - 1

    def last_and_count(
        self,
        users: np.ndarray,
        items: np.ndarray,
        times: np.ndarray,
        window_size: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per row: ``l_ut(v)`` (``-1`` if none) and ``v``'s count in the window.

        ``times[k]`` must lie in ``[0, len(histories[users[k]])]``; an
        item nobody consumed (or a negative one) has no occurrences.
        """
        n_events = len(self)
        if n_events == 0:
            return (
                np.full(np.shape(times), -1, dtype=np.int64),
                np.zeros(np.shape(times), dtype=np.int64),
            )
        times = np.asarray(times, dtype=np.int64)
        clipped = np.clip(np.asarray(items, dtype=np.int64), -1, self._n_items)
        base = clipped * n_events + self.starts[users]
        end = np.searchsorted(self.keys, base + times)
        count = end - np.searchsorted(
            self.keys, base + np.maximum(times - window_size, 0)
        )
        prior = self.keys[np.maximum(end - 1, 0)]
        found = (end > 0) & (prior >= base)
        last = np.where(found, prior - base, -1)
        return last, count
