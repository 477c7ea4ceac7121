"""Incremental window state for a forward walk over one sequence.

The seed path rebuilt ``W_{u,t-1}`` from scratch at every query — an
O(|W|) slice plus a Python counting loop per position, done once by the
protocol *and again* inside every window-consuming model. A
:class:`ScoringSession` pays that cost once at construction and then
maintains the same state with O(1) dictionary updates per step:

* the **window multiset** — per-item counts over the last ``window_size``
  consumptions (the paper's ``W_{u,t-1}``);
* the **Ω multiset** — per-item counts over the last ``min_gap``
  consumptions (the trivially-remembered exclusions of Section 5.1);
* **last occurrence** — ``l_ut(v)`` for every item seen before ``t``
  (seeded over the prefix at construction); -1 for an item never seen.

All accessors are defined to agree exactly with the reference helpers in
:mod:`repro.windows` (``window_before``, ``recent_items``,
``candidate_items``, ``iter_repeat_positions``); the engine tests assert
that equivalence position by position.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

import numpy as np

from repro.data.sequence import ConsumptionSequence
from repro.exceptions import DataError


def fingerprint_state(
    user: int,
    t: int,
    window_size: int,
    min_gap: int,
    window_counts: Dict[int, int],
    recent_counts: Dict[int, int],
    last_pos: Dict[int, int],
) -> str:
    """Canonical sha256 digest of one user's window/Ω/recency state.

    The digest covers everything scoring can observe — position, window
    and Ω multisets, and per-item last occurrences — in sorted-key
    canonical form, so two sessions fingerprint equal iff they would
    answer every state accessor identically. Shared by the offline
    :class:`ScoringSession` and the serving layer's live sessions, which
    lets the equivalence and crash-recovery suites compare the two with
    a single string comparison.
    """
    digest = hashlib.sha256()
    digest.update(
        f"v1|{user}|{t}|{window_size}|{min_gap}".encode("ascii")
    )
    for label, mapping in (
        ("w", window_counts),
        ("r", recent_counts),
        ("l", last_pos),
    ):
        digest.update(f"|{label}".encode("ascii"))
        for key in sorted(mapping):
            digest.update(f"|{key}:{mapping[key]}".encode("ascii"))
    return digest.hexdigest()


def fingerprint_history(
    user: int,
    items: np.ndarray,
    window_size: int,
    min_gap: int,
) -> str:
    """:func:`fingerprint_state` of the state *after* a full history.

    Derives the three state mappings directly from the item array —
    window counts over the last ``window_size`` entries, Ω counts over
    the last ``min_gap``, and the global last position of every distinct
    item (one reversed ``np.unique`` pass) — and digests them. Equals
    ``ScoringSession(sequence, window_size, min_gap,
    start=len(sequence)).state_fingerprint()`` by construction; the
    history stores use it as their canonical per-user digest so every
    store/session representation fingerprints identically.
    """
    array = np.asarray(items, dtype=np.int64)
    t = int(array.size)
    window_counts: Dict[int, int] = {}
    for item in array[max(0, t - window_size):].tolist():
        window_counts[item] = window_counts.get(item, 0) + 1
    recent_counts: Dict[int, int] = {}
    if min_gap > 0:
        for item in array[max(0, t - min_gap):].tolist():
            recent_counts[item] = recent_counts.get(item, 0) + 1
    last_pos: Dict[int, int] = {}
    if t:
        distinct, reversed_index = np.unique(array[::-1], return_index=True)
        last_pos = {
            item: t - 1 - index
            for item, index in zip(
                distinct.tolist(), reversed_index.tolist()
            )
        }
    return fingerprint_state(
        user, t, window_size, min_gap, window_counts, recent_counts, last_pos
    )


class ScoringSession:
    """Forward-only window/Ω/recency state for one user's sequence.

    Parameters
    ----------
    sequence:
        The user's full consumption sequence.
    window_size:
        ``|W|`` — trailing consumptions forming the candidate window.
    min_gap:
        ``Ω`` — recent-consumption exclusion span. ``0`` disables the
        Ω-filter (used by models that need the window only, e.g. FPMC's
        basket).
    start:
        Initial position: the session state describes the window *before*
        ``start``. Construction costs one O(|S_u|) array-to-list
        conversion of the items plus an O(``start``) forward pass over
        the prefix that seeds every item's last position.
    """

    __slots__ = (
        "sequence",
        "window_size",
        "min_gap",
        "_items_list",
        "_t",
        "_window_counts",
        "_recent_counts",
        "_last_pos",
    )

    def __init__(
        self,
        sequence: ConsumptionSequence,
        window_size: int,
        min_gap: int = 0,
        start: int = 0,
    ) -> None:
        if window_size <= 0:
            raise DataError(f"window_size must be positive, got {window_size}")
        if min_gap < 0:
            raise DataError(f"min_gap must be non-negative, got {min_gap}")
        if not 0 <= start <= len(sequence):
            raise DataError(
                f"start {start} outside [0, {len(sequence)}] for user "
                f"{sequence.user}"
            )
        self.sequence = sequence
        self.window_size = window_size
        self.min_gap = min_gap
        # Python ints for the walk: indexing a list is several times
        # faster than materializing numpy scalars position by position.
        self._items_list: List[int] = sequence.items.tolist()
        self._t = start

        window_counts: Dict[int, int] = {}
        for item in self._items_list[max(0, start - window_size) : start]:
            window_counts[item] = window_counts.get(item, 0) + 1
        recent_counts: Dict[int, int] = {}
        if min_gap > 0:
            for item in self._items_list[max(0, start - min_gap) : start]:
                recent_counts[item] = recent_counts.get(item, 0) + 1
        self._window_counts = window_counts
        self._recent_counts = recent_counts
        # Seeded with every occurrence before ``start`` in one forward
        # pass: enumerate overwrites, so the dict ends at each item's
        # last prefix position. ``advance`` keeps it current, so an item
        # missing from it has not occurred before ``t``.
        last_pos: Dict[int, int] = {}
        for position, item in enumerate(self._items_list[:start]):
            last_pos[item] = position
        self._last_pos = last_pos

    # ------------------------------------------------------------------
    # Walking
    # ------------------------------------------------------------------
    @property
    def t(self) -> int:
        """Current position: state describes the window before ``t``."""
        return self._t

    def advance(self) -> None:
        """Consume the item at the current position and move to ``t+1``."""
        t = self._t
        items = self._items_list
        if t >= len(items):
            raise DataError(
                f"cannot advance past the end of user {self.sequence.user}'s "
                f"sequence (length {len(items)})"
            )
        item = items[t]
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

    def advance_to(self, t: int) -> None:
        """Advance until the state describes the window before ``t``."""
        if t < self._t:
            raise DataError(
                f"ScoringSession is forward-only: at {self._t}, asked for {t}"
            )
        while self._t < t:
            self.advance()

    # ------------------------------------------------------------------
    # Window state at the current position
    # ------------------------------------------------------------------
    def distinct_window_items(self) -> List[int]:
        """Distinct window items, sorted ascending for determinism."""
        return sorted(self._window_counts)

    def candidates(self) -> List[int]:
        """The Ω-filtered RRC candidate set before ``t`` (sorted).

        Equals ``candidate_items(sequence, t, window_size, min_gap)``.
        """
        recent = self._recent_counts
        if recent:
            return sorted(
                [item for item in self._window_counts if item not in recent]
            )
        return sorted(self._window_counts)

    def last_position(self, item: int) -> int:
        """``l_ut(v)`` — last occurrence of ``item`` strictly before ``t``."""
        return self._last_pos.get(int(item), -1)

    def last_positions(self, items: np.ndarray) -> np.ndarray:
        """Last occurrences before ``t`` for many items (-1 if never)."""
        keys = items.tolist() if isinstance(items, np.ndarray) else items
        get = self._last_pos.get
        return np.array([get(key, -1) for key in keys], dtype=np.int64)

    def is_target(self) -> bool:
        """Whether the consumption at the current ``t`` is an RRC target.

        True iff ``x_t`` repeats from the window (gap ≤ ``window_size``)
        and was not consumed within the last ``min_gap`` steps — exactly
        the filter of ``iter_repeat_positions``.
        """
        t = self._t
        if t >= len(self._items_list):
            return False
        last = self.last_position(self._items_list[t])
        if last < 0:
            return False
        gap = t - last
        return self.min_gap < gap <= self.window_size

    def state_fingerprint(self) -> str:
        """Canonical digest of the state before ``t`` (see
        :func:`fingerprint_state`).

        The constructor seeds ``_last_pos`` with every prefix occurrence
        and :meth:`advance` keeps it current, so the digest covers the
        full observable recency state, not just items touched since
        ``start``.
        """
        return fingerprint_state(
            self.sequence.user,
            self._t,
            self.window_size,
            self.min_gap,
            self._window_counts,
            self._recent_counts,
            self._last_pos,
        )

    def __repr__(self) -> str:
        return (
            f"ScoringSession(user={self.sequence.user}, t={self._t}, "
            f"window_size={self.window_size}, min_gap={self.min_gap})"
        )
