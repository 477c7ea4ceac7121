"""Sampling schedules over a pre-built quadruple set.

Algorithm 1 alleviates the imbalance of repeat-consumption counts across
users by sampling hierarchically: first a user uniformly, then one of
that user's quadruples uniformly. :class:`UserUniformSchedule` implements
exactly that; :func:`small_batch_indices` selects the paper's
convergence-check batch ("each user's first 10% training quadruples").
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.exceptions import SamplingError
from repro.rng import RandomState, Uint32Stream, ensure_rng
from repro.sampling.quadruples import QuadrupleSet


class UserUniformSchedule:
    """User-first uniform sampler of quadruple indices.

    Every user owning at least one quadruple is equally likely per draw,
    regardless of how many quadruples they contributed — the paper's
    imbalance correction (Algorithm 1, lines 3-5; the negative was
    already bound to its positive during pre-sampling).
    """

    def __init__(self, quadruples: QuadrupleSet, random_state: RandomState = None) -> None:
        if len(quadruples) == 0:
            raise SamplingError("cannot schedule over an empty quadruple set")
        self._rng = ensure_rng(random_state)
        self._users = np.array(sorted(quadruples.per_user), dtype=np.int64)
        self._per_user = [quadruples.per_user[int(u)] for u in self._users]
        # draw_many gathers from all users' rows laid end to end.
        self._counts = np.array(
            [rows.size for rows in self._per_user], dtype=np.int64
        )
        self._offsets = np.concatenate(([0], np.cumsum(self._counts)[:-1]))
        self._flat_rows = np.concatenate(self._per_user).astype(np.int64)
        # Lazily built by the scalar fallback: plain Python lists index
        # ~3x faster than 0-d ndarray lookups in its tight loop.
        self._per_user_lists: List[List[int]] = []

    @property
    def n_users(self) -> int:
        return int(self._users.size)

    def draw(self) -> int:
        """One quadruple index: uniform user, then uniform quadruple."""
        user_slot = int(self._rng.integers(self._users.size))
        rows = self._per_user[user_slot]
        return int(rows[int(self._rng.integers(rows.size))])

    def draw_many(self, n: int) -> np.ndarray:
        """``n`` draws as an int array, stream-exact to ``n`` :meth:`draw` calls.

        The values *and* the generator state left behind equal those of
        ``n`` scalar :meth:`draw` calls, so mixing ``draw_many`` blocks
        with scalar ``draw`` calls (or switching a training run between
        the block and scalar SGD modes, or resuming either from a
        checkpoint) leaves every downstream result bit-identical. (A
        one-shot ``integers(size=n)`` user draw would *not* be: it maps
        the stream differently from interleaved scalar draws.) This is
        the block-draw helper behind :func:`repro.optim.sgd.run_sgd`'s
        block execution mode.

        On PCG64 the draws are computed for the whole block from the
        generator's raw stream (:class:`repro.rng.Uint32Stream`). Other
        bit generators, a one-user set (its user draw ``integers(1)``
        consumes nothing, so only row draws remain), and a block in
        which a scalar call would have redrawn (probability below
        ``b / 2**32`` per draw) run the scalar loop instead.
        """
        if n < 0:
            raise SamplingError(f"n must be non-negative, got {n}")
        if n == 0:
            return np.empty(0, dtype=np.int64)
        stream = Uint32Stream.of(self._rng)
        if stream is not None and self._counts.size >= 2 and self._counts.min() >= 1:
            drawn = self._draw_exact(stream, n)
            if drawn is not None:
                return drawn
        return self._draw_scalar(n)

    def _draw_exact(self, stream: Uint32Stream, n: int) -> Optional[np.ndarray]:
        """:meth:`draw_many` from the 32-bit stream; ``None`` on a redraw.

        A user draw at stream position p is followed by the next user
        draw at p + 2, or at p + 1 when the drawn user has a single
        quadruple (``integers(1)`` consumes nothing). Mapping every
        position as a user draw, position p therefore holds a user draw
        unless p - 1 holds one of a multi-quadruple user: the flags
        restart at 1 after every single-quadruple slot and alternate in
        between, which one running maximum computes for the block.
        """
        counts = self._counts
        multi = counts >= 2
        values = stream.peek(2 * n)
        slots, rejected = stream.bounded(values, counts.size)
        positions = np.arange(2 * n)
        restarts = np.zeros(2 * n, dtype=np.int64)
        restarts[1:] = np.where(multi[slots[:-1]], 0, positions[1:])
        since_restart = positions - np.maximum.accumulate(restarts)
        user_at = np.flatnonzero(since_restart % 2 == 0)[:n]
        if rejected[user_at].any():
            return None
        users = slots[user_at]
        drawn = multi[users]
        rows = np.zeros(n, dtype=np.int64)
        rows[drawn], rejected = stream.bounded(
            values[user_at[drawn] + 1], counts[users[drawn]]
        )
        if rejected.any():
            return None
        stream.commit(int(user_at[-1]) + 1 + int(drawn[-1]))
        return self._flat_rows[self._offsets[users] + rows]

    def _draw_scalar(self, n: int) -> np.ndarray:
        """:meth:`draw_many` as ``n`` interleaved scalar ``integers`` calls."""
        if not self._per_user_lists:
            self._per_user_lists = [rows.tolist() for rows in self._per_user]
        integers = self._rng.integers
        per_user = self._per_user_lists
        n_users = int(self._users.size)
        out: List[int] = []
        append = out.append
        for _ in range(n):
            rows = per_user[integers(n_users)]
            append(rows[integers(len(rows))])
        return np.array(out, dtype=np.int64)


def small_batch_indices(quadruples: QuadrupleSet, fraction: float = 0.1) -> np.ndarray:
    """Indices of each user's first ``fraction`` of quadruples.

    The paper evaluates the objective on "each user's first 10% training
    quadruples" between epochs. At least one quadruple per user is always
    included so tiny users still participate in the convergence check.
    """
    if not 0 < fraction <= 1:
        raise SamplingError(f"fraction must lie in (0, 1], got {fraction}")
    selected: List[int] = []
    for user in sorted(quadruples.per_user):
        rows = quadruples.per_user[user]
        take = max(1, math.floor(rows.size * fraction))
        selected.extend(int(r) for r in rows[:take])
    return np.asarray(selected, dtype=np.int64)
