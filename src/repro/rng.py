"""Deterministic random-number utilities.

All stochastic components of the library (synthetic data generation,
quadruple sampling, SGD initialization and shuffling) draw from
:class:`numpy.random.Generator` objects derived from explicit seeds, so
every experiment in the paper grid is exactly reproducible.

The helpers here centralize three conventions:

* ``ensure_rng`` accepts a seed, an existing generator, or ``None`` and
  always hands back a :class:`numpy.random.Generator`.
* ``spawn`` derives independent child generators from a parent seed so
  that parallel subsystems (e.g. the two synthetic datasets) do not share
  or correlate their streams.
* :class:`Uint32Stream` computes a block of scalar ``integers(b)`` draws
  from a PCG64 generator's raw output, bit-exact in values and in the
  generator state they leave behind, so block samplers keep the scalar
  call sequence without paying for it call by call.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple, Union

import numpy as np

RandomState = Union[int, np.random.Generator, None]

_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

#: Seed used across the experiment grid when none is supplied explicitly.
DEFAULT_SEED = 20170417  # ICDE 2017 week, purely a fixed arbitrary constant.


def ensure_rng(random_state: RandomState = None) -> np.random.Generator:
    """Coerce ``random_state`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    random_state:
        ``None`` (use :data:`DEFAULT_SEED`), an integer seed, or an
        existing generator (returned unchanged).
    """
    if random_state is None:
        return np.random.default_rng(DEFAULT_SEED)
    if isinstance(random_state, np.random.Generator):
        return random_state
    if isinstance(random_state, (int, np.integer)):
        return np.random.default_rng(int(random_state))
    raise TypeError(
        f"random_state must be None, an int, or a numpy Generator, "
        f"got {type(random_state).__name__}"
    )


def spawn(random_state: RandomState, n_children: int) -> Iterator[np.random.Generator]:
    """Yield ``n_children`` statistically independent child generators.

    Children are derived through :class:`numpy.random.SeedSequence`
    spawning, which guarantees independent streams regardless of how many
    draws the parent has already made.
    """
    if n_children < 0:
        raise ValueError(f"n_children must be non-negative, got {n_children}")
    if isinstance(random_state, np.random.Generator):
        seed_seq = random_state.bit_generator.seed_seq  # type: ignore[attr-defined]
    else:
        seed = DEFAULT_SEED if random_state is None else int(random_state)
        seed_seq = np.random.SeedSequence(seed)
    for child in seed_seq.spawn(n_children):
        yield np.random.default_rng(child)


def derive_seed(base: Optional[int], *salts: int) -> int:
    """Mix ``base`` with integer ``salts`` into a stable derived seed.

    Used by experiment sweeps so each grid point gets its own seed that is
    still a pure function of the experiment's base seed.
    """
    base_value = DEFAULT_SEED if base is None else int(base)
    mixed = np.random.SeedSequence([base_value, *[int(s) for s in salts]])
    return int(mixed.generate_state(1, dtype=np.uint32)[0])


def choice_cdf(weights: np.ndarray, total: Optional[float] = None) -> np.ndarray:
    """The CDF ``Generator.choice(len(weights), p=weights / total)`` searches.

    ``total`` defaults to ``weights.sum()``. numpy's scalar ``choice``
    with ``p`` takes ``cdf = p.cumsum()``, ``cdf /= cdf[-1]``, draws one
    ``random()`` and returns ``cdf.searchsorted(u, side="right")``; this
    builds that ``cdf`` from the same float operations, so
    :func:`draw_index` over it returns the same index and leaves the
    generator in the same state. ``choice`` also checks that ``p`` is
    finite, non-negative and sums to one; the caller owns those checks.
    """
    if total is None:
        total = weights.sum()
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    return cdf


def draw_index(rng: np.random.Generator, cdf: np.ndarray) -> int:
    """One weighted draw over ``cdf`` (from :func:`choice_cdf`)."""
    return int(cdf.searchsorted(rng.random(), "right"))


class Uint32Stream:
    """Bit-exact block view of a PCG64 generator's 32-bit stream.

    For ``2 <= b <= 2**32 - 1`` numpy's scalar ``Generator.integers(b)``
    is Lemire's multiply-shift over one value ``u`` of the generator's
    32-bit stream: it returns ``(u * b) >> 32`` and redraws when
    ``(u * b) mod 2**32 < (2**32 - b) mod b``. A bound of 1 consumes
    nothing. PCG64 serves that stream from the low, then the high half of
    each raw 64-bit output, keeping the unused high half in
    ``state["has_uint32"]`` / ``state["uinteger"]``.

    So a block sampler can :meth:`peek` the next values, map them with
    :meth:`bounded`, and :meth:`commit` exactly as many values as its
    scalar call sequence would have consumed. The generator then holds
    the state those scalar calls leave behind, down to the stale
    ``uinteger`` (checkpoints store this dict). If :meth:`bounded` flags
    a rejection, the caller simply does not commit and runs its scalar
    loop instead: :meth:`peek` consumes nothing.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._bit_generator = rng.bit_generator
        self._snapshot = self._bit_generator.state

    @classmethod
    def of(cls, rng: np.random.Generator) -> Optional["Uint32Stream"]:
        """A stream over ``rng``, or ``None`` unless it is driven by PCG64."""
        if type(rng.bit_generator) is not np.random.PCG64:
            return None
        return cls(rng)

    def peek(self, k: int) -> np.ndarray:
        """The next ``k`` 32-bit values as ``uint64``, without consuming them."""
        buffered = int(self._snapshot["has_uint32"])
        n_raw = max(0, k - buffered + 1) // 2
        raw = self._bit_generator.random_raw(n_raw)
        self._bit_generator.state = self._snapshot
        values = np.empty(buffered + 2 * n_raw, dtype=np.uint64)
        if buffered:
            values[0] = self._snapshot["uinteger"]
        values[buffered::2] = raw & _LOW32
        values[buffered + 1 :: 2] = raw >> _SHIFT32
        return values[:k]

    @staticmethod
    def bounded(values: np.ndarray, bounds) -> Tuple[np.ndarray, np.ndarray]:
        """Scalar ``integers(b)`` of each value: ``(draws, rejected)``.

        ``bounds`` is one bound or one per value, each in
        ``[2, 2**32 - 1]``. Where ``rejected`` is set, the scalar call
        would have redrawn, so the block is not stream-exact.
        """
        bounds = np.asarray(bounds, dtype=np.uint64)
        if bounds.size and (bounds.min() < 2 or bounds.max() > 0xFFFFFFFF):
            raise ValueError("bounds must lie in [2, 2**32 - 1]")
        product = values * bounds
        threshold = (np.uint64(1 << 32) - bounds) % bounds
        rejected = (product & _LOW32) < threshold
        return (product >> _SHIFT32).astype(np.int64), rejected

    def commit(self, count: int) -> None:
        """Consume exactly ``count`` values, as ``count`` scalar calls would."""
        bit_generator = self._bit_generator
        state = dict(self._snapshot)
        if count > 0 and state["has_uint32"]:
            count -= 1
            state["has_uint32"] = 0
        if count > 0:
            bit_generator.state = self._snapshot
            n_raw = (count + 1) // 2
            if n_raw > 1:
                bit_generator.advance(n_raw - 1)
            last = int(bit_generator.random_raw())
            state = bit_generator.state
            state["has_uint32"] = count % 2
            state["uinteger"] = last >> 32
        bit_generator.state = state
