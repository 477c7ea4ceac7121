"""The per-user repeat/explore copy process.

Each simulated step either *explores* (probability ``p_explore``) —
drawing from the user's personal catalog with Zipf weights — or
*repeats* — copying an item from the recent history with weight

``w(v) = count_window(v)^frequency_exponent × gap(v)^(−recency_exponent)``

where ``count_window`` is the item's multiplicity in the last
``memory_span`` consumptions and ``gap`` the steps since its last
consumption. Large exponents concentrate repeats on frequent/recent
items (steep Fig 4 curves, Gowalla-like); exponents near zero flatten
the choice (Lastfm-like).

Additionally, per-user *item affinities* multiply both explore and
repeat weights, giving every user stable favourites — the personalized
signal TS-PPR's latent term and DYRC's weights can pick up.

The window is kept incrementally: each catalog item's window count and
last-seen step change by one entry per step (+1 on append, −1 when an
entry leaves the span), and both factors of ``w(v)`` are looked up in
per-user tables of Python ``**`` over ``[1, memory_span]``. A repeat
step then costs a few array operations over the window's distinct
items. Draws are stream-exact: :func:`repro.rng.choice_cdf` and
:func:`repro.rng.draw_index` make the same float operations and the
same scalar ``random()`` call as the seed's ``Generator.choice(p=...)``,
and the explore CDF is rebuilt only after a drift event, so a sequence
and the generator state it leaves behind are bit-identical to the
seed's loop (``tests/synth_oracles.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import DataError
from repro.rng import RandomState, choice_cdf, draw_index, ensure_rng


def _power_table(size: int, exponent: float) -> np.ndarray:
    """``v ** exponent`` at index ``v`` for ``v`` in ``[1, size]``.

    Python's ``**``, as the per-item weight always took it; an overflow
    reads ``inf``, which the repeat step rejects if it ever uses it.
    """
    table = np.ones(size + 1)
    for value in range(1, size + 1):
        try:
            table[value] = value ** exponent
        except OverflowError:
            table[value] = math.inf
    return table


def _weights_cdf(weights: np.ndarray, what: str):
    """``choice_cdf`` of ``weights``, or ``None`` when they sum to zero."""
    total = weights.sum()
    if not math.isfinite(total):
        raise DataError(f"{what} weights have a non-finite sum ({total})")
    if total <= 0:
        return None
    return choice_cdf(weights, total)


def simulate_user_sequence(
    length: int,
    catalog: np.ndarray,
    catalog_weights: np.ndarray,
    p_explore: float,
    memory_span: int,
    frequency_exponent: float,
    recency_exponent: float,
    affinity_strength: float = 0.0,
    resume_probability: float = 0.0,
    resume_min_gap: int = 10,
    drift_interval: int = 0,
    drift_fraction: float = 0.5,
    random_state: RandomState = None,
) -> np.ndarray:
    """Simulate one user's consumption sequence.

    Parameters
    ----------
    length:
        Number of consumptions to generate.
    catalog:
        The user's personal item universe (distinct item indices).
    catalog_weights:
        Unnormalized, finite, non-negative explore weights over
        ``catalog`` (e.g. global Zipf probabilities restricted to the
        catalog).
    p_explore:
        Probability of an explore step (the first step always explores).
    memory_span:
        How far back the repeat process can copy from (positive).
    frequency_exponent, recency_exponent:
        Steepness of the repeat choice (see module docstring). Weights
        whose sum is not finite raise :class:`DataError`.
    affinity_strength:
        ``> 0`` draws per-item log-normal affinities with this sigma,
        multiplying both explore and repeat weights.
    resume_probability:
        At a repeat step, probability of *resuming*: deterministically
        copying the most recent item whose gap exceeds
        ``resume_min_gap`` (album/venue resumption). Creates the regime
        where a pure-recency ranker is hard to beat at Top-1.
    resume_min_gap:
        The gap horizon defining "resume" targets; aligning it with the
        evaluation's Ω makes resumes land inside the evaluated range.
    drift_interval:
        If positive, the user's taste *drifts*: at each step with
        probability ``1 / drift_interval``, the affinities of a random
        ``drift_fraction`` of catalog items are resampled. Static
        factorizations (PPR, FPMC's user-item term) cannot track this,
        while window-local features (familiarity, recency) can — the
        temporal-preference premise of the paper.
    drift_fraction:
        Share of catalog items whose affinity is redrawn per drift event.
    """
    if length <= 0:
        raise DataError(f"length must be positive, got {length}")
    catalog = np.asarray(catalog, dtype=np.int64)
    if catalog.ndim != 1 or catalog.size == 0:
        raise DataError("catalog must be a non-empty 1-D array")
    # Window state is indexed by rank in the sorted catalog, so the
    # distinct window items come out in item order, as the weights'
    # summation order requires.
    by_rank = np.argsort(catalog, kind="stable")
    ordered = catalog[by_rank]
    if np.any(ordered[1:] == ordered[:-1]):
        raise DataError("catalog items must be distinct")
    catalog_weights = np.asarray(catalog_weights, dtype=np.float64)
    if catalog_weights.shape != catalog.shape:
        raise DataError(
            f"catalog_weights shape {catalog_weights.shape} does not match "
            f"catalog shape {catalog.shape}"
        )
    if not np.all(np.isfinite(catalog_weights) & (catalog_weights >= 0)):
        raise DataError("catalog_weights must be finite and non-negative")
    if not 0 <= p_explore <= 1:
        raise DataError(f"p_explore must lie in [0, 1], got {p_explore}")
    if memory_span <= 0:
        raise DataError(f"memory_span must be positive, got {memory_span}")
    if drift_interval < 0:
        raise DataError(f"drift_interval must be >= 0, got {drift_interval}")
    if not 0 < drift_fraction <= 1:
        raise DataError(f"drift_fraction must lie in (0, 1], got {drift_fraction}")
    if not 0 <= resume_probability <= 1:
        raise DataError(
            f"resume_probability must lie in [0, 1], got {resume_probability}"
        )
    rng = ensure_rng(random_state)

    n_items = catalog.size
    affinity_draws = np.ones(n_items)
    rank_affinity = None
    if affinity_strength > 0:
        affinity_draws = rng.lognormal(0.0, affinity_strength, n_items)
        rank_affinity = affinity_draws[by_rank]

    def explore_cdf() -> np.ndarray:
        cdf = _weights_cdf(catalog_weights * affinity_draws, "explore")
        if cdf is None:
            raise DataError("catalog weights must contain a positive entry")
        return cdf

    explore = explore_cdf()
    horizon = min(memory_span, length)
    frequency = _power_table(horizon, frequency_exponent)
    recency = _power_table(horizon, -recency_exponent)
    drifting = bool(drift_interval) and affinity_strength > 0

    ranks = []
    counts = np.zeros(n_items, dtype=np.int64)
    last_seen = np.zeros(n_items, dtype=np.int64)
    explore_rank = np.argsort(by_rank).tolist()  # catalog position -> rank
    for step in range(length):
        if drifting and step > 0 and rng.random() < 1.0 / drift_interval:
            n_drift = max(1, int(n_items * drift_fraction))
            drifted = rng.choice(n_items, size=n_drift, replace=False)
            affinity_draws[drifted] = rng.lognormal(
                0.0, affinity_strength, n_drift
            )
            rank_affinity = affinity_draws[by_rank]
            explore = explore_cdf()
        rank = -1
        if step > 0 and rng.random() >= p_explore:
            window = counts.nonzero()[0]
            seen = last_seen[window]
            if resume_probability and rng.random() < resume_probability:
                # The newest window item not consumed in the last
                # resume_min_gap steps.
                older = seen < step - resume_min_gap
                if older.any():
                    rank = int(window[older][seen[older].argmax()])
            if rank < 0:
                weights = frequency[counts[window]] * recency[step - seen]
                if rank_affinity is not None:
                    weights *= rank_affinity[window]
                cdf = _weights_cdf(weights, "repeat")
                if cdf is not None:
                    rank = int(window[draw_index(rng, cdf)])
                # Otherwise a degenerate window: explore instead.
        if rank < 0:
            rank = explore_rank[draw_index(rng, explore)]
        ranks.append(rank)
        counts[rank] += 1
        last_seen[rank] = step
        if step >= memory_span:
            counts[ranks[step - memory_span]] -= 1
    return ordered[ranks]
