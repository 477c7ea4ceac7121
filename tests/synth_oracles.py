"""The seed's copy process, kept as a test oracle.

:func:`repro.synth.copying.simulate_user_sequence` keeps each catalog
item's window count and last-seen step across steps and draws from a
CDF with :func:`repro.rng.choice_cdf`. This module keeps the seed's
loop, which rebuilds a dict over the last ``memory_span`` entries at
every repeat step and draws with ``Generator.choice(p=...)``:

* :func:`repeat_weights` — the distinct window items (sorted) and their
  ``count ** frequency_exponent × gap ** (−recency_exponent)`` weights;
* :func:`most_recent_beyond_gap` — the resume target;
* :func:`simulate_user_sequence_reference` — the whole step loop, with
  the signature of the function it checks.

The equivalence suite (``tests/test_synth_equivalence.py``) compares
sequences and the generator state each leaves behind, call for call.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.exceptions import DataError
from repro.rng import RandomState, ensure_rng


def repeat_weights(
    history: List[int],
    memory_span: int,
    frequency_exponent: float,
    recency_exponent: float,
    affinities: Optional[Dict[int, float]] = None,
) -> "tuple[list[int], np.ndarray]":
    """Candidate items and unnormalized repeat weights at the next step.

    Returns the distinct items of the last ``memory_span`` history
    entries and their weights. Empty history yields empty outputs.
    """
    if memory_span <= 0:
        raise DataError(f"memory_span must be positive, got {memory_span}")
    window = history[-memory_span:]
    t_next = len(history)
    counts: Dict[int, int] = {}
    last_seen: Dict[int, int] = {}
    base = len(history) - len(window)
    for offset, item in enumerate(window):
        counts[item] = counts.get(item, 0) + 1
        last_seen[item] = base + offset
    items = sorted(counts)
    if not items:
        return [], np.empty(0)
    weights = np.empty(len(items), dtype=np.float64)
    for index, item in enumerate(items):
        gap = t_next - last_seen[item]
        weight = (counts[item] ** frequency_exponent) * (gap ** (-recency_exponent))
        if affinities is not None:
            weight *= affinities.get(item, 1.0)
        weights[index] = weight
    return items, weights


def most_recent_beyond_gap(
    history: List[int],
    memory_span: int,
    min_gap: int,
) -> Optional[int]:
    """The most recently consumed item whose gap exceeds ``min_gap``.

    Models "resume" behaviour — returning to the album/venue one left a
    little while ago — and returns ``None`` when no in-memory item lies
    beyond the gap.
    """
    t_next = len(history)
    window = history[-memory_span:]
    base = len(history) - len(window)
    recent = set(history[max(0, t_next - min_gap):])
    for offset in range(len(window) - 1, -1, -1):
        item = window[offset]
        if item not in recent:
            return item
    return None


def simulate_user_sequence_reference(
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
    """The seed's step loop for ``simulate_user_sequence``.

    Same parameters; rebuilds the window at every repeat step and draws
    with ``Generator.choice``. Its own input checks are the seed's, so
    call it only with inputs the shipped function accepts.
    """
    if length <= 0:
        raise DataError(f"length must be positive, got {length}")
    catalog = np.asarray(catalog, dtype=np.int64)
    if catalog.size == 0:
        raise DataError("catalog must not be empty")
    catalog_weights = np.asarray(catalog_weights, dtype=np.float64)
    if catalog_weights.shape != catalog.shape:
        raise DataError(
            f"catalog_weights shape {catalog_weights.shape} does not match "
            f"catalog shape {catalog.shape}"
        )
    if not 0 <= p_explore <= 1:
        raise DataError(f"p_explore must lie in [0, 1], got {p_explore}")
    rng = ensure_rng(random_state)

    if drift_interval < 0:
        raise DataError(f"drift_interval must be >= 0, got {drift_interval}")
    if not 0 < drift_fraction <= 1:
        raise DataError(f"drift_fraction must lie in (0, 1], got {drift_fraction}")

    affinities: Optional[Dict[int, float]] = None
    affinity_draws = np.ones(catalog.size)
    if affinity_strength > 0:
        affinity_draws = rng.lognormal(0.0, affinity_strength, catalog.size)
        affinities = {
            int(item): float(a) for item, a in zip(catalog.tolist(), affinity_draws)
        }

    def normalized_explore() -> np.ndarray:
        weights = catalog_weights * affinity_draws
        total = weights.sum()
        if total <= 0:
            raise DataError("catalog weights must contain a positive entry")
        return weights / total

    explore_probabilities = normalized_explore()

    if not 0 <= resume_probability <= 1:
        raise DataError(
            f"resume_probability must lie in [0, 1], got {resume_probability}"
        )

    history: List[int] = []
    for step in range(length):
        if (
            drift_interval
            and affinity_strength > 0
            and step > 0
            and rng.random() < 1.0 / drift_interval
        ):
            n_drift = max(1, int(catalog.size * drift_fraction))
            drifted = rng.choice(catalog.size, size=n_drift, replace=False)
            affinity_draws[drifted] = rng.lognormal(
                0.0, affinity_strength, n_drift
            )
            assert affinities is not None
            for position in drifted:
                affinities[int(catalog[int(position)])] = float(
                    affinity_draws[int(position)]
                )
            explore_probabilities = normalized_explore()
        explore = step == 0 or rng.random() < p_explore
        if not explore:
            if resume_probability and rng.random() < resume_probability:
                resumed = most_recent_beyond_gap(
                    history, memory_span, resume_min_gap
                )
                if resumed is not None:
                    history.append(resumed)
                    continue
            items, weights = repeat_weights(
                history,
                memory_span,
                frequency_exponent,
                recency_exponent,
                affinities,
            )
            weight_sum = weights.sum() if weights.size else 0.0
            if weight_sum > 0:
                choice = rng.choice(len(items), p=weights / weight_sum)
                history.append(int(items[int(choice)]))
                continue
            # Degenerate window: fall through to an explore step.
        choice = rng.choice(catalog.size, p=explore_probabilities)
        history.append(int(catalog[int(choice)]))
    return np.asarray(history, dtype=np.int64)
