"""Fig 12 — convergence of the mean margin r̃ during TS-PPR training.

The plotted quantity is the small-batch mean preference margin
``r̃ = mean(r_uv_i t − r_uv_j t)`` at each convergence check; training
stops when ``Δr̃ ≤ 1e-3``. The paper observes a higher converged ``r̃``
on Gowalla than on Lastfm — positives are easier to separate there —
which mirrors the larger accuracy improvement.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.experiments.common import (
    DATASET_KEYS,
    ExperimentScale,
    build_split,
    dataset_title,
    default_config,
)
from repro.experiments.registry import ExperimentResult, register_experiment
from repro.models.tsppr import TSPPRRecommender


@register_experiment("fig12", "Model convergence of r̃ (S=10, Ω=10)")
def run(scale: ExperimentScale) -> ExperimentResult:
    series: Dict[str, Tuple[Tuple[object, float], ...]] = {}
    notes: List[str] = []
    final_margins: Dict[str, float] = {}
    for dataset_key in DATASET_KEYS:
        split = build_split(dataset_key, scale)
        model = TSPPRRecommender(default_config(dataset_key, scale))
        fit_start = time.perf_counter()
        model.fit(split)
        fit_elapsed = time.perf_counter() - fit_start
        assert model.sgd_result_ is not None
        history = model.sgd_result_.margin_history
        title = dataset_title(dataset_key)
        series[f"{title} / r̃ vs updates"] = tuple(
            (n_updates, margin) for n_updates, margin in history
        )
        final_margins[title] = model.sgd_result_.final_margin
        notes.append(
            f"{title}: converged={model.sgd_result_.converged} after "
            f"{model.sgd_result_.n_updates} updates, final r̃ = "
            f"{model.sgd_result_.final_margin:.4f}, train wall-clock "
            f"{fit_elapsed:.1f}s"
        )
    if len(final_margins) == 2:
        gowalla, lastfm = (
            final_margins["Gowalla-like"],
            final_margins["Lastfm-like"],
        )
        notes.append(
            f"converged r̃ Gowalla-like ({gowalla:.3f}) vs Lastfm-like "
            f"({lastfm:.3f}) — paper expects the former larger"
        )
    return ExperimentResult(
        experiment_id="fig12",
        title="Model convergence of r̃ (S=10, Ω=10)",
        series=series,
        notes=tuple(notes),
    )
