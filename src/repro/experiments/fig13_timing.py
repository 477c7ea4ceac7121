"""Fig 13 — average online recommendation time per instance (ms).

All methods answer the same sampled evaluation instances; times are
averaged over 3 trials like the paper. Absolute values differ from the
paper's 2008-era server, but the cost *ordering* is the reproduced
claim: Random/Pop/DYRC cheapest (one-pass weighting), Recency about as
cheap (the paper's is slightly higher from its exp weighting; ours ranks
by the negated gap and calls no ``exp``), FPMC medium (latent inner
products), TS-PPR around a millisecond, Survival orders of magnitude
above everything (its online covariates scan the user's entire
history).
"""

from __future__ import annotations

from typing import List, Mapping

from repro.evaluation.timing import (
    collect_timing_instances,
    time_recommender,
    time_recommender_batched,
)
from repro.experiments.common import (
    BASELINE_ORDER,
    DATASET_KEYS,
    ExperimentScale,
    build_split,
    dataset_title,
    default_config,
    make_model,
)
from repro.experiments.registry import ExperimentResult, register_experiment


@register_experiment(
    "fig13", "Average online recommendation time of a single instance (ms)"
)
def run(scale: ExperimentScale) -> ExperimentResult:
    rows: List[Mapping[str, object]] = []
    notes: List[str] = []
    for dataset_key in DATASET_KEYS:
        split = build_split(dataset_key, scale)
        instances = collect_timing_instances(split, max_instances=200)
        timings = {}
        batched_timings = {}
        for method in BASELINE_ORDER:
            model = make_model(
                method, dataset_key, scale, default_config(dataset_key, scale)
            )
            model.fit(split)
            timing = time_recommender(model, split, instances=instances)
            batched = time_recommender_batched(model, split, instances=instances)
            timings[method] = timing.mean_ms
            batched_timings[method] = batched.mean_ms
            rows.append(
                {
                    "Data set": dataset_title(dataset_key),
                    "Method": method,
                    "Mean time (ms)": round(timing.mean_ms, 4),
                    "Batched (ms)": round(batched.mean_ms, 4),
                    "Instances": timing.n_instances,
                    "Trials": timing.n_trials,
                }
            )
        slowest = max(timings, key=timings.get)  # type: ignore[arg-type]
        notes.append(
            f"{dataset_title(dataset_key)}: slowest online method = {slowest} "
            f"({timings[slowest]:.3f} ms); Survival/TS-PPR ratio = "
            f"{timings['Survival'] / max(timings['TS-PPR'], 1e-9):.1f}x"
        )
        notes.append(
            f"{dataset_title(dataset_key)}: batch engine speedup "
            f"(per-query / batched, TS-PPR) = "
            f"{timings['TS-PPR'] / max(batched_timings['TS-PPR'], 1e-9):.1f}x; "
            f"Survival = {timings['Survival'] / max(batched_timings['Survival'], 1e-9):.1f}x"
        )
    return ExperimentResult(
        experiment_id="fig13",
        title="Average online recommendation time of a single instance (ms)",
        rows=tuple(rows),
        notes=tuple(notes),
    )
