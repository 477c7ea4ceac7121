"""Shared infrastructure for the experiment grid.

Defines the run scales (smoke / fast / full), cached dataset + split
construction, per-dataset default TS-PPR configurations (Table 4), and
the baseline roster of Section 5.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.config import (
    EvaluationConfig,
    TSPPRConfig,
    WindowConfig,
    gowalla_default_config,
    lastfm_default_config,
)
from repro.data.split import SplitDataset, temporal_split
from repro.evaluation.metrics import AccuracyResult
from repro.evaluation.protocol import evaluate_recommender
from repro.exceptions import ExperimentError
from repro.logging_utils import get_logger
from repro.models.base import Recommender
from repro.models.dyrc import DYRCRecommender
from repro.models.fpmc import FPMCRecommender
from repro.models.pop import PopRecommender
from repro.models.random_rec import RandomRecommender
from repro.models.recency import RecencyRecommender
from repro.models.survival import SurvivalRecommender
from repro.models.tsppr import TSPPRRecommender
from repro.rng import derive_seed
from repro.synth.gowalla import generate_gowalla
from repro.synth.lastfm import generate_lastfm

logger = get_logger("experiments")

#: Dataset keys used across the harness.
DATASET_KEYS: Tuple[str, ...] = ("gowalla", "lastfm")

#: Baseline names in the paper's Fig 5/6 ordering (TS-PPR last).
BASELINE_ORDER: Tuple[str, ...] = (
    "Random",
    "Pop",
    "Recency",
    "FPMC",
    "Survival",
    "DYRC",
    "TS-PPR",
)


@dataclass(frozen=True)
class ExperimentScale:
    """How big an experiment run is.

    Attributes
    ----------
    name:
        Profile label ("smoke" / "fast" / "full").
    user_factor, length_factor:
        Multipliers applied to the synthetic presets.
    max_epochs:
        SGD update budget for the learned models.
    seed:
        Base seed; per-(dataset, purpose) seeds are derived from it.
    workers:
        Evaluation worker processes; results are bit-identical at any
        value (see :func:`repro.evaluation.protocol.evaluate_recommender`).
    """

    name: str
    user_factor: float
    length_factor: float
    max_epochs: int
    seed: int = 7
    workers: int = 1

    def __post_init__(self) -> None:
        if self.user_factor <= 0 or self.length_factor <= 0:
            raise ExperimentError("scale factors must be positive")
        if self.max_epochs <= 0:
            raise ExperimentError("max_epochs must be positive")
        if self.workers <= 0:
            raise ExperimentError("workers must be positive")


#: Tiny profile for unit/integration tests.
SMOKE_SCALE = ExperimentScale("smoke", user_factor=0.12, length_factor=0.6, max_epochs=20_000)
#: Benchmark profile: minutes per experiment, preserves all shapes.
FAST_SCALE = ExperimentScale("fast", user_factor=0.3, length_factor=1.0, max_epochs=120_000)
#: Full laptop-scale profile used for EXPERIMENTS.md numbers.
FULL_SCALE = ExperimentScale("full", user_factor=1.0, length_factor=1.0, max_epochs=400_000)

_SCALES: Dict[str, ExperimentScale] = {
    scale.name: scale for scale in (SMOKE_SCALE, FAST_SCALE, FULL_SCALE)
}


def scale_by_name(name: str) -> ExperimentScale:
    """Look up a profile by name ("smoke" / "fast" / "full")."""
    try:
        return _SCALES[name]
    except KeyError:
        raise ExperimentError(
            f"unknown scale {name!r}; choose from {sorted(_SCALES)}"
        ) from None


_SPLIT_CACHE: Dict[Tuple[str, str], SplitDataset] = {}
_ACCURACY_CACHE: Dict[Tuple[str, str, str], Dict[str, AccuracyResult]] = {}


def clear_caches() -> None:
    """Drop all cached splits and shared accuracy runs."""
    _SPLIT_CACHE.clear()
    _ACCURACY_CACHE.clear()


def build_split(dataset_key: str, scale: ExperimentScale) -> SplitDataset:
    """The cached 70/30 split of a synthetic dataset at a given scale."""
    if dataset_key not in DATASET_KEYS:
        raise ExperimentError(
            f"unknown dataset {dataset_key!r}; choose from {DATASET_KEYS}"
        )
    cache_key = (dataset_key, scale.name)
    cached = _SPLIT_CACHE.get(cache_key)
    if cached is not None:
        return cached
    # A stable per-dataset salt (str hash() is randomized across runs).
    seed = derive_seed(scale.seed, DATASET_KEYS.index(dataset_key))
    generator = generate_gowalla if dataset_key == "gowalla" else generate_lastfm
    dataset = generator(
        random_state=seed,
        user_factor=scale.user_factor,
        length_factor=scale.length_factor,
    )
    split = temporal_split(dataset)
    logger.info(
        "built %s split at scale %s: %d users, %d train / %d test events",
        dataset_key, scale.name, split.n_users,
        split.n_train_consumptions(), split.n_test_consumptions(),
    )
    _SPLIT_CACHE[cache_key] = split
    return split


def default_config(
    dataset_key: str,
    scale: ExperimentScale,
    **overrides,
) -> TSPPRConfig:
    """Table 4 defaults for a dataset, bounded by the scale's budget."""
    base = (
        gowalla_default_config()
        if dataset_key == "gowalla"
        else lastfm_default_config()
    )
    changes = {"max_epochs": scale.max_epochs, "seed": derive_seed(scale.seed, 1)}
    changes.update(overrides)
    return base.with_overrides(**changes)


def make_model(
    name: str,
    dataset_key: str,
    scale: ExperimentScale,
    config: Optional[TSPPRConfig] = None,
) -> Recommender:
    """Instantiate one of the Section 5.2 methods by display name."""
    config = config or default_config(dataset_key, scale)
    seed = derive_seed(scale.seed, 2)
    factories: Dict[str, Callable[[], Recommender]] = {
        "Random": lambda: RandomRecommender(random_state=seed),
        "Pop": PopRecommender,
        "Recency": RecencyRecommender,
        "FPMC": lambda: FPMCRecommender(config),
        "Survival": SurvivalRecommender,
        "DYRC": DYRCRecommender,
        "TS-PPR": lambda: TSPPRRecommender(config),
    }
    factory = factories.get(name)
    if factory is None:
        raise ExperimentError(
            f"unknown model {name!r}; choose from {sorted(factories)}"
        )
    return factory()


def fit_and_evaluate(
    model: Recommender,
    split: SplitDataset,
    eval_config: Optional[EvaluationConfig] = None,
    window: Optional[WindowConfig] = None,
    workers: int = 1,
) -> AccuracyResult:
    """Fit a model on the split and run the accuracy protocol."""
    eval_config = eval_config or EvaluationConfig()
    model.fit(split, window or eval_config.window)
    return evaluate_recommender(model, split, eval_config, workers=workers)


def accuracy_run(
    dataset_key: str,
    scale: ExperimentScale,
    methods: Tuple[str, ...] = BASELINE_ORDER,
) -> Dict[str, AccuracyResult]:
    """All-methods accuracy on one dataset, cached for reuse.

    Fig 5, Fig 6, Table 3 and the bench suite all consume this one run.
    ``scale.workers`` only changes wall-clock time, never the numbers,
    so the cache key can safely ignore it.
    """
    cache_key = (dataset_key, scale.name, "|".join(methods))
    cached = _ACCURACY_CACHE.get(cache_key)
    if cached is not None:
        return cached
    split = build_split(dataset_key, scale)
    results: Dict[str, AccuracyResult] = {}
    for name in methods:
        model = make_model(name, dataset_key, scale)
        logger.info("fitting %s on %s (%s scale)", name, dataset_key, scale.name)
        results[name] = fit_and_evaluate(
            model, split, workers=scale.workers
        )
    _ACCURACY_CACHE[cache_key] = results
    return results


def dataset_title(dataset_key: str) -> str:
    """Human-readable dataset label used in result rows."""
    return "Gowalla-like" if dataset_key == "gowalla" else "Lastfm-like"
