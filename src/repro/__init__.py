"""repro — Recommendation for Repeat Consumption from User Implicit Feedback.

A complete, from-scratch reproduction of Chen, Wang, Wang & Yu
(ICDE 2017): the **TS-PPR** time-sensitive personalized pairwise ranking
model, every baseline the paper compares against (Random, Pop, Recency,
FPMC, Survival/Cox, DYRC, plus the static PPR and the STREC switch), the
behavioural-feature subsystem, the RRC window/evaluation protocol, two
synthetic dataset generators standing in for Gowalla and Last.fm, and an
experiment harness regenerating every table and figure of the paper's
evaluation section.

Quickstart
----------
>>> from repro import (
...     generate_gowalla, temporal_split, TSPPRRecommender,
...     evaluate_recommender,
... )
>>> split = temporal_split(generate_gowalla(user_factor=0.2))
>>> model = TSPPRRecommender().fit(split)
>>> result = evaluate_recommender(model, split)
>>> 0.0 <= result.maap[10] <= 1.0
True
"""

from repro.config import (
    EvaluationConfig,
    SplitConfig,
    TSPPRConfig,
    WindowConfig,
    gowalla_default_config,
    lastfm_default_config,
)
from repro.data import (
    ConsumptionSequence,
    Dataset,
    SplitDataset,
    Vocabulary,
    load_event_log,
    save_event_log,
    temporal_split,
)
from repro.evaluation import (
    AccuracyResult,
    evaluate_recommender,
    time_recommender,
)
from repro.exceptions import ReproError
from repro.features import BehavioralFeatureModel
from repro.models import (
    DYRCRecommender,
    FPMCRecommender,
    PopRecommender,
    PPRRecommender,
    RandomRecommender,
    RecencyRecommender,
    Recommender,
    STRECClassifier,
    SurvivalRecommender,
    TSPPRRecommender,
)
from repro.novel import (
    MixtureRecommender,
    NovelPopRecommender,
    NovelTSPPRRecommender,
)
from repro.synth import generate_gowalla, generate_lastfm

__version__ = "1.0.0"

__all__ = [
    "AccuracyResult",
    "BehavioralFeatureModel",
    "ConsumptionSequence",
    "DYRCRecommender",
    "Dataset",
    "EvaluationConfig",
    "FPMCRecommender",
    "MixtureRecommender",
    "NovelPopRecommender",
    "NovelTSPPRRecommender",
    "PPRRecommender",
    "PopRecommender",
    "RandomRecommender",
    "RecencyRecommender",
    "Recommender",
    "ReproError",
    "STRECClassifier",
    "SplitConfig",
    "SplitDataset",
    "SurvivalRecommender",
    "TSPPRConfig",
    "TSPPRRecommender",
    "Vocabulary",
    "WindowConfig",
    "evaluate_recommender",
    "generate_gowalla",
    "generate_lastfm",
    "gowalla_default_config",
    "lastfm_default_config",
    "load_event_log",
    "save_event_log",
    "temporal_split",
    "time_recommender",
    "__version__",
]
