"""Saving and loading fitted recommenders.

Layout of a model directory::

    <dir>/manifest.json   model class, config, window, library version
    <dir>/arrays.npz      every numpy parameter array

Only the model parameters travel; the training split does not. A loaded
TS-PPR therefore needs its feature tables re-fitted — the manifest
stores the feature configuration, and :func:`load_model` accepts the
training split to rebuild them exactly (static features are pure
functions of the training prefixes, so the round trip is bit-exact).

Crash safety: both files are written atomically (temp + fsync +
rename), arrays first and manifest last, and the manifest records the
sha256 of ``arrays.npz`` — a crash mid-save can never leave a store
that loads as a half-written model, and torn/corrupt stores fail with
a clear :class:`~repro.exceptions.ModelError` at load time.
"""

from __future__ import annotations

import dataclasses
import io
import json
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.config import TSPPRConfig, WindowConfig
from repro.data.split import SplitDataset
from repro.exceptions import ModelError, NotFittedError
from repro.features.vectorizer import BehavioralFeatureModel
from repro.models.base import Recommender
from repro.models.fpmc import FPMCRecommender
from repro.models.pop import PopRecommender
from repro.models.ppr import PPRRecommender
from repro.models.tsppr import TSPPRRecommender
from repro.novel.models import NovelTSPPRRecommender
from repro.resilience.atomic import (
    atomic_write_bytes,
    atomic_write_json,
    sha256_bytes,
    sha256_file,
)

#: Manifest schema version; bump on breaking layout changes.
#: v2 adds the ``arrays_sha256`` integrity checksum.
FORMAT_VERSION = 2

_SAVABLE = {
    "TSPPRRecommender": TSPPRRecommender,
    "NovelTSPPRRecommender": NovelTSPPRRecommender,
    "PPRRecommender": PPRRecommender,
    "FPMCRecommender": FPMCRecommender,
    "PopRecommender": PopRecommender,
}


def _config_to_dict(config: TSPPRConfig) -> Dict:
    payload = dataclasses.asdict(config)
    payload["feature_names"] = list(config.feature_names)
    return payload


def _config_from_dict(payload: Dict) -> TSPPRConfig:
    try:
        payload = dict(payload)
        # Stores saved before the scalar training engine was removed
        # carry its (now meaningless) selector.
        payload.pop("training_engine", None)
        payload["feature_names"] = tuple(payload["feature_names"])
        return TSPPRConfig(**payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"invalid model config in manifest: {exc}") from exc


def save_model(model: Recommender, directory: Union[str, Path]) -> Path:
    """Serialize a fitted model into ``directory`` (created if needed).

    Raises
    ------
    NotFittedError
        If the model has not been fitted.
    ModelError
        If the model class has no registered persistence layout.
    """
    if not model.is_fitted:
        raise NotFittedError(f"cannot save unfitted {type(model).__name__}")
    class_name = type(model).__name__
    if class_name not in _SAVABLE:
        raise ModelError(
            f"{class_name} has no persistence layout; savable: "
            f"{sorted(_SAVABLE)}"
        )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    window = model.window_config
    manifest: Dict = {
        "format_version": FORMAT_VERSION,
        "model_class": class_name,
        "window": {"window_size": window.window_size, "min_gap": window.min_gap},
    }
    arrays: Dict[str, np.ndarray] = {}

    if isinstance(model, (TSPPRRecommender, PPRRecommender, FPMCRecommender)):
        manifest["config"] = _config_to_dict(model.config)
    if isinstance(model, TSPPRRecommender):
        arrays["user_factors"] = model.user_factors_
        arrays["item_factors"] = model.item_factors_
        arrays["mappings"] = model.mappings_
        if isinstance(model, NovelTSPPRRecommender):
            manifest["popularity_biased_negatives"] = (
                model.popularity_biased_negatives
            )
    elif isinstance(model, PPRRecommender):
        arrays["user_factors"] = model.user_factors_
        arrays["item_factors"] = model.item_factors_
    elif isinstance(model, FPMCRecommender):
        manifest["use_user_term"] = model.use_user_term
        arrays["user_factors"] = model.user_factors_
        arrays["item_user_factors"] = model.item_user_factors_
        arrays["item_basket_factors"] = model.item_basket_factors_
        arrays["basket_item_factors"] = model.basket_item_factors_
    elif isinstance(model, PopRecommender):
        arrays["popularity"] = model._popularity  # noqa: SLF001 - own layout

    # Arrays first, manifest (with the arrays' checksum) last: the
    # manifest is the commit point, so a crash at any instant leaves
    # either a complete store or one that load_model rejects cleanly.
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    payload = buffer.getvalue()
    manifest["arrays_sha256"] = sha256_bytes(payload)
    atomic_write_bytes(directory / "arrays.npz", payload)
    atomic_write_json(directory / "manifest.json", manifest)
    return directory


def load_model(
    directory: Union[str, Path],
    split: Optional[SplitDataset] = None,
) -> Recommender:
    """Load a model saved by :func:`save_model`.

    Parameters
    ----------
    directory:
        The model directory.
    split:
        Required for TS-PPR variants: the training split used at save
        time, from which the static feature tables are re-fitted.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise ModelError(f"no manifest.json under {directory}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ModelError(
            f"corrupt manifest.json under {directory}: {exc}"
        ) from exc
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ModelError(
            f"unsupported model format {manifest.get('format_version')!r}"
        )
    class_name = manifest.get("model_class")
    model_cls = _SAVABLE.get(class_name)
    if model_cls is None:
        raise ModelError(f"unknown model class {class_name!r} in manifest")
    try:
        window = WindowConfig(**manifest["window"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"invalid window in manifest: {exc}") from exc

    arrays_path = directory / "arrays.npz"
    if not arrays_path.exists():
        raise ModelError(f"no arrays.npz under {directory}")
    if sha256_file(arrays_path) != manifest.get("arrays_sha256"):
        raise ModelError(
            f"checksum mismatch on {arrays_path} — the store is torn "
            f"or corrupted"
        )
    try:
        with np.load(arrays_path) as archive:
            arrays = {key: archive[key] for key in archive.files}
    except (OSError, ValueError) as exc:
        raise ModelError(f"unreadable arrays.npz under {directory}: {exc}") from exc

    if issubclass(model_cls, TSPPRRecommender):
        if split is None:
            raise ModelError(
                f"loading {class_name} requires the training split to "
                f"re-fit its static feature tables"
            )
        config = _config_from_dict(manifest["config"])
        if model_cls is NovelTSPPRRecommender:
            model = NovelTSPPRRecommender(
                config,
                popularity_biased_negatives=manifest[
                    "popularity_biased_negatives"
                ],
            )
        else:
            model = model_cls(config)
        model._feature_model = BehavioralFeatureModel(
            feature_names=config.feature_names,
            recency_kind=config.recency_kind,
        ).fit(split.train_dataset(), window)
        model.user_factors_ = arrays["user_factors"]
        model.item_factors_ = arrays["item_factors"]
        model.mappings_ = arrays["mappings"]
    elif model_cls is PPRRecommender:
        model = PPRRecommender(_config_from_dict(manifest["config"]))
        model.user_factors_ = arrays["user_factors"]
        model.item_factors_ = arrays["item_factors"]
    elif model_cls is FPMCRecommender:
        model = FPMCRecommender(
            _config_from_dict(manifest["config"]),
            use_user_term=manifest["use_user_term"],
        )
        model.user_factors_ = arrays["user_factors"]
        model.item_user_factors_ = arrays["item_user_factors"]
        model.item_basket_factors_ = arrays["item_basket_factors"]
        model.basket_item_factors_ = arrays["basket_item_factors"]
    else:  # PopRecommender
        model = PopRecommender()
        model._popularity = arrays["popularity"]  # noqa: SLF001

    model._window_config = window
    model._fitted = True
    return model
