"""Tests for repro.io.model_store — model persistence round trips."""

import json

import numpy as np
import pytest

from repro.config import TSPPRConfig
from repro.exceptions import ModelError, NotFittedError
from repro.io.model_store import load_model, save_model
from repro.models.fpmc import FPMCRecommender
from repro.models.pop import PopRecommender
from repro.models.ppr import PPRRecommender
from repro.models.random_rec import RandomRecommender
from repro.models.tsppr import TSPPRRecommender
from repro.novel.models import NovelTSPPRRecommender

SMOKE = TSPPRConfig(max_epochs=4000, seed=8)


def _scores(model, split):
    sequence = split.full_sequence(0)
    t = split.train_boundary(0) + 2
    candidates = sorted(set(sequence.items[:t].tolist()))[:8]
    return model.score(sequence, candidates, t)


class TestRoundTrips:
    def test_tsppr_round_trip(self, gowalla_split, tmp_path):
        model = TSPPRRecommender(SMOKE).fit(gowalla_split)
        save_model(model, tmp_path / "tsppr")
        loaded = load_model(tmp_path / "tsppr", split=gowalla_split)
        assert isinstance(loaded, TSPPRRecommender)
        assert loaded.config == model.config
        assert np.allclose(_scores(loaded, gowalla_split),
                           _scores(model, gowalla_split))

    def test_novel_tsppr_round_trip(self, gowalla_split, tmp_path):
        model = NovelTSPPRRecommender(SMOKE).fit(gowalla_split)
        save_model(model, tmp_path / "novel")
        loaded = load_model(tmp_path / "novel", split=gowalla_split)
        assert isinstance(loaded, NovelTSPPRRecommender)
        assert loaded.popularity_biased_negatives == model.popularity_biased_negatives
        assert np.allclose(_scores(loaded, gowalla_split),
                           _scores(model, gowalla_split))

    def test_ppr_round_trip(self, gowalla_split, tmp_path):
        model = PPRRecommender(SMOKE).fit(gowalla_split)
        save_model(model, tmp_path / "ppr")
        loaded = load_model(tmp_path / "ppr")
        assert np.allclose(_scores(loaded, gowalla_split),
                           _scores(model, gowalla_split))

    def test_fpmc_round_trip(self, gowalla_split, tmp_path):
        model = FPMCRecommender(SMOKE, use_user_term=True).fit(gowalla_split)
        save_model(model, tmp_path / "fpmc")
        loaded = load_model(tmp_path / "fpmc")
        assert loaded.use_user_term is True
        assert np.allclose(_scores(loaded, gowalla_split),
                           _scores(model, gowalla_split))

    def test_pop_round_trip(self, gowalla_split, tmp_path):
        model = PopRecommender().fit(gowalla_split)
        save_model(model, tmp_path / "pop")
        loaded = load_model(tmp_path / "pop")
        assert np.allclose(_scores(loaded, gowalla_split),
                           _scores(model, gowalla_split))

    def test_window_config_preserved(self, gowalla_split, tmp_path):
        from repro.config import WindowConfig

        model = PopRecommender().fit(
            gowalla_split, WindowConfig(window_size=50, min_gap=7)
        )
        save_model(model, tmp_path / "pop")
        loaded = load_model(tmp_path / "pop")
        assert loaded.window_config.window_size == 50
        assert loaded.window_config.min_gap == 7


class TestErrors:
    def test_unfitted_model_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_model(TSPPRRecommender(SMOKE), tmp_path / "x")

    def test_unsavable_class_rejected(self, gowalla_split, tmp_path):
        model = RandomRecommender().fit(gowalla_split)
        with pytest.raises(ModelError, match="persistence layout"):
            save_model(model, tmp_path / "x")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ModelError, match="manifest"):
            load_model(tmp_path)

    def test_tsppr_requires_split_on_load(self, gowalla_split, tmp_path):
        model = TSPPRRecommender(SMOKE).fit(gowalla_split)
        save_model(model, tmp_path / "tsppr")
        with pytest.raises(ModelError, match="training split"):
            load_model(tmp_path / "tsppr")

    def test_bad_format_version(self, gowalla_split, tmp_path):
        model = PopRecommender().fit(gowalla_split)
        directory = save_model(model, tmp_path / "pop")
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["format_version"] = 999
        (directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ModelError, match="format"):
            load_model(directory)

    def test_unknown_class_in_manifest(self, gowalla_split, tmp_path):
        model = PopRecommender().fit(gowalla_split)
        directory = save_model(model, tmp_path / "pop")
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["model_class"] = "MysteryModel"
        (directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ModelError, match="unknown model class"):
            load_model(directory)


def _edit_manifest(directory, edit):
    manifest = json.loads((directory / "manifest.json").read_text())
    edit(manifest)
    (directory / "manifest.json").write_text(json.dumps(manifest))


class TestManifestValidation:
    @pytest.fixture(scope="class")
    def fitted_ppr(self, gowalla_split):
        return PPRRecommender(SMOKE).fit(gowalla_split)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m["config"].update(not_a_field=1),
            lambda m: m["config"].update(n_factors=-1),
            lambda m: m["window"].update(not_a_field=1),
            lambda m: m.pop("model_class"),
        ],
        ids=["unknown-config-key", "bad-config-value", "unknown-window-key",
             "missing-model-class"],
    )
    def test_malformed_manifest_raises_model_error(
        self, fitted_ppr, tmp_path, edit
    ):
        directory = save_model(fitted_ppr, tmp_path / "ppr")
        _edit_manifest(directory, edit)
        with pytest.raises(ModelError):
            load_model(directory)

    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    def test_stored_training_engine_is_ignored(
        self, fitted_tsppr, gowalla_split, tmp_path, engine
    ):
        # Stores saved while the config still had a training-engine
        # selector carry it in their manifest; they must keep loading.
        directory = save_model(fitted_tsppr, tmp_path / "tsppr")
        _edit_manifest(
            directory, lambda m: m["config"].update(training_engine=engine)
        )
        loaded = load_model(directory, split=gowalla_split)
        assert loaded.config == fitted_tsppr.config
        assert np.array_equal(
            _scores(loaded, gowalla_split), _scores(fitted_tsppr, gowalla_split)
        )


class TestCorruptionDetection:
    def _saved_pop(self, gowalla_split, tmp_path):
        model = PopRecommender().fit(gowalla_split)
        return save_model(model, tmp_path / "pop")

    def test_corrupt_arrays_detected_by_checksum(self, gowalla_split, tmp_path):
        directory = self._saved_pop(gowalla_split, tmp_path)
        npz = directory / "arrays.npz"
        npz.write_bytes(npz.read_bytes()[:-1] + b"X")
        with pytest.raises(ModelError, match="checksum"):
            load_model(directory)

    def test_truncated_arrays_detected(self, gowalla_split, tmp_path):
        directory = self._saved_pop(gowalla_split, tmp_path)
        npz = directory / "arrays.npz"
        npz.write_bytes(npz.read_bytes()[:-40])
        with pytest.raises(ModelError, match="checksum"):
            load_model(directory)

    def test_corrupt_manifest_json(self, gowalla_split, tmp_path):
        directory = self._saved_pop(gowalla_split, tmp_path)
        (directory / "manifest.json").write_text('{"format_version": 2, ')
        with pytest.raises(ModelError, match="corrupt manifest"):
            load_model(directory)

    def test_missing_arrays_file(self, gowalla_split, tmp_path):
        directory = self._saved_pop(gowalla_split, tmp_path)
        (directory / "arrays.npz").unlink()
        with pytest.raises(ModelError, match="arrays"):
            load_model(directory)

    def test_save_leaves_no_temp_files(self, gowalla_split, tmp_path):
        directory = self._saved_pop(gowalla_split, tmp_path)
        litter = [p for p in directory.iterdir() if p.suffix == ".tmp"]
        assert litter == []
