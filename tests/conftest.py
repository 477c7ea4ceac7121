"""Shared fixtures: tiny deterministic datasets and fitted models.

Expensive artifacts (synthetic splits, fitted TS-PPR) are session-scoped
so the suite stays fast while many test modules can assert against the
same realistic objects.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SplitConfig, TSPPRConfig, WindowConfig
from repro.data.dataset import Dataset
from repro.data.split import SplitDataset, temporal_split
from repro.models.tsppr import TSPPRRecommender
from repro.synth.gowalla import generate_gowalla
from repro.synth.lastfm import generate_lastfm

#: Window protocol small enough for hand-checkable tests.
SMALL_WINDOW = WindowConfig(window_size=10, min_gap=2)


@pytest.fixture(scope="session")
def gowalla_dataset() -> Dataset:
    """A small but structurally realistic Gowalla-like dataset."""
    return generate_gowalla(random_state=101, user_factor=0.12, length_factor=0.6)


@pytest.fixture(scope="session")
def lastfm_dataset() -> Dataset:
    """A small but structurally realistic Lastfm-like dataset."""
    return generate_lastfm(random_state=202, user_factor=0.12, length_factor=0.6)


@pytest.fixture(scope="session")
def gowalla_split(gowalla_dataset: Dataset) -> SplitDataset:
    return temporal_split(gowalla_dataset)


@pytest.fixture(scope="session")
def lastfm_split(lastfm_dataset: Dataset) -> SplitDataset:
    return temporal_split(lastfm_dataset)


@pytest.fixture(scope="session")
def smoke_config() -> TSPPRConfig:
    """A TS-PPR configuration sized for test-suite training runs."""
    return TSPPRConfig(max_epochs=15_000, seed=5)


@pytest.fixture(scope="session")
def fitted_tsppr(gowalla_split: SplitDataset, smoke_config: TSPPRConfig) -> TSPPRRecommender:
    """One fitted TS-PPR shared by the model/evaluation tests."""
    return TSPPRRecommender(smoke_config).fit(gowalla_split)


@pytest.fixture()
def tiny_dataset() -> Dataset:
    """Four users with hand-written sequences over 6 items.

    Designed so windows, repeats, and features are checkable by hand:

    * user 0: ``0 1 0 2 0 1`` — heavy repeats of item 0;
    * user 1: ``3 4 3 4 3 4`` — strict alternation;
    * user 2: ``5 5 5 5 5 5`` — a single item;
    * user 3: ``0 1 2 3 4 5`` — all novel.
    """
    return Dataset.from_user_items(
        [
            [0, 1, 0, 2, 0, 1],
            [3, 4, 3, 4, 3, 4],
            [5, 5, 5, 5, 5, 5],
            [0, 1, 2, 3, 4, 5],
        ],
        n_items=6,
        name="tiny",
    )


@pytest.fixture()
def tiny_split(tiny_dataset: Dataset) -> SplitDataset:
    """Tiny dataset with a 50% split and no length filter."""
    return temporal_split(
        tiny_dataset, SplitConfig(train_fraction=0.5, min_train_length=1)
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(99)


@pytest.fixture()
def opened_clients(monkeypatch) -> list:
    """Every ``ServingClient`` the library builds during the test.

    Each one records whether it was closed. Connections persist, so a
    client left open pins a server handler thread until it is
    garbage-collected. Patched where the library looks the class up:
    :mod:`repro.serving.client` and :mod:`repro.cluster.supervisor`.
    """
    from repro.cluster import supervisor
    from repro.serving import client as client_module

    opened = []

    class RecordingClient(client_module.ServingClient):
        closed = False

        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            opened.append(self)

        def close(self) -> None:
            self.closed = True
            super().close()

    for module in (client_module, supervisor):
        monkeypatch.setattr(module, "ServingClient", RecordingClient)
    return opened
