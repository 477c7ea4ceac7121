"""Profile-guided startup: ``--profile`` must equal explicit flags, bit-for-bit.

The acceptance bar of the autotuning layer: starting a server from a
machine profile is pure *configuration plumbing* — a service built via
``--profile`` answers every request identically (same items, same order)
to one built from the equivalent explicit flags, for Recency and TS-PPR,
and every resolved knob is logged with its provenance. Same contract on
the training side: ``fit(profile=...)`` equals ``fit(fit_workers=...,
sgd_block=...)`` equals a plain ``fit()`` — the sgd_block knob chunks
kernel calls stream-exactly, so learned parameters never move.
"""

from __future__ import annotations

import logging
from typing import Dict, List

import pytest

from conftest import SMALL_WINDOW

from repro.config import TSPPRConfig
from repro.data.split import SplitDataset
from repro.models.base import Recommender
from repro.models.recency import RecencyRecommender
from repro.models.tsppr import TSPPRRecommender
from repro.serving.cli import (
    KNOB_ARGS,
    build_parser,
    resolve_knob_args,
)
from repro.serving.service import ServiceConfig, service_for_split
from repro.tuning.defaults import defaults_for, values_of
from repro.tuning.profile import MachineProfile

K = 10

#: Deliberately non-default serving knobs a tune run might choose.
TUNED_SERVING = {
    **defaults_for("serving"),
    "check_interval": 4,
    "max_inflight_rows": 4096,
    "capacity": 512,
    "store": "dict",
}

QUICK = TSPPRConfig(max_epochs=2000, seed=3)


@pytest.fixture()
def profile_path(tmp_path):
    profile = MachineProfile(machine={"cpu_count": 2}, created="t0")
    profile.set_subsystem("serving", TUNED_SERVING)
    profile.set_subsystem(
        "training", {"fit_workers": 2, "sgd_block": 512}
    )
    path = tmp_path / "profile.json"
    profile.save(path)
    return path


def replay(
    model: Recommender,
    split: SplitDataset,
    knobs: Dict[str, object],
    users,
) -> Dict[int, List[List[int]]]:
    """Replay test suffixes through a service built from ``knobs``."""
    config = ServiceConfig(
        window=SMALL_WINDOW,
        default_k=K,
        n_items=split.n_items,
        check_interval=int(knobs["check_interval"]),
        max_inflight_rows=int(knobs["max_inflight_rows"]),
        admission_wait_ms=float(knobs["admission_wait_ms"]),
    )
    online: Dict[int, List[List[int]]] = {user: [] for user in users}
    with service_for_split(
        model,
        split,
        config=config,
        capacity=int(knobs["capacity"]),
        store=str(knobs["store"]),
    ) as service:
        for user in users:
            items = split.full_sequence(user).items[
                split.train_boundary(user):
            ].tolist()
            for item in items:
                result = service.step(user, item, k=K)
                if result is not None:
                    online[user].append(result.items)
    return online


def knobs_via_profile(profile_path) -> Dict[str, object]:
    """What ``repro-serve serve --profile <path>`` resolves to."""
    args = build_parser().parse_args(
        ["serve", "--profile", str(profile_path)]
    )
    return values_of(resolve_knob_args(args, "serving", KNOB_ARGS))


class TestServingBitIdentity:
    def test_profile_resolves_to_tuned_values(self, profile_path) -> None:
        assert knobs_via_profile(profile_path) == TUNED_SERVING

    def test_recency_profile_equals_explicit_flags(
        self, gowalla_split: SplitDataset, profile_path
    ) -> None:
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        users = [0, 1, 2]
        via_profile = replay(
            model, gowalla_split, knobs_via_profile(profile_path), users
        )
        via_flags = replay(model, gowalla_split, TUNED_SERVING, users)
        assert via_profile == via_flags
        assert any(any(lists) for lists in via_profile.values())

    def test_tsppr_profile_equals_explicit_flags(
        self, gowalla_split: SplitDataset, profile_path
    ) -> None:
        model = TSPPRRecommender(QUICK).fit(gowalla_split, SMALL_WINDOW)
        users = [0, 1]
        via_profile = replay(
            model, gowalla_split, knobs_via_profile(profile_path), users
        )
        via_flags = replay(model, gowalla_split, TUNED_SERVING, users)
        assert via_profile == via_flags

    def test_resolution_logs_every_knob_with_provenance(
        self, profile_path, caplog
    ) -> None:
        args = build_parser().parse_args(
            ["serve", "--profile", str(profile_path), "--check-interval", "32"]
        )
        with caplog.at_level(logging.INFO, logger="repro.serving.cli"):
            resolve_knob_args(args, "serving", KNOB_ARGS)
        line = next(
            record.getMessage()
            for record in caplog.records
            if "resolved serving knobs" in record.getMessage()
        )
        assert "check_interval=32(cli)" in line
        assert "max_inflight_rows=4096(profile)" in line
        assert str(profile_path) in line
        for name in KNOB_ARGS:
            assert f"{name}=" in line


class TestTrainingBitIdentity:
    def test_sgd_block_is_stream_exact(
        self, gowalla_split: SplitDataset
    ) -> None:
        """Chunked block-SGD kernels learn bit-identical parameters."""
        import numpy as np

        whole = TSPPRRecommender(QUICK).fit(gowalla_split, SMALL_WINDOW)
        chunked = TSPPRRecommender(QUICK).fit(
            gowalla_split, SMALL_WINDOW, sgd_block=512
        )
        assert (
            whole.sgd_result_.margin_history
            == chunked.sgd_result_.margin_history
        )
        np.testing.assert_array_equal(whole.user_factors_, chunked.user_factors_)
        np.testing.assert_array_equal(whole.item_factors_, chunked.item_factors_)
        np.testing.assert_array_equal(whole.mappings_, chunked.mappings_)

    def test_fit_profile_equals_explicit_knobs(
        self, gowalla_split: SplitDataset, profile_path
    ) -> None:
        import numpy as np

        via_profile = TSPPRRecommender(QUICK).fit(
            gowalla_split, SMALL_WINDOW, profile=profile_path
        )
        explicit = TSPPRRecommender(QUICK).fit(
            gowalla_split, SMALL_WINDOW, fit_workers=2, sgd_block=512
        )
        plain = TSPPRRecommender(QUICK).fit(gowalla_split, SMALL_WINDOW)
        np.testing.assert_array_equal(
            via_profile.user_factors_, explicit.user_factors_
        )
        np.testing.assert_array_equal(
            via_profile.user_factors_, plain.user_factors_
        )
        np.testing.assert_array_equal(
            via_profile.item_factors_, plain.item_factors_
        )
        assert via_profile._fit_workers == 2
        assert via_profile._sgd_block == 512

    def test_explicit_argument_beats_profile(
        self, gowalla_split: SplitDataset, profile_path
    ) -> None:
        model = TSPPRRecommender(QUICK).fit(
            gowalla_split,
            SMALL_WINDOW,
            fit_workers=1,
            profile=profile_path,
        )
        assert model._fit_workers == 1  # explicit beats the profile's 2
        assert model._sgd_block == 512  # unset, so the profile fills it
