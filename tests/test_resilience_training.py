"""Crash/resume equivalence tests: run_sgd and the learned models.

The contract under test: a run killed mid-training and resumed from its
newest valid checkpoint produces *bit-identical* results — parameters,
update counts, and the whole margin history — to an uninterrupted run.
"""

import re

import numpy as np
import pytest

from repro.config import TSPPRConfig
from repro.exceptions import ConvergenceError
from repro.models.fpmc import FPMCRecommender
from repro.models.ppr import PPRRecommender
from repro.models.tsppr import TSPPRRecommender
from repro.optim.sgd import run_sgd
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.faults import FaultInjected, FaultInjector


def make_problem(seed, n=50):
    """A tiny deterministic SGD problem driven by a seeded generator."""
    rng = np.random.default_rng(seed)
    target = np.linspace(-1.0, 1.0, n)
    params = {"w": np.zeros(n)}

    def draw_block(k):
        return rng.integers(n, size=k)

    def apply_block(indices):
        for i in indices.tolist():
            params["w"][i] += 0.2 * (target[i] - params["w"][i])

    def batch_margin():
        return float(-np.mean((params["w"] - target) ** 2))

    def get_state():
        return {"w": params["w"]}

    def set_state(state):
        params["w"][...] = state["w"]

    return {
        "rng": rng,
        "params": params,
        "draw_block": draw_block,
        "apply_block": apply_block,
        "batch_margin": batch_margin,
        "get_state": get_state,
        "set_state": set_state,
    }


def _run(problem, checkpoint=None, fault_injector=None):
    return run_sgd(
        problem["draw_block"],
        problem["apply_block"],
        problem["batch_margin"],
        max_updates=500,
        check_interval=50,
        tol=1e-12,
        patience=3,
        checkpoint=checkpoint,
        get_state=problem["get_state"],
        set_state=problem["set_state"],
        rng=problem["rng"],
        fault_injector=fault_injector,
    )


class TestRunSGDResume:
    def test_checkpointing_changes_nothing(self, tmp_path):
        reference = _run(make_problem(3))
        problem = make_problem(3)
        result = _run(problem, checkpoint=CheckpointManager(tmp_path))
        assert result == reference

    def test_crash_and_resume_bit_identical(self, tmp_path):
        reference_problem = make_problem(3)
        reference = _run(reference_problem)

        crashed = make_problem(3)
        with pytest.raises(FaultInjected):
            _run(
                crashed,
                checkpoint=CheckpointManager(tmp_path),
                fault_injector=FaultInjector(crash_at_update=237),
            )

        resumed = make_problem(3)
        result = _run(resumed, checkpoint=CheckpointManager(tmp_path))
        assert result == reference
        assert np.array_equal(
            resumed["params"]["w"], reference_problem["params"]["w"]
        )

    def test_torn_newest_checkpoint_falls_back_and_matches(self, tmp_path):
        reference = _run(make_problem(3))

        with pytest.raises(FaultInjected):
            _run(
                make_problem(3),
                checkpoint=CheckpointManager(tmp_path),
                fault_injector=FaultInjector(crash_at_update=237),
            )
        newest = sorted(tmp_path.glob("ckpt-*.npz"))[-1]
        newest.write_bytes(newest.read_bytes()[:-30])  # torn write

        result = _run(make_problem(3), checkpoint=CheckpointManager(tmp_path))
        assert result == reference

    def test_checkpoint_requires_state_callables(self):
        problem = make_problem(3)
        with pytest.raises(ValueError, match="get_state"):
            run_sgd(
                problem["draw_block"],
                problem["apply_block"],
                problem["batch_margin"],
                max_updates=10,
                check_interval=5,
                checkpoint=CheckpointManager("unused"),
            )


def _crash_then_resume(model_factory, split, tmp_path):
    """Kill a fit halfway through its updates, then resume it."""
    reference = model_factory().fit(split)
    crash_at = reference.sgd_result_.n_updates // 2
    assert crash_at > 0

    with pytest.raises(FaultInjected):
        model_factory().fit(
            split,
            checkpoint_dir=tmp_path,
            fault_injector=FaultInjector(crash_at_update=crash_at),
        )
    assert list(tmp_path.glob("ckpt-*.json")), "crash left no checkpoint"

    resumed = model_factory().fit(split, checkpoint_dir=tmp_path)
    return reference, resumed


#: A learning rate that makes every pairwise model diverge within a few
#: hundred updates.
DIVERGENT = TSPPRConfig(max_epochs=20_000, learning_rate=1e6, seed=1)


class TestDivergence:
    """A fit whose margin stops being finite fails; it never ships NaNs."""

    @pytest.mark.parametrize(
        "make_model",
        [TSPPRRecommender, PPRRecommender, FPMCRecommender],
        ids=["tsppr", "ppr", "fpmc"],
    )
    def test_divergent_fit_raises(self, gowalla_split, make_model):
        model = make_model(DIVERGENT)
        with np.errstate(all="ignore"):
            with pytest.raises(
                ConvergenceError, match=r"margin is nan after \d+ updates"
            ):
                model.fit(gowalla_split)
        assert not model.is_fitted

    def test_diverged_state_is_never_checkpointed(
        self, gowalla_split, tmp_path
    ):
        with np.errstate(all="ignore"):
            with pytest.raises(ConvergenceError) as raised:
                TSPPRRecommender(DIVERGENT).fit(
                    gowalla_split, checkpoint_dir=tmp_path
                )
        failed_at = int(re.search(r"after (\d+) updates", str(raised.value))[1])
        state = CheckpointManager(tmp_path).load_latest()
        assert state is not None
        assert state.n_updates < failed_at
        assert all(np.isfinite(margin) for _, margin in state.history)
        for name, array in state.params.items():
            assert np.isfinite(array).all(), name


class TestModelResume:
    def test_tsppr_resume_bit_identical(self, gowalla_split, tmp_path):
        config = TSPPRConfig(max_epochs=4000, seed=8)
        reference, resumed = _crash_then_resume(
            lambda: TSPPRRecommender(config), gowalla_split, tmp_path
        )
        assert np.array_equal(resumed.user_factors_, reference.user_factors_)
        assert np.array_equal(resumed.item_factors_, reference.item_factors_)
        assert np.array_equal(resumed.mappings_, reference.mappings_)
        assert resumed.sgd_result_ == reference.sgd_result_

    def test_ppr_resume_bit_identical(self, gowalla_split, tmp_path):
        config = TSPPRConfig(max_epochs=4000, seed=8)
        reference, resumed = _crash_then_resume(
            lambda: PPRRecommender(config), gowalla_split, tmp_path
        )
        assert np.array_equal(resumed.user_factors_, reference.user_factors_)
        assert np.array_equal(resumed.item_factors_, reference.item_factors_)
        assert resumed.sgd_result_ == reference.sgd_result_

    def test_tsppr_block_mode_resume_matches_scalar_run(
        self, gowalla_split, tmp_path, scalar_engine
    ):
        """Crash a fit, resume it, and compare against an *uninterrupted*
        run of the seed's scalar pipeline: the crash/resume cycle and
        the engine must both be invisible."""
        config = TSPPRConfig(max_epochs=4000, seed=8)
        with scalar_engine():
            scalar_reference = TSPPRRecommender(config).fit(gowalla_split)

        crash_at = scalar_reference.sgd_result_.n_updates // 2
        with pytest.raises(FaultInjected):
            TSPPRRecommender(config).fit(
                gowalla_split,
                checkpoint_dir=tmp_path,
                fault_injector=FaultInjector(crash_at_update=crash_at),
            )
        resumed = TSPPRRecommender(config).fit(
            gowalla_split, checkpoint_dir=tmp_path
        )
        assert np.array_equal(
            resumed.user_factors_, scalar_reference.user_factors_
        )
        assert np.array_equal(
            resumed.item_factors_, scalar_reference.item_factors_
        )
        assert np.array_equal(resumed.mappings_, scalar_reference.mappings_)
        assert resumed.sgd_result_ == scalar_reference.sgd_result_

    @pytest.mark.tier2
    def test_fpmc_resume_bit_identical(self, gowalla_split, tmp_path):
        config = TSPPRConfig(max_epochs=4000, seed=8)
        reference, resumed = _crash_then_resume(
            lambda: FPMCRecommender(config), gowalla_split, tmp_path
        )
        assert np.array_equal(resumed.user_factors_, reference.user_factors_)
        assert np.array_equal(
            resumed.item_user_factors_, reference.item_user_factors_
        )
        assert np.array_equal(
            resumed.item_basket_factors_, reference.item_basket_factors_
        )
        assert np.array_equal(
            resumed.basket_item_factors_, reference.basket_item_factors_
        )
        assert resumed.sgd_result_ == reference.sgd_result_

    @pytest.mark.tier2
    def test_tsppr_shared_mapping_resume(self, gowalla_split, tmp_path):
        config = TSPPRConfig(max_epochs=4000, seed=8, share_mapping=True)
        reference, resumed = _crash_then_resume(
            lambda: TSPPRRecommender(config), gowalla_split, tmp_path
        )
        assert np.array_equal(resumed.mappings_, reference.mappings_)
        assert resumed.sgd_result_ == reference.sgd_result_

    @pytest.mark.tier2
    def test_double_crash_resume(self, gowalla_split, tmp_path):
        """Two successive crashes at different points still converge."""
        config = TSPPRConfig(max_epochs=4000, seed=8)
        reference = TSPPRRecommender(config).fit(gowalla_split)
        total = reference.sgd_result_.n_updates
        for crash_at in (total // 3, 2 * total // 3):
            with pytest.raises(FaultInjected):
                TSPPRRecommender(config).fit(
                    gowalla_split,
                    checkpoint_dir=tmp_path,
                    fault_injector=FaultInjector(crash_at_update=crash_at),
                )
        resumed = TSPPRRecommender(config).fit(
            gowalla_split, checkpoint_dir=tmp_path
        )
        assert np.array_equal(resumed.user_factors_, reference.user_factors_)
        assert resumed.sgd_result_ == reference.sgd_result_

    @pytest.mark.tier2
    @pytest.mark.parametrize("fault_seed", [0, 1, 2, 3, 4])
    def test_seeded_crash_point_sweep(self, gowalla_split, tmp_path, fault_seed):
        """Seed-driven crash points: wherever the kill lands, resume
        reproduces the uninterrupted run exactly."""
        config = TSPPRConfig(max_epochs=4000, seed=8)
        reference = TSPPRRecommender(config).fit(gowalla_split)
        injector = FaultInjector.from_seed(
            fault_seed, max_update=reference.sgd_result_.n_updates
        )
        with pytest.raises(FaultInjected):
            TSPPRRecommender(config).fit(
                gowalla_split,
                checkpoint_dir=tmp_path,
                fault_injector=injector,
            )
        resumed = TSPPRRecommender(config).fit(
            gowalla_split, checkpoint_dir=tmp_path
        )
        assert np.array_equal(resumed.user_factors_, reference.user_factors_)
        assert np.array_equal(resumed.mappings_, reference.mappings_)
        assert resumed.sgd_result_ == reference.sgd_result_
