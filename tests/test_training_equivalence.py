"""Scalar vs vectorized training engines must match bit for bit.

The ``training_engine="vectorized"`` pipeline (incremental-session
sampling, session-walk feature cache, dependency-batched block SGD) is a
pure performance path: every learned parameter array, the margin
history, and the sampled quadruples must equal the seed-style scalar
pipeline exactly — ``np.array_equal``, not ``allclose``. These tests pin
that contract for every model and config ablation, plus the individual
batched-numpy identities the block kernels rely on.
"""

import numpy as np
import pytest

from repro.config import SplitConfig, TSPPRConfig, WindowConfig
from repro.data.dataset import Dataset
from repro.data.split import temporal_split
from repro.models.fpmc import FPMCRecommender
from repro.models.ppr import PPRRecommender
from repro.models.tsppr import TSPPRRecommender
from repro.optim.lasso import sigmoid
from repro.resilience.faults import FaultInjected, FaultInjector
from repro.sampling.quadruples import sample_quadruples

WINDOW = WindowConfig(window_size=10, min_gap=2)


def _fit_pair(model_factory, split, **fit_kwargs):
    """Fit the same model under both engines; returns (scalar, vectorized)."""
    fitted = []
    for engine in ("scalar", "vectorized"):
        model = model_factory(engine)
        model.fit(split, WINDOW, **fit_kwargs)
        fitted.append(model)
    return fitted


class TestBatchedOpIdentities:
    """The numpy formulations the kernels use are bit-identical per row.

    These are build-level guarantees (BLAS dispatch, ufunc evaluation
    order), so each is pinned directly: if an interpreter/BLAS upgrade
    breaks one, this points at the exact op instead of a diverged fit.
    """

    def test_stacked_matvec_matches_per_row(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(17, 6, 4))
        d = rng.normal(size=(17, 4))
        stacked = np.matmul(A, d[:, :, None])[:, :, 0]
        rows = np.stack([A[i] @ d[i] for i in range(17)])
        assert np.array_equal(stacked, rows)

    def test_stacked_dot_matches_per_row(self):
        rng = np.random.default_rng(5)
        u = rng.normal(size=(23, 8))
        s = rng.normal(size=(23, 8))
        stacked = np.matmul(u[:, None, :], s[:, :, None])[:, 0, 0]
        rows = np.array([float(u[i] @ s[i]) for i in range(23)])
        assert np.array_equal(stacked, rows)

    def test_inlined_sigmoid_matches_alpha_sigmoid_neg(self):
        # The kernels inline ``alpha * sigmoid(-margin)`` using
        # |−z| == |z| and (−z >= 0) iff (z <= 0), which holds for ±0.0
        # too; NaN takes the same branch in both formulations.
        margins = np.array(
            [-50.0, -3.2, -1e-12, -0.0, 0.0, 1e-12, 0.7, 3.2, 50.0, 710.0]
        )
        alpha = 0.05
        exp_term = np.exp(np.negative(np.abs(margins)))
        denom = exp_term + 1.0
        coeffs = np.where(margins <= 0.0, 1.0 / denom, exp_term / denom)
        coeffs *= alpha
        assert np.array_equal(coeffs, alpha * sigmoid(-margins))


def _assert_tsppr_equal(scalar, vectorized):
    assert np.array_equal(scalar.user_factors_, vectorized.user_factors_)
    assert np.array_equal(scalar.item_factors_, vectorized.item_factors_)
    assert np.array_equal(scalar.mappings_, vectorized.mappings_)
    assert scalar.sgd_result_ == vectorized.sgd_result_
    assert scalar.n_quadruples_ == vectorized.n_quadruples_


class TestTSPPREquivalence:
    def test_full_fit_bit_identical(self, gowalla_split):
        scalar, vectorized = _fit_pair(
            lambda engine: TSPPRRecommender(
                TSPPRConfig(max_epochs=6000, seed=11, training_engine=engine)
            ),
            gowalla_split,
        )
        _assert_tsppr_equal(scalar, vectorized)

    def test_shared_mapping_bit_identical(self, gowalla_split):
        scalar, vectorized = _fit_pair(
            lambda engine: TSPPRRecommender(
                TSPPRConfig(
                    max_epochs=3000,
                    seed=12,
                    share_mapping=True,
                    training_engine=engine,
                )
            ),
            gowalla_split,
        )
        _assert_tsppr_equal(scalar, vectorized)

    def test_no_static_term_bit_identical(self, gowalla_split):
        scalar, vectorized = _fit_pair(
            lambda engine: TSPPRRecommender(
                TSPPRConfig(
                    max_epochs=3000,
                    seed=13,
                    use_static_term=False,
                    training_engine=engine,
                )
            ),
            gowalla_split,
        )
        _assert_tsppr_equal(scalar, vectorized)

    def test_fit_workers_bit_identical(self, gowalla_split):
        # Worker sharding only parallelizes the feature-cache build;
        # rows land at their global indices, so any worker count must
        # reproduce the sequential arrays exactly.
        config = TSPPRConfig(max_epochs=3000, seed=14)
        sequential = TSPPRRecommender(config)
        sequential.fit(gowalla_split, WINDOW, fit_workers=1)
        sharded = TSPPRRecommender(config)
        sharded.fit(gowalla_split, WINDOW, fit_workers=2)
        _assert_tsppr_equal(sequential, sharded)


class TestBaselineEquivalence:
    def test_ppr_bit_identical(self, gowalla_split):
        scalar, vectorized = _fit_pair(
            lambda engine: PPRRecommender(
                TSPPRConfig(max_epochs=6000, seed=21, training_engine=engine)
            ),
            gowalla_split,
        )
        assert np.array_equal(scalar.user_factors_, vectorized.user_factors_)
        assert np.array_equal(scalar.item_factors_, vectorized.item_factors_)
        assert scalar.sgd_result_ == vectorized.sgd_result_
        assert scalar.n_quadruples_ == vectorized.n_quadruples_

    def test_fpmc_bit_identical(self, gowalla_split):
        scalar, vectorized = _fit_pair(
            lambda engine: FPMCRecommender(
                TSPPRConfig(max_epochs=4000, seed=22, training_engine=engine)
            ),
            gowalla_split,
        )
        assert np.array_equal(scalar.user_factors_, vectorized.user_factors_)
        assert np.array_equal(
            scalar.item_user_factors_, vectorized.item_user_factors_
        )
        assert np.array_equal(
            scalar.item_basket_factors_, vectorized.item_basket_factors_
        )
        assert np.array_equal(
            scalar.basket_item_factors_, vectorized.basket_item_factors_
        )
        assert scalar.sgd_result_ == vectorized.sgd_result_


@pytest.fixture(scope="module")
def single_quadruple_split():
    """Cyclic users plus one user who owns exactly one quadruple.

    The last user's only repeat is item 21 at t=4, whose window leaves a
    single eligible negative (20). Its ``integers(1)`` row draw consumes
    nothing, so the block draw's position chain takes one-step hops.
    """
    users = [
        list(range(6)) * 12,
        [7, 8, 9, 10, 11] * 15,
        list(range(3, 11)) * 9,
        [20, 21, 22, 23, 21, 24, 25, 26, 27, 28, 29, 30],
    ]
    split = temporal_split(
        Dataset.from_user_items(users),
        SplitConfig(train_fraction=0.75, min_train_length=1),
    )
    quadruples = sample_quadruples(
        split, WINDOW, TSPPRConfig().n_negative_samples, random_state=0
    )
    counts = sorted(rows.size for rows in quadruples.per_user.values())
    assert counts[0] == 1 and counts[1] >= 2
    return split


class TestSingleQuadrupleUser:
    """The exact block draw against the scalar engine, chain walk included."""

    def test_tsppr_bit_identical(self, single_quadruple_split):
        scalar, vectorized = _fit_pair(
            lambda engine: TSPPRRecommender(
                TSPPRConfig(
                    max_epochs=4000,
                    seed=31,
                    convergence_tol=1e-12,
                    training_engine=engine,
                )
            ),
            single_quadruple_split,
        )
        _assert_tsppr_equal(scalar, vectorized)

    def test_fpmc_bit_identical(self, single_quadruple_split):
        scalar, vectorized = _fit_pair(
            lambda engine: FPMCRecommender(
                TSPPRConfig(
                    max_epochs=4000,
                    seed=32,
                    convergence_tol=1e-12,
                    training_engine=engine,
                )
            ),
            single_quadruple_split,
        )
        assert scalar.sgd_result_.n_updates > 1000
        for name in (
            "user_factors_",
            "item_user_factors_",
            "item_basket_factors_",
            "basket_item_factors_",
        ):
            assert np.array_equal(getattr(scalar, name), getattr(vectorized, name))
        assert scalar.sgd_result_ == vectorized.sgd_result_

    def test_tsppr_block_mode_resume_bit_identical(
        self, single_quadruple_split, tmp_path
    ):
        # The checkpoint stores the generator state the exact draw
        # committed, buffered 32-bit half included.
        config = TSPPRConfig(
            max_epochs=4000,
            seed=33,
            convergence_tol=1e-12,
            training_engine="vectorized",
        )
        reference = TSPPRRecommender(config).fit(single_quadruple_split, WINDOW)
        crash_at = reference.sgd_result_.n_updates // 2
        with pytest.raises(FaultInjected):
            TSPPRRecommender(config).fit(
                single_quadruple_split,
                WINDOW,
                checkpoint_dir=tmp_path,
                checkpoint_every=1,
                fault_injector=FaultInjector(crash_at_update=crash_at),
            )
        assert list(tmp_path.glob("ckpt-*.json")), "crash left no checkpoint"
        resumed = TSPPRRecommender(config).fit(
            single_quadruple_split, WINDOW, checkpoint_dir=tmp_path
        )
        _assert_tsppr_equal(reference, resumed)
