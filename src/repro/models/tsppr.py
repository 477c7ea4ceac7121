"""TS-PPR: Time-Sensitive Personalized Pairwise Ranking (Section 4.2).

The preference of user ``u`` for item ``v`` at time ``t`` is

``r_uvt = uᵀ v + uᵀ A_u f_uvt``                                 (Eq 5)

combining a static latent term with a time-sensitive term that maps the
observable behavioural features ``f_uvt`` into the latent space through
the personalized matrix ``A_u``. Training maximizes

``p(v_i >_ut v_j) = σ(r_uv_i t − r_uv_j t)``                    (Eq 6)

over pre-sampled quadruples by stochastic gradient descent with the
updates of Algorithm 1, stopping when the small-batch mean margin ``r̃``
stabilizes (``Δr̃ ≤ 1e-3``, Section 5.6.1).

Ablation hooks (both default to the paper's choices):

* ``config.use_static_term=False`` drops the ``uᵀv`` term;
* ``config.share_mapping=True`` replaces the per-user ``A_u`` with one
  shared ``A``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.config import TSPPRConfig, WindowConfig
from repro.data.sequence import ConsumptionSequence
from repro.data.split import SplitDataset
from repro.engine.features import SessionFeatureMatrix
from repro.engine.query import Query
from repro.exceptions import ModelError, NotFittedError
from repro.features.cache import QuadrupleFeatureCache
from repro.features.vectorizer import BehavioralFeatureModel
from repro.models.base import Recommender
from repro.optim.kernels import tsppr_block_update, tsppr_shared_update
from repro.optim.sgd import SGDResult, run_sgd
from repro.rng import ensure_rng
from repro.sampling.quadruples import QuadrupleSet, sample_quadruples
from repro.sampling.schedule import UserUniformSchedule, small_batch_indices


class TSPPRRecommender(Recommender):
    """The paper's model. See module docstring for the math.

    Parameters
    ----------
    config:
        Hyper-parameters (Table 4 defaults when omitted).
    feature_model:
        Optional pre-built (unfitted or fitted) feature model; used by
        experiments that share feature tables across models. When
        omitted, one is constructed from ``config.feature_names`` /
        ``config.recency_kind``.

    Attributes (after :meth:`fit`)
    ------------------------------
    user_factors_ / item_factors_:
        ``U ∈ R^{|U|×K}`` and ``V ∈ R^{|V|×K}``.
    mappings_:
        ``A ∈ R^{|U|×K×F}`` (or ``R^{K×F}`` when sharing is enabled).
    sgd_result_:
        The SGD run record, including the Fig 12 margin history.
    n_quadruples_:
        Size of the pre-sampled training set ``|D|``.
    """

    name = "TS-PPR"

    def __init__(
        self,
        config: Optional[TSPPRConfig] = None,
        feature_model: Optional[BehavioralFeatureModel] = None,
    ) -> None:
        super().__init__()
        self.config = config or TSPPRConfig()
        self._feature_model = feature_model
        self.user_factors_: Optional[np.ndarray] = None
        self.item_factors_: Optional[np.ndarray] = None
        self.mappings_: Optional[np.ndarray] = None
        self.sgd_result_: Optional[SGDResult] = None
        self.n_quadruples_: int = 0

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _fit(self, split: SplitDataset, window: WindowConfig) -> None:
        config = self.config
        rng = ensure_rng(config.seed)

        if self._feature_model is None:
            self._feature_model = BehavioralFeatureModel(
                feature_names=config.feature_names,
                recency_kind=config.recency_kind,
            )
        if not self._feature_model.is_fitted:
            self._feature_model.fit(split.train_dataset(), window)
        if self._feature_model.n_features != config.n_features:
            raise ModelError(
                f"feature model provides {self._feature_model.n_features} "
                f"features but config expects {config.n_features}"
            )

        quadruples = self._sample_quadruples(split, window, rng)
        cache = QuadrupleFeatureCache.build(quadruples, split, self._feature_model)
        self.n_quadruples_ = len(quadruples)

        self._initialize_parameters(split.n_users, split.n_items, rng)
        self._run_training(quadruples, cache, rng)

    def _sample_quadruples(
        self,
        split: SplitDataset,
        window: WindowConfig,
        rng: np.random.Generator,
    ) -> QuadrupleSet:
        """The training-set source; subclasses may redefine "positive".

        The base class pre-samples RRC quadruples (observed
        reconsumptions against window alternatives);
        :class:`repro.novel.models.NovelTSPPRRecommender` overrides this
        with first-time consumptions against unconsumed items.
        """
        return sample_quadruples(
            split,
            window=window,
            n_negatives=self.config.n_negative_samples,
            random_state=rng,
        )

    def _initialize_parameters(
        self, n_users: int, n_items: int, rng: np.random.Generator
    ) -> None:
        """Zero-mean Gaussian init (Algorithm 1, line 1)."""
        config = self.config
        K, F = config.n_factors, config.n_features
        self.user_factors_ = rng.normal(0.0, config.init_scale_latent, (n_users, K))
        self.item_factors_ = rng.normal(0.0, config.init_scale_latent, (n_items, K))
        if config.share_mapping:
            self.mappings_ = rng.normal(0.0, config.init_scale_mapping, (K, F))
        else:
            self.mappings_ = rng.normal(
                0.0, config.init_scale_mapping, (n_users, K, F)
            )

    def _mapping_of(self, user: int) -> np.ndarray:
        """``A_u`` — shared or per-user depending on configuration."""
        assert self.mappings_ is not None
        if self.config.share_mapping:
            return self.mappings_
        return self.mappings_[user]

    def _run_training(
        self,
        quadruples: QuadrupleSet,
        cache: QuadrupleFeatureCache,
        rng: np.random.Generator,
    ) -> None:
        config = self.config
        assert self.user_factors_ is not None
        assert self.item_factors_ is not None
        U, V = self.user_factors_, self.item_factors_
        alpha = config.learning_rate
        gamma, lam = config.gamma_latent, config.lambda_mapping
        use_static = config.use_static_term

        users = quadruples.users
        positives = quadruples.positives
        negatives = quadruples.negatives
        fdiff = cache.differences()

        schedule = UserUniformSchedule(quadruples, random_state=rng)
        batch = small_batch_indices(quadruples, config.batch_fraction)
        batch_users = users[batch]
        batch_pos = positives[batch]
        batch_neg = negatives[batch]
        batch_fdiff = fdiff[batch]

        # Block kernel, delegated to :mod:`repro.optim.kernels` so the
        # online trainer (``repro.online``) applies the exact same
        # arithmetic. Per-user mappings take the conflict-free batched
        # path; with a shared mapping every update conflicts through
        # ``A``, so that configuration keeps a buffered per-update loop.
        share_mapping = self.config.share_mapping

        def apply_block(indices: np.ndarray) -> None:
            if share_mapping:
                self.mappings_ = tsppr_shared_update(
                    U,
                    V,
                    self.mappings_,
                    users[indices].tolist(),
                    positives[indices].tolist(),
                    negatives[indices].tolist(),
                    fdiff[indices],
                    alpha=alpha,
                    gamma=gamma,
                    lam=lam,
                    use_static=use_static,
                )
                return
            tsppr_block_update(
                U,
                V,
                self.mappings_,
                users[indices],
                positives[indices],
                negatives[indices],
                fdiff[indices],
                alpha=alpha,
                gamma=gamma,
                lam=lam,
                use_static=use_static,
            )

        def batch_margin() -> float:
            u_rows = U[batch_users]
            if self.config.share_mapping:
                mapped = batch_fdiff @ self.mappings_.T  # type: ignore[union-attr]
            else:
                mapped = np.einsum(
                    "nkf,nf->nk", self.mappings_[batch_users], batch_fdiff
                )
            margins = np.einsum("nk,nk->n", u_rows, mapped)
            if use_static:
                item_diff = V[batch_pos] - V[batch_neg]
                margins = margins + np.einsum("nk,nk->n", u_rows, item_diff)
            return float(margins.mean())

        def get_state() -> dict:
            return {
                "user_factors": U,
                "item_factors": V,
                "mappings": np.asarray(self.mappings_),
            }

        def set_state(params: dict) -> None:
            # In-place writes keep the U/V aliases the update closures
            # hold valid; the mapping is only ever read through self.
            U[...] = params["user_factors"]
            V[...] = params["item_factors"]
            if self.config.share_mapping:
                self.mappings_ = params["mappings"].copy()
            else:
                self.mappings_[...] = params["mappings"]  # type: ignore[index]

        check_interval = max(
            1, math.floor(len(quadruples) * config.batch_fraction)
        )
        self.sgd_result_ = run_sgd(
            draw_block=schedule.draw_many,
            apply_block=apply_block,
            batch_margin=batch_margin,
            max_updates=config.max_epochs,
            check_interval=check_interval,
            tol=config.convergence_tol,
            checkpoint=self._checkpoint_manager,
            get_state=get_state,
            set_state=set_state,
            rng=rng,
            fault_injector=self._fault_injector,
        )

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    @property
    def feature_model(self) -> BehavioralFeatureModel:
        if self._feature_model is None:
            raise NotFittedError("TSPPRRecommender used before fit")
        return self._feature_model

    def preference(
        self,
        user: int,
        item: int,
        sequence: ConsumptionSequence,
        t: int,
    ) -> float:
        """``r_uvt`` (Eq 5) for one item — convenience for inspection."""
        return float(self.score(sequence, [item], t)[0])

    def score_batch(
        self,
        sequence: ConsumptionSequence,
        queries: Sequence[Query],
    ) -> List[np.ndarray]:
        """Engine kernel: one feature fill for the batch, products per query.

        Every query's candidate rows are filled in one occurrence-index
        column pass (:class:`~repro.engine.features.SessionFeatureMatrix`).
        Each query then keeps its own ``(n, F) @ (F, K) @ (K,)`` products
        on its contiguous slice of the rows: concatenating queries into
        one GEMM changes BLAS blocking, so a query's scores would depend
        on the batch it arrived in.
        """
        self._check_fitted()
        assert self.user_factors_ is not None
        assert self.item_factors_ is not None
        if not queries:
            return []
        user = sequence.user
        u_vec = self.user_factors_[user]
        A_uT = self._mapping_of(user).T
        item_factors = self.item_factors_
        use_static = self.config.use_static_term

        rows = SessionFeatureMatrix(
            self.feature_model, sequence, self.window_config.window_size
        ).matrix(queries)
        results: List[np.ndarray] = []
        stop = 0
        for query in queries:
            start, stop = stop, stop + len(query.candidates)
            scores = (rows[start:stop] @ A_uT) @ u_vec
            if use_static:
                items = np.asarray(query.candidates, dtype=np.int64)
                scores = scores + item_factors[items] @ u_vec
            results.append(scores)
        return results
