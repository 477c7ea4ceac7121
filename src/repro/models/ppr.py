"""PPR: the static personalized pairwise ranking model (Section 4.1).

Classic BPR-style matrix factorization: ``r_uv = uᵀv`` trained with
``p(v_i >_u v_j) = σ(uᵀ(v_i − v_j))`` (Eq 1-3). The paper explains why
this cannot solve RRC — the learned order between two items is fixed,
while reconsumption preferences flip over time — and the model is
included here both as the natural ablation of TS-PPR's time-sensitive
term and as a reference implementation of Eq (4).

Training reuses the same pre-sampled quadruples as TS-PPR (positives are
observed reconsumptions, negatives window alternatives) but ignores the
time component entirely.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.config import TSPPRConfig, WindowConfig
from repro.data.sequence import ConsumptionSequence
from repro.data.split import SplitDataset
from repro.engine.query import Query
from repro.models.base import Recommender
from repro.optim.kernels import ppr_block_update
from repro.optim.sgd import SGDResult, run_sgd
from repro.rng import ensure_rng
from repro.sampling.quadruples import sample_quadruples
from repro.sampling.schedule import UserUniformSchedule, small_batch_indices


class PPRRecommender(Recommender):
    """Time-insensitive pairwise ranking (BPR) over window candidates.

    Accepts a :class:`~repro.config.TSPPRConfig` for hyper-parameter
    parity with TS-PPR; the feature-related fields are simply unused.
    """

    name = "PPR"

    def __init__(self, config: Optional[TSPPRConfig] = None) -> None:
        super().__init__()
        self.config = config or TSPPRConfig()
        self.user_factors_: Optional[np.ndarray] = None
        self.item_factors_: Optional[np.ndarray] = None
        self.sgd_result_: Optional[SGDResult] = None
        self.n_quadruples_: int = 0

    def _fit(self, split: SplitDataset, window: WindowConfig) -> None:
        config = self.config
        rng = ensure_rng(config.seed)
        quadruples = sample_quadruples(
            split,
            window=window,
            n_negatives=config.n_negative_samples,
            random_state=rng,
        )
        self.n_quadruples_ = len(quadruples)

        K = config.n_factors
        U = rng.normal(0.0, config.init_scale_latent, (split.n_users, K))
        V = rng.normal(0.0, config.init_scale_latent, (split.n_items, K))
        self.user_factors_, self.item_factors_ = U, V

        users = quadruples.users
        positives = quadruples.positives
        negatives = quadruples.negatives
        alpha, gamma = config.learning_rate, config.gamma_latent

        schedule = UserUniformSchedule(quadruples, random_state=rng)
        batch = small_batch_indices(quadruples, config.batch_fraction)
        batch_users, batch_pos, batch_neg = users[batch], positives[batch], negatives[batch]

        # Block kernel, delegated to :mod:`repro.optim.kernels` so the
        # online trainer (``repro.online``) applies the exact same
        # arithmetic.

        def apply_block(indices: np.ndarray) -> None:
            ppr_block_update(
                U,
                V,
                users[indices],
                positives[indices],
                negatives[indices],
                alpha=alpha,
                gamma=gamma,
            )

        def batch_margin() -> float:
            margins = np.einsum(
                "nk,nk->n", U[batch_users], V[batch_pos] - V[batch_neg]
            )
            return float(margins.mean())

        def get_state() -> dict:
            return {"user_factors": U, "item_factors": V}

        def set_state(params: dict) -> None:
            # In-place: apply_block/batch_margin close over U and V.
            U[...] = params["user_factors"]
            V[...] = params["item_factors"]

        check_interval = max(1, math.floor(len(quadruples) * config.batch_fraction))
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

    def score(
        self,
        sequence: ConsumptionSequence,
        candidates: Sequence[int],
        t: int,
    ) -> np.ndarray:
        self._check_fitted()
        assert self.user_factors_ is not None
        assert self.item_factors_ is not None
        items = np.asarray(candidates, dtype=np.int64)
        return self.item_factors_[items] @ self.user_factors_[sequence.user]

    def score_batch(
        self,
        sequence: ConsumptionSequence,
        queries: Sequence[Query],
    ) -> List[np.ndarray]:
        """Batch kernel: hoist the user vector, keep per-query GEMV shapes.

        PPR is time-insensitive, so no window state is needed; the
        ``(n, K) @ (K,)`` product stays per-query because concatenated
        GEMMs are not bit-identical to the sliced ones on this build.
        """
        self._check_fitted()
        assert self.user_factors_ is not None
        assert self.item_factors_ is not None
        u_vec = self.user_factors_[sequence.user]
        item_factors = self.item_factors_
        return [
            item_factors[np.asarray(query.candidates, dtype=np.int64)] @ u_vec
            for query in queries
        ]
