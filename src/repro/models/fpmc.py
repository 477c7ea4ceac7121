"""FPMC baseline: factorized personalized Markov chains (Rendle, WWW'10).

Adapted to RRC as the paper describes (Section 5.2): the "basket" that
conditions the transition is the current time window, and the model
estimates the probability of transitioning from that set of items to the
incoming item:

``x̂(u, t, i) = ⟨v_u^{U,I}, v_i^{I,U}⟩
             + (1/|L_t|) Σ_{l ∈ L_t} ⟨v_i^{I,L}, v_l^{L,I}⟩``

with ``L_t`` the *distinct* items of the window before ``t``.

Training follows the original S-BPR protocol: every training consumption
(novel or repeat) is a positive whose negatives are drawn uniformly from
the whole item universe. The learned *global* transition factors are
then applied to rank the RRC window candidates.

The paper's adaptation "only considers the transition probability
between items using [the] Markov Chain model" — i.e. the factorized
Markov-chain term, personalized only through the user's own window, not
the user-item matrix-factorization term. That is the default here
(``use_user_term=False``); enabling the user term recovers Rendle's full
FPMC and is covered by an ablation benchmark. Without behavioural
features and with its diffuse globally trained ranking, the paper finds
FPMC "shows little difference in the accuracy performance compared with
Pop, Random and Recency" on RRC.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import TSPPRConfig, WindowConfig
from repro.data.sequence import ConsumptionSequence
from repro.data.split import SplitDataset
from repro.engine.query import Query, iter_queries_in_order
from repro.engine.session import ScoringSession
from repro.exceptions import SamplingError
from repro.models.base import Recommender
from repro.optim.kernels import fpmc_sequential_update
from repro.optim.sgd import SGDResult, run_sgd
from repro.rng import Uint32Stream, ensure_rng
from repro.windows.window import window_before


def draw_pairs(
    rng: np.random.Generator, k: int, n_positions: int, n_items: int
) -> np.ndarray:
    """``k`` S-BPR (position, negative) pairs, stream-exact.

    S-BPR draws the negative *inside* each update, so a block pre-draw
    must consume the rng exactly as ``k`` scalar
    ``integers(n_positions)``, ``integers(n_items)`` pairs: same values,
    same generator state after. Both bounds are fixed, so on PCG64 the
    pairs are the bounded map of stream values ``2r`` and ``2r + 1``
    (:class:`repro.rng.Uint32Stream`). The scalar loop runs instead on
    a redraw, another bit generator, or a bound of 1.
    """
    stream = Uint32Stream.of(rng)
    if stream is not None and min(n_positions, n_items) >= 2:
        values = stream.peek(2 * k).reshape(k, 2)
        pairs, rejected = stream.bounded(values, (n_positions, n_items))
        if not rejected.any():
            stream.commit(2 * k)
            return pairs
    pairs = np.empty((k, 2), dtype=np.int64)
    integers = rng.integers
    for r in range(k):
        pairs[r, 0] = integers(n_positions)
        pairs[r, 1] = integers(n_items)
    return pairs


class FPMCRecommender(Recommender):
    """Window-basket FPMC trained with classical S-BPR.

    Accepts a :class:`~repro.config.TSPPRConfig` for hyper-parameter
    parity (K, S, γ, learning rate, convergence budget); the
    feature-related fields are unused.
    """

    name = "FPMC"

    def __init__(
        self,
        config: Optional[TSPPRConfig] = None,
        use_user_term: bool = False,
    ) -> None:
        super().__init__()
        self.config = config or TSPPRConfig()
        self.use_user_term = use_user_term
        self.user_factors_: Optional[np.ndarray] = None       # v^{U,I}
        self.item_user_factors_: Optional[np.ndarray] = None  # v^{I,U}
        self.item_basket_factors_: Optional[np.ndarray] = None  # v^{I,L}
        self.basket_item_factors_: Optional[np.ndarray] = None  # v^{L,I}
        self.sgd_result_: Optional[SGDResult] = None
        self.n_positives_: int = 0

    def _collect_positives(
        self, split: SplitDataset, window: WindowConfig
    ) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
        """All (user, positive item) training pairs and their baskets.

        One entry per training position ``t >= 1``; the basket is the
        distinct-item set of the window before ``t``.
        """
        users: List[int] = []
        positives: List[int] = []
        baskets: List[np.ndarray] = []
        for user in range(split.n_users):
            sequence = split.full_sequence(user)
            boundary = split.train_boundary(user)
            for t in range(1, boundary):
                view = window_before(sequence, t, window.window_size)
                users.append(user)
                positives.append(int(sequence[t]))
                baskets.append(np.asarray(view.distinct_items(), dtype=np.int64))
        if not users:
            raise SamplingError("no FPMC training positions available")
        return (
            np.asarray(users, dtype=np.int64),
            np.asarray(positives, dtype=np.int64),
            baskets,
        )

    def _fit(self, split: SplitDataset, window: WindowConfig) -> None:
        config = self.config
        rng = ensure_rng(config.seed)
        users, positives, baskets = self._collect_positives(split, window)
        self.n_positives_ = int(users.size)
        n_items = split.n_items

        K = config.n_factors
        scale = config.init_scale_latent
        UI = rng.normal(0.0, scale, (split.n_users, K))
        IU = rng.normal(0.0, scale, (n_items, K))
        IL = rng.normal(0.0, scale, (n_items, K))
        LI = rng.normal(0.0, scale, (n_items, K))
        self.user_factors_ = UI
        self.item_user_factors_ = IU
        self.item_basket_factors_ = IL
        self.basket_item_factors_ = LI

        alpha, gamma = config.learning_rate, config.gamma_latent

        # Fixed small batch for the convergence check: a deterministic
        # sample of positions with pre-drawn negatives.
        n_batch = max(1, int(users.size * config.batch_fraction))
        batch_positions = rng.choice(users.size, size=n_batch, replace=False)
        batch_negatives = rng.integers(n_items, size=n_batch)

        use_user_term = self.use_user_term

        def margin_of(position: int, negative: int) -> float:
            user = int(users[position])
            v_i = int(positives[position])
            basket = baskets[position]
            eta = LI[basket].mean(axis=0)
            margin = float(eta @ (IL[v_i] - IL[negative]))
            if use_user_term:
                margin += float(UI[user] @ (IU[v_i] - IU[negative]))
            return margin

        def batch_margin() -> float:
            total = 0.0
            for position, negative in zip(batch_positions, batch_negatives):
                total += margin_of(int(position), int(negative))
            return total / n_batch

        def draw_block(k: int) -> np.ndarray:
            return draw_pairs(rng, k, users.size, n_items)

        # Block kernel, delegated to :mod:`repro.optim.kernels` so the
        # online trainer (``repro.online``) applies the exact same
        # arithmetic: buffered ufuncs with a single eta evaluation per
        # update, applied strictly in order.

        def _block_updates(pairs: np.ndarray):
            for position, v_j in pairs.tolist():
                v_i = int(positives[position])
                if v_j == v_i:
                    continue  # the draws are already consumed
                yield int(users[position]), v_i, int(v_j), baskets[position]

        def apply_block(pairs: np.ndarray) -> None:
            fpmc_sequential_update(
                UI,
                IU,
                IL,
                LI,
                _block_updates(pairs),
                alpha=alpha,
                gamma=gamma,
                use_user_term=use_user_term,
            )

        def get_state() -> dict:
            return {
                "user_factors": UI,
                "item_user_factors": IU,
                "item_basket_factors": IL,
                "basket_item_factors": LI,
            }

        def set_state(params: dict) -> None:
            # In-place: the update closures alias all four matrices.
            UI[...] = params["user_factors"]
            IU[...] = params["item_user_factors"]
            IL[...] = params["item_basket_factors"]
            LI[...] = params["basket_item_factors"]

        check_interval = max(1, math.floor(users.size * config.batch_fraction))
        self.sgd_result_ = run_sgd(
            draw_block=draw_block,
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

    def score_batch(
        self,
        sequence: ConsumptionSequence,
        queries: Sequence[Query],
    ) -> List[np.ndarray]:
        """Batch kernel: incremental basket maintenance across queries.

        ``session.distinct_window_items()`` is sorted ascending, so the
        basket mean reduces over the same rows in the same order however
        the window was reached, and a query scores the same in any batch.
        """
        self._check_fitted()
        assert self.user_factors_ is not None
        assert self.item_user_factors_ is not None
        assert self.item_basket_factors_ is not None
        assert self.basket_item_factors_ is not None
        if not queries:
            return []
        u_vec = self.user_factors_[sequence.user]
        IU = self.item_user_factors_
        IL = self.item_basket_factors_
        LI = self.basket_item_factors_
        use_user_term = self.use_user_term

        ordered = list(iter_queries_in_order(queries))
        session = ScoringSession(
            sequence,
            self.window_config.window_size,
            start=ordered[0][1].t,
        )
        results: List[np.ndarray] = [np.empty(0)] * len(queries)
        for index, query in ordered:
            session.advance_to(query.t)
            basket = np.asarray(session.distinct_window_items(), dtype=np.int64)
            items = np.asarray(query.candidates, dtype=np.int64)
            if basket.size:
                eta = LI[basket].mean(axis=0)
                scores = IL[items] @ eta
            else:
                scores = np.zeros(items.size)
            if use_user_term:
                scores = scores + (IU[items] @ u_vec)
            results[index] = scores
        return results
