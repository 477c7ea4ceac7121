"""The seed's scalar training pipeline, kept as a test oracle.

Every fit ships one engine: the column-pass reconsumption ratio,
quadruple sampler and feature cache, stream-exact block draws and the vectorized
kernels of :mod:`repro.optim.kernels`. This module keeps the seed's
one-row-at-a-time version of each phase, with the signature of the
function it checks:

* :func:`reconsumption_ratio_reference` — per-event last-occurrence
  search (for :func:`repro.features.static.compute_reconsumption_ratio`);
* :func:`sample_quadruples_reference` — per-position ``window_before``
  rebuild (for :func:`repro.sampling.quadruples.sample_quadruples`);
* :func:`build_reference` — per-anchor feature extraction (for
  :meth:`repro.features.cache.QuadrupleFeatureCache.build`);
* :func:`draw_many` / :func:`draw_pairs` — ``n`` scalar ``integers``
  calls (for ``UserUniformSchedule.draw_many`` and FPMC's
  ``draw_pairs``);
* :func:`tsppr_block_update`, :func:`tsppr_shared_update`,
  :func:`ppr_block_update`, :func:`fpmc_sequential_update` — the
  per-update Algorithm 1 bodies (for the kernels of the same names).

The :func:`scalar_engine` fixture swaps all of them in, so a real
``fit`` runs the seed pipeline end to end and the equivalence tests can
compare it with a normal fit bit for bit.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np
import pytest

import repro.features.static
import repro.models.fpmc
import repro.models.ppr
import repro.models.strec
import repro.models.tsppr
from repro.config import WindowConfig
from repro.data.dataset import Dataset
from repro.data.split import SplitDataset
from repro.exceptions import SamplingError
from repro.features.cache import QuadrupleFeatureCache
from repro.features.vectorizer import BehavioralFeatureModel
from repro.optim.lasso import sigmoid_scalar
from repro.rng import RandomState, ensure_rng
from repro.sampling.quadruples import QuadrupleSet
from repro.sampling.schedule import UserUniformSchedule
from repro.windows.repeat import iter_repeat_positions, recent_items
from repro.windows.window import WindowView, window_before


# ----------------------------------------------------------------------
# The reconsumption ratio, sampling and the feature cache
# ----------------------------------------------------------------------
def reconsumption_ratio_reference(dataset: Dataset, window_size: int) -> np.ndarray:
    """The seed's per-event walk for the Eq 18 ratio.

    One ``last_position_before`` binary search per consumption.
    Bit-identical to ``compute_reconsumption_ratio``.
    """
    repeats = np.zeros(dataset.n_items, dtype=np.int64)
    totals = np.zeros(dataset.n_items, dtype=np.int64)
    for sequence in dataset:
        items = sequence.items
        if items.size:
            np.add.at(totals, items, 1)
        for t in range(1, int(items.size)):
            item = int(items[t])
            last = sequence.last_position_before(item, t)
            if last >= 0 and t - last <= window_size:
                repeats[item] += 1
    ratio = np.zeros(dataset.n_items, dtype=np.float64)
    consumed = totals > 0
    ratio[consumed] = repeats[consumed] / totals[consumed]
    return ratio


def sample_quadruples_reference(
    split: SplitDataset,
    window: Optional[WindowConfig] = None,
    n_negatives: int = 10,
    random_state: RandomState = None,
) -> QuadrupleSet:
    """The seed's per-position scan.

    Rebuilds a :class:`WindowView` and a recent-items set at every
    anchor. Bit-identical to ``sample_quadruples``.
    """
    window = window or WindowConfig()
    if n_negatives <= 0:
        raise SamplingError(f"n_negatives must be positive, got {n_negatives}")
    rng = ensure_rng(random_state)

    users: List[int] = []
    positives: List[int] = []
    negatives: List[int] = []
    times: List[int] = []
    per_user: Dict[int, List[int]] = {}

    for user in range(split.n_users):
        sequence = split.full_sequence(user)
        boundary = split.train_boundary(user)
        for t, window_view in iter_repeat_positions(
            sequence,
            window.window_size,
            window.min_gap,
            stop=boundary,
        ):
            positive_item = int(sequence[t])
            excluded = recent_items(sequence, t, window.min_gap)
            eligible = sorted(
                window_view.item_set - excluded - {positive_item}
            )
            if not eligible:
                continue
            if len(eligible) <= n_negatives:
                chosen = eligible
            else:
                picks = rng.choice(len(eligible), size=n_negatives, replace=False)
                chosen = [eligible[int(p)] for p in np.sort(picks)]
            for negative_item in chosen:
                index = len(users)
                users.append(user)
                positives.append(positive_item)
                negatives.append(int(negative_item))
                times.append(t)
                per_user.setdefault(user, []).append(index)

    if not users:
        raise SamplingError(
            "no training quadruples could be sampled; the training data "
            "contains no qualifying repeat consumption with alternatives"
        )

    return QuadrupleSet(
        users=np.asarray(users, dtype=np.int64),
        positives=np.asarray(positives, dtype=np.int64),
        negatives=np.asarray(negatives, dtype=np.int64),
        times=np.asarray(times, dtype=np.int64),
        per_user={
            user: np.asarray(indices, dtype=np.int64)
            for user, indices in per_user.items()
        },
    )


def _anchor_features(
    memo: Dict[int, np.ndarray],
    feature_model: BehavioralFeatureModel,
    sequence,
    t: int,
    window: WindowView,
    item: int,
) -> np.ndarray:
    """Memoized per-item vector at one anchor.

    A positive item recurs across its ``S`` negatives, so the memo
    saves one extraction per repeat.
    """
    cached = memo.get(item)
    if cached is None:
        cached = feature_model.vector(sequence, item, t, window)
        memo[item] = cached
    return cached


def build_reference(
    quadruples: QuadrupleSet,
    split: SplitDataset,
    feature_model: BehavioralFeatureModel,
) -> QuadrupleFeatureCache:
    """The seed's per-anchor extraction.

    Quadruples sharing a ``(user, t)`` anchor share one window view.
    Bit-identical to ``build``.
    """
    window_size = feature_model.window_config.window_size
    n = len(quadruples)
    positive = np.empty((n, feature_model.n_features), dtype=np.float64)
    negative = np.empty((n, feature_model.n_features), dtype=np.float64)

    by_anchor: Dict[Tuple[int, int], List[int]] = {}
    for index in range(n):
        key = (int(quadruples.users[index]), int(quadruples.times[index]))
        by_anchor.setdefault(key, []).append(index)

    for (user, t), indices in by_anchor.items():
        sequence = split.full_sequence(user)
        window = window_before(sequence, t, window_size)
        memo: Dict[int, np.ndarray] = {}
        for index in indices:
            positive[index] = _anchor_features(
                memo, feature_model, sequence, t, window,
                int(quadruples.positives[index]),
            )
            negative[index] = _anchor_features(
                memo, feature_model, sequence, t, window,
                int(quadruples.negatives[index]),
            )
    return QuadrupleFeatureCache(positive, negative)


# ----------------------------------------------------------------------
# Schedule draws
# ----------------------------------------------------------------------
def draw_many(schedule: UserUniformSchedule, n: int) -> np.ndarray:
    """``n`` scalar :meth:`UserUniformSchedule.draw` calls."""
    return np.array([schedule.draw() for _ in range(n)], dtype=np.int64)


def draw_pairs(
    rng: np.random.Generator, k: int, n_positions: int, n_items: int
) -> np.ndarray:
    """FPMC's S-BPR draws as the seed made them, one pair per update.

    The seed drew the position, then the negative inside the update.
    """
    pairs = np.empty((k, 2), dtype=np.int64)
    for r in range(k):
        pairs[r, 0] = int(rng.integers(n_positions))
        pairs[r, 1] = int(rng.integers(n_items))
    return pairs


# ----------------------------------------------------------------------
# Per-update Algorithm 1 bodies
# ----------------------------------------------------------------------
def _tsppr_update(
    U: np.ndarray,
    V: np.ndarray,
    A_u: np.ndarray,
    user: int,
    v_i: int,
    v_j: int,
    diff: np.ndarray,
    *,
    alpha: float,
    gamma: float,
    lam: float,
    use_static: bool,
) -> np.ndarray:
    """One TS-PPR update of ``U`` and ``V`` in place; returns the new ``A_u``."""
    u_vec = U[user]
    mapped = A_u @ diff
    if use_static:
        item_diff = V[v_i] - V[v_j]
        margin = float(u_vec @ (item_diff + mapped))
    else:
        item_diff = None
        margin = float(u_vec @ mapped)
    coeff = alpha * sigmoid_scalar(-margin)  # α(1 − p)

    # Gradients use the pre-update parameter values (Alg. 1, l. 10).
    if use_static:
        new_u = (1 - alpha * gamma) * u_vec + coeff * (item_diff + mapped)
        V[v_i] = (1 - alpha * gamma) * V[v_i] + coeff * u_vec
        V[v_j] = (1 - alpha * gamma) * V[v_j] - coeff * u_vec
    else:
        new_u = (1 - alpha * gamma) * u_vec + coeff * mapped
    new_A = (1 - alpha * lam) * A_u + coeff * np.outer(u_vec, diff)
    U[user] = new_u
    return new_A


def tsppr_block_update(
    U: np.ndarray,
    V: np.ndarray,
    mappings: np.ndarray,
    users_blk: np.ndarray,
    pos_blk: np.ndarray,
    neg_blk: np.ndarray,
    fdiff_blk: np.ndarray,
    *,
    alpha: float,
    gamma: float,
    lam: float,
    use_static: bool,
) -> None:
    """TS-PPR updates with per-user mappings, one at a time."""
    rows = zip(users_blk.tolist(), pos_blk.tolist(), neg_blk.tolist())
    for r, (user, v_i, v_j) in enumerate(rows):
        mappings[user] = _tsppr_update(
            U, V, mappings[user], user, v_i, v_j, fdiff_blk[r],
            alpha=alpha, gamma=gamma, lam=lam, use_static=use_static,
        )


def tsppr_shared_update(
    U: np.ndarray,
    V: np.ndarray,
    mappings: np.ndarray,
    users_blk: Iterable[int],
    pos_blk: Iterable[int],
    neg_blk: Iterable[int],
    fdiff_blk: np.ndarray,
    *,
    alpha: float,
    gamma: float,
    lam: float,
    use_static: bool,
) -> np.ndarray:
    """TS-PPR updates with one shared mapping; returns the final ``A``."""
    A = mappings
    for r, (user, v_i, v_j) in enumerate(zip(users_blk, pos_blk, neg_blk)):
        A = _tsppr_update(
            U, V, A, user, v_i, v_j, fdiff_blk[r],
            alpha=alpha, gamma=gamma, lam=lam, use_static=use_static,
        )
    return A


def ppr_block_update(
    U: np.ndarray,
    V: np.ndarray,
    users_blk: np.ndarray,
    pos_blk: np.ndarray,
    neg_blk: np.ndarray,
    *,
    alpha: float,
    gamma: float,
) -> None:
    """PPR (classic BPR) updates of Eq 1–3, one at a time."""
    for user, v_i, v_j in zip(users_blk.tolist(), pos_blk.tolist(), neg_blk.tolist()):
        u_vec = U[user]
        item_diff = V[v_i] - V[v_j]
        margin = float(u_vec @ item_diff)
        coeff = alpha * sigmoid_scalar(-margin)
        # U is written first, so the V updates below read the *new*
        # user vector through the ``u_vec`` view — part of the model's
        # update semantics the block kernel must preserve.
        U[user] = (1 - alpha * gamma) * u_vec + coeff * item_diff
        V[v_i] = (1 - alpha * gamma) * V[v_i] + coeff * u_vec
        V[v_j] = (1 - alpha * gamma) * V[v_j] - coeff * u_vec


def fpmc_sequential_update(
    UI: np.ndarray,
    IU: np.ndarray,
    IL: np.ndarray,
    LI: np.ndarray,
    updates: Iterable[Tuple[int, int, int, np.ndarray]],
    *,
    alpha: float,
    gamma: float,
    use_user_term: bool,
) -> None:
    """S-BPR updates over window baskets, one at a time."""
    for user, v_i, v_j, basket in updates:
        eta = LI[basket].mean(axis=0)
        margin = float(eta @ (IL[v_i] - IL[v_j]))
        if use_user_term:
            margin += float(UI[user] @ (IU[v_i] - IU[v_j]))
        coeff = alpha * sigmoid_scalar(-margin)

        il_diff = IL[v_i] - IL[v_j]
        if use_user_term:
            u_vec = UI[user].copy()
            iu_diff = IU[v_i] - IU[v_j]
            UI[user] = (1 - alpha * gamma) * u_vec + coeff * iu_diff
            IU[v_i] = (1 - alpha * gamma) * IU[v_i] + coeff * u_vec
            IU[v_j] = (1 - alpha * gamma) * IU[v_j] - coeff * u_vec
        IL[v_i] = (1 - alpha * gamma) * IL[v_i] + coeff * eta
        IL[v_j] = (1 - alpha * gamma) * IL[v_j] - coeff * eta
        LI[basket] = (1 - alpha * gamma) * LI[basket] + (
            coeff / basket.size
        ) * il_diff


# ----------------------------------------------------------------------
# The fixture
# ----------------------------------------------------------------------
@pytest.fixture
def scalar_engine(monkeypatch):
    """A context manager inside which every fit runs the seed pipeline.

    ``with scalar_engine(): reference = Model(config).fit(split)``; fits
    outside the block run the shipped engine. It swaps every phase of
    TS-PPR, PPR and FPMC training, and the reconsumption ratio of the
    feature tables, for its oracle above.
    """

    @contextlib.contextmanager
    def engine():
        with monkeypatch.context() as patch:
            for module in (repro.features.static, repro.models.strec):
                patch.setattr(
                    module, "compute_reconsumption_ratio",
                    reconsumption_ratio_reference,
                )
            for model in (repro.models.tsppr, repro.models.ppr):
                patch.setattr(model, "sample_quadruples", sample_quadruples_reference)
            patch.setattr(QuadrupleFeatureCache, "build", staticmethod(build_reference))
            patch.setattr(UserUniformSchedule, "draw_many", draw_many)
            patch.setattr(repro.models.fpmc, "draw_pairs", draw_pairs)
            patch.setattr(repro.models.tsppr, "tsppr_block_update", tsppr_block_update)
            patch.setattr(
                repro.models.tsppr, "tsppr_shared_update", tsppr_shared_update
            )
            patch.setattr(repro.models.ppr, "ppr_block_update", ppr_block_update)
            patch.setattr(
                repro.models.fpmc, "fpmc_sequential_update", fpmc_sequential_update
            )
            yield

    return engine
