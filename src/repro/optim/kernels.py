"""Shared SGD update kernels for the pairwise-ranking models.

These are the parameter-update bodies of TS-PPR, PPR, and FPMC training
(Algorithm 1 and its ablations), extracted from the model closures so
that *offline* training (:func:`~repro.optim.sgd.run_sgd` block mode)
and *online* incremental learning (:mod:`repro.online`) apply the exact
same arithmetic to the exact same array layouts.

Bit-identity contracts (asserted by ``tests/test_training_equivalence.py``
and ``tests/test_online_trainer.py``):

* :func:`tsppr_block_update` and :func:`ppr_block_update` group a block
  into conflict-free batches via
  :func:`~repro.optim.blocks.dependency_batches` — updates whose
  parameter rows are pairwise disjoint cannot observe each other's
  writes, so applying a batch with stacked matmuls is bit-identical to
  applying its updates one at a time, while conflicting pairs keep
  their order. A direct consequence: *how a stream of updates is cut
  into blocks cannot change a single bit of the final parameters*,
  which is what makes the online trainer's flush cadence a pure
  throughput choice.
* :func:`tsppr_shared_update` (shared-mapping ablation: every update
  conflicts through ``A``) and :func:`fpmc_sequential_update` (basket
  rows overlap unpredictably, outside what ``dependency_batches``
  models) apply updates strictly in order with buffered ufuncs,
  bit-identical to their scalar reference loops.

All kernels mutate the factor arrays in place; the TS-PPR shared-mapping
kernel returns the replacement mapping matrix (its reference semantics
rebind the array per update rather than writing through it).
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.optim.blocks import dependency_batches
from repro.optim.lasso import sigmoid_scalar


def _stable_coeffs(margins: np.ndarray, alpha: float) -> np.ndarray:
    """``alpha * sigmoid(-margin)`` for a batch, inlined and stable.

    ``|−z| == |z|`` and ``-z >= 0`` iff ``z <= 0`` (also for ±0.0), so
    this is the stable two-branch sigmoid evaluated without the extra
    negation or function-call overhead.
    """
    exp_term = np.exp(np.negative(np.abs(margins)))
    denom = exp_term + 1.0
    coeffs = np.where(margins <= 0.0, 1.0 / denom, exp_term / denom)
    coeffs *= alpha
    return coeffs


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
    """One TS-PPR block with per-user mappings (Algorithm 1 updates).

    Updates are grouped into conflict-free batches; each batch is
    applied in one shot with stacked ``(m,K,F)@(m,F,1)`` matmuls and
    ``(m,1,K)@(m,K,1)`` inner products, which are bit-identical to
    their per-row counterparts on this build; every other step is
    elementwise, so batching cannot change a single bit.
    """
    decay_latent = 1 - alpha * gamma
    decay_mapping = 1 - alpha * lam
    for batch in dependency_batches(users_blk, pos_blk, neg_blk):
        run_users = users_blk[batch]
        diff = fdiff_blk[batch]
        u_rows = U[run_users]
        A_rows = mappings[run_users]
        mapped = np.matmul(A_rows, diff[:, :, None])[:, :, 0]
        if use_static:
            # One stacked gather/scatter covers both item roles; a
            # batch's items are pairwise distinct, so the scatter below
            # writes each row exactly once.
            m = batch.size
            run_items = np.concatenate((pos_blk[batch], neg_blk[batch]))
            v_rows = V[run_items]
            s = np.subtract(v_rows[:m], v_rows[m:])  # item_diff
            s += mapped
        else:
            s = mapped
        margins = np.matmul(u_rows[:, None, :], s[:, :, None])[:, 0, 0]
        coeffs = _stable_coeffs(margins, alpha)
        coeffs_col = coeffs[:, None]

        new_u = np.multiply(u_rows, decay_latent)
        new_u += np.multiply(s, coeffs_col)
        if use_static:
            cu = np.multiply(u_rows, coeffs_col)  # pre-update u
            new_v = np.multiply(v_rows, decay_latent)
            new_v[:m] += cu
            new_v[m:] -= cu
            V[run_items] = new_v
        outer = np.multiply(u_rows[:, :, None], diff[:, None, :])
        outer *= coeffs[:, None, None]
        new_a = np.multiply(A_rows, decay_mapping)
        new_a += outer
        U[run_users] = new_u
        mappings[run_users] = new_a


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
    """TS-PPR updates with one shared mapping ``A``, strictly in order.

    Every update conflicts through ``A``, so this is a buffered
    per-update loop. Returns the final mapping matrix (a fresh array,
    per the reference semantics of rebinding ``A`` each update).
    """
    K = int(U.shape[1])
    F = int(fdiff_blk.shape[1])
    decay_latent = 1 - alpha * gamma
    decay_mapping = 1 - alpha * lam
    mapped_buf = np.empty(K)
    s_buf = np.empty(K)
    cs_buf = np.empty(K)
    cu_buf = np.empty(K)
    u_buf = np.empty(K)
    v_buf = np.empty(K)
    outer_buf = np.empty((K, F))
    mapping_buf = np.empty((K, F))
    users_list = list(users_blk)
    pos_list = list(pos_blk)
    neg_list = list(neg_blk)
    A = mappings
    for r in range(len(users_list)):
        user = users_list[r]
        v_i, v_j = pos_list[r], neg_list[r]
        diff = fdiff_blk[r]
        u_vec = U[user]
        np.matmul(A, diff, out=mapped_buf)
        if use_static:
            np.subtract(V[v_i], V[v_j], out=s_buf)  # item_diff
            s_buf += mapped_buf
            margin = float(u_vec @ s_buf)
        else:
            margin = float(u_vec @ mapped_buf)
        coeff = alpha * sigmoid_scalar(-margin)

        if use_static:
            np.multiply(s_buf, coeff, out=cs_buf)
        else:
            np.multiply(mapped_buf, coeff, out=cs_buf)
        np.multiply(u_vec, decay_latent, out=u_buf)
        u_buf += cs_buf  # new_u; not yet written back
        if use_static:
            np.multiply(u_vec, coeff, out=cu_buf)
            np.multiply(V[v_i], decay_latent, out=v_buf)
            v_buf += cu_buf
            V[v_i] = v_buf
            np.multiply(V[v_j], decay_latent, out=v_buf)
            v_buf -= cu_buf
            V[v_j] = v_buf
        np.multiply(u_vec[:, None], diff, out=outer_buf)
        outer_buf *= coeff
        np.multiply(A, decay_mapping, out=mapping_buf)
        mapping_buf += outer_buf
        U[user] = u_buf
        A = mapping_buf.copy()
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
    """One PPR (classic BPR) block of Eq 1–3 updates.

    The scalar path's ``U``-first write order is preserved by deriving
    the ``V`` updates from the *new* user rows.
    """
    decay = 1 - alpha * gamma
    for batch in dependency_batches(users_blk, pos_blk, neg_blk):
        run_users = users_blk[batch]
        # One stacked gather/scatter covers both item roles; a batch's
        # items are pairwise distinct, so the scatter below writes each
        # row exactly once.
        m = batch.size
        run_items = np.concatenate((pos_blk[batch], neg_blk[batch]))
        u_rows = U[run_users]
        v_rows = V[run_items]
        d = np.subtract(v_rows[:m], v_rows[m:])  # item_diff
        margins = np.matmul(u_rows[:, None, :], d[:, :, None])[:, 0, 0]
        coeffs = _stable_coeffs(margins, alpha)
        coeffs_col = coeffs[:, None]

        new_u = np.multiply(u_rows, decay)
        new_u += np.multiply(d, coeffs_col)
        cu = np.multiply(new_u, coeffs_col)  # post-update u
        new_v = np.multiply(v_rows, decay)
        new_v[:m] += cu
        new_v[m:] -= cu
        U[run_users] = new_u
        V[run_items] = new_v


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
    """S-BPR updates over window baskets, strictly in order.

    ``updates`` yields ``(user, v_i, v_j, basket)`` tuples with
    ``v_j != v_i`` and a non-empty int64 basket. Basket rows overlap
    between consecutive updates in ways ``dependency_batches`` cannot
    express, so the loop stays sequential; the buffered ufuncs below
    are bit-identical to the scalar reference (a single eta evaluation
    per update, as in the training block kernel).
    """
    K = int(IL.shape[1])
    decay = 1 - alpha * gamma
    d_buf = np.empty(K)       # IL[v_i] - IL[v_j]
    ce_buf = np.empty(K)      # coeff * eta
    cb_buf = np.empty(K)      # (coeff / |basket|) * il_diff
    x_buf = np.empty(K)
    u_old = np.empty(K)
    iu_buf = np.empty(K)
    ciu_buf = np.empty(K)
    cu_buf = np.empty(K)
    for user, v_i, v_j, basket in updates:
        eta = LI[basket].mean(axis=0)
        np.subtract(IL[v_i], IL[v_j], out=d_buf)  # il_diff
        margin = float(eta @ d_buf)
        if use_user_term:
            np.subtract(IU[v_i], IU[v_j], out=iu_buf)
            margin += float(UI[user] @ iu_buf)
        coeff = alpha * sigmoid_scalar(-margin)

        if use_user_term:
            u_old[:] = UI[user]
            np.multiply(iu_buf, coeff, out=ciu_buf)
            np.multiply(u_old, decay, out=x_buf)
            x_buf += ciu_buf
            UI[user] = x_buf
            np.multiply(u_old, coeff, out=cu_buf)
            np.multiply(IU[v_i], decay, out=x_buf)
            x_buf += cu_buf
            IU[v_i] = x_buf
            np.multiply(IU[v_j], decay, out=x_buf)
            x_buf -= cu_buf
            IU[v_j] = x_buf
        np.multiply(eta, coeff, out=ce_buf)
        np.multiply(IL[v_i], decay, out=x_buf)
        x_buf += ce_buf
        IL[v_i] = x_buf
        np.multiply(IL[v_j], decay, out=x_buf)
        x_buf -= ce_buf
        IL[v_j] = x_buf
        basket_block = LI[basket]  # gathered copy
        basket_block *= decay
        np.multiply(d_buf, coeff / basket.size, out=cb_buf)
        basket_block += cb_buf
        LI[basket] = basket_block


__all__ = [
    "fpmc_sequential_update",
    "ppr_block_update",
    "tsppr_block_update",
    "tsppr_shared_update",
]
