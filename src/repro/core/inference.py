"""Fold-in inference: classify unseen tweets/users with fitted factors.

The solvers cluster the tweets they were fitted on; a deployed system
also needs to score *new* content without refitting (e.g. classify the
next tweet as it arrives, between online snapshots).  Fold-in is the
standard NMF answer: hold the learned ``Sf``/``Hp``/``Hu`` (and, for
users, ``Sp``) fixed and solve the non-negative least squares
``min_{s≥0} ||x − s·H·Sfᵀ||²`` per new row with multiplicative
updates.  The gradient splits into the attraction ``N = X·Sf·Hᵀ`` and
the fixed ``k×k`` model gram ``G = H·(SfᵀSf)·Hᵀ``, giving the rule
``s ← s ∘ N / (s·G)`` — each row's update involves only that row and
the fixed factors, so memberships are independent of how rows are
batched together (the serving layer relies on this to cache and
micro-batch classify traffic).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.spmm import SpmmEngine, default_spmm
from repro.core.state import FactorSet
from repro.utils.matrices import EPS, hard_assignments, row_normalize
from repro.utils.rng import RandomState

MatrixLike = np.ndarray | sp.spmatrix


def _fold_in(
    attraction: np.ndarray,
    gram: np.ndarray,
    iterations: int,
) -> np.ndarray:
    """Iterate ``S ← S ∘ N / (S·G)`` with fixed ``N`` and model gram ``G``.

    Row-independent by construction: row *i*'s denominator is
    ``S[i]·G``, never a function of the other rows.  The objective is
    convex per row, so iteration starts from a constant interior point
    instead of random noise — results are fully deterministic and
    identical no matter how rows are micro-batched or cached.  An
    all-zero attraction row (no evidence) collapses to exact zeros on
    the first iteration.
    """
    memberships = np.full(attraction.shape, 0.5)
    # One scratch buffer carries ``S·G`` → ``max(·, EPS)`` → ``N / ·`` in
    # place: the operations of ``S * safe_divide(N, S @ G)`` in the same
    # order, so the results are bit-identical without per-step arrays.
    ratio = np.empty(attraction.shape)
    for _ in range(iterations):
        np.matmul(memberships, gram, out=ratio)
        np.maximum(ratio, EPS, out=ratio)
        np.divide(attraction, ratio, out=ratio)
        np.multiply(memberships, ratio, out=memberships)
    return memberships


def _transposed(factor: np.ndarray) -> np.ndarray:
    """``factorᵀ`` as a C-contiguous array, for the ``(rows, k)·(k, k)`` product.

    Multiplying by the strided ``.T`` view sends a one-row left operand
    to a different BLAS kernel than a many-row one, and the two round
    differently; with a contiguous right operand a row's product is the
    same whether it is computed alone or inside a batch, which is what
    keeps classify rows batch-invariant.
    """
    return np.ascontiguousarray(factor.T)


def infer_tweet_memberships(
    xp_new: MatrixLike,
    factors: FactorSet,
    iterations: int = 25,
    seed: RandomState = 0,
    gram: np.ndarray | None = None,
    spmm: SpmmEngine | None = None,
) -> np.ndarray:
    """Soft sentiment memberships for unseen tweet feature rows.

    Parameters
    ----------
    xp_new:
        ``(rows, l)`` feature matrix of the new tweets, vectorized with
        the *training* vocabulary.
    factors:
        A fitted :class:`~repro.core.state.FactorSet` (``sf``/``hp`` are
        used; the tweets the model was fitted on are irrelevant here).
    seed:
        Retained for API stability; the NNLS fold-in starts from a
        deterministic interior point, so results never depend on it.
    gram:
        Optional precomputed ``Hp·(SfᵀSf)·Hpᵀ``.  The serving layer
        computes it once per model instead of per call — the ``O(l·k²)``
        reduction is the dominant cost of small-batch fold-in.
    spmm:
        Optional :class:`~repro.core.spmm.SpmmEngine` for the
        ``X·Sf``-shaped sparse·dense attraction product, so an engine
        instance given to the serving layer sees classify traffic too.
        Defaults to the default engine.

    Returns row-normalized memberships, shape ``(rows, k)``.
    """
    if xp_new.shape[1] != factors.num_features:
        raise ValueError(
            f"xp_new has {xp_new.shape[1]} features; model expects "
            f"{factors.num_features}"
        )
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    engine = spmm if spmm is not None else default_spmm()
    attraction = engine.matmul(xp_new, factors.sf) @ _transposed(factors.hp)
    if gram is None:
        gram = factors.hp @ (factors.sf.T @ factors.sf) @ factors.hp.T
    memberships = _fold_in(attraction, gram, iterations)
    return row_normalize(memberships)


def infer_tweet_sentiments(
    xp_new: MatrixLike,
    factors: FactorSet,
    iterations: int = 25,
    seed: RandomState = 0,
    spmm: SpmmEngine | None = None,
) -> np.ndarray:
    """Hard sentiment class per unseen tweet row."""
    return hard_assignments(
        infer_tweet_memberships(xp_new, factors, iterations, seed, spmm=spmm)
    )


def infer_user_memberships(
    xu_new: MatrixLike,
    factors: FactorSet,
    xr_new: MatrixLike | None = None,
    iterations: int = 25,
    seed: RandomState = 0,
    spmm: SpmmEngine | None = None,
) -> np.ndarray:
    """Soft sentiment memberships for unseen users.

    Parameters
    ----------
    xu_new:
        ``(rows, l)`` aggregated feature rows of the new users.
    xr_new:
        Optional ``(rows, n)`` incidence against the *fitted* tweets
        (columns must align with ``factors.sp``); adds the retweet
        attraction ``Xr·Sp`` of Eq. (4) and the matching ``SpᵀSp``
        term to the model gram.
    seed:
        Retained for API stability; the NNLS fold-in starts from a
        deterministic interior point, so results never depend on it.
    spmm:
        Optional :class:`~repro.core.spmm.SpmmEngine` for the sparse
        attraction products (defaults to the default engine).
    """
    if xu_new.shape[1] != factors.num_features:
        raise ValueError(
            f"xu_new has {xu_new.shape[1]} features; model expects "
            f"{factors.num_features}"
        )
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    engine = spmm if spmm is not None else default_spmm()
    attraction = engine.matmul(xu_new, factors.sf) @ _transposed(factors.hu)
    gram = factors.hu @ (factors.sf.T @ factors.sf) @ factors.hu.T
    if xr_new is not None:
        if xr_new.shape[1] != factors.num_tweets:
            raise ValueError(
                f"xr_new has {xr_new.shape[1]} tweet columns; model has "
                f"{factors.num_tweets}"
            )
        if xr_new.shape[0] != xu_new.shape[0]:
            raise ValueError(
                f"xr_new has {xr_new.shape[0]} rows but xu_new has "
                f"{xu_new.shape[0]}"
            )
        attraction = attraction + engine.matmul(xr_new, factors.sp)
        gram = gram + factors.sp.T @ factors.sp
    memberships = _fold_in(attraction, gram, iterations)
    return row_normalize(memberships)


def infer_user_sentiments(
    xu_new: MatrixLike,
    factors: FactorSet,
    xr_new: MatrixLike | None = None,
    iterations: int = 25,
    seed: RandomState = 0,
    spmm: SpmmEngine | None = None,
) -> np.ndarray:
    """Hard sentiment class per unseen user row."""
    return hard_assignments(
        infer_user_memberships(
            xu_new, factors, xr_new, iterations, seed, spmm=spmm
        )
    )
