"""Objective computation for Eq. (1) (offline) and Eq. (19) (online).

Loss components are evaluated without densifying the sparse data
matrices, using the trace expansion
``||X − A·H·Bᵀ||² = ||X||² − 2·tr(Xᵀ·A·H·Bᵀ) + tr(Bᵀ·B·Hᵀ·Aᵀ·A·H)``
so the cost stays ``O(nnz·k + (n+m+l)·k²)`` per evaluation.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.regularizers import Regularizer
from repro.core.state import FactorSet
from repro.core.sweepcache import SweepCache
from repro.utils.matrices import frobenius_sq

MatrixLike = np.ndarray | sp.spmatrix


@dataclass(frozen=True)
class ObjectiveWeights:
    """Regularization weights of the objective.

    ``alpha`` scales the lexicon/temporal feature prior, ``beta`` the
    user-graph smoothness, ``gamma`` the evolving-user temporal term
    (online only; 0 reduces Eq. (19) to Eq. (1) plus warm starts).
    """

    alpha: float = 0.05
    beta: float = 0.8
    gamma: float = 0.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be a finite number >= 0, got {value}")


@dataclass(frozen=True)
class ObjectiveValue:
    """Component-wise objective values (all ≥ 0)."""

    tweet_loss: float      # Eq. (2):  ||Xp − Sp·Hp·Sfᵀ||²
    user_loss: float       # Eq. (3):  ||Xu − Su·Hu·Sfᵀ||²
    retweet_loss: float    # Eq. (4):  ||Xr − Su·Spᵀ||²
    lexicon_loss: float    # Eq. (5):  α·||Sf − Sf0||²
    graph_loss: float      # Eq. (6):  β·tr(Suᵀ·Lu·Su)
    temporal_loss: float   # Eq. (19): γ·||Su(d,e) − Suw||²
    #: Section 7 regularizer-stack values, in stack order (see
    #: :mod:`repro.core.regularizers`); empty for the paper's solvers.
    regularizer_losses: tuple[float, ...] = ()

    @property
    def total(self) -> float:
        total = (
            self.tweet_loss
            + self.user_loss
            + self.retweet_loss
            + self.lexicon_loss
            + self.graph_loss
            + self.temporal_loss
        )
        for value in self.regularizer_losses:
            total += value
        return total


@dataclass(frozen=True)
class ObjectiveStatics:
    """Per-matrix constants reused across objective evaluations.

    ``||X||²`` and the CSR-materialized transposes depend only on the
    data matrices, which are fixed for a whole fit — but the objective
    is evaluated every sweep, and recomputing them dominates the
    evaluation cost on small shard blocks.  CSR-transposing changes
    neither values nor accumulation order, so evaluations through a
    statics bundle are bit-identical to the lazy path (tested).
    """

    xp_sq: float
    xu_sq: float
    xr_sq: float
    xp_T: MatrixLike
    xu_T: MatrixLike

    @classmethod
    def from_matrices(
        cls, xp: MatrixLike, xu: MatrixLike, xr: MatrixLike
    ) -> "ObjectiveStatics":
        return cls(
            xp_sq=frobenius_sq(xp),
            xu_sq=frobenius_sq(xu),
            xr_sq=frobenius_sq(xr),
            xp_T=xp.T.tocsr() if sp.issparse(xp) else np.asarray(xp).T,
            xu_T=xu.T.tocsr() if sp.issparse(xu) else np.asarray(xu).T,
        )


def _dot(x: MatrixLike, dense: np.ndarray, spmm: object | None) -> np.ndarray:
    """``x @ dense`` through an optional spmm engine (bit-identical)."""
    if spmm is not None:
        return spmm.matmul(x, dense)
    # repro-lint: disable=REP001 -- the sanctioned scipy-reference fallback
    # used when no spmm engine is configured; engines match it bit for bit.
    return np.asarray(x @ dense)


def trifactor_loss(
    x: MatrixLike,
    a: np.ndarray,
    h: np.ndarray,
    b: np.ndarray,
    x_sq: float | None = None,
    x_T: MatrixLike | None = None,
    spmm: object | None = None,
    a_gram: np.ndarray | None = None,
    b_gram: np.ndarray | None = None,
) -> float:
    """``||X − A·H·Bᵀ||²`` without densifying ``X``.

    ``x_sq``/``x_T`` optionally supply the precomputed ``||X||²`` and
    transpose (see :class:`ObjectiveStatics`); ``spmm`` an optional
    :class:`~repro.core.spmm.SpmmEngine` for the sparse cross term;
    ``a_gram``/``b_gram`` the grams ``AᵀA``/``BᵀB`` (the same products,
    so the value is unchanged bitwise).
    """
    ah = a @ h
    if x_T is None:
        x_T = x.T if sp.issparse(x) else np.asarray(x).T
    cross = float(np.sum(_dot(x_T, ah, spmm) * b))
    if a_gram is None:
        a_gram = a.T @ a
    if b_gram is None:
        b_gram = b.T @ b
    gram = b_gram @ (h.T @ a_gram @ h)
    if x_sq is None:
        x_sq = frobenius_sq(x)
    return max(x_sq - 2.0 * cross + float(np.trace(gram)), 0.0)


def bifactor_loss(
    x: MatrixLike,
    a: np.ndarray,
    b: np.ndarray,
    x_sq: float | None = None,
    spmm: object | None = None,
    a_gram: np.ndarray | None = None,
    b_gram: np.ndarray | None = None,
) -> float:
    """``||X − A·Bᵀ||²`` without densifying ``X`` (grams as in
    :func:`trifactor_loss`)."""
    cross = float(np.sum(_dot(x, b, spmm) * a))
    if a_gram is None:
        a_gram = a.T @ a
    if b_gram is None:
        b_gram = b.T @ b
    gram = a_gram @ b_gram
    if x_sq is None:
        x_sq = frobenius_sq(x)
    return max(x_sq - 2.0 * cross + float(np.trace(gram)), 0.0)


def _gram(name: str, factor: np.ndarray) -> np.ndarray:
    """``factorᵀ·factor``, the uncached :meth:`SweepCache.gram`."""
    del name
    return factor.T @ factor


def graph_penalty(
    su: np.ndarray,
    laplacian: MatrixLike,
    spmm: object | None = None,
) -> float:
    """``tr(Suᵀ·Lu·Su)`` (non-negative for a PSD Laplacian)."""
    return max(float(np.sum(su * _dot(laplacian, su, spmm))), 0.0)


def compute_objective(
    factors: FactorSet,
    xp: MatrixLike,
    xu: MatrixLike,
    xr: MatrixLike,
    laplacian: MatrixLike,
    weights: ObjectiveWeights,
    sf_prior: np.ndarray | None = None,
    su_prior: np.ndarray | None = None,
    su_prior_rows: np.ndarray | None = None,
    statics: ObjectiveStatics | None = None,
    spmm: object | None = None,
    gu_halo: MatrixLike | None = None,
    su_halo: np.ndarray | None = None,
    cache: SweepCache | None = None,
    regularizers: Sequence[Regularizer] = (),
) -> ObjectiveValue:
    """Evaluate every component of the (offline or online) objective.

    Parameters
    ----------
    sf_prior:
        ``Sf0`` offline, ``Sfw(t)`` online; ``None`` drops the α term.
    su_prior / su_prior_rows:
        Online only: decayed user history ``Suw(t)`` and the row indices
        (evolving users) it constrains.  ``None`` drops the γ term.
    statics:
        Optional precomputed data-matrix constants; evaluations with and
        without them are bit-identical (the sharded solver evaluates the
        objective once per shard per sweep and amortizes these).
    spmm:
        Optional :class:`~repro.core.spmm.SpmmEngine` for the sparse
        products (float64 bit-identical, speed-only).
    gu_halo, su_halo:
        Sharded cut-edge remainder: the halo CSR block and the
        exchanged neighbour ``Su`` rows.  The graph term becomes
        ``tr(Suᵀ(Dfull − Gblock)Su) − Σ Su∘(Gu_halo·Su_halo)`` — each
        cut edge contributes half its full-graph penalty from each
        endpoint shard, so shard-summed graph losses reproduce the
        unsharded ``tr(SuᵀLuSu)`` exactly.  A single shard's cross term
        is *not* clamped (it can exceed the local part transiently);
        only the shard sum is guaranteed non-negative.
    cache:
        Optional :class:`~repro.core.sweepcache.SweepCache` of the
        solve: the factor grams come from its memo, shared with the
        update rules of the same iterate (bit-identical either way).
    """
    # Each factor's gram enters two loss terms; it is computed once.
    gram = _gram if cache is None else cache.gram
    sf_gram = gram("sf", factors.sf)
    sp_gram = gram("sp", factors.sp)
    su_gram = gram("su", factors.su)
    if statics is None:
        tweet_loss = trifactor_loss(
            xp, factors.sp, factors.hp, factors.sf, spmm=spmm,
            a_gram=sp_gram, b_gram=sf_gram,
        )
        user_loss = trifactor_loss(
            xu, factors.su, factors.hu, factors.sf, spmm=spmm,
            a_gram=su_gram, b_gram=sf_gram,
        )
        retweet_loss = bifactor_loss(
            xr, factors.su, factors.sp, spmm=spmm,
            a_gram=su_gram, b_gram=sp_gram,
        )
    else:
        tweet_loss = trifactor_loss(
            xp, factors.sp, factors.hp, factors.sf,
            x_sq=statics.xp_sq, x_T=statics.xp_T, spmm=spmm,
            a_gram=sp_gram, b_gram=sf_gram,
        )
        user_loss = trifactor_loss(
            xu, factors.su, factors.hu, factors.sf,
            x_sq=statics.xu_sq, x_T=statics.xu_T, spmm=spmm,
            a_gram=su_gram, b_gram=sf_gram,
        )
        retweet_loss = bifactor_loss(
            xr, factors.su, factors.sp, x_sq=statics.xr_sq, spmm=spmm,
            a_gram=su_gram, b_gram=sp_gram,
        )

    lexicon_loss = 0.0
    if sf_prior is not None and weights.alpha > 0:
        diff = factors.sf - sf_prior
        lexicon_loss = weights.alpha * float(np.sum(diff * diff))

    graph_loss = 0.0
    if weights.beta > 0:
        penalty = graph_penalty(factors.su, laplacian, spmm=spmm)
        if gu_halo is not None and su_halo is not None and gu_halo.nnz:
            penalty -= float(
                np.sum(factors.su * _dot(gu_halo, su_halo, spmm))
            )
        graph_loss = weights.beta * penalty

    temporal_loss = 0.0
    if su_prior is not None and weights.gamma > 0:
        rows = (
            su_prior_rows
            if su_prior_rows is not None
            else np.arange(factors.su.shape[0])
        )
        diff = factors.su[rows] - su_prior
        temporal_loss = weights.gamma * float(np.sum(diff * diff))

    return ObjectiveValue(
        tweet_loss=tweet_loss,
        user_loss=user_loss,
        retweet_loss=retweet_loss,
        lexicon_loss=lexicon_loss,
        graph_loss=graph_loss,
        temporal_loss=temporal_loss,
        regularizer_losses=tuple(
            regularizer.objective(factors) for regularizer in regularizers
        ),
    )
