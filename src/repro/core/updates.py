"""Multiplicative update kernels (Section 3.1 and Section 4.1).

Every rule has the shape ``S ← S ∘ sqrt(numerator / denominator)`` where
the numerator collects the negative part of the KKT gradient and the
denominator the positive part.

The orthogonality-constrained factors (``Sf``, ``Sp``, ``Su``) use the
closed form of Ding et al. [9], the source the paper cites for its
rules ("following the updating rules proposed and proved in [9]").  The
Lagrangian ``Δ`` of the paper's derivation (Eqs. 7, 9, 11, 24, 26) is
absorbed via ``S·Δ + S·(gram) = S·Sᵀ·N``, yielding all-non-negative
numerators and denominators and stable iterations.  Graph-regularization
terms stay explicit with the standard ``Du``/``Gu`` split (provably
monotone for GNMF-style objectives).

``Hp``/``Hu`` (Eqs. 12, 13) are the plain, provably non-increasing NMF
updates.

Sparse data matrices are consumed as ``scipy.sparse`` and only multiplied
against ``k``-column dense factors; the projector ``S·Sᵀ·N`` is evaluated
as ``S·(Sᵀ·N)`` so every update is ``O(nnz·k + rows·k²)``.

Every rule accepts an optional :class:`~repro.core.sweepcache.SweepCache`;
when provided, products whose inputs are unchanged since an earlier update
in the same sweep (``Xp·Sf``, ``Xu·Sf``, the factor grams) are reused
instead of recomputed, and CSR-materialized data-matrix transposes
replace the lazy ``.T`` views in the ``Xrᵀ·Su`` / ``Xpᵀ·Sp`` / ``Xuᵀ·Su``
products whenever the cache's working-set policy says the CSR layout
wins (see :data:`repro.core.sweepcache.TRANSPOSE_OPERAND_BUDGET`).  The
cached path evaluates the exact same expressions (CSR materialization
preserves per-row accumulation order), so results are bit-identical to
the uncached path either way.

Every rule also accepts an optional
:class:`~repro.core.kernels.Kernel` that evaluates the fused element-wise
tail ``S ∘ sqrt(max(num, 0)/max(den, EPS))``; when omitted, the NumPy
kernel is used.  Kernels are bit-compatible with each other in float64
(see :mod:`repro.core.kernels`), so this choice affects speed only.

The ``Sp``, ``Su`` and ``Sf`` rules also take ``regularization``, the
``(numerator, denominator)`` additions of a Section 7 regularizer stack
(:func:`repro.core.regularizers.stack_terms`), added in stack order
before a plain ``multiply_tail``; without them the fused tails run.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import scipy.sparse as sp

from repro.core.kernels import Kernel, default_kernel
from repro.core.sweepcache import SweepCache

MatrixLike = np.ndarray | sp.spmatrix


def _dot(x: MatrixLike, dense: np.ndarray) -> np.ndarray:
    """``x @ dense`` returning a plain ndarray for sparse or dense ``x``."""
    # repro-lint: disable=REP001 -- the sanctioned scipy-reference fallback
    # used when no spmm engine is configured; engines are defined to match
    # this expression bit for bit.
    return np.asarray(x @ dense)


def _cache_dot(
    cache: SweepCache | None, x: MatrixLike, dense: np.ndarray
) -> np.ndarray:
    """``x @ dense`` through the cache's spmm engine when one is present.

    Engines are float64 bit-identical (see :mod:`repro.core.spmm`), so
    routing through the cache never changes a result — it only lets one
    solver-level knob accelerate every product of a sweep.
    """
    if cache is not None:
        return cache.dot(x, dense)
    return _dot(x, dense)


def _project(s: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``S·Sᵀ·N`` computed as ``S·(Sᵀ·N)`` — O(rows·k²)."""
    return s @ (s.T @ n)


def _regularized_tail(
    kernel: Kernel,
    s: np.ndarray,
    numerator: np.ndarray,
    denominator: np.ndarray,
    regularization: Sequence[tuple],
) -> np.ndarray:
    """The multiplicative tail after adding each regularizer's terms."""
    for extra_numerator, extra_denominator in regularization:
        numerator = numerator + extra_numerator
        denominator = denominator + extra_denominator
    return kernel.multiply_tail(s, numerator, denominator)


# --------------------------------------------------------------------- #
# Association factors (plain NMF updates)
# --------------------------------------------------------------------- #


def update_hp(
    hp: np.ndarray,
    sp_factor: np.ndarray,
    sf: np.ndarray,
    xp: MatrixLike,
    cache: SweepCache | None = None,
    kernel: Kernel | None = None,
) -> np.ndarray:
    """Eq. (12): ``Hp ← Hp ∘ sqrt(SpᵀXpSf / SpᵀSpHpSfᵀSf)``."""
    kernel = kernel if kernel is not None else default_kernel()
    xp_sf = cache.xp_sf(sf) if cache is not None else _dot(xp, sf)
    if cache is not None:
        denominator = cache.assoc_denominator("sp", sp_factor, hp, sf)
    else:
        denominator = (sp_factor.T @ sp_factor) @ hp @ (sf.T @ sf)
    numerator = sp_factor.T @ xp_sf
    return kernel.multiply_tail(hp, numerator, denominator)


def update_hu(
    hu: np.ndarray,
    su: np.ndarray,
    sf: np.ndarray,
    xu: MatrixLike,
    cache: SweepCache | None = None,
    kernel: Kernel | None = None,
) -> np.ndarray:
    """Eq. (13): ``Hu ← Hu ∘ sqrt(SuᵀXuSf / SuᵀSuHuSfᵀSf)``."""
    kernel = kernel if kernel is not None else default_kernel()
    xu_sf = cache.xu_sf(sf) if cache is not None else _dot(xu, sf)
    if cache is not None:
        denominator = cache.assoc_denominator("su", su, hu, sf)
    else:
        denominator = (su.T @ su) @ hu @ (sf.T @ sf)
    numerator = su.T @ xu_sf
    return kernel.multiply_tail(hu, numerator, denominator)


# --------------------------------------------------------------------- #
# Tweet factor
# --------------------------------------------------------------------- #


def update_sp(
    sp_factor: np.ndarray,
    sf: np.ndarray,
    hp: np.ndarray,
    su: np.ndarray,
    xp: MatrixLike,
    xr: MatrixLike,
    cache: SweepCache | None = None,
    kernel: Kernel | None = None,
    regularization: Sequence[tuple] = (),
) -> np.ndarray:
    """Eq. (9) — tweet factor update.

    Attraction ``N = XpSfHpᵀ + XrᵀSu`` (how strongly tweet *i* matches
    class *j* through its words and its retweeters); the orthogonality
    projector ``Sp·Spᵀ·N`` is the repulsion.
    """
    kernel = kernel if kernel is not None else default_kernel()
    xp_sf = cache.xp_sf(sf) if cache is not None else _dot(xp, sf)
    xr_T = cache.xr_T() if cache is not None else None
    attraction = kernel.accumulate(                    # XpSfHpᵀ + XrᵀSu, n×k
        xp_sf @ hp.T, _cache_dot(cache, xr.T if xr_T is None else xr_T, su)
    )
    denominator = _project(sp_factor, attraction)
    if regularization:
        return _regularized_tail(
            kernel, sp_factor, attraction, denominator, regularization
        )
    return kernel.projector_tail(sp_factor, attraction, denominator)


# --------------------------------------------------------------------- #
# User factor (Eq. 11 offline, Eqs. 24 + 26 online)
# --------------------------------------------------------------------- #


def update_su_online(
    su: np.ndarray,
    sf: np.ndarray,
    hu: np.ndarray,
    sp_factor: np.ndarray,
    xu: MatrixLike,
    xr: MatrixLike,
    gu: MatrixLike,
    du: MatrixLike,
    beta: float,
    gamma: float = 0.0,
    su_prior: np.ndarray | None = None,
    evolving_rows: np.ndarray | None = None,
    cache: SweepCache | None = None,
    kernel: Kernel | None = None,
    gu_halo: MatrixLike | None = None,
    su_halo: np.ndarray | None = None,
    regularization: Sequence[tuple] = (),
) -> np.ndarray:
    """User factor update with graph regularization and temporal terms.

    Attraction ``N = XuSfHuᵀ + XrSp + β·GuSu`` (words, posted/retweeted
    tweets, and neighbours' sentiments pull a user toward a class);
    repulsion is the projector on the factorization part plus the degree
    term ``β·DuSu`` of the Laplacian split.  Without prior rows this is
    the offline Eq. (11), which online new-user rows follow too
    (Eq. 24); evolving-user rows follow Eq. (26), which adds ``γ·Suw``
    to the numerator and ``γ·Su`` to the denominator, pulling those rows
    toward their decayed history.

    Parameters
    ----------
    su_prior:
        ``Suw(t)`` rows for evolving users, aligned with ``evolving_rows``.
    evolving_rows:
        Row indices of evolving users within ``su``.
    gu_halo, su_halo:
        A sharded solve's cut-edge remainder: the halo CSR block over
        ghost columns and the neighbours' exchanged ``Su`` rows aligned
        with those columns.  Their product folds into ``GuSu`` before
        the kernel tail, so with the halo present the graph attraction
        matches the unsharded update exactly (``Du`` must then hold
        full-graph degrees; see ``graph/partition``).
    """
    kernel = kernel if kernel is not None else default_kernel()
    xu_sf = cache.xu_sf(sf) if cache is not None else _dot(xu, sf)
    factor_attraction = kernel.accumulate(             # XuSfHuᵀ + XrSp, m×k
        xu_sf @ hu.T, _cache_dot(cache, xr, sp_factor)
    )
    gu_su = _cache_dot(cache, gu, su)
    if gu_halo is not None and su_halo is not None and gu_halo.nnz:
        gu_su = gu_su + _cache_dot(cache, gu_halo, su_halo)
    du_su = _cache_dot(cache, du, su)
    projection = _project(su, factor_attraction)
    temporal = not (
        su_prior is None
        or evolving_rows is None
        or evolving_rows.size == 0
        or gamma <= 0.0
    )
    if not temporal and not regularization:
        return kernel.graph_tail(
            su, factor_attraction, projection, gu_su, du_su, beta
        )
    numerator, denominator = kernel.graph_terms(
        factor_attraction, projection, gu_su, du_su, beta
    )
    if temporal:
        numerator[evolving_rows] += gamma * su_prior
        denominator[evolving_rows] += gamma * su[evolving_rows]
    return _regularized_tail(kernel, su, numerator, denominator, regularization)


# --------------------------------------------------------------------- #
# Feature factor
# --------------------------------------------------------------------- #


def sf_sweep_contribution(
    sp_factor: np.ndarray,
    hp: np.ndarray,
    su: np.ndarray,
    hu: np.ndarray,
    xp: MatrixLike,
    xu: MatrixLike,
    xp_T: MatrixLike | None = None,
    xu_T: MatrixLike | None = None,
    spmm: object | None = None,
) -> np.ndarray:
    """One block's additive attraction to the ``Sf`` update (Eq. 7).

    The numerator term ``XuᵀSuHu + XpᵀSpHp`` sums over user and tweet
    *rows*, so a user-partitioned model computes it per shard and adds
    the ``l×k`` pieces — the separable half of the ``Sf`` sweep; a
    single block's contribution is the whole attraction.

    ``xp_T``/``xu_T`` optionally supply CSR-materialized transposes
    (the solve loop precomputes them per snapshot); sparse products
    through them accumulate in the same order as through the lazy
    ``.T`` views, so the result is unchanged bitwise.  ``spmm``
    optionally supplies an :class:`~repro.core.spmm.SpmmEngine` for the
    two transpose products (float64 bit-identical, speed-only).
    """
    dot = _dot if spmm is None else spmm.matmul
    attraction = dot(xu.T if xu_T is None else xu_T, su) @ hu      # l×k
    attraction += dot(xp.T if xp_T is None else xp_T, sp_factor) @ hp
    return attraction


def apply_sf_update(
    sf: np.ndarray,
    factor_attraction: np.ndarray,
    sf_prior: np.ndarray | None,
    alpha: float,
    kernel: Kernel | None = None,
    regularization: Sequence[tuple] = (),
) -> np.ndarray:
    """Projector-style ``Sf`` step from a reduced attraction.

    The non-separable half of the sweep: the orthogonality projector
    ``Sf·Sfᵀ·N`` and the α prior act on the *global* ``Sf`` once per
    sweep, after the per-shard attractions have been summed.  A
    regularizer stack replaces the α prior (regularized solves run at
    ``α = 0``).
    """
    kernel = kernel if kernel is not None else default_kernel()
    projection = _project(sf, factor_attraction)
    if regularization:
        return _regularized_tail(
            kernel, sf, factor_attraction, projection, regularization
        )
    if sf_prior is None or alpha == 0.0:
        return kernel.projector_tail(sf, factor_attraction, projection)
    return kernel.prior_tail(sf, factor_attraction, projection, sf_prior, alpha)


def update_sf(
    sf: np.ndarray,
    sp_factor: np.ndarray,
    hp: np.ndarray,
    su: np.ndarray,
    hu: np.ndarray,
    xp: MatrixLike,
    xu: MatrixLike,
    sf_prior: np.ndarray | None,
    alpha: float,
    cache: SweepCache | None = None,
    kernel: Kernel | None = None,
) -> np.ndarray:
    """Eq. (7) offline / Eq. (23) online — feature factor update.

    ``sf_prior`` is ``Sf0`` (offline) or the decayed aggregate ``Sfw(t)``
    (online); the two rules are otherwise identical.  The α prior enters
    the numerator as ``α·Sf0`` (pull toward the lexicon) and the
    denominator as ``α·Sf``.  A single-block composition of
    :func:`sf_sweep_contribution` and :func:`apply_sf_update`.
    """
    factor_attraction = sf_sweep_contribution(
        sp_factor,
        hp,
        su,
        hu,
        xp,
        xu,
        xp_T=cache.xp_T() if cache is not None else None,
        xu_T=cache.xu_T() if cache is not None else None,
        spmm=cache.spmm if cache is not None else None,
    )
    return apply_sf_update(sf, factor_attraction, sf_prior, alpha, kernel)
