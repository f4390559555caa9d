"""Per-sweep memoization of shared matrix products.

One cyclic sweep of the multiplicative updates (Algorithm 1 order
``Sp, Hp, Su, Hu, Sf``; Algorithm 2 order ``Sf, Sp, Hp, Hu, Su``)
recomputes several products whose inputs have not changed between the
individual update calls:

- ``Xp·Sf`` appears in both the ``Sp`` and ``Hp`` updates,
- ``Xu·Sf`` appears in both the ``Su`` and ``Hu`` updates,
- ``Sfᵀ·Sf`` appears in both the ``Hp`` and ``Hu`` denominators.

The sparse-dense products dominate the sweep cost (``O(nnz·k)`` each),
so computing each of them once per sweep instead of twice is a direct
hot-path win without changing a single floating-point operation: the
cache returns the *same* array the uncached code path would have
computed, so solver trajectories are bit-identical.

The same memo holds the products the per-sweep objective shares with
the pass (see :mod:`repro.core.objective`):

- ``Xpᵀ·Sp`` and ``Xuᵀ·Su`` — formed for the shard's ``Sf``
  contribution, then read by the tweet and user losses as
  ``⟨(XᵀA)·H, B⟩``;
- ``Xr·Sp`` — formed by the ``Su`` update, then read by the retweet
  loss;
- the solve's three squared norms ``‖Xp‖²``, ``‖Xu‖²``, ``‖Xr‖²``,
  computed on first use (inside the shard command, so a sharded solve
  computes them in parallel on the workers).

A memoized array is shared by every reader of the same iterate, so no
caller may write into one (none is ever the accumulator of
:meth:`~repro.core.kernels.Kernel.accumulate`).

Beyond the memo, the cache holds *per-solve* CSR materializations of
the data-matrix transposes (``Xrᵀ``, ``Xpᵀ``, ``Xuᵀ``), built on first
use.  The lazy ``.T`` view of a CSR matrix is CSC, and a CSC @ dense
product scatters into its (potentially huge) output instead of
streaming through it row by row; materializing the transpose as CSR
makes every subsequent ``Xrᵀ·Su`` / ``Xpᵀ·Sp`` / ``Xuᵀ·Su`` product a
sequential-write CSR product.  CSR-materializing a transpose changes
neither the values nor the per-row accumulation order of those
products, so results stay bitwise identical (tested).

Which layout is *faster* depends on scale, so the transpose accessors
apply a working-set policy (see :data:`TRANSPOSE_OPERAND_BUDGET`): the
CSR form gathers random rows of its dense operand and wins only while
that operand is cache-resident; once factors outgrow the cache, the CSC
view wins — it streams the dense operand sequentially and scatters into
an output that is itself small (``l×k`` or ``n×k`` against a much
larger operand).  Above the budget the accessors return ``None`` and
callers fall back to the lazy view.  Both paths being bitwise equal,
the policy is purely a speed decision — it can never change a result.

A :class:`SweepCache` is keyed by *object identity* of the dependency
factors.  Every update rule returns a freshly allocated array, so a
factor that changed between two lookups never aliases its predecessor;
holding a reference to the dependency inside the memo keeps ``is``
comparisons sound (the id cannot be recycled while the entry lives).
Solvers create one cache per fit/partial_fit and simply pass it into
every update call — invalidation is automatic.
"""

from __future__ import annotations

import operator
from collections.abc import Callable

import numpy as np
import scipy.sparse as sp

from repro.core.spmm import SpmmEngine, default_spmm
from repro.utils.matrices import frobenius_sq

MatrixLike = np.ndarray | sp.spmatrix

#: Per-column byte budget for the dense operand of a materialized-CSR
#: transpose product (``Xpᵀ·Sp`` gathers rows of ``Sp``, ``Xrᵀ·Su`` and
#: ``Xuᵀ·Su`` rows of ``Su``).  Measured on CPU: the CSR gather wins
#: while ``operand_rows × itemsize`` stays within roughly one L2 of
#: per-column footprint, and loses — by up to 2x at hundreds of
#: thousands of rows — once the gathers turn into cache misses, where
#: the lazy CSC scatter-into-small-output path streams instead.  The
#: threshold is shape-and-itemsize deterministic, so every shard and
#: backend of one problem makes the same (bitwise-neutral) choice.
TRANSPOSE_OPERAND_BUDGET = 256 * 1024


def _or_view(materialized: MatrixLike | None, x: MatrixLike) -> MatrixLike:
    """A transpose accessor's answer, or the lazy ``.T`` view of ``x``."""
    return x.T if materialized is None else materialized


class SweepCache:
    """Identity-memoized shared products for one solver run.

    Parameters
    ----------
    xp, xu:
        The (fixed) data matrices whose products are memoized.
    xr:
        Optional user-tweet incidence matrix.  When provided, ``Xrᵀ`` is
        materialized as CSR once per solve (see :meth:`xr_T`) so the
        per-sweep ``Xrᵀ·Su`` products stream instead of scatter.  The
        ``Xr·Sp`` product needs no help — ``Xr`` is already CSR.
    spmm:
        Optional :class:`~repro.core.spmm.SpmmEngine` that evaluates the
        sparse·dense products routed through :meth:`dot` (``None`` uses
        the scipy reference engine).  Engines are bit-identical in
        float64, so the choice is speed-only; an engine with
        ``prefers_csr`` additionally overrides the transpose layout
        policy (see :meth:`_materialize_wins`) because its row-parallel
        fast path needs the materialized CSR form.
    """

    def __init__(
        self,
        xp: MatrixLike,
        xu: MatrixLike,
        xr: MatrixLike | None = None,
        spmm: SpmmEngine | None = None,
    ) -> None:
        self.xp = xp
        self.xu = xu
        self.xr = xr
        self.spmm = spmm if spmm is not None else default_spmm()
        self._transposes: dict[str, MatrixLike] = {}
        self._memo: dict[str, tuple[tuple[np.ndarray, ...], np.ndarray]] = {}
        self._norms: list[tuple[MatrixLike, float]] = []
        self._hits = 0
        self._misses = 0

    def dot(self, x: MatrixLike, dense: np.ndarray) -> np.ndarray:
        """``x @ dense`` through this cache's spmm engine.

        The uncached-update call sites route their products here so one
        solver-level knob selects the engine for every product of a
        solve; engines are float64 bit-identical, so this never changes
        a result.
        """
        return self.spmm.matmul(x, dense)

    # ------------------------------------------------------------------ #
    # Memoization machinery
    # ------------------------------------------------------------------ #

    def _get(
        self,
        key: str,
        deps: tuple[np.ndarray, ...],
        compute: Callable[[], np.ndarray],
    ) -> np.ndarray:
        entry = self._memo.get(key)
        if entry is not None:
            cached_deps, value = entry
            if all(map(operator.is_, cached_deps, deps)):
                self._hits += 1
                return value
        value = compute()
        self._memo[key] = (deps, value)
        self._misses += 1
        return value

    @property
    def hits(self) -> int:
        """Lookups answered from the memo (telemetry for benches/tests)."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lookups that had to compute (first use or stale dependency)."""
        return self._misses

    # ------------------------------------------------------------------ #
    # Sparse-dense products (the expensive ones)
    # ------------------------------------------------------------------ #

    def xp_sf(self, sf: np.ndarray) -> np.ndarray:
        """``Xp·Sf`` — shared by the ``Sp`` and ``Hp`` updates."""
        return self._get("xp_sf", (sf,), lambda: self.dot(self.xp, sf))

    def xu_sf(self, sf: np.ndarray) -> np.ndarray:
        """``Xu·Sf`` — shared by the ``Su`` and ``Hu`` updates."""
        return self._get("xu_sf", (sf,), lambda: self.dot(self.xu, sf))

    def xp_T_sp(self, sp_factor: np.ndarray) -> np.ndarray:
        """``Xpᵀ·Sp`` — the ``Sf`` contribution's and the tweet loss's."""
        return self._get(
            "xp_T_sp", (sp_factor,),
            lambda: self.dot(_or_view(self.xp_T(), self.xp), sp_factor),
        )

    def xu_T_su(self, su: np.ndarray) -> np.ndarray:
        """``Xuᵀ·Su`` — the ``Sf`` contribution's and the user loss's."""
        return self._get(
            "xu_T_su", (su,),
            lambda: self.dot(_or_view(self.xu_T(), self.xu), su),
        )

    def xr_sp(self, xr: MatrixLike, sp_factor: np.ndarray) -> np.ndarray:
        """``Xr·Sp`` — the ``Su`` update's and the retweet loss's.

        Keyed by ``xr`` as well: a cache built without ``xr`` still
        serves callers that bring their own.
        """
        return self._get(
            "xr_sp", (xr, sp_factor), lambda: self.dot(xr, sp_factor)
        )

    # ------------------------------------------------------------------ #
    # Per-solve constants
    # ------------------------------------------------------------------ #

    def norm_sq(self, x: MatrixLike) -> float:
        """``‖X‖²`` of one of the solve's data matrices, computed on
        first use and kept for the solve (keyed by identity)."""
        for matrix, value in self._norms:
            if matrix is x:
                return value
        value = frobenius_sq(x)
        self._norms.append((x, value))
        return value

    # ------------------------------------------------------------------ #
    # Per-solve CSR transposes (bitwise-equal to the lazy ``.T`` views)
    # ------------------------------------------------------------------ #

    def _materialize_wins(self, operand_rows: int, itemsize: int) -> bool:
        """Working-set policy behind the transpose accessors.

        An spmm engine that ``prefers_csr`` overrides the budget: its
        row-parallel fast path only engages on materialized CSR (a lazy
        CSC view falls back to scipy's serial product), and the parallel
        win dominates the gather-vs-stream trade the budget models.
        Either layout is bitwise equal, so this stays speed-only.
        """
        if self.spmm.prefers_csr:
            return True
        return operand_rows * itemsize <= TRANSPOSE_OPERAND_BUDGET

    def _transpose(self, name: str) -> MatrixLike | None:
        """CSR-materialized transpose of data matrix ``name``, or
        ``None`` to use the lazy view.

        ``None`` means either the matrix is absent or the dense operand
        of its transposed product (one row per matrix row) is past
        :data:`TRANSPOSE_OPERAND_BUDGET`, where the lazy CSC view
        streams it faster than the CSR gather; no copy is made then.
        The two forms are bitwise interchangeable, so the choice is
        speed-only.
        """
        x = getattr(self, name)
        if x is None or not self._materialize_wins(x.shape[0], x.dtype.itemsize):
            return None
        if name not in self._transposes:
            self._transposes[name] = x.T.tocsr() if sp.issparse(x) else x.T
        return self._transposes[name]

    def xr_T(self) -> MatrixLike | None:
        """``Xrᵀ`` for the ``Xrᵀ·Su`` product (see :meth:`_transpose`)."""
        return self._transpose("xr")

    def xp_T(self) -> MatrixLike | None:
        """``Xpᵀ`` for the ``Xpᵀ·Sp`` product (see :meth:`_transpose`)."""
        return self._transpose("xp")

    def xu_T(self) -> MatrixLike | None:
        """``Xuᵀ`` for the ``Xuᵀ·Su`` product (see :meth:`_transpose`)."""
        return self._transpose("xu")

    # ------------------------------------------------------------------ #
    # Dense grams
    # ------------------------------------------------------------------ #

    def gram(self, name: str, factor: np.ndarray) -> np.ndarray:
        """``factorᵀ·factor`` memoized under slot ``name`` (sf/sp/su).

        The slot name only namespaces the memo entry; staleness is
        decided by the identity of ``factor`` itself.
        """
        return self._get(f"gram:{name}", (factor,), lambda: factor.T @ factor)

    def assoc_denominator(
        self, name: str, factor: np.ndarray, h: np.ndarray, sf: np.ndarray
    ) -> np.ndarray:
        """``(SᵀS)·H·(SfᵀSf)`` — the ``Hp``/``Hu`` denominator chain.

        Batches the small-gram evaluation of one association update into
        a single memo transaction: the factor gram, the ``Sf`` gram, and
        the two ``k×k`` chain products are produced (and keyed) together
        instead of as three independent lookups.  At small shard sizes —
        where Python/BLAS dispatch *is* the workload — this halves the
        per-update memo traffic; the expression and its left-to-right
        association order are exactly what the uncached code computed,
        so results are bit-identical.
        """

        def compute() -> np.ndarray:
            return self.gram(name, factor) @ h @ self.gram("sf", sf)

        return self._get(f"assoc_den:{name}", (factor, h, sf), compute)
