"""Pluggable sparse·dense product engines for the sweep hot path.

PR 6 made the element-wise sweep tails hardware-fast, which left the
sweeps Amdahl-limited by scipy's sparse·dense products — every
multiplicative update is dominated by an ``X @ H``-shaped CSR×dense
product (``O(nnz·k)``), and scipy evaluates it with one scalar loop on
one core.  This module makes that layer pluggable, mirroring the
:mod:`repro.core.kernels` registry pattern:

* :class:`ScipySpmmEngine` — the always-available reference: exactly
  the ``np.asarray(x @ dense)`` expression the call sites historically
  inlined, so the default path is unchanged to the bit and to the
  nanosecond.
* :class:`NumbaSpmmEngine` — an ``@njit(parallel=True, cache=True)``
  ``prange`` row loop, compiled lazily when :mod:`numba` is importable.
  One pass, no Python dispatch per block, and ``cache=True`` so forked
  workers reuse the on-disk compilation instead of re-JITting.

The removed ``"threads"`` name is refused with its reason; configs and
checkpoints that record it load as ``"scipy"`` (the same bits).

**Why the numba engine is bit-identical in float64.**  scipy's
``csr_matvecs`` accumulates each output row in storage (column-index)
order: ``out[i, j] += data[jj] * dense[indices[jj], j]`` for ``jj`` in
``indptr[i]..indptr[i+1]``.  The numba loop partitions work *by output
row* and keeps that per-row accumulation order verbatim, so the
float64 result is bit-identical to scipy by construction at any thread
count — parallelism only changes *which core* owns a row, never the
order of the additions within it.  Row-parallelism requires the CSR
layout, which is why the engine advertises :attr:`SpmmEngine.prefers_csr`
and :class:`~repro.core.sweepcache.SweepCache` materializes its CSR
transposes for it regardless of the working-set budget.  Operands the
engine cannot row-parallelize (lazy CSC ``.T`` views, dense matrices,
mixed dtypes) fall back to the scipy expression — same bits, so the
fallback is invisible to results.

Engine selection mirrors the kernel registry: solver constructors accept
a *name* (``"auto"``, ``"scipy"``, ``"numba"``) or a ready-made
:class:`SpmmEngine` instance.  ``"auto"`` resolves to numba when
importable and scipy otherwise.  Requesting ``"numba"`` explicitly
without numba raises.  The solve loop resolves the engine once per
solve; out-of-process shard payloads carry its concrete name
(:func:`resolve_spmm_name`), so heterogeneous fleets run one
implementation.

Thread budgets come from :mod:`repro.utils.threads`: an explicit
``spmm_threads=`` wins, else the process default installed by worker
mains (their fair share ``affinity_cores // pool_width``), else the
affinity core count — so W workers × T spmm threads never
oversubscribes the machine.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.kernels import numba_available
from repro.utils.threads import spmm_thread_default

#: Engine names accepted by solver constructors and ``SolverConfig``.
SPMM_ENGINES = ("auto", "scipy", "numba")

MatrixLike = np.ndarray | sp.spmatrix


def validate_spmm(spmm: object) -> None:
    """Raise ``ValueError`` unless ``spmm`` is a known name or instance."""
    if isinstance(spmm, SpmmEngine):
        return
    if spmm == "threads":
        raise ValueError(
            "spmm='threads' was removed: it was slower than 'scipy' and "
            "computed the same bits; use 'scipy' or 'auto'"
        )
    if spmm not in SPMM_ENGINES:
        raise ValueError(
            f"spmm must be one of {SPMM_ENGINES} or an SpmmEngine "
            f"instance, got {spmm!r}"
        )


def validate_spmm_threads(threads: object) -> None:
    """Raise ``ValueError`` unless ``threads`` is ``None`` or an int ≥ 1."""
    if threads is None:
        return
    if not isinstance(threads, int) or isinstance(threads, bool) or threads < 1:
        raise ValueError(
            f"spmm_threads must be a positive int or None, got {threads!r}"
        )


def _resolve_threads(threads: int | None) -> int:
    validate_spmm_threads(threads)
    return int(threads) if threads is not None else spmm_thread_default()


class SpmmEngine:
    """Base sparse·dense product engine (the scipy reference path).

    ``matmul`` must return ``np.asarray(x @ dense)`` bit for bit in
    float64 — subclasses may only change *how fast* that value is
    produced.  ``prefers_csr`` tells :class:`~repro.core.sweepcache.
    SweepCache` that this engine row-parallelizes CSR operands, so the
    cache should materialize its CSR transposes past the working-set
    budget too (the lazy CSC view would silently fall back to scipy).
    """

    name = "scipy"
    #: Whether CSR-materialized operands unlock this engine's fast path.
    prefers_csr = False
    #: Resolved thread budget (1 for the serial reference engine).
    threads = 1

    def matmul(self, x: MatrixLike, dense: np.ndarray) -> np.ndarray:
        """``x @ dense`` as a plain ndarray, for sparse or dense ``x``."""
        return np.asarray(x @ dense)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name} threads={self.threads}>"


class ScipySpmmEngine(SpmmEngine):
    """Alias of the base implementation, for explicit construction."""


class NumbaSpmmEngine(SpmmEngine):
    """``prange`` row-parallel CSR×dense, compiled lazily via numba.

    The jitted loop replays scipy's per-row accumulation verbatim
    (``jj`` in storage order, inner loop over the ``k`` columns), so
    float64 results are bit-identical to scipy at any thread count.
    ``fastmath`` stays off — it would license FMA contraction and
    reassociation, either of which breaks the contract.  Operands the
    loop cannot handle (non-CSR, mismatched dtypes, 1-d dense) fall
    back to the scipy expression, which produces the same bits.
    """

    name = "numba"
    prefers_csr = True

    def __init__(self, threads: int | None = None) -> None:
        if not numba_available():  # pragma: no cover - exercised via tests
            raise RuntimeError(
                "NumbaSpmmEngine requires numba, which is not importable"
            )
        self.threads = _resolve_threads(threads)
        self._impl = _numba_spmm_impl()

    def matmul(self, x: MatrixLike, dense: np.ndarray) -> np.ndarray:  # pragma: no cover - needs numba
        if (
            not sp.issparse(x)
            or x.format != "csr"
            or getattr(dense, "ndim", 0) != 2
            or x.dtype != dense.dtype
            or x.dtype not in (np.float64, np.float32)
        ):
            return np.asarray(x @ dense)
        import numba

        operand = np.ascontiguousarray(dense)
        out = np.zeros((x.shape[0], dense.shape[1]), dtype=x.dtype)
        ceiling = int(numba.config.NUMBA_NUM_THREADS)
        limit = max(1, min(self.threads, ceiling))
        previous = numba.get_num_threads()
        numba.set_num_threads(limit)
        try:
            self._impl(x.indptr, x.indices, x.data, operand, out)
        finally:
            numba.set_num_threads(previous)
        return out


_NUMBA_SPMM_CACHE = None


def _numba_spmm_impl():  # pragma: no cover - needs numba
    """Build (once) the jitted row-parallel CSR×dense dispatcher."""
    global _NUMBA_SPMM_CACHE
    if _NUMBA_SPMM_CACHE is not None:
        return _NUMBA_SPMM_CACHE
    from numba import njit, prange

    @njit(parallel=True, cache=True)
    def csr_matmul(indptr, indices, data, dense, out):
        rows, cols = out.shape
        for i in prange(rows):
            for jj in range(indptr[i], indptr[i + 1]):
                value = data[jj]
                row = indices[jj]
                for j in range(cols):
                    out[i, j] += value * dense[row, j]

    _NUMBA_SPMM_CACHE = csr_matmul
    return _NUMBA_SPMM_CACHE


_SCIPY_ENGINE = ScipySpmmEngine()

#: Constructed numba engines keyed by resolved thread budget, shared
#: across solver instances.
_ENGINES: dict[int, SpmmEngine] = {}


def resolve_spmm(
    spmm: object = "auto", threads: int | None = None
) -> SpmmEngine:
    """Resolve an engine name (or pass through an instance) to an engine.

    ``"auto"`` picks numba when importable and scipy otherwise.  An explicit
    ``"numba"`` request without numba raises, because silently falling
    back would invalidate a benchmark that believes it is measuring the
    compiled engine.
    """
    if isinstance(spmm, SpmmEngine):
        return spmm
    validate_spmm(spmm)
    validate_spmm_threads(threads)
    if spmm == "auto":
        spmm = "numba" if numba_available() else "scipy"
    if spmm == "scipy":
        return _SCIPY_ENGINE
    if spmm == "numba" and not numba_available():
        raise RuntimeError(
            "spmm='numba' was requested but numba is not importable; "
            "install numba or use spmm='auto' (which falls back to the "
            "bit-identical scipy engine)"
        )
    resolved = _resolve_threads(threads)
    engine = _ENGINES.get(resolved)
    if engine is None:
        engine = _ENGINES[resolved] = NumbaSpmmEngine(threads=resolved)
    return engine


def get_spmm(name: str, threads: int | None = None) -> SpmmEngine:
    """Resolve a *concrete* engine name (``"scipy"``/``"numba"``).

    Used by out-of-process shard workers, which receive the already
    auto-resolved name in their shard payload so every shard runs the
    implementation the coordinator chose.
    """
    return resolve_spmm(name, threads)


def resolve_spmm_name(spmm: object = "auto") -> str:
    """Auto-resolve an spmm choice to its concrete name.

    The solve loop pins out-of-process shard payloads with this, so
    ``"auto"`` means "whatever the coordinator has", not "whatever each
    worker host happens to have" — the same cross-host determinism pin
    the kernel registry applies.  An unregistered instance pins to
    ``"scipy"`` (in-process solves use it as is).
    """
    if isinstance(spmm, SpmmEngine):
        return spmm.name if spmm.name in SPMM_ENGINES else "scipy"
    validate_spmm(spmm)
    if spmm == "auto":
        return "numba" if numba_available() else "scipy"
    return str(spmm)


def default_spmm() -> SpmmEngine:
    """The engine used when products are computed without an explicit one."""
    return _SCIPY_ENGINE
