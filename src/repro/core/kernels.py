"""Fused element-wise kernels for the multiplicative sweep tails.

Every projector-style update in :mod:`repro.core.updates` ends with the
same element-wise tail: assemble a numerator and a denominator from the
attraction/projection GEMM outputs (plus optional graph / prior terms) and
apply ``S <- S * sqrt(max(num, 0) / max(den, EPS))``.  Written naively with
NumPy that tail costs five full passes over ``rows x k`` temporaries; at
realistic scales (hundreds of thousands of users) those passes are pure
memory traffic.  This module fuses them:

* :class:`NumpyKernel` — the always-available fallback.  It evaluates the
  exact same IEEE operation sequence as the historical
  ``safe_sqrt_ratio``-based code (same maxima, same division, same square
  root, in the same order), but chains them through pre-allocated output
  buffers so the tail touches two temporaries instead of five.  Because
  every operation is element-wise, buffer reuse cannot change a single
  bit of the result.
* :class:`NumbaKernel` — ``@njit`` single-pass loops, compiled lazily on
  first use when :mod:`numba` is importable.  The loops perform the
  identical per-element operation sequence (no ``fastmath``, so LLVM may
  not contract ``a + b*c`` into an FMA or reorder the maxima), which makes
  the float64 results bit-identical to the NumPy kernel.  The win is one
  pass over memory instead of two, and no intermediate allocations.

Matrix products (the GEMMs and sparse products feeding the tails) are
*not* reimplemented here: BLAS/scipy already run them at hardware speed,
and a hand-rolled reduction could not stay bit-compatible with BLAS's
pairwise accumulation order.  The kernels deliberately cover only the
element-wise region where bit-exact fusion is possible.

Kernel selection mirrors the spmm idiom: solver constructors accept
a *name* (``"auto"``, ``"numpy"``, ``"numba"``) or a ready-made
:class:`Kernel` instance (used by the benchmarks to measure baseline
implementations).  ``"auto"`` resolves to numba when importable and numpy
otherwise; requesting ``"numba"`` explicitly on a host without numba is an
error rather than a silent fallback.

The module also owns the ``dtype`` registry for the opt-in float32 mode.
Float64 remains the default and keeps the repo's bit-identity guarantees;
float32 halves memory traffic on the bandwidth-bound sweeps and is
validated to track the float64 objective trajectory within a documented
tolerance (see ``tests/core/test_kernels.py``).
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp

from repro.utils.matrices import EPS

#: Kernel names accepted by solver constructors and ``SolverConfig``.
KERNELS = ("auto", "numpy", "numba")

#: Factor dtypes accepted by solver constructors and ``SolverConfig``.
#: float64 is the bit-identity default; float32 is the opt-in
#: bandwidth-saving mode.
DTYPES = ("float64", "float32")


@functools.cache
def numba_available() -> bool:
    """True when :mod:`numba` is importable in this interpreter.

    Cached: a failed import is not remembered by the import system, so
    every uncached probe would rescan ``sys.path`` — twice per solve.
    """
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def validate_kernel(kernel: object) -> None:
    """Raise ``ValueError`` unless ``kernel`` is a known name or instance."""
    if isinstance(kernel, Kernel):
        return
    if kernel not in KERNELS:
        raise ValueError(
            f"kernel must be one of {KERNELS} or a Kernel instance, "
            f"got {kernel!r}"
        )


def validate_dtype(dtype: str) -> None:
    """Raise ``ValueError`` unless ``dtype`` is a supported factor dtype."""
    if dtype not in DTYPES:
        raise ValueError(f"dtype must be one of {DTYPES}, got {dtype!r}")


def resolve_dtype(dtype: str) -> np.dtype:
    """Map a configured dtype name to the numpy dtype object."""
    validate_dtype(dtype)
    return np.dtype(dtype)


def resolve_kernel(kernel: object = "auto", threads: int | None = None) -> "Kernel":
    """Resolve a kernel name (or pass through an instance) to a kernel.

    ``"auto"`` picks numba when importable, numpy otherwise — so the same
    configuration runs everywhere, at the best speed available.  An
    explicit ``"numba"`` request on a host without numba raises, because
    silently falling back would invalidate a benchmark that believes it is
    measuring compiled kernels.

    ``threads`` is the tail thread budget for the numba kernel (the
    solvers pass their ``spmm_threads`` so tails and products share one
    budget); ``None`` uses the process default from
    :func:`repro.utils.threads.spmm_thread_default`.  Every tail is
    element-wise, so threading cannot change a bit of the result.
    """
    if isinstance(kernel, Kernel):
        return kernel
    validate_kernel(kernel)
    if kernel == "numpy":
        return _NUMPY_KERNEL
    if kernel == "auto":
        return (
            _ensure_numba_kernel(threads)
            if numba_available()
            else _NUMPY_KERNEL
        )
    if not numba_available():
        raise RuntimeError(
            "kernel='numba' was requested but numba is not importable; "
            "install numba or use kernel='auto' (which falls back to the "
            "bit-compatible NumPy kernels)"
        )
    return _ensure_numba_kernel(threads)


def cast_matrix(matrix, dtype: np.dtype):
    """Cast a dense/sparse matrix (or ``None``) to ``dtype``.

    A no-op (returning the original object) when the dtype already
    matches, so the float64 default path shares memory with the caller
    exactly as before.
    """
    if matrix is None:
        return None
    if matrix.dtype == dtype:
        return matrix
    return matrix.astype(dtype)


class Kernel:
    """Fused element-wise sweep tails — NumPy implementation.

    The methods mirror the tail of each projector-style update rule.  All
    of them may freely overwrite their *numerator-like* temporaries but
    never mutate ``s``/``attraction``/``projection``/graph/prior inputs.
    """

    name = "numpy"

    def accumulate(self, acc: np.ndarray, update: np.ndarray) -> np.ndarray:
        """``acc + update`` where ``acc`` is a caller-owned fresh array.

        Used for the attraction sums (``XpSfHpᵀ + XrᵀSu`` and friends):
        the fused kernels add in place — bitwise the same sum, one fewer
        full-height temporary on the hottest allocations of a sweep.
        """
        acc += update
        return acc

    # ``S * sqrt(max(num, 0) / max(den, EPS))`` evaluated with two
    # temporaries.  np.maximum against a Python float keeps the array
    # dtype under NEP 50, so float32 inputs stay float32 throughout.
    def multiply_tail(
        self, s: np.ndarray, numerator: np.ndarray, denominator: np.ndarray
    ) -> np.ndarray:
        num = np.maximum(numerator, 0.0)
        den = np.maximum(denominator, EPS)
        np.divide(num, den, out=num)
        np.sqrt(num, out=num)
        np.multiply(s, num, out=num)
        return num

    def projector_tail(
        self, s: np.ndarray, attraction: np.ndarray, projection: np.ndarray
    ) -> np.ndarray:
        """Plain projector step: ``S * sqrt(att / proj)`` (Eqs. 20-21)."""
        return self.multiply_tail(s, attraction, projection)

    def graph_terms(
        self,
        attraction: np.ndarray,
        projection: np.ndarray,
        gu_su: np.ndarray,
        du_su: np.ndarray,
        beta: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Numerator/denominator of the graph-regularized ``Su`` step.

        Returned separately (rather than fused into the tail) because the
        online update adds temporal-prior terms to selected rows before
        the square root; see :func:`repro.core.updates.update_su_online`.
        """
        numerator = np.multiply(gu_su, beta)
        np.add(attraction, numerator, out=numerator)
        denominator = np.multiply(du_su, beta)
        np.add(projection, denominator, out=denominator)
        return numerator, denominator

    def graph_tail(
        self,
        su: np.ndarray,
        attraction: np.ndarray,
        projection: np.ndarray,
        gu_su: np.ndarray,
        du_su: np.ndarray,
        beta: float,
    ) -> np.ndarray:
        """Graph-regularized projector step for ``Su`` (Eq. 22)."""
        numerator, denominator = self.graph_terms(
            attraction, projection, gu_su, du_su, beta
        )
        return self.multiply_tail(su, numerator, denominator)

    def prior_tail(
        self,
        sf: np.ndarray,
        attraction: np.ndarray,
        projection: np.ndarray,
        prior: np.ndarray,
        alpha: float,
    ) -> np.ndarray:
        """Lexicon-prior projector step for ``Sf`` (Eq. 23)."""
        numerator = np.multiply(prior, alpha)
        np.add(attraction, numerator, out=numerator)
        denominator = np.multiply(sf, alpha)
        np.add(projection, denominator, out=denominator)
        return self.multiply_tail(sf, numerator, denominator)


class NumpyKernel(Kernel):
    """Alias of the base implementation, for explicit construction."""


#: Below this many rows the numba kernel always uses its serial tails:
#: a prange region costs a fork/join barrier, and the tails are pure
#: memory traffic that small arrays finish before threads even start.
#: Purely a speed guard — the tails are element-wise, so serial and
#: parallel variants are bit-identical.
PARALLEL_TAIL_MIN_ROWS = 8192


class NumbaKernel(Kernel):
    """Single-pass ``@njit`` tails, bit-identical to :class:`NumpyKernel`.

    Compilation is lazy (first call per dtype signature); the compiled
    dispatchers are module-level so every solver instance shares them,
    and ``cache=True`` persists them to disk so forked/spawned worker
    processes load the compilation instead of re-JITting per worker.
    ``fastmath`` stays off: it would license LLVM to contract
    ``a + beta*b`` into an FMA or reassociate the maxima, either of which
    breaks the float64 bit-identity contract with the NumPy kernel.

    ``threads`` (default: the shared budget from
    :func:`repro.utils.threads.spmm_thread_default`) enables ``prange``
    row-parallel tail variants for arrays past
    :data:`PARALLEL_TAIL_MIN_ROWS`; every tail is element-wise, so the
    parallel variants are bit-identical at any thread count.
    """

    name = "numba"

    def __init__(self, threads: int | None = None) -> None:
        if not numba_available():  # pragma: no cover - exercised via tests
            raise RuntimeError(
                "NumbaKernel requires numba, which is not importable"
            )
        if threads is None:
            from repro.utils.threads import spmm_thread_default

            threads = spmm_thread_default()
        self.threads = max(1, int(threads))
        self._impl = _numba_impl()

    def _run(self, base: str, rows: int, *args):  # pragma: no cover - needs numba
        """Dispatch to the serial or prange variant under the budget."""
        if self.threads <= 1 or rows < PARALLEL_TAIL_MIN_ROWS:
            return self._impl[base](*args)
        import numba

        limit = max(1, min(self.threads, int(numba.config.NUMBA_NUM_THREADS)))
        previous = numba.get_num_threads()
        numba.set_num_threads(limit)
        try:
            return self._impl[base + "_par"](*args)
        finally:
            numba.set_num_threads(previous)

    def multiply_tail(self, s, numerator, denominator):
        return self._run(
            "multiply_tail", s.shape[0], s, numerator, denominator, EPS
        )

    def projector_tail(self, s, attraction, projection):
        return self._run(
            "multiply_tail", s.shape[0], s, attraction, projection, EPS
        )

    def graph_terms(self, attraction, projection, gu_su, du_su, beta):
        return self._run(
            "graph_terms", attraction.shape[0],
            attraction, projection, gu_su, du_su, beta,
        )

    def graph_tail(self, su, attraction, projection, gu_su, du_su, beta):
        return self._run(
            "graph_tail", su.shape[0],
            su, attraction, projection, gu_su, du_su, beta, EPS,
        )

    def prior_tail(self, sf, attraction, projection, prior, alpha):
        return self._run(
            "prior_tail", sf.shape[0],
            sf, attraction, projection, prior, alpha, EPS,
        )


_NUMBA_CACHE: dict | None = None


def _numba_impl() -> dict:
    """Build (once) the jitted tail dispatchers.

    The loops spell out the per-element operation sequence of the NumPy
    kernel — ``max`` via explicit comparisons (NumPy's ``maximum``
    semantics for the values that occur here: the inputs are products of
    non-negative factors, so NaN never arises), then divide, sqrt,
    multiply, in that order.  Each tail is built twice: a serial variant
    and a ``prange`` row-parallel one (suffix ``_par``) — identical
    bodies, so identical bits, and :class:`NumbaKernel` picks by row
    count and thread budget.  ``cache=True`` persists the compilations
    to disk so worker processes don't pay the JIT per fork.
    """
    global _NUMBA_CACHE
    if _NUMBA_CACHE is not None:
        return _NUMBA_CACHE
    from numba import njit, prange

    @njit(cache=True)
    def multiply_tail(s, numerator, denominator, eps):
        out = np.empty_like(s)
        rows, cols = s.shape
        for i in range(rows):
            for j in range(cols):
                num = numerator[i, j]
                if num < 0.0:
                    num = 0.0
                den = denominator[i, j]
                if den < eps:
                    den = eps
                out[i, j] = s[i, j] * np.sqrt(num / den)
        return out

    @njit(cache=True, parallel=True)
    def multiply_tail_par(s, numerator, denominator, eps):
        out = np.empty_like(s)
        rows, cols = s.shape
        for i in prange(rows):
            for j in range(cols):
                num = numerator[i, j]
                if num < 0.0:
                    num = 0.0
                den = denominator[i, j]
                if den < eps:
                    den = eps
                out[i, j] = s[i, j] * np.sqrt(num / den)
        return out

    @njit(cache=True)
    def graph_terms(attraction, projection, gu_su, du_su, beta):
        numerator = np.empty_like(attraction)
        denominator = np.empty_like(projection)
        rows, cols = attraction.shape
        for i in range(rows):
            for j in range(cols):
                numerator[i, j] = attraction[i, j] + gu_su[i, j] * beta
                denominator[i, j] = projection[i, j] + du_su[i, j] * beta
        return numerator, denominator

    @njit(cache=True, parallel=True)
    def graph_terms_par(attraction, projection, gu_su, du_su, beta):
        numerator = np.empty_like(attraction)
        denominator = np.empty_like(projection)
        rows, cols = attraction.shape
        for i in prange(rows):
            for j in range(cols):
                numerator[i, j] = attraction[i, j] + gu_su[i, j] * beta
                denominator[i, j] = projection[i, j] + du_su[i, j] * beta
        return numerator, denominator

    @njit(cache=True)
    def graph_tail(su, attraction, projection, gu_su, du_su, beta, eps):
        out = np.empty_like(su)
        rows, cols = su.shape
        for i in range(rows):
            for j in range(cols):
                num = attraction[i, j] + gu_su[i, j] * beta
                if num < 0.0:
                    num = 0.0
                den = projection[i, j] + du_su[i, j] * beta
                if den < eps:
                    den = eps
                out[i, j] = su[i, j] * np.sqrt(num / den)
        return out

    @njit(cache=True, parallel=True)
    def graph_tail_par(su, attraction, projection, gu_su, du_su, beta, eps):
        out = np.empty_like(su)
        rows, cols = su.shape
        for i in prange(rows):
            for j in range(cols):
                num = attraction[i, j] + gu_su[i, j] * beta
                if num < 0.0:
                    num = 0.0
                den = projection[i, j] + du_su[i, j] * beta
                if den < eps:
                    den = eps
                out[i, j] = su[i, j] * np.sqrt(num / den)
        return out

    @njit(cache=True)
    def prior_tail(sf, attraction, projection, prior, alpha, eps):
        out = np.empty_like(sf)
        rows, cols = sf.shape
        for i in range(rows):
            for j in range(cols):
                num = attraction[i, j] + prior[i, j] * alpha
                if num < 0.0:
                    num = 0.0
                den = projection[i, j] + sf[i, j] * alpha
                if den < eps:
                    den = eps
                out[i, j] = sf[i, j] * np.sqrt(num / den)
        return out

    @njit(cache=True, parallel=True)
    def prior_tail_par(sf, attraction, projection, prior, alpha, eps):
        out = np.empty_like(sf)
        rows, cols = sf.shape
        for i in prange(rows):
            for j in range(cols):
                num = attraction[i, j] + prior[i, j] * alpha
                if num < 0.0:
                    num = 0.0
                den = projection[i, j] + sf[i, j] * alpha
                if den < eps:
                    den = eps
                out[i, j] = sf[i, j] * np.sqrt(num / den)
        return out

    _NUMBA_CACHE = {
        "multiply_tail": multiply_tail,
        "multiply_tail_par": multiply_tail_par,
        "graph_terms": graph_terms,
        "graph_terms_par": graph_terms_par,
        "graph_tail": graph_tail,
        "graph_tail_par": graph_tail_par,
        "prior_tail": prior_tail,
        "prior_tail_par": prior_tail_par,
    }
    return _NUMBA_CACHE


_NUMPY_KERNEL = NumpyKernel()

#: Lazily constructed numba kernels keyed by resolved thread budget;
#: building one triggers (deferred) jit compilation machinery, so module
#: import must not touch this.
_NUMBA_KERNELS: dict[int, Kernel] = {}


def _ensure_numba_kernel(threads: int | None = None) -> Kernel:
    kernel = NumbaKernel(threads=threads)
    return _NUMBA_KERNELS.setdefault(kernel.threads, kernel)


def get_kernel(name: str, threads: int | None = None) -> Kernel:
    """Resolve a *concrete* kernel name (``"numpy"``/``"numba"``).

    Used by out-of-process shard workers, which receive the already
    auto-resolved name in their shard payload so every shard runs the
    same implementation the coordinator chose.
    ``threads`` is the tail thread budget (speed-only; tails are
    element-wise), resolved locally per worker.
    """
    return resolve_kernel(name, threads)


def resolve_kernel_name(kernel: object = "auto") -> str:
    """Auto-resolve a kernel choice to its concrete name.

    The solve loop pins out-of-process shard payloads with this, so
    that ``"auto"`` means "whatever the coordinator has", not "whatever
    each worker host happens to have" — keeping the backend bit-identity
    guarantee intact across heterogeneous fleets.  An unregistered
    instance pins to ``"numpy"`` (in-process solves use it as is).
    """
    kernel = resolve_kernel(kernel)
    if kernel.name not in KERNELS:  # a bench-supplied custom instance
        return "numpy"
    return kernel.name


def default_kernel() -> Kernel:
    """The kernel used when updates are called without an explicit one."""
    return _NUMPY_KERNEL
