"""Fused element-wise kernels for the multiplicative sweep tails.

Every projector-style update in :mod:`repro.core.updates` ends with the
same element-wise tail: assemble a numerator and a denominator from the
attraction/projection GEMM outputs (plus optional graph / prior terms) and
apply ``S <- S * sqrt(max(num, 0) / max(den, EPS))``.  Written naively with
NumPy that tail costs five full passes over ``rows x k`` temporaries; at
realistic scales (hundreds of thousands of users) those passes are pure
memory traffic.  :class:`Kernel` fuses them: it evaluates the exact same
IEEE operation sequence as the historical ``safe_sqrt_ratio``-based code
(same maxima, same division, same square root, in the same order), but
chains them through pre-allocated output buffers so the tail touches two
temporaries instead of five.  Because every operation is element-wise,
buffer reuse cannot change a single bit of the result.

Matrix products (the GEMMs and sparse products feeding the tails) are
*not* reimplemented here: BLAS/scipy already run them at hardware speed,
and a hand-rolled reduction could not stay bit-compatible with BLAS's
pairwise accumulation order.  The kernel deliberately covers only the
element-wise region where bit-exact fusion is possible.

Solver constructors accept a kernel *name* (``"auto"`` or ``"numpy"``,
both this kernel) or a :class:`Kernel` instance, through which timing
probes and benchmark baselines see every tail.  The compiled numba
kernel was removed: it computed this kernel's bits and no benchmark row
ever showed it faster.  ``kernel="numba"`` is refused by name, while
configs and checkpoints that recorded it load as ``"auto"`` (see
:mod:`repro.engine.config`).

The module also owns the ``dtype`` registry for the opt-in float32 mode.
Float64 remains the default and keeps the repo's bit-identity guarantees;
float32 halves memory traffic on the bandwidth-bound sweeps and is
validated to track the float64 objective trajectory within a documented
tolerance (see ``tests/core/test_kernels.py``).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.spmm import validate_spmm_threads
from repro.utils.matrices import EPS

#: Kernel names accepted by solver constructors and ``SolverConfig``.
KERNELS = ("auto", "numpy")

#: Factor dtypes accepted by solver constructors and ``SolverConfig``.
#: float64 is the bit-identity default; float32 is the opt-in
#: bandwidth-saving mode.
DTYPES = ("float64", "float32")


@functools.cache
def numba_available() -> bool:
    """True when :mod:`numba` is importable in this interpreter.

    A provenance probe only: no solve uses numba, but the perfbench
    harness records this in every run's provenance.  Cached, because a
    failed import is not remembered by the import system.
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
    if kernel == "numba":
        raise ValueError(
            "kernel='numba' was removed: it computed the same bits as "
            "'numpy'; use 'numpy' or 'auto'"
        )
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

    ``threads`` stays in the signature because the perfbench harness
    passes ``SolverConfig.spmm_threads`` here; like that field, it must
    be ``None`` (see :func:`~repro.core.spmm.validate_spmm_threads`).
    """
    if isinstance(kernel, Kernel):
        return kernel
    validate_kernel(kernel)
    validate_spmm_threads(threads)
    return _NUMPY_KERNEL


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
    """Fused element-wise sweep tails.

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


_NUMPY_KERNEL = Kernel()


def default_kernel() -> Kernel:
    """The kernel used when updates are called without an explicit one."""
    return _NUMPY_KERNEL
