"""Non-negative matrix kernels shared by the factorization code.

The multiplicative update rules of the paper (Eqs. 7, 9, 11, 12, 13, 20-26)
are all of the form ``S <- S * sqrt(numerator / denominator)`` with
non-negative numerators/denominators.  The helpers here implement the safe
element-wise arithmetic those rules need, plus the positive/negative matrix
split ``M = M+ - M-`` used for the orthogonality Lagrangian terms.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

#: Denominator floor for multiplicative updates.  Entries that are exactly
#: zero stay zero under the update (the fixed-point property of NMF), so the
#: floor only guards against 0/0.
EPS = 1e-12

MatrixLike = np.ndarray | sp.spmatrix


def as_dense(matrix: MatrixLike) -> np.ndarray:
    """Return ``matrix`` as a dense :class:`numpy.ndarray` (C-contiguous)."""
    if sp.issparse(matrix):
        return np.asarray(matrix.todense())
    return np.asarray(matrix)


def is_nonnegative(matrix: MatrixLike, tolerance: float = 0.0) -> bool:
    """Check that every entry of ``matrix`` is ``>= -tolerance``."""
    if sp.issparse(matrix):
        data = matrix.data
        if data.size == 0:
            return True
        return bool(np.all(data >= -tolerance))
    return bool(np.all(np.asarray(matrix) >= -tolerance))


def safe_divide(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Element-wise ``numerator / max(denominator, EPS)``."""
    return numerator / np.maximum(denominator, EPS)


def safe_sqrt_ratio(
    numerator: np.ndarray,
    denominator: np.ndarray,
    max_ratio: float | None = None,
) -> np.ndarray:
    """Element-wise ``sqrt(numerator / denominator)`` with clipping.

    Negative numerator entries (which can only arise from floating-point
    round-off in the update-rule assembly) are clipped to zero before the
    square root, keeping factors real and non-negative.

    ``max_ratio`` bounds the ratio to ``[1/max_ratio, max_ratio]`` before
    the square root.  The orthogonality-Lagrangian update rules of the
    paper are only locally stable; bounding the per-step multiplier is the
    standard guard against the positive-feedback blowup that otherwise
    occurs when a denominator column collapses.  The bound preserves every
    fixed point (a stationary factor has ratio 1 everywhere).
    """
    ratio = safe_divide(np.maximum(numerator, 0.0), denominator)
    if max_ratio is not None:
        ratio = np.clip(ratio, 1.0 / max_ratio, max_ratio)
    return np.sqrt(ratio)


def nonneg_split(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split ``matrix`` into its positive and negative parts.

    Returns ``(plus, minus)`` with ``plus = (|M| + M)/2`` and
    ``minus = (|M| - M)/2`` so that ``M = plus - minus`` and both parts are
    non-negative.  This is the decomposition the paper applies to the
    orthogonality multiplier ``Delta``.
    """
    absolute = np.abs(matrix)
    plus = (absolute + matrix) / 2.0
    minus = (absolute - matrix) / 2.0
    return plus, minus


def frobenius_sq(matrix: MatrixLike) -> float:
    """Squared Frobenius norm ``||M||_F^2`` for dense or sparse input.

    A sparse matrix is read through its data array; a non-canonical one
    (duplicate or unsorted entries, or a format without a plain data
    array) first becomes canonical CSR on a copy, so duplicates are
    summed before squaring.
    """
    if sp.issparse(matrix):
        if matrix.format not in ("csr", "csc") or not matrix.has_canonical_format:
            matrix = matrix.tocsr(copy=True)
            matrix.sum_duplicates()
        arr = matrix.data
    else:
        arr = np.asarray(matrix)
    return float(np.sum(arr * arr))


def residual_frobenius_sq(
    target: MatrixLike, approximation: np.ndarray
) -> float:
    """Squared Frobenius norm of ``target - approximation``.

    ``target`` may be sparse; ``approximation`` is dense (a product of
    factor matrices).  Uses the expansion
    ``||X - A||^2 = ||X||^2 - 2<X, A> + ||A||^2`` to avoid densifying X.
    """
    if sp.issparse(target):
        cross = float(target.multiply(approximation).sum())
        return frobenius_sq(target) - 2.0 * cross + frobenius_sq(approximation)
    diff = np.asarray(target) - approximation
    return float(np.sum(diff * diff))


def trace_quadratic(factor: np.ndarray, laplacian: MatrixLike) -> float:
    """Compute ``tr(Sᵀ · L · S)`` for the graph-regularization penalty."""
    if sp.issparse(laplacian):
        return float(np.sum(factor * (laplacian @ factor)))
    return float(np.trace(factor.T @ np.asarray(laplacian) @ factor))


def row_normalize(matrix: np.ndarray) -> np.ndarray:
    """Scale each row to sum to 1 (rows summing to zero are left as zeros)."""
    arr = np.asarray(matrix, dtype=float)
    sums = arr.sum(axis=1, keepdims=True)
    divisor = np.where(sums > 0, sums, 1.0)
    return np.where(sums > 0, arr / divisor, arr)


def column_normalize(matrix: np.ndarray) -> np.ndarray:
    """Scale each column to sum to 1 (zero columns are left as zeros)."""
    arr = np.asarray(matrix, dtype=float)
    sums = arr.sum(axis=0, keepdims=True)
    divisor = np.where(sums > 0, sums, 1.0)
    return np.where(sums > 0, arr / divisor, arr)


def hard_assignments(membership: np.ndarray) -> np.ndarray:
    """Convert a soft membership matrix to hard cluster ids via argmax.

    Ties are broken toward the lower cluster index, matching
    :func:`numpy.argmax` semantics; all-zero rows therefore land in
    cluster 0, which is the conventional behaviour for NMF-based
    clustering readouts.
    """
    arr = np.asarray(membership)
    if arr.ndim != 2:
        raise ValueError(f"membership must be 2-D, got shape {arr.shape}")
    return np.argmax(arr, axis=1)
