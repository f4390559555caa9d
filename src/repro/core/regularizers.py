"""Pluggable regularizers — the paper's proposed unified framework.

Section 7 sketches future work: *"a unified tripartite graph co-clustering
framework, with a set of optional regularizations which include graph
regularization, sparsity regularization, diversity regularization,
temporal regularization, and guided regularization (semi-supervised
regularization)"*.  This module implements that framework.

Every regularizer targets one factor (``"sf"``, ``"sp"`` or ``"su"``) and
contributes

- an **objective term** (added to the total loss), and
- **update terms** ``(numerator_add, denominator_add)`` folded into the
  target factor's multiplicative update, derived from the
  negative/positive parts of the term's gradient so the combined update
  keeps the standard fixed-point property.

:class:`~repro.core.unified.UnifiedTriClustering` folds a stack of them
into the shared solve loop, in stack order (:func:`stack_terms`).  A
regularizer reads only its target factor, and :meth:`Regularizer.check`
tests it against that factor's shape when a fit starts.  The five named
regularizations of the paper map to:

==============================  ==========================================
paper's name                    class
==============================  ==========================================
graph regularization            :class:`GraphSmoothness`
sparsity regularization         :class:`Sparsity`
diversity regularization        :class:`Diversity`
temporal regularization         :class:`PriorCloseness` (with a decayed
                                aggregate as the prior, optionally
                                row-masked)
guided (semi-supervised)        :class:`GuidedLabels`
lexicon prior (Eq. 5)           :class:`PriorCloseness` on ``sf``
==============================  ==========================================
"""

from __future__ import annotations

import abc
import math
from collections.abc import Sequence

import numpy as np
import scipy.sparse as sp

from repro.core.state import FactorSet

TARGETS = ("sf", "sp", "su")


class Regularizer(abc.ABC):
    """One additive regularization term on a single factor."""

    def __init__(self, target: str, weight: float) -> None:
        if target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}, got {target!r}")
        if not math.isfinite(weight) or weight < 0:
            raise ValueError(f"weight must be a finite number >= 0, got {weight}")
        self.target = target
        self.weight = weight

    def factor(self, factors: FactorSet) -> np.ndarray:
        """The matrix this regularizer acts on."""
        return getattr(factors, self.target)

    def check(self, shape: tuple[int, int]) -> None:
        """Raise ``ValueError`` unless the term fits a ``shape`` target."""

    def _require(self, ok: bool, message: str) -> None:
        if not ok:
            raise ValueError(f"{type(self).__name__} on {self.target}: {message}")

    def _check_rows(self, rows: np.ndarray, shape: tuple[int, int]) -> None:
        self._require(
            rows.size == 0 or (rows.min() >= 0 and rows.max() < shape[0]),
            f"rows must lie in [0, {shape[0]})",
        )

    @abc.abstractmethod
    def objective(self, factors: FactorSet) -> float:
        """The term's value (≥ 0) at the current factors."""

    @abc.abstractmethod
    def update_terms(
        self, factors: FactorSet
    ) -> tuple[np.ndarray | float, np.ndarray | float]:
        """``(numerator_add, denominator_add)`` for the target's update."""


class PriorCloseness(Regularizer):
    """``w·||S − P||²`` — lexicon (Eq. 5) and temporal (Eq. 19) closeness.

    ``rows`` restricts the term to a row subset (the online framework's
    evolving-user block ``Su(d,e)``); ``prior`` is then indexed by those
    rows.
    """

    def __init__(
        self,
        target: str,
        prior: np.ndarray,
        weight: float,
        rows: np.ndarray | None = None,
    ) -> None:
        super().__init__(target, weight)
        self.prior = np.asarray(prior, dtype=np.float64)
        if not np.all(np.isfinite(self.prior)):
            raise ValueError("prior must be finite")
        if np.any(self.prior < 0):
            raise ValueError("prior must be non-negative")
        self.rows = None if rows is None else np.asarray(rows, dtype=np.int64)
        if self.rows is not None and self.prior.shape[0] != self.rows.size:
            raise ValueError(
                f"prior has {self.prior.shape[0]} rows for "
                f"{self.rows.size} masked rows"
            )

    def check(self, shape: tuple[int, int]) -> None:
        expected = shape
        if self.rows is not None:
            self._check_rows(self.rows, shape)
            expected = (self.rows.size, shape[1])
        self._require(
            self.prior.shape == expected,
            f"prior has shape {self.prior.shape}, expected {expected}",
        )

    def objective(self, factors: FactorSet) -> float:
        matrix = self.factor(factors)
        if self.rows is not None:
            matrix = matrix[self.rows]
        diff = matrix - self.prior
        return self.weight * float(np.sum(diff * diff))

    def update_terms(self, factors: FactorSet):
        matrix = self.factor(factors)
        numerator = np.zeros_like(matrix)
        denominator = np.zeros_like(matrix)
        if self.rows is None:
            numerator += self.weight * self.prior
            denominator += self.weight * matrix
        else:
            numerator[self.rows] += self.weight * self.prior
            denominator[self.rows] += self.weight * matrix[self.rows]
        return numerator, denominator


class GraphSmoothness(Regularizer):
    """``w·tr(SᵀLS)`` — Eq. (6) generalized to any factor.

    Splits the Laplacian into ``D − G``: the adjacency part attracts
    (numerator), the degree part repels (denominator) — the provably
    monotone GNMF treatment.
    """

    def __init__(
        self, target: str, adjacency: sp.spmatrix, weight: float
    ) -> None:
        super().__init__(target, weight)
        adjacency = sp.csr_matrix(adjacency)
        if adjacency.shape[0] != adjacency.shape[1]:
            raise ValueError("adjacency must be square")
        if not np.all(np.isfinite(adjacency.data)):
            raise ValueError("adjacency must be finite")
        if (abs(adjacency - adjacency.T)).sum() > 1e-9:
            raise ValueError("adjacency must be symmetric")
        self.adjacency = adjacency
        degrees = np.asarray(adjacency.sum(axis=1)).ravel()
        self.degree = sp.diags(degrees, format="csr")

    def check(self, shape: tuple[int, int]) -> None:
        self._require(
            self.adjacency.shape == (shape[0], shape[0]),
            f"adjacency is {self.adjacency.shape[0]}x"
            f"{self.adjacency.shape[1]}, expected {shape[0]}x{shape[0]}",
        )

    def objective(self, factors: FactorSet) -> float:
        matrix = self.factor(factors)
        if matrix.shape[0] != self.adjacency.shape[0]:
            raise ValueError(
                f"graph has {self.adjacency.shape[0]} nodes but factor "
                f"{self.target} has {matrix.shape[0]} rows"
            )
        laplacian_product = self.degree @ matrix - self.adjacency @ matrix
        return self.weight * max(float(np.sum(matrix * laplacian_product)), 0.0)

    def update_terms(self, factors: FactorSet):
        matrix = self.factor(factors)
        numerator = self.weight * np.asarray(self.adjacency @ matrix)
        denominator = self.weight * np.asarray(self.degree @ matrix)
        return numerator, denominator


class Sparsity(Regularizer):
    """``w·Σᵢⱼ S[i,j]`` — L1 shrinkage pushing soft memberships to zero.

    The gradient is the constant ``w``; it lands entirely in the
    denominator, uniformly shrinking every entry per sweep.
    """

    def objective(self, factors: FactorSet) -> float:
        return self.weight * float(self.factor(factors).sum())

    def update_terms(self, factors: FactorSet):
        matrix = self.factor(factors)
        return np.zeros_like(matrix), np.full_like(matrix, self.weight)


class Diversity(Regularizer):
    """``w·Σ_{j≠j'} (SᵀS)[j,j']`` — penalizes correlated cluster columns.

    Encourages clusters to claim disjoint support (the role the hard
    orthogonality constraint plays in Eq. 1, in soft form).  The gradient
    ``2w·S(𝟙 − I)`` is non-negative and repulsive (denominator only).
    """

    def objective(self, factors: FactorSet) -> float:
        matrix = self.factor(factors)
        gram = matrix.T @ matrix
        return self.weight * float(gram.sum() - np.trace(gram))

    def update_terms(self, factors: FactorSet):
        matrix = self.factor(factors)
        k = matrix.shape[1]
        coupling = np.ones((k, k)) - np.eye(k)
        return np.zeros_like(matrix), 2.0 * self.weight * (matrix @ coupling)


class GuidedLabels(Regularizer):
    """``w·Σ_{i∈L} ||S[i] − yᵢ||²`` — semi-supervised guidance.

    Rows listed in ``rows`` are pulled toward the one-hot encoding of
    their known label — the paper's "performance can be improved by
    including high quality labeled data" made concrete.
    """

    def __init__(
        self,
        target: str,
        rows: np.ndarray,
        labels: np.ndarray,
        num_classes: int,
        weight: float,
    ) -> None:
        super().__init__(target, weight)
        self.rows = np.asarray(rows, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape[0] != self.rows.size:
            raise ValueError(
                f"{labels.shape[0]} labels for {self.rows.size} rows"
            )
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise ValueError("labels must lie in [0, num_classes)")
        self.onehot = np.zeros((self.rows.size, num_classes))
        self.onehot[np.arange(self.rows.size), labels] = 1.0

    def check(self, shape: tuple[int, int]) -> None:
        self._check_rows(self.rows, shape)
        self._require(
            self.onehot.shape[1] == shape[1],
            f"labels span {self.onehot.shape[1]} classes, expected {shape[1]}",
        )

    def objective(self, factors: FactorSet) -> float:
        matrix = self.factor(factors)[self.rows]
        diff = matrix - self.onehot
        return self.weight * float(np.sum(diff * diff))

    def update_terms(self, factors: FactorSet):
        matrix = self.factor(factors)
        numerator = np.zeros_like(matrix)
        denominator = np.zeros_like(matrix)
        numerator[self.rows] += self.weight * self.onehot
        denominator[self.rows] += self.weight * matrix[self.rows]
        return numerator, denominator


def stack_terms(
    regularizers: Sequence[Regularizer], target: str, factors: FactorSet
) -> list[tuple]:
    """The stack's ``(numerator, denominator)`` additions on ``target``.

    In stack order; zero-weight regularizers add nothing.
    """
    return [
        regularizer.update_terms(factors)
        for regularizer in regularizers
        if regularizer.target == target and regularizer.weight != 0.0
    ]
