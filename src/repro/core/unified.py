"""Unified tri-clustering with pluggable regularizers (Section 7).

:class:`UnifiedTriClustering` generalizes the offline solver: the three
data-fit terms of Eq. (1) stay fixed, while *any* combination of
:mod:`repro.core.regularizers` instances replaces the hard-wired α/β
terms.  With ``[PriorCloseness("sf", Sf0, α), GraphSmoothness("su", Gu,
β)]`` it reproduces Algorithm 1 bit for bit; adding ``Sparsity``,
``Diversity`` or ``GuidedLabels`` yields the extended framework the paper
proposes for community detection / transfer learning / role mining.

It is the one-shard :class:`~repro.core.offline.OfflineTriClustering`
solve with ``α = β = 0`` and the stack folded into the shared pass of
:mod:`repro.core.sweep`: initialization, sweep order, the lagged
convergence test and the history are Algorithm 1's own.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.offline import OfflineTriClustering, TriClusteringResult
from repro.core.regularizers import Regularizer
from repro.core.state import FactorSet
from repro.graph.tripartite import TripartiteGraph
from repro.utils.rng import RandomState


@dataclass
class UnifiedResult(TriClusteringResult):
    """Output of a unified fit: the offline result plus the stack's trace."""

    #: One key per regularizer (``<class>_<target>_<position>``).
    regularizer_keys: tuple[str, ...] = ()

    @property
    def totals(self) -> list[float]:
        """Total objective after each sweep, regularizers included."""
        return self.history.totals

    @property
    def regularizer_values(self) -> list[dict[str, float]]:
        """Each regularizer's value after each sweep, keyed as above."""
        return [
            dict(zip(self.regularizer_keys, record.objective.regularizer_losses, strict=True))
            for record in self.history.records
        ]


class UnifiedTriClustering(OfflineTriClustering):
    """Offline tri-clustering with an arbitrary regularizer stack."""

    def __init__(
        self,
        num_classes: int = 3,
        regularizers: Sequence[Regularizer] = (),
        max_iterations: int = 200,
        tolerance: float = 1e-6,
        patience: int = 3,
        seed: RandomState = None,
        kernel: object = "auto",
        spmm: object = "auto",
    ) -> None:
        super().__init__(
            num_classes=num_classes,
            alpha=0.0,
            beta=0.0,
            max_iterations=max_iterations,
            tolerance=tolerance,
            patience=patience,
            seed=seed,
            kernel=kernel,
            spmm=spmm,
        )
        self.regularizers = list(regularizers)

    def fit(
        self,
        graph: TripartiteGraph,
        initial_factors: FactorSet | None = None,
    ) -> UnifiedResult:
        """Run the unified solver on a tripartite graph."""
        rows = {"sf": graph.num_features, "sp": graph.num_tweets, "su": graph.num_users}
        for regularizer in self.regularizers:
            regularizer.check((rows[regularizer.target], self.num_classes))
        result = super().fit(graph, initial_factors)
        return UnifiedResult(
            factors=result.factors,
            history=result.history,
            converged=result.converged,
            iterations=result.iterations,
            regularizer_keys=tuple(
                f"{type(regularizer).__name__.lower()}_{regularizer.target}_{index}"
                for index, regularizer in enumerate(self.regularizers)
            ),
        )
