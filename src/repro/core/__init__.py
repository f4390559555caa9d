"""The paper's primary contribution: tri-clustering solvers.

- :mod:`repro.core.state` — the factor bundle ``(Sf, Sp, Su, Hp, Hu)``.
- :mod:`repro.core.initialization` — random / lexicon-seeded / warm-start
  factor initialization.
- :mod:`repro.core.objective` — the loss components of Eq. (1)/(19).
- :mod:`repro.core.updates` — multiplicative update kernels
  (Eqs. 7, 9, 11, 12, 13 and online variants 20-26).
- :mod:`repro.core.sweepcache` — per-sweep memoization of the shared
  products the update kernels would otherwise recompute.
- :mod:`repro.core.convergence` — per-iteration loss tracking (Figure 8).
- :mod:`repro.core.offline` — Algorithm 1 (:class:`OfflineTriClustering`).
- :mod:`repro.core.online` — Algorithm 2 (:class:`OnlineTriClustering`).
- :mod:`repro.core.sweep` — the one solve loop both algorithms run
  (:class:`ShardedSolver`), planned as one or more user-partition shards.
- :mod:`repro.core.sharded` — user-partition sharded variants of both
  (:class:`ShardedTriClustering`, :class:`ShardedOnlineTriClustering`).
"""

from repro.core.convergence import ConvergenceHistory, IterationRecord
from repro.core.inference import (
    infer_tweet_memberships,
    infer_tweet_sentiments,
    infer_user_memberships,
    infer_user_sentiments,
)
from repro.core.labeling import apply_alignment, lexicon_column_alignment
from repro.core.objective import ObjectiveWeights, compute_objective
from repro.core.offline import OfflineTriClustering, TriClusteringResult
from repro.core.online import OnlineStepResult, OnlineTriClustering
from repro.core.regularizers import (
    Diversity,
    GraphSmoothness,
    GuidedLabels,
    PriorCloseness,
    Regularizer,
    Sparsity,
)
from repro.core.sharded import (
    ShardedOnlineTriClustering,
    ShardedTriClustering,
    resolve_shard_count,
)
from repro.core.state import FactorSet
from repro.core.sweep import ShardedSolver
from repro.core.sweepcache import SweepCache
from repro.core.unified import UnifiedResult, UnifiedTriClustering

__all__ = [
    "ConvergenceHistory",
    "Diversity",
    "GraphSmoothness",
    "GuidedLabels",
    "PriorCloseness",
    "Regularizer",
    "ShardedOnlineTriClustering",
    "ShardedSolver",
    "ShardedTriClustering",
    "Sparsity",
    "SweepCache",
    "UnifiedResult",
    "UnifiedTriClustering",
    "FactorSet",
    "IterationRecord",
    "ObjectiveWeights",
    "OfflineTriClustering",
    "OnlineStepResult",
    "OnlineTriClustering",
    "TriClusteringResult",
    "apply_alignment",
    "compute_objective",
    "infer_tweet_memberships",
    "infer_tweet_sentiments",
    "infer_user_memberships",
    "infer_user_sentiments",
    "lexicon_column_alignment",
    "resolve_shard_count",
]
