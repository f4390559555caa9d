"""Offline tri-clustering — Algorithm 1.

Solves Eq. (1) by cyclic multiplicative updates in the paper's order
(Sp, Hp, Su, Hu, Sf), tracking the component losses each sweep.  The
sweep itself is the shared solve loop of :mod:`repro.core.sweep`.
Sharding is a constructor setting: by default each fit is one shard
(the whole graph, solved inline); ``n_shards`` > 1 or
``backend="socket"`` partitions the users onto a worker pool.  A partitioned
solve keeps every cut ``Gu`` edge as a halo block and exchanges the
shards' boundary ``Su`` rows each sweep, so the graph regularizer of
Eq. (1) covers the whole user graph at any shard count.
:class:`~repro.core.sharded.ShardedTriClustering` is an alias of this
class.  The result object exposes hard/soft sentiment readouts for
tweets, users and features.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.convergence import ConvergenceHistory, validate_stopping
from repro.core.initialization import lexicon_seeded_factors, random_factors
from repro.core.kernels import resolve_dtype, validate_kernel
from repro.core.objective import ObjectiveWeights
from repro.core.regularizers import Regularizer
from repro.core.spmm import validate_spmm, validate_spmm_threads
from repro.core.state import FactorSet
from repro.core.sweep import SweepPlan, validate_sharding
from repro.graph.partition import ShardedGraph
from repro.graph.tripartite import TripartiteGraph
from repro.utils.executor import WorkerPool
from repro.utils.logging import get_logger
from repro.utils.rng import RandomState, spawn_rng

logger = get_logger("core.offline")


@dataclass
class TriClusteringResult:
    """Output of one tri-clustering fit."""

    factors: FactorSet
    history: ConvergenceHistory
    converged: bool
    iterations: int

    def tweet_sentiments(self) -> np.ndarray:
        """Hard tweet cluster ids (columns anchored by ``Sf0`` when used)."""
        return self.factors.tweet_clusters()

    def user_sentiments(self) -> np.ndarray:
        """Hard user cluster ids."""
        return self.factors.user_clusters()

    def feature_sentiments(self) -> np.ndarray:
        """Hard feature cluster ids."""
        return self.factors.feature_clusters()

    @property
    def final_objective(self) -> float:
        return self.history.final.total


class OfflineTriClustering:
    """Algorithm 1: the offline tri-clustering solver.

    Parameters
    ----------
    num_classes:
        ``k`` — number of sentiment classes (2 or 3; the paper uses both).
    alpha:
        Weight of the lexicon prior term ``α·||Sf − Sf0||²`` (Eq. 5).
        The paper's balanced choice is 0.05 (Section 5.1).
    beta:
        Weight of the user-graph smoothness ``β·tr(SuᵀLuSu)`` (Eq. 6);
        paper choice 0.8.
    max_iterations / tolerance / patience:
        Stopping: at most ``max_iterations`` sweeps, or earlier when the
        relative total-objective change stays below ``tolerance`` for
        ``patience`` consecutive sweeps.
    seed:
        Seed for factor initialization.
    track_history:
        Record per-iteration losses (needed for Figure 8; small cost).
    kernel:
        ``"auto"`` (numba when importable, NumPy otherwise), ``"numpy"``,
        ``"numba"``, or a :class:`~repro.core.kernels.Kernel` instance.
        Kernels are bit-compatible in float64, so this affects speed only.
    dtype:
        ``"float64"`` (default, bit-identity guarantees) or ``"float32"``
        (opt-in bandwidth-saving mode; results track float64 within a
        documented tolerance — see ``tests/core/test_kernels.py``).
    spmm:
        Sparse·dense product engine: ``"auto"`` (numba when importable,
        scipy otherwise), ``"scipy"``, ``"numba"``, or an
        :class:`~repro.core.spmm.SpmmEngine` instance.  Engines are
        float64 bit-identical (see :mod:`repro.core.spmm`), so this
        affects speed only.
    spmm_threads:
        Thread budget for the parallel spmm engines and the numba kernel
        tails; ``None`` uses the process default (a socket worker's
        budget, else the affinity core count — see
        :func:`repro.utils.threads.spmm_thread_default`).
    n_shards:
        User partitions; 1 (default) solves the whole graph as one
        shard.  ``"auto"`` re-resolves per solve from the user count
        and worker count (see
        :func:`~repro.core.sweep.resolve_shard_count`).  Users are
        hash-partitioned by *id* (see
        :func:`repro.graph.partition.hash_partition`), so a user keeps
        their shard across snapshots.
    max_workers:
        Worker bound for the shard fan-out (``None`` = CPU count).
    backend:
        ``"serial"``, ``"thread"`` (default) or ``"socket"`` — see
        :mod:`repro.utils.executor`.  Results are
        bit-identical across backends.  ``n_shards=1`` on an
        in-process backend always runs inline.
    workers:
        ``backend="socket"`` only: ``["host:port", ...]`` addresses of
        running ``python -m repro worker`` servers.
    """

    #: Section 7 regularizer stack folded into the solve (see
    #: :class:`~repro.core.unified.UnifiedTriClustering`); none here.
    regularizers: Sequence[Regularizer] = ()

    def __init__(
        self,
        num_classes: int = 3,
        alpha: float = 0.05,
        beta: float = 0.8,
        max_iterations: int = 200,
        tolerance: float = 1e-6,
        patience: int = 3,
        seed: RandomState = None,
        track_history: bool = True,
        kernel: object = "auto",
        dtype: str = "float64",
        spmm: object = "auto",
        spmm_threads: int | None = None,
        n_shards: int | str = 1,
        max_workers: int | None = None,
        backend: str = "thread",
        workers=None,
    ) -> None:
        if num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {num_classes}")
        validate_stopping(max_iterations, tolerance, patience)
        self.num_classes = num_classes
        self.weights = ObjectiveWeights(alpha=alpha, beta=beta)
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.patience = patience
        self.seed = seed
        self.track_history = track_history
        validate_kernel(kernel)
        self.kernel = kernel
        self.dtype = dtype
        self._np_dtype = resolve_dtype(dtype)
        validate_spmm(spmm)
        validate_spmm_threads(spmm_threads)
        self.spmm = spmm
        self.spmm_threads = spmm_threads
        self.workers = validate_sharding(
            n_shards, max_workers, backend, workers
        )
        self.n_shards = n_shards
        self.max_workers = max_workers
        self.backend = backend
        #: Optional externally-owned pool (e.g. the serving engine's).
        #: When set, partitioned solves run on it and never shut it
        #: down, re-scattering their shard blocks under a fresh epoch
        #: each time.  When None, each such solve opens and closes its
        #: own pool.
        self.pool: WorkerPool | None = None
        #: The partition of the most recent partitioned fit (``None``
        #: while every fit runs as one inline shard, ``n_shards=1``).
        self.last_plan: ShardedGraph | None = None
        #: Pool traffic/timing delta of the most recent fit (a
        #: :meth:`~repro.utils.executor.PoolTelemetry.delta` dict), or
        #: ``None`` before the first fit.
        self.last_telemetry: dict | None = None

    # ------------------------------------------------------------------ #

    def _validate_prior(self, graph: TripartiteGraph) -> None:
        sf0 = graph.sf0
        if sf0 is not None and sf0.shape[1] != self.num_classes:
            raise ValueError(
                f"Sf0 has {sf0.shape[1]} classes, solver expects "
                f"{self.num_classes}"
            )

    def _initial_factors(
        self,
        graph: TripartiteGraph,
        rng: np.random.Generator,
        initial_factors: FactorSet | None,
    ) -> FactorSet:
        """Algorithm 1 line 1.

        Initialization is *global* (the solve loop then scatters rows to
        shards), so the draw sequence — and the starting point — is the
        same for every shard count and partition.
        """
        if initial_factors is not None:
            return initial_factors.copy()
        if graph.sf0 is not None:
            return lexicon_seeded_factors(
                graph.num_tweets, graph.num_users, graph.sf0, seed=rng
            )
        return random_factors(
            graph.num_tweets,
            graph.num_users,
            graph.num_features,
            self.num_classes,
            seed=rng,
        )

    def fit(
        self,
        graph: TripartiteGraph,
        initial_factors: FactorSet | None = None,
    ) -> TriClusteringResult:
        """Run Algorithm 1 on a :class:`TripartiteGraph`."""
        rng = spawn_rng(self.seed)
        graph = graph.astype(self._np_dtype)  # no-op in the float64 default
        self._validate_prior(graph)
        factors = self._initial_factors(graph, rng, initial_factors).astype(
            self._np_dtype
        )
        plan = SweepPlan.for_solver(self, graph)
        with plan.open(
            factors, kernel=self.kernel, spmm=self.spmm,
            spmm_threads=self.spmm_threads, regularizers=self.regularizers,
        ) as solver:
            history, converged, iterations = solver.solve_offline(
                self.weights,
                graph.sf0,
                max_iterations=self.max_iterations,
                tolerance=self.tolerance,
                patience=self.patience,
                track_history=self.track_history,
            )
            merged = solver.merged_factors()
        self.last_telemetry = plan.telemetry
        if converged:
            logger.debug(
                "converged after %d iterations (total=%.6g)",
                iterations,
                history.final.total,
            )
        return TriClusteringResult(
            factors=merged,
            history=history,
            converged=converged,
            iterations=iterations,
        )
