"""Sharded solvers: the solve loop planned over a user partition.

:class:`ShardedTriClustering` / :class:`ShardedOnlineTriClustering` are
:class:`~repro.core.offline.OfflineTriClustering` /
:class:`~repro.core.online.OnlineTriClustering` with a different
*plan*: instead of one shard solved inline, each solve hash-partitions
the snapshot's users by id (tweets follow their author) into
``n_shards`` blocks and runs them on a
:class:`~repro.utils.executor.WorkerPool` of the
chosen backend.  The sweep, the convergence bookkeeping and the merge
are the one solve loop of :mod:`repro.core.sweep`, so ``n_shards=1``
*is* the plain solver (on a serial pool for in-process backends) and
results are bit-identical across backends.  Multi-shard model semantics
(halo exchange, block-diagonal ``Hp``/``Hu``, consensus merge) are
documented there.
"""

from __future__ import annotations

from repro.core.offline import OfflineTriClustering
from repro.core.online import OnlineTriClustering
from repro.core.sweep import SweepPlan
from repro.graph.partition import (
    ShardedGraph,
    extract_shard_blocks,
    hash_partition,
    validate_halo,
)
from repro.graph.tripartite import TripartiteGraph
from repro.utils.executor import (
    WorkerPool,
    default_worker_count,
    validate_backend,
)
from repro.utils.transport import validate_workers

#: ``n_shards="auto"``: one shard per this many users, capped by the
#: worker count.  Below ~64 users per shard the per-shard matrices are
#: too small for parallel overlap to beat dispatch overhead (the same
#: scale floor the sharding benchmark gates its speedup assertion on).
AUTO_USERS_PER_SHARD = 64


def resolve_shard_count(
    n_shards: int | str, num_users: int, max_workers: int | None = None
) -> int:
    """Resolve ``n_shards`` (an int or ``"auto"``) for one snapshot.

    The ``"auto"`` heuristic picks ``min(workers, num_users // 64)``
    (floored at 1): enough shards to keep every worker busy, but never
    so many that a shard drops below :data:`AUTO_USERS_PER_SHARD` users
    — tiny shards pay more in dispatch and cut edges than they earn in
    overlap.  ``workers`` is ``max_workers`` when set, else the
    machine's CPU count, so the same stream adapts per host and per
    snapshot as the user population grows.
    """
    if n_shards == "auto":
        workers = (
            max_workers if max_workers is not None else default_worker_count()
        )
        return int(max(1, min(workers, num_users // AUTO_USERS_PER_SHARD)))
    return int(n_shards)


def _validate_sharding(
    n_shards: int | str,
    backend: str,
    workers=None,
    halo: str = "on",
) -> None:
    if n_shards != "auto" and (
        not isinstance(n_shards, int) or n_shards < 1
    ):
        raise ValueError(
            f"n_shards must be >= 1 or 'auto', got {n_shards!r}"
        )
    validate_halo(halo)
    validate_backend(backend)
    # repro-lint: disable=REP006 -- workers= applicability check immediately
    # after validate_backend; the registry owns the name, not this branch.
    if backend == "socket":
        validate_workers(workers)
    elif workers is not None:
        raise ValueError(
            "workers= is only meaningful with backend='socket' "
            f"(got backend={backend!r})"
        )


def open_solver_pool(
    max_workers: int | None,
    backend: str,
    n_shards: int,
    workers=None,
) -> WorkerPool:
    """A pool sized for a sharded solve.

    One shard on an in-process backend runs inline on a serial pool —
    there is nothing to overlap.  With ``max_workers=None`` the process
    backend is capped at the shard count — idle worker processes cost
    real memory, idle threads don't.  ``n_shards`` is a hint (use the
    worker default when the count is still ``"auto"``-unresolved).  The
    socket backend's width is its ``workers=["host:port", ...]`` list
    instead.  Shared by the per-solve pools here and the serving
    engine's long-lived solver pool, so the cap policy lives in exactly
    one place.
    """
    # repro-lint: disable=REP006 -- pool sizing policy per validated
    # backend (one in-process shard needs no threads).
    if n_shards == 1 and backend in ("serial", "thread"):
        return WorkerPool(1, backend="serial")
    # repro-lint: disable=REP006 -- pool sizing policy per validated
    # backend (socket width = workers list, process capped at shards).
    if backend == "socket":
        return WorkerPool(backend="socket", workers=workers)
    # repro-lint: disable=REP006 -- see above: sizing policy, not dispatch.
    if max_workers is None and backend == "process":
        max_workers = max(1, min(default_worker_count(), n_shards))
    return WorkerPool(max_workers, backend=backend)


class _ShardedPlan:
    """The planning step shared by both sharded solvers.

    Holds the sharding configuration and overrides ``_plan``: partition
    the snapshot's users into ``n_shards`` blocks and run them on the
    borrowed :attr:`pool` or a fresh one.  Everything else — the sweep,
    the convergence bookkeeping, the merge — is the plain solver's.
    """

    def _init_sharding(
        self,
        n_shards: int | str,
        max_workers: int | None,
        backend: str,
        workers,
        halo: str,
    ) -> None:
        _validate_sharding(n_shards, backend, workers, halo)
        self.n_shards = n_shards
        self.max_workers = max_workers
        self.backend = backend
        self.workers = workers
        self.halo = halo
        self.last_plan: ShardedGraph | None = None
        #: Optional externally-owned pool (e.g. the serving engine's).
        #: When set, solves run on it and never shut it down — this also
        #: skips the per-snapshot churn of opening a fresh pool (threads
        #: or worker processes) every step; each solve re-scatters its
        #: shard blocks under a fresh epoch and releases them afterwards.
        #: When None, each solve opens and closes its own pool.
        self.pool: WorkerPool | None = None

    def _plan(self, graph: TripartiteGraph) -> SweepPlan:
        n_shards = resolve_shard_count(
            self.n_shards, graph.num_users, self.max_workers
        )
        sharded = extract_shard_blocks(
            graph,
            hash_partition(graph.corpus.user_ids, n_shards),
            halo=self.halo == "on",
        )
        self.last_plan = sharded
        if self.pool is not None:
            return SweepPlan(sharded, self.pool, owns_pool=False)
        return SweepPlan(
            sharded,
            open_solver_pool(
                self.max_workers, self.backend, n_shards, self.workers
            ),
        )


class ShardedTriClustering(_ShardedPlan, OfflineTriClustering):
    """Algorithm 1 over a user partition (offline sharded solver).

    Parameters (beyond :class:`OfflineTriClustering`)
    ----------
    n_shards:
        User partitions; 1 *is* the plain solver's one-shard solve.
        ``"auto"`` re-resolves per solve from the user count and worker
        count (see :func:`resolve_shard_count`).  Users are
        hash-partitioned by *id* (see
        :func:`repro.graph.partition.hash_partition`), so a user keeps
        their shard across snapshots.
    max_workers:
        Worker bound for the shard fan-out (``None`` = CPU count,
        capped at ``n_shards`` for the process backend).
    backend:
        ``"serial"``, ``"thread"`` (default), ``"process"`` or
        ``"socket"`` — see :mod:`repro.utils.executor`.  Results are
        bit-identical across backends.
    workers:
        ``backend="socket"`` only: ``["host:port", ...]`` addresses of
        running ``python -m repro worker`` servers.
    halo:
        ``"on"`` (default) exchanges boundary ``Su`` rows per sweep so
        the graph regularizer sees the full ``Gu``; ``"off"`` drops
        cut edges (the legacy block-diagonal approximation).
    """

    def __init__(
        self,
        num_classes: int = 3,
        alpha: float = 0.05,
        beta: float = 0.8,
        max_iterations: int = 200,
        tolerance: float = 1e-6,
        patience: int = 3,
        seed=None,
        track_history: bool = True,
        kernel: object = "auto",
        dtype: str = "float64",
        spmm: object = "auto",
        spmm_threads: int | None = None,
        n_shards: int | str = 1,
        max_workers: int | None = None,
        backend: str = "thread",
        workers=None,
        halo: str = "on",
    ) -> None:
        self._init_sharding(n_shards, max_workers, backend, workers, halo)
        super().__init__(
            num_classes=num_classes,
            alpha=alpha,
            beta=beta,
            max_iterations=max_iterations,
            tolerance=tolerance,
            patience=patience,
            seed=seed,
            track_history=track_history,
            kernel=kernel,
            dtype=dtype,
            spmm=spmm,
            spmm_threads=spmm_threads,
        )


class ShardedOnlineTriClustering(_ShardedPlan, OnlineTriClustering):
    """Algorithm 2 over a user partition (online sharded solver).

    The temporal machinery (warm starts, decayed priors, per-user
    carried state) is :class:`OnlineTriClustering`'s unchanged; only
    each snapshot's plan differs.  The sharding parameters are
    :class:`ShardedTriClustering`'s.  On the process and socket backends
    an externally-owned pool keeps its workers (local processes or
    remote connections) across snapshots.
    """

    def __init__(
        self,
        num_classes: int = 3,
        alpha: float = 0.9,
        beta: float = 0.8,
        gamma: float = 0.2,
        tau: float = 0.9,
        window: int = 2,
        max_iterations: int = 100,
        tolerance: float = 1e-5,
        patience: int = 3,
        seed=None,
        track_history: bool = False,
        state_smoothing: float = 0.8,
        kernel: object = "auto",
        dtype: str = "float64",
        spmm: object = "auto",
        spmm_threads: int | None = None,
        n_shards: int | str = 1,
        max_workers: int | None = None,
        backend: str = "thread",
        workers=None,
        halo: str = "on",
    ) -> None:
        self._init_sharding(n_shards, max_workers, backend, workers, halo)
        super().__init__(
            num_classes=num_classes,
            alpha=alpha,
            beta=beta,
            gamma=gamma,
            tau=tau,
            window=window,
            max_iterations=max_iterations,
            tolerance=tolerance,
            patience=patience,
            seed=seed,
            track_history=track_history,
            state_smoothing=state_smoothing,
            kernel=kernel,
            dtype=dtype,
            spmm=spmm,
            spmm_threads=spmm_threads,
        )
