"""The sharded-solver names: aliases of the paper's two solvers.

Sharding is a constructor setting of
:class:`~repro.core.offline.OfflineTriClustering` and
:class:`~repro.core.online.OnlineTriClustering` (``n_shards``,
``max_workers``, ``backend``, ``workers``), not a solver type:
each solve hash-partitions the snapshot's users by id (tweets follow
their author) into ``n_shards`` blocks and runs them on a
:class:`~repro.utils.executor.WorkerPool` of the chosen backend, and
one in-process shard is solved inline.  :class:`ShardedTriClustering`
and :class:`ShardedOnlineTriClustering` are the same classes under the
names earlier releases gave them.  Planning, the shard-count heuristic
and the pool policy live in :mod:`repro.core.sweep` with the solve
loop, which also documents the multi-shard model semantics (halo
exchange, block-diagonal ``Hp``/``Hu``, consensus merge).
"""

from __future__ import annotations

from repro.core.offline import OfflineTriClustering
from repro.core.online import OnlineTriClustering
from repro.core.sweep import (
    AUTO_USERS_PER_SHARD,
    open_solver_pool,
    resolve_shard_count,
)

ShardedTriClustering = OfflineTriClustering
ShardedOnlineTriClustering = OnlineTriClustering

__all__ = [
    "AUTO_USERS_PER_SHARD",
    "ShardedOnlineTriClustering",
    "ShardedTriClustering",
    "open_solver_pool",
    "resolve_shard_count",
]
