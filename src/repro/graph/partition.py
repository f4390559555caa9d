"""User-partition sharding: the hash partitioner and per-shard blocks.

The tri-clustering objective couples millions of users to one compact
word–sentiment factor ``Sf``.  Partitioning the *user* side (and each
user's tweets, which follow their author) splits the big matrices into
per-shard blocks whose updates touch disjoint rows, while ``Sf`` stays
global — the block-coordinate structure the sharded solver exploits.

:func:`hash_partition` places users by a stateless splitmix64 mix of
the user *id*, so a user lands on the same shard in every snapshot of
a stream regardless of who else is present.

``extract_shard_blocks`` slices a :class:`~repro.graph.tripartite.
TripartiteGraph` into :class:`ShardBlock` views.  Cut-edge handling:
``Xr`` entries joining two shards cannot appear in any block-diagonal
slice, so they are dropped from the shard-local model and accounted in
:class:`ShardedGraph`'s cut statistics.  Cross-shard ``Gu`` entries
are *retained* as per-shard halo structures — a ``gu_halo`` CSR block
over compacted ghost columns plus ``halo_owner``/``halo_source`` maps
identifying each ghost column's (owner shard, published boundary row)
— so the sharded solver can exchange read-only boundary ``Su`` rows
per sweep and evaluate the graph-smoothness term on the *full* ``Gu``.
A 1-shard partition cuts nothing: its one block shares the original
model's matrices and carries no halo.
``Xu`` rows are taken whole — a user's word aggregate keeps evidence
from retweets of other shards' tweets, which costs nothing and loses
nothing.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.graph.tripartite import TripartiteGraph
from repro.graph.usergraph import UserGraph

@dataclass(frozen=True)
class UserPartition:
    """A shard id per user row.

    ``assignments[i]`` is the shard of the user at matrix row ``i``;
    every value lies in ``[0, n_shards)``.  Shards may be empty.
    """

    n_shards: int
    assignments: np.ndarray

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        assignments = np.asarray(self.assignments, dtype=np.int64)
        if assignments.ndim != 1:
            raise ValueError("assignments must be one-dimensional")
        if assignments.size and (
            assignments.min() < 0 or assignments.max() >= self.n_shards
        ):
            raise ValueError(
                f"assignments outside [0, {self.n_shards}): "
                f"[{assignments.min()}, {assignments.max()}]"
            )
        object.__setattr__(self, "assignments", assignments)

    @property
    def num_users(self) -> int:
        return self.assignments.shape[0]

    @property
    def sizes(self) -> np.ndarray:
        """Users per shard, length ``n_shards`` (empty shards count 0)."""
        return np.bincount(self.assignments, minlength=self.n_shards)

    def rows_of(self, shard: int) -> np.ndarray:
        """Sorted global user rows of ``shard``."""
        if not (0 <= shard < self.n_shards):
            raise ValueError(f"shard {shard} outside [0, {self.n_shards})")
        return np.flatnonzero(self.assignments == shard)


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, vectorized over uint64 values."""
    z = values + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def hash_partition(user_ids: Sequence[int], n_shards: int) -> UserPartition:
    """Stateless deterministic partition by mixed user id.

    A user's shard depends only on ``(user_id, n_shards)`` — never on
    which other users share the snapshot — so streaming re-partitions
    are sticky per user.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    ids = np.asarray(list(user_ids), dtype=np.int64).astype(np.uint64)
    if ids.size == 0:
        return UserPartition(n_shards=n_shards, assignments=np.empty(0, np.int64))
    with np.errstate(over="ignore"):
        mixed = _splitmix64(ids)
    return UserPartition(
        n_shards=n_shards,
        assignments=(mixed % np.uint64(n_shards)).astype(np.int64),
    )


def _csr_payload(matrix: sp.csr_matrix) -> tuple:
    """The four arrays that define a CSR matrix, nothing else."""
    return (matrix.data, matrix.indices, matrix.indptr, matrix.shape)


def _csr_from_payload(payload: tuple) -> sp.csr_matrix:
    data, indices, indptr, shape = payload
    return sp.csr_matrix((data, indices, indptr), shape=shape)


def _block_from_parts(
    index: int,
    user_rows: np.ndarray,
    tweet_rows: np.ndarray,
    xp: sp.csr_matrix,
    xu: sp.csr_matrix,
    xr: sp.csr_matrix,
    gu: sp.csr_matrix,
    boundary_local: np.ndarray | None = None,
    gu_halo: sp.csr_matrix | None = None,
    halo_owner: np.ndarray | None = None,
    halo_source: np.ndarray | None = None,
) -> "ShardBlock":
    """Assemble a :class:`ShardBlock`, deriving the redundant members.

    ``du``/``laplacian`` are pure functions of the shipped matrices,
    computed with the same code whether the block is built in-process
    or rebuilt from a payload on the far side of a process boundary —
    so the two paths are bit-identical.

    With a halo block present, degrees are the *full-graph* degrees:
    the block-diagonal degree plus each boundary user's cut-edge
    remainder from ``gu_halo``.  Recomputing degrees from the mutilated
    block alone would silently re-weight the regularizer for boundary
    users even on the edges that were kept; the additive form keeps the
    local graph term diagonally dominant (PSD) and is bit-identical to
    the block's own degrees wherever the halo contribution is zero.
    """
    block_graph = UserGraph(adjacency=gu)
    du = block_graph.degree_matrix
    laplacian = block_graph.laplacian
    if gu_halo is not None and gu_halo.shape[0]:
        halo_degrees = np.asarray(gu_halo.sum(axis=1)).ravel()
        du = (du + sp.diags(halo_degrees, 0, shape=du.shape, format="csr"))
        du = du.tocsr()
        laplacian = (du - gu).tocsr()
    return ShardBlock(
        index=index,
        user_rows=user_rows,
        tweet_rows=tweet_rows,
        xp=xp,
        xu=xu,
        xr=xr,
        gu=gu,
        du=du,
        laplacian=laplacian,
        boundary_local=boundary_local,
        gu_halo=gu_halo,
        halo_owner=halo_owner,
        halo_source=halo_source,
    )


@dataclass
class ShardBlock:
    """One shard's slice of the tripartite graph.

    ``user_rows``/``tweet_rows`` are sorted global row indices, so
    per-shard factors keep the global relative order and scatter back
    with plain fancy indexing.  ``gu`` is the *block-diagonal* user
    graph slice; without a halo (one shard), ``du``/``laplacian`` are
    the block's own.

    Halo members (``None`` for the block of a one-shard partition; a
    shard of a larger partition always has them, empty when it has no
    cut edges): ``boundary_local`` lists the sorted
    local rows with at least one cross-shard ``Gu`` edge — the rows
    this shard *publishes* after each sweep; ``gu_halo`` is the
    ``num_users × num_halo`` CSR block of cut-edge weights over
    compacted ghost columns; ``halo_owner[j]``/``halo_source[j]`` map
    ghost column ``j`` to (owner shard, index into that owner's
    published boundary block).  With a halo, ``du``/``laplacian`` carry
    *full-graph* degrees (see :func:`_block_from_parts`).

    A block holds matrices only.  The transposes and norms a solve
    needs are built by the shard's
    :class:`~repro.core.sweepcache.SweepCache` on first use, where the
    block lives (on a socket worker: after shipping, in parallel).
    """

    index: int
    user_rows: np.ndarray
    tweet_rows: np.ndarray
    xp: sp.csr_matrix
    xu: sp.csr_matrix
    xr: sp.csr_matrix
    gu: sp.csr_matrix
    du: sp.csr_matrix
    laplacian: sp.csr_matrix
    boundary_local: np.ndarray | None = None
    gu_halo: sp.csr_matrix | None = None
    halo_owner: np.ndarray | None = None
    halo_source: np.ndarray | None = None

    @property
    def num_users(self) -> int:
        return self.user_rows.shape[0]

    @property
    def num_tweets(self) -> int:
        return self.tweet_rows.shape[0]

    @property
    def is_empty(self) -> bool:
        return self.num_users == 0 and self.num_tweets == 0

    # ------------------------------------------------------------------ #
    # Compact serialization (process-backend shipping)
    # ------------------------------------------------------------------ #

    def to_payload(self) -> dict:
        """Minimal picklable form: row indices + the four CSR pieces.

        Everything derivable (``du``, ``laplacian``) is dropped and
        recomputed on :meth:`from_payload`.  Shard blocks cross that
        boundary **once per scatter** — sweeps exchange only
        factor-sized arrays.  Halo members ship only when present (CSR
        payload form for ``gu_halo``).
        """
        payload = {
            "index": self.index,
            "user_rows": self.user_rows,
            "tweet_rows": self.tweet_rows,
            "xp": _csr_payload(self.xp),
            "xu": _csr_payload(self.xu),
            "xr": _csr_payload(self.xr),
            "gu": _csr_payload(self.gu),
        }
        if self.gu_halo is not None:
            payload["boundary_local"] = self.boundary_local
            payload["gu_halo"] = _csr_payload(self.gu_halo)
            payload["halo_owner"] = self.halo_owner
            payload["halo_source"] = self.halo_source
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "ShardBlock":
        """Rebuild a block shipped as :meth:`to_payload` (bit-identical:
        the derived members come from the same code as the direct
        construction path)."""
        gu_halo_payload = payload.get("gu_halo")
        return _block_from_parts(
            index=int(payload["index"]),
            user_rows=payload["user_rows"],
            tweet_rows=payload["tweet_rows"],
            xp=_csr_from_payload(payload["xp"]),
            xu=_csr_from_payload(payload["xu"]),
            xr=_csr_from_payload(payload["xr"]),
            gu=_csr_from_payload(payload["gu"]),
            boundary_local=payload.get("boundary_local"),
            gu_halo=(
                _csr_from_payload(gu_halo_payload)
                if gu_halo_payload is not None
                else None
            ),
            halo_owner=payload.get("halo_owner"),
            halo_source=payload.get("halo_source"),
        )


@dataclass
class ShardedGraph:
    """A partitioned graph: blocks plus what the partition cut.

    ``gu_cut_weight`` / ``xr_cut_nnz`` quantify what the partition
    severs; both are exactly zero for one shard.  The cut ``Gu`` weight
    is retained in the blocks' halos (the per-sweep boundary-row
    exchange evaluates it exactly); cut ``Xr`` entries are dropped.
    """

    graph: TripartiteGraph
    partition: UserPartition
    blocks: list[ShardBlock]
    gu_cut_weight: float
    gu_total_weight: float
    xr_cut_nnz: int
    xr_total_nnz: int

    @property
    def n_shards(self) -> int:
        return self.partition.n_shards

    @property
    def gu_cut_fraction(self) -> float:
        """Fraction of ``Gu`` edge weight crossing shards (0 unsharded)."""
        if self.gu_total_weight <= 0:
            return 0.0
        return self.gu_cut_weight / self.gu_total_weight

    @property
    def xr_cut_fraction(self) -> float:
        """Fraction of retweet incidences crossing shards."""
        if self.xr_total_nnz <= 0:
            return 0.0
        return self.xr_cut_nnz / self.xr_total_nnz


def _halo_parts(
    row_slice: sp.csr_matrix,
    assignments: np.ndarray,
    shard: int,
) -> tuple[np.ndarray, sp.csr_matrix, np.ndarray]:
    """One shard's cut-edge structures from its global adjacency rows.

    Returns ``(boundary_local, gu_halo, needed_global)``: the sorted
    local rows with at least one cross-shard edge, the cut-entry CSR
    block over compacted ghost columns (column ``j`` holds the weights
    to global user row ``needed_global[j]``), and those ghost rows'
    sorted global indices.  ``Gu`` is symmetric, so the rows a shard
    publishes are exactly the rows its neighbours consume.
    """
    num_local = row_slice.shape[0]
    counts = np.diff(row_slice.indptr)
    local_rows = np.repeat(np.arange(num_local, dtype=np.int64), counts)
    cross = assignments[row_slice.indices] != shard
    cross_rows = local_rows[cross]
    cross_cols = row_slice.indices[cross]
    cross_data = row_slice.data[cross]
    boundary_local = np.unique(cross_rows)
    needed_global = np.unique(cross_cols)
    gu_halo = sp.csr_matrix(
        (cross_data, (cross_rows, np.searchsorted(needed_global, cross_cols))),
        shape=(num_local, needed_global.shape[0]),
        dtype=row_slice.dtype,
    )
    return boundary_local, gu_halo, needed_global


def extract_shard_blocks(
    graph: TripartiteGraph,
    partition: UserPartition,
) -> ShardedGraph:
    """Slice ``graph`` into per-shard blocks along ``partition``.

    Tweets follow their author's shard.  Cross-shard ``Xr`` entries are
    dropped from the blocks and tallied; ``Xu`` rows are sliced whole
    (see module docstring).  Cross-shard ``Gu`` entries are retained
    as per-shard halo structures.  A one-shard partition cuts nothing,
    so its block shares the graph's matrices and carries no halo.
    """
    if partition.num_users != graph.num_users:
        raise ValueError(
            f"partition covers {partition.num_users} users but the graph "
            f"has {graph.num_users}"
        )
    if partition.n_shards == 1:
        # One shard cuts nothing: the block is the graph itself, so it
        # reuses the graph's own CSR matrices instead of slicing copies.
        block = _block_from_parts(
            index=0,
            user_rows=np.arange(graph.num_users),
            tweet_rows=np.arange(graph.num_tweets),
            xp=graph.xp.tocsr(),
            xu=graph.xu.tocsr(),
            xr=graph.xr.tocsr(),
            gu=graph.user_graph.adjacency.tocsr(),
        )
        return ShardedGraph(
            graph=graph,
            partition=partition,
            blocks=[block],
            gu_cut_weight=0.0,
            gu_total_weight=float(graph.user_graph.adjacency.sum()) / 2.0,
            xr_cut_nnz=0,
            xr_total_nnz=int(graph.xr.nnz),
        )
    corpus = graph.corpus
    # Corpora expose the author-row array precomputed (duck-typed:
    # synthetic benchmark corpora provide it without tweet objects);
    # fall back to the per-tweet lookup loop for minimal stand-ins.
    author_rows = getattr(corpus, "author_rows", None)
    if author_rows is None:
        author_rows = np.fromiter(
            (corpus.user_position(t.user_id) for t in corpus.tweets),
            dtype=np.int64,
            count=corpus.num_tweets,
        )
    tweet_assignments = (
        partition.assignments[author_rows]
        if author_rows.size
        else np.empty(0, np.int64)
    )

    # Pass 1: slice the block-diagonal parts and each shard's cut
    # entries.  Block assembly waits for pass 2 because a
    # ghost column's (owner, source-row) map needs every shard's
    # published boundary list first.
    parts: list[dict] = []
    kept_xr_nnz = 0
    kept_gu_weight = 0.0
    for shard in range(partition.n_shards):
        user_rows = partition.rows_of(shard)
        tweet_rows = np.flatnonzero(tweet_assignments == shard)
        adjacency_rows = graph.user_graph.adjacency[user_rows].tocsr()
        gu_block = adjacency_rows[:, user_rows].tocsr()
        boundary_local, gu_halo, needed_global = _halo_parts(
            adjacency_rows, partition.assignments, shard
        )
        part = dict(
            index=shard,
            user_rows=user_rows,
            tweet_rows=tweet_rows,
            xp=graph.xp[tweet_rows],
            xu=graph.xu[user_rows],
            xr=graph.xr[user_rows][:, tweet_rows].tocsr(),
            gu=gu_block,
            boundary_local=boundary_local,
            gu_halo=gu_halo,
            needed_global=needed_global,
        )
        parts.append(part)
        kept_xr_nnz += part["xr"].nnz
        kept_gu_weight += float(gu_block.sum())

    # Pass 2: resolve each ghost column against its owner's published
    # boundary block.  ``Gu`` symmetry guarantees every needed ghost row
    # appears in its owner's boundary list, so the searchsorted
    # positions are exact matches.
    boundary_global = [
        part["user_rows"][part["boundary_local"]] for part in parts
    ]
    for part in parts:
        needed = part.pop("needed_global")
        halo_owner = partition.assignments[needed]
        halo_source = np.empty(needed.shape[0], dtype=np.int64)
        for owner in range(partition.n_shards):
            owned = halo_owner == owner
            if owned.any():
                halo_source[owned] = np.searchsorted(
                    boundary_global[owner], needed[owned]
                )
        part["halo_owner"] = halo_owner
        part["halo_source"] = halo_source
    blocks = [_block_from_parts(**part) for part in parts]

    gu_total = float(graph.user_graph.adjacency.sum())
    return ShardedGraph(
        graph=graph,
        partition=partition,
        blocks=blocks,
        # Adjacency sums double-count symmetric edges; halve for weights.
        gu_cut_weight=(gu_total - kept_gu_weight) / 2.0,
        gu_total_weight=gu_total / 2.0,
        xr_cut_nnz=int(graph.xr.nnz - kept_xr_nnz),
        xr_total_nnz=int(graph.xr.nnz),
    )
