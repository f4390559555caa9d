"""Tripartite graph substrate.

Builds the matrix views of the feature-tweet-user tripartite graph that
the tri-clustering framework factorizes:

- :mod:`repro.graph.bipartite` — ``Xp`` (tweet-feature), ``Xu``
  (user-feature) and ``Xr`` (user-tweet) builders.
- :mod:`repro.graph.usergraph` — the user-user retweet graph ``Gu``, its
  degree matrix ``Du`` and Laplacian ``Lu`` (Eq. 6).
- :mod:`repro.graph.tripartite` — the :class:`TripartiteGraph` bundle tying
  a corpus, a vocabulary and all matrices together.
- :mod:`repro.graph.incremental` — per-snapshot delta assembly for the
  streaming pipeline (tokenize once, single COO→CSR conversion).
- :mod:`repro.graph.partition` — user-partition sharding: the hash
  partitioner plus per-shard block extraction.
"""

from repro.graph.bipartite import (
    build_tweet_feature_matrix,
    build_user_feature_matrix,
    build_user_tweet_matrix,
)
from repro.graph.incremental import IncrementalTripartiteBuilder
from repro.graph.partition import (
    ShardBlock,
    ShardedGraph,
    UserPartition,
    extract_shard_blocks,
    hash_partition,
)
from repro.graph.tripartite import TripartiteGraph, build_tripartite_graph
from repro.graph.usergraph import UserGraph, build_user_graph

__all__ = [
    "IncrementalTripartiteBuilder",
    "ShardBlock",
    "ShardedGraph",
    "TripartiteGraph",
    "UserGraph",
    "UserPartition",
    "extract_shard_blocks",
    "hash_partition",
    "build_tripartite_graph",
    "build_tweet_feature_matrix",
    "build_user_feature_matrix",
    "build_user_graph",
    "build_user_tweet_matrix",
]
