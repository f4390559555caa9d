"""User-user retweet graph ``Gu`` and its Laplacian (Eq. 6).

``Gu[i, j]`` counts retweet interactions between users *i* and *j*
(symmetrized).  The graph-regularization term
``tr(Suᵀ·Lu·Su) = ½ Σᵢⱼ ||Su(i) − Su(j)||² · Gu(i,j)`` penalizes
sentiment disagreement between retweet-connected users.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np
import scipy.sparse as sp

from repro.data.corpus import TweetCorpus


@dataclass
class UserGraph:
    """The user-user retweet graph and its spectral companions."""

    adjacency: sp.csr_matrix  # Gu, symmetric, zero diagonal

    def __post_init__(self) -> None:
        if self.adjacency.shape[0] != self.adjacency.shape[1]:
            raise ValueError("adjacency must be square")

    @property
    def num_users(self) -> int:
        return self.adjacency.shape[0]

    @property
    def degree_matrix(self) -> sp.csr_matrix:
        """``Du`` — diagonal weighted-degree matrix."""
        degrees = np.asarray(self.adjacency.sum(axis=1)).ravel()
        return sp.diags(degrees, format="csr")

    @property
    def laplacian(self) -> sp.csr_matrix:
        """``Lu = Du − Gu``."""
        return (self.degree_matrix - self.adjacency).tocsr()

    def smoothness_penalty(self, membership: np.ndarray) -> float:
        """``tr(Sᵀ·Lu·S)`` for a user membership matrix ``S``."""
        return float(np.sum(membership * (self.laplacian @ membership)))

    def to_networkx(self) -> nx.Graph:
        """Export as a weighted :class:`networkx.Graph` (for analysis)."""
        return nx.from_scipy_sparse_array(self.adjacency)

    def connected_components(self) -> list[set[int]]:
        """Connected components as sets of user row indices."""
        graph = self.to_networkx()
        return [set(component) for component in nx.connected_components(graph)]


def assemble_adjacency(
    rows: np.ndarray, cols: np.ndarray, size: int
) -> sp.csr_matrix:
    """Symmetric, zero-diagonal weighted adjacency from interaction pairs.

    Each pair ``(rows[e], cols[e])`` contributes weight 1 in both
    directions; weights accumulate over repeated pairs and pairs on the
    diagonal are dropped.  Shared by the offline corpus builder and the
    incremental streaming builder so the ``Gu`` invariants (symmetry,
    zero diagonal, count weights) live in one place.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    off_diagonal = rows != cols
    rows, cols = rows[off_diagonal], cols[off_diagonal]
    data = np.ones(2 * rows.shape[0], dtype=np.float64)
    adjacency = sp.csr_matrix(
        (data, (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(size, size),
    )
    adjacency.sum_duplicates()
    return adjacency


def build_user_graph(corpus: TweetCorpus) -> UserGraph:
    """Build ``Gu`` from a corpus' retweet relations.

    Every retweet contributes weight 1 between the retweeting user and the
    author of the source tweet; weights accumulate over repeated
    interactions and the matrix is symmetrized.  Self-retweets are ignored
    (they carry no cross-user sentiment signal), and so are retweets
    whose source is outside the corpus.
    """
    sources = corpus.source_rows
    retweets = np.flatnonzero(sources >= 0)
    authors = corpus.author_rows
    return UserGraph(
        adjacency=assemble_adjacency(
            authors[retweets], authors[sources[retweets]], corpus.num_users
        )
    )
