"""The :class:`TripartiteGraph` bundle.

Ties together everything the tri-clustering solvers need for one corpus:
the three bipartite matrices (``Xp``, ``Xu``, ``Xr``), the user-user graph
``Gu``, the fitted vectorizer/vocabulary, and the feature sentiment prior
``Sf0``.  Building one object per corpus (or per snapshot, in the online
case) keeps index bookkeeping in a single place.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np
import scipy.sparse as sp

from repro.data.corpus import TweetCorpus
from repro.graph.bipartite import (
    build_tweet_feature_matrix,
    build_user_feature_matrix,
    build_user_tweet_matrix,
)
from repro.graph.usergraph import UserGraph, build_user_graph
from repro.text.lexicon import SentimentLexicon, build_sf0
from repro.text.vectorizer import CountVectorizer, TfidfVectorizer


@dataclass
class TripartiteGraph:
    """Matrix view of the feature-tweet-user tripartite graph."""

    corpus: TweetCorpus
    vectorizer: CountVectorizer
    xp: sp.csr_matrix          # tweet-feature, n×l
    xu: sp.csr_matrix          # user-feature,  m×l
    xr: sp.csr_matrix          # user-tweet,    m×n
    user_graph: UserGraph      # Gu with Du/Lu accessors
    sf0: np.ndarray | None = None  # feature prior, l×k

    def __post_init__(self) -> None:
        n, l = self.xp.shape
        m, l2 = self.xu.shape
        m2, n2 = self.xr.shape
        if l != l2:
            raise ValueError(f"Xp has {l} features but Xu has {l2}")
        if m != m2 or n != n2:
            raise ValueError(
                f"Xr shape {self.xr.shape} inconsistent with Xp {self.xp.shape}"
                f" / Xu {self.xu.shape}"
            )
        if self.user_graph.num_users != m:
            raise ValueError(
                f"user graph has {self.user_graph.num_users} users, expected {m}"
            )
        if self.sf0 is not None and self.sf0.shape[0] != l:
            raise ValueError(
                f"Sf0 has {self.sf0.shape[0]} rows, expected {l} features"
            )
        # The multiplicative updates assume finite non-negative weights;
        # a NaN or negative entry would otherwise surface only as
        # non-finite factors after a solve.
        for name, matrix in (
            ("Xp", self.xp),
            ("Xu", self.xu),
            ("Xr", self.xr),
            ("Gu", self.user_graph.adjacency),
        ):
            data = matrix.data if sp.issparse(matrix) else np.asarray(matrix)
            if not np.isfinite(data).all():
                raise ValueError(f"{name} has non-finite entries")
            if (data < 0).any():
                raise ValueError(f"{name} has negative entries")
        if self.sf0 is not None and not np.isfinite(self.sf0).all():
            raise ValueError("Sf0 has non-finite entries")

    @property
    def num_tweets(self) -> int:
        return self.xp.shape[0]

    @property
    def num_users(self) -> int:
        return self.xu.shape[0]

    @property
    def num_features(self) -> int:
        return self.xp.shape[1]

    @property
    def feature_names(self) -> list[str]:
        assert self.vectorizer.vocabulary is not None
        return self.vectorizer.vocabulary.tokens

    def astype(self, dtype: np.dtype) -> "TripartiteGraph":
        """Graph with all matrices cast to ``dtype``.

        Returns ``self`` unchanged when the dtype already matches (the
        float64 default), so the common path allocates nothing.  Solvers
        running in the opt-in float32 mode call this once per
        fit/partial_fit; casting the adjacency rebuilds
        ``Du``/``Lu`` in the same dtype via :class:`UserGraph`'s derived
        accessors.
        """
        if (
            self.xp.dtype == dtype
            and self.xu.dtype == dtype
            and self.xr.dtype == dtype
            and self.user_graph.adjacency.dtype == dtype
            and (self.sf0 is None or self.sf0.dtype == dtype)
        ):
            return self
        return TripartiteGraph(
            corpus=self.corpus,
            vectorizer=self.vectorizer,
            xp=self.xp.astype(dtype),
            xu=self.xu.astype(dtype),
            xr=self.xr.astype(dtype),
            user_graph=UserGraph(
                adjacency=self.user_graph.adjacency.astype(dtype)
            ),
            sf0=None if self.sf0 is None else self.sf0.astype(dtype),
        )

    def to_networkx(self) -> nx.Graph:
        """Export the full tripartite graph (Figure 2) for inspection.

        Nodes are namespaced strings: ``f:<token>``, ``p:<tweet_id>``,
        ``u:<user_id>``.  Edges carry the matrix weights.
        """
        graph = nx.Graph()
        names = self.feature_names
        tweets = self.corpus.tweets
        user_ids = self.corpus.user_ids
        graph.add_nodes_from((f"f:{t}" for t in names), layer="feature")
        graph.add_nodes_from((f"p:{t.tweet_id}" for t in tweets), layer="tweet")
        graph.add_nodes_from((f"u:{u}" for u in user_ids), layer="user")
        coo = self.xp.tocoo()
        for i, j, w in zip(coo.row, coo.col, coo.data):
            graph.add_edge(f"p:{tweets[i].tweet_id}", f"f:{names[j]}", weight=float(w))
        coo = self.xr.tocoo()
        for i, j, w in zip(coo.row, coo.col, coo.data):
            graph.add_edge(f"u:{user_ids[i]}", f"p:{tweets[j].tweet_id}", weight=float(w))
        return graph


def build_tripartite_graph(
    corpus: TweetCorpus,
    vectorizer: CountVectorizer | None = None,
    lexicon: SentimentLexicon | None = None,
    num_classes: int = 3,
    use_tfidf: bool = True,
    min_document_frequency: int = 2,
    max_features: int | None = None,
) -> TripartiteGraph:
    """Build a :class:`TripartiteGraph` from a corpus.

    Parameters
    ----------
    vectorizer:
        A pre-fitted vectorizer to reuse (online snapshots share the
        training vocabulary).  When ``None`` a fresh one is fitted on the
        corpus.
    lexicon:
        Seed sentiment lexicon; when given, the ``Sf0`` prior of Eq. (5)
        is attached.
    num_classes:
        Number of sentiment classes ``k`` (2 or 3).
    """
    if vectorizer is None:
        vectorizer_cls = TfidfVectorizer if use_tfidf else CountVectorizer
        vectorizer = vectorizer_cls(
            min_document_frequency=min_document_frequency,
            max_features=max_features,
        )
        vectorizer.fit(corpus.texts())
    xp = build_tweet_feature_matrix(corpus, vectorizer)
    xr = build_user_tweet_matrix(corpus)
    xu = build_user_feature_matrix(xp, xr)
    user_graph = build_user_graph(corpus)
    sf0 = None
    if lexicon is not None:
        assert vectorizer.vocabulary is not None
        sf0 = build_sf0(vectorizer.vocabulary, lexicon, num_classes=num_classes)
    return TripartiteGraph(
        corpus=corpus,
        vectorizer=vectorizer,
        xp=xp,
        xu=xu,
        xr=xr,
        user_graph=user_graph,
        sf0=sf0,
    )
