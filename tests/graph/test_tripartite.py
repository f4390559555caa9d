"""Tests for the tripartite graph bundle."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph.tripartite import TripartiteGraph, build_tripartite_graph
from repro.graph.usergraph import UserGraph


class TestBuildTripartiteGraph:
    def test_shapes_consistent(self, graph, corpus):
        assert graph.num_tweets == corpus.num_tweets
        assert graph.num_users == corpus.num_users
        assert graph.xp.shape == (graph.num_tweets, graph.num_features)
        assert graph.xu.shape == (graph.num_users, graph.num_features)
        assert graph.xr.shape == (graph.num_users, graph.num_tweets)

    def test_sf0_attached_with_lexicon(self, graph):
        assert graph.sf0 is not None
        assert graph.sf0.shape == (graph.num_features, 3)
        assert np.allclose(graph.sf0.sum(axis=1), 1.0)

    def test_without_lexicon_sf0_is_none(self, corpus):
        bare = build_tripartite_graph(corpus)
        assert bare.sf0 is None

    def test_matrices_nonnegative(self, graph):
        assert graph.xp.min() >= 0.0
        assert graph.xu.min() >= 0.0
        assert graph.xr.min() >= 0.0

    def test_feature_names_align_with_columns(self, graph):
        names = graph.feature_names
        assert len(names) == graph.num_features
        vocab = graph.vectorizer.vocabulary
        assert all(vocab.id_of(n) == i for i, n in enumerate(names[:20]))

    def test_vectorizer_reuse_keeps_feature_space(self, corpus, shared_vectorizer):
        window = corpus.window(0, 30)
        small = build_tripartite_graph(window, vectorizer=shared_vectorizer)
        assert small.num_features == len(shared_vectorizer.vocabulary)

    def test_count_vectorizer_mode(self, corpus):
        built = build_tripartite_graph(corpus, use_tfidf=False)
        assert built.xp.dtype == np.float64
        # count mode yields integer-valued entries
        assert np.allclose(built.xp.data, np.round(built.xp.data))


class TestValidation:
    def _components(self, graph):
        return dict(
            corpus=graph.corpus,
            vectorizer=graph.vectorizer,
            xp=graph.xp,
            xu=graph.xu,
            xr=graph.xr,
            user_graph=graph.user_graph,
            sf0=graph.sf0,
        )

    def test_rejects_feature_mismatch(self, graph):
        parts = self._components(graph)
        parts["xu"] = sp.csr_matrix((graph.num_users, graph.num_features + 1))
        with pytest.raises(ValueError, match="features"):
            TripartiteGraph(**parts)

    def test_rejects_xr_mismatch(self, graph):
        parts = self._components(graph)
        parts["xr"] = sp.csr_matrix((graph.num_users + 1, graph.num_tweets))
        with pytest.raises(ValueError):
            TripartiteGraph(**parts)

    def test_rejects_user_graph_mismatch(self, graph):
        parts = self._components(graph)
        parts["user_graph"] = UserGraph(
            adjacency=sp.csr_matrix((graph.num_users + 2, graph.num_users + 2))
        )
        with pytest.raises(ValueError, match="user graph"):
            TripartiteGraph(**parts)

    def test_rejects_sf0_mismatch(self, graph):
        parts = self._components(graph)
        parts["sf0"] = np.ones((graph.num_features + 1, 3))
        with pytest.raises(ValueError, match="Sf0"):
            TripartiteGraph(**parts)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("name", ["Xp", "Xu", "Xr", "Gu"])
    def test_rejects_non_finite_or_negative_weights(self, graph, name, value):
        parts = corrupted_parts(graph, name, value)
        with pytest.raises(ValueError, match=name):
            TripartiteGraph(**parts)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_sf0(self, graph, value):
        parts = corrupted_parts(graph, "Sf0", value)
        with pytest.raises(ValueError, match="Sf0"):
            TripartiteGraph(**parts)


def corrupted_parts(graph, name: str, value: float) -> dict:
    """``graph``'s constructor arguments with one entry of ``name``
    (``"Xp"``/``"Xu"``/``"Xr"``/``"Gu"``/``"Sf0"``) set to ``value``."""
    parts = dict(
        corpus=graph.corpus,
        vectorizer=graph.vectorizer,
        xp=graph.xp,
        xu=graph.xu,
        xr=graph.xr,
        user_graph=graph.user_graph,
        sf0=graph.sf0,
    )
    if name == "Sf0":
        parts["sf0"] = graph.sf0.copy()
        parts["sf0"][0, 0] = value
        return parts
    key = {"Xp": "xp", "Xu": "xu", "Xr": "xr", "Gu": "gu"}[name]
    matrix = (graph.user_graph.adjacency if key == "gu" else parts[key]).copy()
    matrix.data[0] = value
    if key == "gu":
        parts["user_graph"] = UserGraph(adjacency=matrix)
    else:
        parts[key] = matrix
    return parts


class TestNetworkxExport:
    def test_layers_and_edges(self, corpus, lexicon):
        window = corpus.window(0, 5)
        small = build_tripartite_graph(window, lexicon=lexicon)
        nx_graph = small.to_networkx()
        layers = {data["layer"] for _, data in nx_graph.nodes(data=True)}
        assert layers == {"feature", "tweet", "user"}
        assert nx_graph.number_of_edges() == small.xp.nnz + small.xr.nnz
