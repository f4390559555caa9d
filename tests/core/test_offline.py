"""Integration tests for the offline tri-clustering solver."""

import numpy as np
import pytest

from repro.core.offline import OfflineTriClustering
from repro.eval.metrics import clustering_accuracy


@pytest.fixture(scope="module")
def fitted(graph):
    solver = OfflineTriClustering(
        alpha=0.05, beta=0.8, max_iterations=120, seed=7
    )
    return solver.fit(graph)


class TestParameters:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            OfflineTriClustering(num_classes=1)
        with pytest.raises(ValueError):
            OfflineTriClustering(alpha=-0.1)
        with pytest.raises(ValueError):
            OfflineTriClustering(max_iterations=0)
        with pytest.raises(TypeError):  # the update_style option was removed
            OfflineTriClustering(update_style="projector")

    def test_rejects_sf0_class_mismatch(self, graph):
        solver = OfflineTriClustering(num_classes=2)
        with pytest.raises(ValueError, match="classes"):
            solver.fit(graph)


class TestFitResults:
    def test_output_shapes(self, fitted, graph):
        assert fitted.factors.sp.shape == (graph.num_tweets, 3)
        assert fitted.factors.su.shape == (graph.num_users, 3)
        assert fitted.factors.sf.shape == (graph.num_features, 3)
        assert fitted.tweet_sentiments().shape == (graph.num_tweets,)
        assert fitted.user_sentiments().shape == (graph.num_users,)
        assert fitted.feature_sentiments().shape == (graph.num_features,)

    def test_factors_nonnegative_finite(self, fitted):
        for name in ("sf", "sp", "su", "hp", "hu"):
            matrix = getattr(fitted.factors, name)
            assert np.all(matrix >= 0.0)
            assert np.all(np.isfinite(matrix))

    def test_objective_decreases_overall(self, fitted):
        totals = fitted.history.totals
        assert totals[-1] <= totals[0]

    def test_history_tracks_iterations(self, fitted):
        assert len(fitted.history) == fitted.iterations

    def test_final_objective_property(self, fitted):
        assert fitted.final_objective == fitted.history.final.total


class TestQuality:
    def test_tweet_accuracy_beats_majority(self, fitted, corpus):
        truth = corpus.tweet_labels()
        accuracy = clustering_accuracy(fitted.tweet_sentiments(), truth)
        labeled = truth[truth >= 0]
        majority = np.bincount(labeled).max() / labeled.size
        assert accuracy > majority

    def test_user_accuracy_reasonable(self, fitted, corpus):
        truth = corpus.user_labels()
        accuracy = clustering_accuracy(fitted.user_sentiments(), truth)
        assert accuracy > 0.5

    def test_uses_all_clusters(self, fitted):
        assert set(np.unique(fitted.tweet_sentiments())) == {0, 1, 2}


class TestDeterminism:
    def test_same_seed_same_result(self, graph):
        a = OfflineTriClustering(max_iterations=10, seed=3).fit(graph)
        b = OfflineTriClustering(max_iterations=10, seed=3).fit(graph)
        assert np.array_equal(a.tweet_sentiments(), b.tweet_sentiments())
        assert np.allclose(a.factors.sf, b.factors.sf)

    def test_initial_factors_override(self, graph):
        from repro.core.initialization import random_factors

        init = random_factors(
            graph.num_tweets, graph.num_users, graph.num_features, 3, seed=1
        )
        result = OfflineTriClustering(max_iterations=5, seed=3).fit(
            graph, initial_factors=init
        )
        assert result.iterations == 5


class TestWithoutLexicon:
    def test_runs_without_sf0(self, corpus, shared_vectorizer):
        from repro.graph.tripartite import build_tripartite_graph

        bare = build_tripartite_graph(corpus, vectorizer=shared_vectorizer)
        result = OfflineTriClustering(max_iterations=15, seed=3).fit(bare)
        assert np.all(np.isfinite(result.factors.sf))
