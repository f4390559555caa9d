"""Tests for fold-in inference on unseen tweets/users."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.inference import (
    _fold_in,
    infer_tweet_memberships,
    infer_tweet_sentiments,
    infer_user_memberships,
    infer_user_sentiments,
)
from repro.core.offline import OfflineTriClustering
from repro.data.synthetic import BallotDatasetGenerator, prop30_config
from repro.eval.metrics import clustering_accuracy
from repro.graph.bipartite import build_tweet_feature_matrix
from repro.graph.tripartite import build_tripartite_graph
from repro.utils.matrices import safe_divide


@pytest.fixture(scope="module")
def model(corpus, shared_vectorizer, lexicon, graph):
    result = OfflineTriClustering(
        alpha=0.05, beta=0.8, max_iterations=100, seed=7
    ).fit(graph)
    return result.factors


@pytest.fixture(scope="module")
def fresh_tweets(generator, shared_vectorizer):
    """A *different* generated corpus sharing the vocabulary."""
    fresh = BallotDatasetGenerator(
        prop30_config(scale=0.03), seed=99
    ).generate()
    xp = build_tweet_feature_matrix(fresh, shared_vectorizer)
    return fresh, xp


class TestTweetFoldIn:
    def test_membership_contract(self, model, fresh_tweets):
        _, xp = fresh_tweets
        memberships = infer_tweet_memberships(xp, model)
        assert memberships.shape == (xp.shape[0], 3)
        assert np.all(memberships >= 0.0)
        sums = memberships.sum(axis=1)
        assert np.all((np.isclose(sums, 1.0)) | (sums == 0.0))

    def test_accuracy_on_unseen_corpus(self, model, fresh_tweets):
        fresh, xp = fresh_tweets
        predictions = infer_tweet_sentiments(xp, model)
        accuracy = clustering_accuracy(predictions, fresh.tweet_labels())
        assert accuracy > 0.7

    def test_feature_mismatch_rejected(self, model):
        with pytest.raises(ValueError, match="features"):
            infer_tweet_memberships(np.ones((2, 5)), model)

    def test_bad_iterations(self, model, fresh_tweets):
        _, xp = fresh_tweets
        with pytest.raises(ValueError, match="iterations"):
            infer_tweet_memberships(xp, model, iterations=0)

    def test_deterministic_given_seed(self, model, fresh_tweets):
        _, xp = fresh_tweets
        a = infer_tweet_sentiments(xp, model, seed=3)
        b = infer_tweet_sentiments(xp, model, seed=3)
        assert np.array_equal(a, b)

    def test_matches_in_sample_clusters(self, model, graph, corpus):
        """Fold-in on the training tweets reproduces the fitted clusters
        for the vast majority of rows."""
        refolded = infer_tweet_sentiments(graph.xp, model)
        fitted = model.tweet_clusters()
        agreement = float(np.mean(refolded == fitted))
        assert agreement > 0.8


class TestUserFoldIn:
    def test_membership_contract(self, model, fresh_tweets, shared_vectorizer):
        fresh, xp = fresh_tweets
        fresh_graph = build_tripartite_graph(
            fresh, vectorizer=shared_vectorizer
        )
        memberships = infer_user_memberships(fresh_graph.xu, model)
        assert memberships.shape == (fresh.num_users, 3)
        assert np.all(memberships >= 0.0)

    def test_accuracy_on_unseen_users(self, model, fresh_tweets, shared_vectorizer):
        fresh, _ = fresh_tweets
        fresh_graph = build_tripartite_graph(
            fresh, vectorizer=shared_vectorizer
        )
        predictions = infer_user_sentiments(fresh_graph.xu, model)
        accuracy = clustering_accuracy(predictions, fresh.user_labels())
        assert accuracy > 0.5

    def test_retweet_attraction_validated(self, model, fresh_tweets, shared_vectorizer):
        fresh, _ = fresh_tweets
        fresh_graph = build_tripartite_graph(
            fresh, vectorizer=shared_vectorizer
        )
        with pytest.raises(ValueError, match="tweet columns"):
            infer_user_memberships(
                fresh_graph.xu, model, xr_new=np.ones((fresh.num_users, 3))
            )
        with pytest.raises(ValueError, match="rows"):
            infer_user_memberships(
                fresh_graph.xu,
                model,
                xr_new=np.ones((fresh.num_users + 1, model.num_tweets)),
            )

    def test_all_zero_user_row(self, model):
        """A user with no feature evidence folds to an all-zero row."""
        memberships = infer_user_memberships(
            np.zeros((1, model.num_features)), model
        )
        np.testing.assert_array_equal(memberships, np.zeros((1, 3)))

    def test_retweet_signal_incorporated(self, model, graph):
        """A user whose only signal is retweeting cluster-0 tweets should
        land in cluster 0."""
        target = 0
        cluster0 = np.flatnonzero(model.tweet_clusters() == target)[:10]
        xr_new = np.zeros((1, model.num_tweets))
        xr_new[0, cluster0] = 1.0
        xu_new = np.zeros((1, model.num_features))
        prediction = infer_user_sentiments(xu_new, model, xr_new=xr_new)
        assert prediction[0] == target


class TestFoldInEdgeCases:
    """Serving-path edge cases: empty evidence, tiny batches, determinism."""

    def test_all_zero_tweet_row_yields_zero_membership(self, model):
        """A tweet with no in-vocabulary words has zero attraction; the
        multiplicative fold-in collapses its row to exact zeros instead
        of emitting an arbitrary confident class."""
        xp = sp.csr_matrix((3, model.num_features))
        memberships = infer_tweet_memberships(xp, model, seed=5)
        np.testing.assert_array_equal(memberships, np.zeros((3, 3)))

    def test_zero_rows_do_not_perturb_nonzero_rows(self, model, fresh_tweets):
        """Rows are coupled through a k×k aggregate; zero-attraction rows
        contribute nothing to it, so real rows keep valid memberships."""
        _, xp = fresh_tweets
        evidenced = np.flatnonzero(np.diff(xp.indptr) > 0)[:4]
        mixed = sp.vstack(
            [xp[evidenced], sp.csr_matrix((2, model.num_features))]
        ).tocsr()
        memberships = infer_tweet_memberships(mixed, model, seed=5)
        np.testing.assert_array_equal(memberships[4:], np.zeros((2, 3)))
        sums = memberships[:4].sum(axis=1)
        np.testing.assert_allclose(sums, np.ones(4))

    def test_single_tweet_batch(self, model, fresh_tweets):
        _, xp = fresh_tweets
        memberships = infer_tweet_memberships(xp[:1], model)
        assert memberships.shape == (1, 3)
        assert np.all(np.isfinite(memberships))
        assert np.isclose(memberships.sum(), 1.0)
        label = infer_tweet_sentiments(xp[:1], model)
        assert label.shape == (1,)
        assert 0 <= label[0] <= 2

    def test_single_user_batch(self, model, fresh_tweets, shared_vectorizer):
        fresh, _ = fresh_tweets
        fresh_graph = build_tripartite_graph(fresh, vectorizer=shared_vectorizer)
        memberships = infer_user_memberships(fresh_graph.xu[:1], model)
        assert memberships.shape == (1, 3)
        labels = infer_user_sentiments(fresh_graph.xu[:1], model)
        assert labels.shape == (1,)

    def test_memberships_deterministic_under_fixed_seed(
        self, model, fresh_tweets
    ):
        _, xp = fresh_tweets
        a = infer_tweet_memberships(xp[:16], model, seed=42)
        b = infer_tweet_memberships(xp[:16], model, seed=42)
        np.testing.assert_array_equal(a, b)
        c = infer_user_memberships(xp[:16], model, seed=42)
        d = infer_user_memberships(xp[:16], model, seed=42)
        np.testing.assert_array_equal(c, d)

    def test_seed_never_affects_results(self, model, fresh_tweets):
        """The NNLS fold-in is deterministic: the (API-stability) seed
        parameter has no effect, whatever form it takes."""
        _, xp = fresh_tweets
        a = infer_tweet_memberships(xp[:8], model, seed=9)
        b = infer_tweet_memberships(xp[:8], model, seed=1234)
        c = infer_tweet_memberships(
            xp[:8], model, seed=np.random.default_rng(5)
        )
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)


def allocating_fold_in(attraction, gram, iterations):
    """The allocate-per-step fold-in loop, kept here as the oracle."""
    memberships = np.full(attraction.shape, 0.5)
    for _ in range(iterations):
        memberships = memberships * safe_divide(
            attraction, memberships @ gram
        )
    return memberships


class TestBufferedFoldIn:
    """``_fold_in`` runs its steps in preallocated buffers; the results
    must be the allocating loop's, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(0, 40),
        k=st.integers(1, 6),
        iterations=st.integers(1, 30),
        zero_share=st.sampled_from([0.0, 0.3, 1.0]),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    def test_bit_identical_to_allocating_loop(
        self, seed, rows, k, iterations, zero_share, dtype
    ):
        rng = np.random.default_rng(seed)
        attraction = rng.random((rows, k)).astype(dtype)
        attraction[rng.random(rows) < zero_share] = 0.0
        factor = rng.random((k, k))
        gram = factor @ factor.T
        buffered = _fold_in(attraction, gram, iterations)
        expected = allocating_fold_in(attraction, gram, iterations)
        assert buffered.dtype == expected.dtype
        assert buffered.tobytes() == expected.tobytes()


class TestBatchInvariance:
    def test_single_rows_equal_batched_rows(self, model, fresh_tweets):
        """A row folded in alone is bitwise the row folded in a batch."""
        _, xp = fresh_tweets
        batched = infer_tweet_memberships(xp, model)
        single = np.vstack(
            [infer_tweet_memberships(xp[i], model) for i in range(xp.shape[0])]
        )
        np.testing.assert_array_equal(single, batched)
        users = infer_user_memberships(xp, model)
        one_by_one = np.vstack(
            [infer_user_memberships(xp[i], model) for i in range(xp.shape[0])]
        )
        np.testing.assert_array_equal(one_by_one, users)
