"""IncrementalTripartiteBuilder: delta assembly equals the full rebuild."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data.stream import iter_tweet_batches
from repro.data.tweet import Tweet, UserProfile
from repro.graph.incremental import IncrementalTripartiteBuilder
from repro.graph.tripartite import build_tripartite_graph
from repro.text.vectorizer import TfidfVectorizer


def _dense(matrix: sp.spmatrix) -> np.ndarray:
    return np.asarray(matrix.todense())


class TestSingleSnapshotEquivalence:
    """One snapshot through the builder == build_tripartite_graph."""

    @pytest.fixture()
    def pair(self, corpus, lexicon):
        start, end, tweets = next(iter_tweet_batches(corpus, interval_days=21))
        window = corpus.window(start, end)

        builder = IncrementalTripartiteBuilder(lexicon=lexicon)
        builder.ingest(tweets, users=corpus.profiles_for(tweets))
        incremental = builder.build_snapshot()

        reference_vectorizer = TfidfVectorizer()
        reference_vectorizer.partial_fit(window.texts())
        rebuilt = build_tripartite_graph(
            window, vectorizer=reference_vectorizer, lexicon=lexicon
        )
        return incremental, rebuilt

    def test_matrices_match(self, pair):
        incremental, rebuilt = pair
        assert incremental.xp.shape == rebuilt.xp.shape
        np.testing.assert_allclose(
            _dense(incremental.xp), _dense(rebuilt.xp), atol=1e-12
        )
        np.testing.assert_allclose(
            _dense(incremental.xr), _dense(rebuilt.xr), atol=1e-12
        )
        np.testing.assert_allclose(
            _dense(incremental.xu), _dense(rebuilt.xu), atol=1e-12
        )
        np.testing.assert_allclose(
            _dense(incremental.user_graph.adjacency),
            _dense(rebuilt.user_graph.adjacency),
            atol=1e-12,
        )

    def test_prior_matches(self, pair):
        incremental, rebuilt = pair
        assert incremental.sf0 is not None and rebuilt.sf0 is not None
        np.testing.assert_allclose(incremental.sf0, rebuilt.sf0, atol=1e-12)

    def test_corpus_alignment(self, pair):
        incremental, rebuilt = pair
        assert [t.tweet_id for t in incremental.corpus.tweets] == [
            t.tweet_id for t in rebuilt.corpus.tweets
        ]
        assert incremental.corpus.user_ids == rebuilt.corpus.user_ids


class TestMultiSnapshotEquivalence:
    """Across snapshots the builder matches a shared growing vectorizer."""

    def test_second_snapshot_matches_partial_fit_rebuild(self, corpus, lexicon):
        batches = list(iter_tweet_batches(corpus, interval_days=21))
        assert len(batches) >= 2

        builder = IncrementalTripartiteBuilder(lexicon=lexicon)
        reference_vectorizer = TfidfVectorizer()
        previous_features = 0
        for start, end, tweets in batches[:3]:
            builder.ingest(tweets, users=corpus.profiles_for(tweets))
            incremental = builder.build_snapshot()

            window = corpus.window(start, end)
            reference_vectorizer.partial_fit(window.texts())
            rebuilt = build_tripartite_graph(
                window, vectorizer=reference_vectorizer, lexicon=lexicon
            )
            np.testing.assert_allclose(
                _dense(incremental.xp), _dense(rebuilt.xp), atol=1e-12
            )
            np.testing.assert_allclose(
                incremental.sf0, rebuilt.sf0, atol=1e-12
            )
            # Append-only growth: feature columns only ever extend.
            assert incremental.num_features >= previous_features
            previous_features = incremental.num_features

    def test_vocabulary_grows_append_only(self, corpus):
        builder = IncrementalTripartiteBuilder()
        batches = list(iter_tweet_batches(corpus, interval_days=30))
        builder.ingest(batches[0][2])
        builder.build_snapshot()
        tokens_before = builder.vectorizer.vocabulary.tokens
        builder.ingest(batches[1][2])
        builder.build_snapshot()
        tokens_after = builder.vectorizer.vocabulary.tokens
        assert tokens_after[: len(tokens_before)] == tokens_before


class TestBuilderBookkeeping:
    def test_empty_snapshot_rejected(self):
        builder = IncrementalTripartiteBuilder()
        with pytest.raises(ValueError, match="no tweets"):
            builder.build_snapshot()
        builder.ingest(
            [Tweet(tweet_id=0, user_id=1, text="hello world", day=0)]
        )
        builder.build_snapshot()
        with pytest.raises(ValueError, match="no tweets"):
            builder.build_snapshot()

    def test_pending_and_counters(self):
        builder = IncrementalTripartiteBuilder()
        assert builder.pending == 0
        builder.ingest(
            [
                Tweet(tweet_id=0, user_id=1, text="aa bb", day=0),
                Tweet(tweet_id=1, user_id=2, text="bb cc", day=0),
            ]
        )
        assert builder.pending == 2
        graph = builder.build_snapshot()
        assert builder.pending == 0
        assert builder.snapshots_built == 1
        assert graph.num_tweets == 2

    def test_cross_snapshot_retweet_edges(self):
        """A retweet of last snapshot's tweet adds its author to the
        snapshot's users but no ``Gu`` edge, like ``build_user_graph``."""
        original = Tweet(tweet_id=0, user_id=1, text="yes on thirty", day=0)
        retweet = Tweet(
            tweet_id=1, user_id=2, text="yes on thirty", day=5, retweet_of=0
        )

        builder = IncrementalTripartiteBuilder()
        builder.ingest([original])
        builder.build_snapshot()
        builder.ingest([retweet])
        graph = builder.build_snapshot()
        assert sorted(graph.corpus.user_ids) == [1, 2]
        assert graph.user_graph.adjacency.nnz == 0

    def test_users_profiles_attached(self):
        builder = IncrementalTripartiteBuilder()
        profile = UserProfile(user_id=9, base_stance=None, labeled=False)
        builder.ingest(
            [Tweet(tweet_id=0, user_id=9, text="some text", day=0)],
            users=[profile],
        )
        graph = builder.build_snapshot()
        assert graph.corpus.users[9] is profile
