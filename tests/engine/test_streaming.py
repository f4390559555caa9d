"""StreamingSentimentEngine: ingest → advance → classify, end to end."""

import numpy as np
import pytest

from repro.data.stream import iter_tweet_batches
from repro.data.synthetic import BallotDatasetGenerator, prop30_config
from repro.data.tweet import Tweet
from repro.engine import EngineConfig, StreamingSentimentEngine
from repro.eval.metrics import clustering_accuracy

INTERVAL_DAYS = 21


def config(max_iterations=15, **overrides):
    return EngineConfig(
        seed=7, solver={"max_iterations": max_iterations}, **overrides
    )


def _feed(engine, corpus, batches):
    for _, _, tweets in batches:
        engine.ingest(tweets, users=corpus.profiles_for(tweets))
        engine.advance_snapshot()
    return engine


@pytest.fixture(scope="module")
def batches(corpus):
    batches = list(iter_tweet_batches(corpus, interval_days=INTERVAL_DAYS))
    assert len(batches) >= 3
    return batches


@pytest.fixture(scope="module")
def fed_engine(corpus, lexicon, batches):
    engine = StreamingSentimentEngine(config(), lexicon=lexicon)
    return _feed(engine, corpus, batches)


@pytest.fixture(scope="module")
def held_out(generator):
    """A corpus the engine never ingested, for classify()."""
    fresh = BallotDatasetGenerator(prop30_config(scale=0.02), seed=99).generate()
    labeled = [t for t in fresh.tweets if t.sentiment is not None]
    texts = [t.text for t in labeled]
    truth = np.array([int(t.sentiment) for t in labeled], dtype=np.int64)
    return texts, truth


class TestEndToEnd:
    def test_processes_all_snapshots(self, fed_engine, batches):
        assert fed_engine.snapshots_processed == len(batches)
        assert len(fed_engine.reports) == len(batches)
        assert fed_engine.is_ready
        assert fed_engine.pending == 0

    def test_vocabulary_and_rows_stay_aligned(self, fed_engine):
        reports = fed_engine.reports
        widths = [r.num_features for r in reports]
        assert widths == sorted(widths), "vocabulary must grow append-only"
        # The latest factors cover exactly the vocabulary as of the last
        # snapshot build.
        assert fed_engine.factors.num_features == widths[-1]
        assert fed_engine.factors.num_features == fed_engine.num_features
        assert len(fed_engine.vectorizer.vocabulary) == widths[-1]

    def test_classify_held_out(self, fed_engine, held_out):
        texts, truth = held_out
        labels = fed_engine.classify(texts)
        assert labels.shape == (len(texts),)
        assert set(np.unique(labels)).issubset({-1, 0, 1, 2})
        scored = labels >= 0
        assert scored.mean() > 0.7  # shared word distribution: mostly in-vocab
        accuracy = clustering_accuracy(labels[scored], truth[scored])
        assert accuracy > 0.6

    def test_memberships_contract(self, fed_engine, held_out):
        texts, _ = held_out
        memberships = fed_engine.classify_memberships(texts[:32])
        assert memberships.shape == (32, 3)
        assert np.all(memberships >= 0.0)
        sums = memberships.sum(axis=1)
        assert np.all(np.isclose(sums, 1.0) | (sums == 0.0))

    def test_user_sentiments_aligned(self, fed_engine, corpus):
        labels = fed_engine.user_sentiments()
        assert labels
        assert set(labels).issubset(set(corpus.users))
        assert all(0 <= label <= 2 for label in labels.values())

    def test_deterministic_given_seed(self, corpus, lexicon, batches, held_out):
        texts, _ = held_out
        a = _feed(
            StreamingSentimentEngine(config(), lexicon=lexicon),
            corpus,
            batches,
        )
        b = _feed(
            StreamingSentimentEngine(config(), lexicon=lexicon),
            corpus,
            batches,
        )
        np.testing.assert_allclose(a.factors.sf, b.factors.sf, atol=1e-12)
        np.testing.assert_array_equal(a.classify(texts), b.classify(texts))


class TestServingCache:
    def test_repeated_queries_hit_cache(self, fed_engine, held_out):
        texts, _ = held_out
        engine = fed_engine
        engine.cache.clear()
        first = engine.classify_memberships(texts[:8])
        misses = engine.cache.misses
        second = engine.classify_memberships(texts[:8])
        assert engine.cache.misses == misses  # no new fold-in work
        assert engine.cache.hits >= 8
        np.testing.assert_array_equal(first, second)

    def test_single_text_rows_equal_batched_rows(self, fed_engine, held_out):
        """Rows are batch-invariant: the row a text gets in a one-text
        request is bitwise its row in a batched request, which is what
        lets the LRU cache answer either kind with one stored row."""
        texts, _ = held_out
        engine = fed_engine
        engine.cache.clear()
        single = np.vstack(
            [engine.classify_memberships([text]) for text in texts]
        )
        engine.cache.clear()
        batched = engine.classify_memberships(texts)
        assert len(texts) > engine.classify_batch_size  # spans micro-batches
        np.testing.assert_array_equal(single, batched)

    def test_duplicate_texts_in_one_batch(self, fed_engine, held_out):
        texts, _ = held_out
        repeated = [texts[0], texts[1], texts[0], texts[0]]
        memberships = fed_engine.classify_memberships(repeated)
        np.testing.assert_array_equal(memberships[0], memberships[2])
        np.testing.assert_array_equal(memberships[0], memberships[3])

    def test_advance_invalidates_cache(self, corpus, lexicon, batches):
        engine = StreamingSentimentEngine(config(10), lexicon=lexicon)
        _feed(engine, corpus, batches[:1])
        engine.classify(["some words here"])
        assert len(engine.cache) > 0
        _feed(engine, corpus, batches[1:2])
        assert len(engine.cache) == 0


class TestEdgeCases:
    def test_classify_before_first_snapshot(self, lexicon):
        engine = StreamingSentimentEngine(lexicon=lexicon)
        with pytest.raises(RuntimeError, match="no snapshot"):
            engine.classify(["anything"])

    def test_classify_empty_input(self, fed_engine):
        assert fed_engine.classify([]).shape == (0,)
        assert fed_engine.classify_memberships([]).shape == (0, 3)

    def test_out_of_vocabulary_text(self, fed_engine):
        labels = fed_engine.classify(["zzzqqq xxyyzz totallyunknown"])
        assert labels[0] == -1

    def test_classify_with_grown_vocabulary(self, corpus, lexicon, batches):
        """Ingest-without-advance grows the vocabulary; classify still
        works against the (prefix-aligned) last-snapshot factors."""
        engine = StreamingSentimentEngine(config(10), lexicon=lexicon)
        _feed(engine, corpus, batches[:1])
        trained_width = engine.factors.num_features
        engine.ingest(
            [Tweet(tweet_id=10**9, user_id=1, text="brandnewword arrives", day=80)]
        )
        engine.flush()  # barrier: the ingest worker grows the vocabulary
        assert engine.num_features > trained_width
        labels = engine.classify(["brandnewword arrives", batches[0][2][0].text])
        assert labels.shape == (2,)
        assert labels[1] >= 0

    def test_micro_batching_matches_single_batch(
        self, corpus, lexicon, batches, held_out
    ):
        """Chunk width must not change results: fold-in is row-independent
        (each row's update uses only the fixed model gram), so one chunk
        of N and N chunks of 1 produce identical memberships."""
        texts, _ = held_out
        sample = texts[:6]
        wide = _feed(
            StreamingSentimentEngine(
                config(10, serving={"classify_batch_size": 256}),
                lexicon=lexicon,
            ),
            corpus,
            batches[:2],
        )
        narrow = _feed(
            StreamingSentimentEngine(
                config(10, serving={"classify_batch_size": 1}),
                lexicon=lexicon,
            ),
            corpus,
            batches[:2],
        )
        np.testing.assert_array_equal(
            wide.classify_memberships(sample),
            narrow.classify_memberships(sample),
        )

    def test_cached_row_matches_fresh_computation(
        self, corpus, lexicon, batches, held_out
    ):
        """A row served from the LRU equals the row a cold engine computes
        — caching must not depend on what was queried earlier."""
        texts, _ = held_out
        warm = _feed(
            StreamingSentimentEngine(config(10), lexicon=lexicon),
            corpus,
            batches[:2],
        )
        cold = _feed(
            StreamingSentimentEngine(config(10), lexicon=lexicon),
            corpus,
            batches[:2],
        )
        warm.classify_memberships([texts[0]])  # seeds the cache
        joint = warm.classify_memberships([texts[0], texts[1]])
        fresh = cold.classify_memberships([texts[0], texts[1]])
        np.testing.assert_array_equal(joint, fresh)

    def test_solver_conflict_rejected(self, lexicon):
        from repro.core.online import OnlineTriClustering

        with pytest.raises(ValueError, match="solver"):
            StreamingSentimentEngine(
                EngineConfig(solver={"max_iterations": 5}),
                lexicon=lexicon,
                solver=OnlineTriClustering(),
            )

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError, match="classify_batch_size"):
            StreamingSentimentEngine(
                EngineConfig(serving={"classify_batch_size": 0})
            )
        with pytest.raises(ValueError, match="classify_iterations"):
            StreamingSentimentEngine(
                EngineConfig(serving={"classify_iterations": 0})
            )
