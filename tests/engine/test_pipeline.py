"""Async ingestion: O(1) enqueue, barriers, backpressure, concurrency."""

import threading
import time
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.online import OnlineTriClustering
from repro.data.stream import iter_tweet_batches
from repro.data.tweet import Tweet
from repro.engine import (
    EngineConfig,
    IngestQueueFull,
    StreamingSentimentEngine,
)
from repro.engine.pipeline import IngestPipeline
from repro.graph.incremental import IncrementalTripartiteBuilder

INTERVAL_DAYS = 21


def config(max_iterations=8, **overrides):
    return EngineConfig(
        seed=7, solver={"max_iterations": max_iterations}, **overrides
    )


@pytest.fixture(scope="module")
def batches(corpus):
    return list(iter_tweet_batches(corpus, interval_days=INTERVAL_DAYS))


def feed(engine, corpus, batches):
    for _, _, tweets in batches:
        engine.ingest(tweets, users=corpus.profiles_for(tweets))
        engine.advance_snapshot()
    return engine


class TestBitIdentity:
    def test_async_matches_sync_bitwise(self, corpus, lexicon, batches):
        """The tentpole regression: the queue-drained path must produce
        the same factors as running the same steps inline — builder
        ingest, snapshot assembly and one solver step per batch."""
        engine = feed(
            StreamingSentimentEngine(config(), lexicon=lexicon),
            corpus,
            batches,
        )
        builder = IncrementalTripartiteBuilder(lexicon=lexicon)
        solver = OnlineTriClustering(seed=7, **asdict(config().solver))
        for _, _, tweets in batches:
            builder.ingest(tweets, users=corpus.profiles_for(tweets))
            step = solver.partial_fit(builder.build_snapshot())
        for name in ("sf", "sp", "su", "hp", "hu"):
            np.testing.assert_array_equal(
                getattr(step.factors, name),
                getattr(engine.factors, name),
                err_msg=name,
            )
        assert (
            solver.user_sentiment_labels()
            == engine.solver.user_sentiment_labels()
        )

    def test_many_small_submits_match_one_large(self, corpus, lexicon, batches):
        """Batch granularity at the queue must not leak into the model."""
        tweets = batches[0][2]
        profiles = corpus.profiles_for(tweets)
        coarse = StreamingSentimentEngine(config(), lexicon=lexicon)
        coarse.ingest(tweets, users=profiles)
        coarse.advance_snapshot()
        fine = StreamingSentimentEngine(config(), lexicon=lexicon)
        fine.ingest([], users=profiles)
        for tweet in tweets:
            fine.ingest([tweet])
        fine.advance_snapshot()
        np.testing.assert_array_equal(coarse.factors.sf, fine.factors.sf)


class TestQueueSemantics:
    def test_ingest_returns_before_tokenization(self, lexicon):
        """The O(1) contract: ingest returns while the worker is still
        tokenizing (observed via a tokenizer that blocks on an event)."""
        gate = threading.Event()
        engine = StreamingSentimentEngine(lexicon=lexicon)
        original = engine.builder._analyzer

        def slow_analyzer(text):
            gate.wait(timeout=10)
            return original(text)

        engine.builder._analyzer = slow_analyzer
        started = time.perf_counter()
        accepted = engine.ingest(
            [Tweet(tweet_id=1, user_id=1, text="hello world", day=0)]
        )
        elapsed = time.perf_counter() - started
        assert accepted == 1
        assert elapsed < 5.0  # returned without waiting on the gate
        assert engine.pending == 1  # queued, not yet tokenized
        assert engine.num_features == 0
        gate.set()
        assert engine.flush() == 1
        assert engine.num_features > 0
        engine.close()

    def test_flush_is_a_barrier(self, corpus, lexicon, batches):
        engine = StreamingSentimentEngine(config(), lexicon=lexicon)
        tweets = batches[0][2]
        engine.ingest(tweets, users=corpus.profiles_for(tweets))
        assert engine.flush() == len(tweets)
        assert engine.builder.pending == len(tweets)
        engine.advance_snapshot()
        engine.close()

    def test_overflow_raise_policy(self, lexicon):
        gate = threading.Event()
        engine = StreamingSentimentEngine(
            config(ingest={"max_queued_batches": 1}), lexicon=lexicon
        )
        original = engine.builder._analyzer
        engine.builder._analyzer = lambda text: gate.wait(10) and original(text)
        tweet = [Tweet(tweet_id=1, user_id=1, text="a b c", day=0)]
        try:
            # The first batch occupies the worker (blocked on the gate)
            # or the queue slot; repeated non-blocking submits must
            # eventually find the 1-slot queue full and overflow.
            engine.ingest(tweet)
            with pytest.raises(IngestQueueFull):
                for _ in range(8):
                    engine.ingest(tweet, block=False)
        finally:
            gate.set()
            engine.close()

    def test_overflow_drop_policy(self, lexicon):
        gate = threading.Event()
        engine = StreamingSentimentEngine(
            config(ingest={"max_queued_batches": 1, "overflow": "drop"}),
            lexicon=lexicon,
        )
        original = engine.builder._analyzer
        engine.builder._analyzer = lambda text: gate.wait(10) and original(text)
        tweet = [Tweet(tweet_id=1, user_id=1, text="a b c", day=0)]
        try:
            engine.ingest(tweet)
            dropped_any = False
            for _ in range(8):
                if engine.ingest(tweet, block=False) == 0:
                    dropped_any = True
            assert dropped_any
            assert engine.dropped > 0
        finally:
            gate.set()
            engine.close()

    def test_worker_error_surfaces_on_flush(self):
        def exploding(batch, users):
            raise RuntimeError("tokenizer exploded")

        pipeline = IngestPipeline(exploding)
        pipeline.submit([Tweet(tweet_id=1, user_id=1, text="x", day=0)])
        with pytest.raises(RuntimeError, match="ingest worker failed"):
            pipeline.flush()
        # Terminal for producers too: the error sticks.
        with pytest.raises(RuntimeError, match="ingest worker failed"):
            pipeline.submit([Tweet(tweet_id=2, user_id=1, text="y", day=0)])
        pipeline.close()

    def test_closed_pipeline_refuses_work(self, lexicon):
        engine = StreamingSentimentEngine(lexicon=lexicon)
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.ingest([Tweet(tweet_id=1, user_id=1, text="x", day=0)])


class TestConcurrency:
    def test_concurrent_ingest_and_classify(self, corpus, lexicon, batches):
        """Producers streaming batches while consumers classify must
        never crash nor corrupt rows (the serve lock pins a consistent
        vocabulary/factor pair per classify call)."""
        engine = feed(
            StreamingSentimentEngine(config(), lexicon=lexicon),
            corpus,
            batches[:1],
        )
        texts = [t.text for t in corpus.tweets[:24]]
        expected_width = engine.factors.num_classes
        errors: list[BaseException] = []
        stop = threading.Event()

        def producer():
            try:
                for _, _, tweets in batches[1:]:
                    for offset in range(0, len(tweets), 7):
                        engine.ingest(tweets[offset : offset + 7])
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)
            finally:
                stop.set()

        def consumer():
            try:
                while not stop.is_set():
                    memberships = engine.classify_memberships(texts)
                    assert memberships.shape == (len(texts), expected_width)
                    assert np.all(np.isfinite(memberships))
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [threading.Thread(target=producer)] + [
            threading.Thread(target=consumer) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        engine.flush()
        engine.advance_snapshot()  # the queued tail folds in cleanly
        engine.close()

    def test_concurrent_ingest_many_producers(self, corpus, lexicon, batches):
        """Multiple producer threads: every accepted tweet lands in the
        builder exactly once (the queue serializes the growth)."""
        engine = StreamingSentimentEngine(config(), lexicon=lexicon)
        tweets = batches[0][2]
        chunks = [tweets[offset::4] for offset in range(4)]
        threads = [
            threading.Thread(target=lambda c=chunk: engine.ingest(c))
            for chunk in chunks
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert engine.flush() == len(tweets)
        report = engine.advance_snapshot()
        assert report.num_tweets == len(tweets)
        engine.close()
