"""Degenerate intervals through the engine: ingest → advance → classify.

Each interval follows a normal one (so the solver carries user state
into it) and must fold in to a finite report and objective history
with finite, non-negative factors, in process and at two thread shards,
with no numpy warning on the way.  Classify keeps answering.  An empty
interval keeps its documented ``ValueError``.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.data.stream import iter_tweet_batches
from repro.data.tweet import Tweet
from repro.engine import EngineConfig, StreamingSentimentEngine

FACTOR_NAMES = ("sf", "sp", "su", "hp", "hu")
SHARDINGS = {
    "one-shard": {},
    "two-thread-shards": {"n_shards": 2, "backend": "thread", "max_workers": 2},
}
UNSEEN_TEXT = "zzqx qqzx xxqz"


@pytest.fixture(scope="module")
def intervals(corpus):
    """The first interval (the carried state) and a later one."""
    batches = [tweets for _, _, tweets in iter_tweet_batches(corpus, 21)]
    return batches[0], batches[2]


def _cut_loose(tweets):
    return [dataclasses.replace(t, retweet_of=None) for t in tweets]


def _fresh_ids(corpus, count):
    first = max(t.tweet_id for t in corpus.tweets) + 1
    return range(first, first + count)


def _single_author(corpus, first, later):
    author = later[0].user_id
    return _cut_loose([t for t in later if t.user_id == author])


def _all_new_users(corpus, first, later):
    seen = {t.user_id for t in first}
    return _cut_loose([t for t in later if t.user_id not in seen])


def _users_without_tweets(corpus, first, later):
    """Retweets of first-interval sources by other users: the sources'
    authors are active (they were retweeted) but post nothing."""
    sources = first[:10]
    authors = {t.user_id for t in sources}
    retweeters = [u for u in corpus.user_ids if u not in authors][:5]
    return [
        Tweet(
            tweet_id=tweet_id,
            user_id=retweeters[i % len(retweeters)],
            text=source.text,
            day=later[0].day,
            retweet_of=source.tweet_id,
        )
        for i, (tweet_id, source) in enumerate(
            zip(_fresh_ids(corpus, len(sources)), sources)
        )
    ]


def _all_unseen_words(corpus, first, later):
    authors = [t.user_id for t in later[:4]]
    return [
        Tweet(
            tweet_id=tweet_id,
            user_id=authors[i % len(authors)],
            text=UNSEEN_TEXT,
            day=later[0].day,
        )
        for i, tweet_id in enumerate(_fresh_ids(corpus, 8))
    ]


CASES = {
    "single-author": _single_author,
    "all-new-users": _all_new_users,
    "users-without-tweets": _users_without_tweets,
    "all-unseen-words": _all_unseen_words,
}


def _engine(lexicon, sharding):
    return StreamingSentimentEngine(
        EngineConfig(
            seed=7, solver={"max_iterations": 6}, sharding=SHARDINGS[sharding]
        ),
        lexicon=lexicon,
    )


def _advance(engine, corpus, tweets):
    engine.ingest(tweets, users=corpus.profiles_for(tweets))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return engine.advance_snapshot()


@pytest.mark.parametrize("sharding", list(SHARDINGS))
@pytest.mark.parametrize("case", list(CASES))
def test_degenerate_interval_folds_in(
    corpus, lexicon, intervals, case, sharding
):
    first, later = intervals
    tweets = CASES[case](corpus, first, later)
    assert tweets
    with _engine(lexicon, sharding) as engine:
        _advance(engine, corpus, first)
        report = _advance(engine, corpus, tweets)

        graph, step = engine.last_graph, engine.last_step
        assert report.num_tweets == graph.num_tweets == len(tweets)
        assert report.num_users == graph.num_users
        assert 1 <= report.iterations <= 6
        assert np.isfinite([report.build_seconds, report.solve_seconds]).all()
        assert np.isfinite(step.history.totals).all()
        for name in FACTOR_NAMES:
            factor = getattr(step.factors, name)
            assert np.isfinite(factor).all(), name
            assert (factor >= 0).all(), name

        labels = engine.classify([t.text for t in tweets[:5]] + [first[0].text])
        assert labels.shape == (min(len(tweets), 5) + 1,)
        assert set(labels.tolist()) <= {-1, 0, 1, 2}
        rows = engine.user_sentiments()
        assert {t.user_id for t in tweets} <= set(rows)


def test_single_author_leaves_one_shard_empty(corpus, lexicon, intervals):
    """The case above really solves with an empty shard block."""
    first, later = intervals
    tweets = _single_author(corpus, first, later)
    with _engine(lexicon, "two-thread-shards") as engine:
        _advance(engine, corpus, first)
        _advance(engine, corpus, tweets)
        assert engine.last_graph.num_users == 1
        assert engine.solver.last_telemetry["rounds"] > 0


def test_users_without_tweets_are_in_the_snapshot(corpus, lexicon, intervals):
    first, later = intervals
    tweets = _users_without_tweets(corpus, first, later)
    with _engine(lexicon, "one-shard") as engine:
        _advance(engine, corpus, first)
        _advance(engine, corpus, tweets)
        graph = engine.last_graph
        posting = {t.user_id for t in tweets}
        silent = [u for u in graph.corpus.user_ids if u not in posting]
        assert silent  # retweeted authors who posted nothing here


@pytest.mark.parametrize("sharding", list(SHARDINGS))
def test_empty_interval_raises(corpus, lexicon, intervals, sharding):
    first, _ = intervals
    with _engine(lexicon, sharding) as engine:
        _advance(engine, corpus, first)
        with pytest.raises(ValueError):
            engine.advance_snapshot()
        # The model of the last interval still serves.
        assert engine.classify([first[0].text]).shape == (1,)
