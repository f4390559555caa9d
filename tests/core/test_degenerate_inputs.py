"""Degenerate snapshots solve to a defined result on every solver path.

Empty and single-user snapshots, users without tweets, a user graph
with no edges and tweets with no vocabulary feature must each give
finite, non-negative factors of the snapshot's shape -- offline and
online, in process and at two shards -- with no numpy warning on the
way. Where the model pins the answer (a user with no tweets and no
edges has no evidence, so an all-zero row; an empty online snapshot
leaves the carried state alone) the tests pin it too.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.core.offline import OfflineTriClustering
from repro.core.online import OnlineTriClustering
from repro.data.corpus import TweetCorpus
from repro.data.tweet import Tweet, UserProfile
from repro.graph.tripartite import build_tripartite_graph

FACTOR_NAMES = ("sf", "sp", "su", "hp", "hu")
SWEEPS = 5
# Text made only of tokens the shared vocabulary has never seen.
FEATURELESS_TEXT = "zzqx qqzx"


def _sub_corpus(corpus, tweets, silent_users=()):
    """A corpus of ``tweets`` (retweets of dropped sources cut loose)
    whose users are the authors plus ``silent_users``."""
    kept = {tweet.tweet_id for tweet in tweets}
    tweets = [
        tweet
        if tweet.retweet_of is None or tweet.retweet_of in kept
        else dataclasses.replace(tweet, retweet_of=None)
        for tweet in tweets
    ]
    users = {tweet.user_id: corpus.users[tweet.user_id] for tweet in tweets}
    users.update((profile.user_id, profile) for profile in silent_users)
    return TweetCorpus(tweets=tweets, users=users)


def _silent_profiles(corpus, count):
    first = max(corpus.users) + 1
    return [
        UserProfile(user_id=first + i, base_stance=None, labeled=False)
        for i in range(count)
    ]


def _featureless_tweets(corpus, authors, count):
    first = max(tweet.tweet_id for tweet in corpus.tweets) + 1
    return [
        Tweet(
            tweet_id=first + i,
            user_id=authors[i % len(authors)],
            text=FEATURELESS_TEXT,
            day=corpus.tweets[-1].day,
        )
        for i in range(count)
    ]


def _empty(corpus):
    return _sub_corpus(corpus, [])


def _single_user(corpus):
    author = corpus.tweets[0].user_id
    return _sub_corpus(
        corpus, [t for t in corpus.tweets if t.user_id == author]
    )


def _single_tweet(corpus):
    return _sub_corpus(corpus, corpus.tweets[:1])


def _silent_users(corpus):
    return _sub_corpus(
        corpus, corpus.tweets, silent_users=_silent_profiles(corpus, 5)
    )


def _no_user_edges(corpus):
    return _sub_corpus(
        corpus,
        [dataclasses.replace(t, retweet_of=None) for t in corpus.tweets],
    )


def _some_featureless_tweets(corpus):
    extra = _featureless_tweets(corpus, [corpus.tweets[0].user_id], 5)
    return _sub_corpus(corpus, [*corpus.tweets, *extra])


def _all_featureless_tweets(corpus):
    return _sub_corpus(
        corpus, _featureless_tweets(corpus, corpus.user_ids[:3], 6)
    )


CASES = {
    "empty": _empty,
    "single-user": _single_user,
    "single-tweet": _single_tweet,
    "silent-users": _silent_users,
    "no-user-edges": _no_user_edges,
    "some-featureless-tweets": _some_featureless_tweets,
    "all-featureless-tweets": _all_featureless_tweets,
}


@pytest.fixture(scope="module")
def degenerate_graphs(corpus, shared_vectorizer, lexicon):
    return {
        name: build_tripartite_graph(
            make(corpus), vectorizer=shared_vectorizer, lexicon=lexicon
        )
        for name, make in CASES.items()
    }


def _solve(kind, graph, n_shards):
    """One offline fit, or two online steps on the same snapshot (the
    second one reads the carried state the first one wrote)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if kind == "offline":
            solver = OfflineTriClustering(
                seed=7, max_iterations=SWEEPS, n_shards=n_shards
            )
            return solver, [solver.fit(graph)]
        solver = OnlineTriClustering(
            seed=7, max_iterations=SWEEPS, n_shards=n_shards
        )
        return solver, [solver.partial_fit(graph), solver.partial_fit(graph)]


def _assert_defined(result, graph):
    expected = {
        "sf": (graph.num_features, 3),
        "sp": (graph.num_tweets, 3),
        "su": (graph.num_users, 3),
        "hp": (3, 3),
        "hu": (3, 3),
    }
    for name in FACTOR_NAMES:
        factor = getattr(result.factors, name)
        assert factor.shape == expected[name], name
        assert np.isfinite(factor).all(), name
        assert (factor >= 0).all(), name
    assert 1 <= result.iterations <= SWEEPS
    assert result.tweet_sentiments().shape == (graph.num_tweets,)
    assert result.user_sentiments().shape == (graph.num_users,)


@pytest.mark.parametrize("n_shards", [1, 2])
@pytest.mark.parametrize("kind", ["offline", "online"])
@pytest.mark.parametrize("case", list(CASES))
def test_degenerate_snapshot_solves_to_finite_factors(
    degenerate_graphs, case, kind, n_shards
):
    graph = degenerate_graphs[case]
    _, results = _solve(kind, graph, n_shards)
    for result in results:
        _assert_defined(result, graph)


@pytest.mark.parametrize("n_shards", [1, 2])
@pytest.mark.parametrize("kind", ["offline", "online"])
def test_silent_users_get_all_zero_rows(degenerate_graphs, kind, n_shards):
    """A user with no tweets and no user-graph edges has no evidence:
    its ``Su`` row is zero and every other user's is not."""
    graph = degenerate_graphs["silent-users"]
    silent = graph.xr.getnnz(axis=1) == 0
    assert silent.sum() == 5
    solver, results = _solve(kind, graph, n_shards)
    for result in results:
        assert not result.factors.su[silent].any()
        assert result.factors.su[~silent].sum(axis=1).min() > 0
    if kind == "online":
        rows = solver.user_sentiment_rows()
        user_ids = np.asarray(graph.corpus.user_ids)
        for user_id in user_ids[silent]:
            assert not rows[user_id].any()


@pytest.mark.parametrize("kind", ["offline", "online"])
def test_featureless_tweets_still_get_a_sentiment(degenerate_graphs, kind):
    """An all-zero ``Xp`` row is still reached through its author's
    ``Xr`` edge, so the tweet's ``Sp`` row is not zero."""
    graph = degenerate_graphs["some-featureless-tweets"]
    featureless = graph.xp.getnnz(axis=1) == 0
    assert featureless[-5:].all()
    _, results = _solve(kind, graph, 1)
    for result in results:
        assert (result.factors.sp[featureless].sum(axis=1) > 0).all()


@pytest.mark.parametrize("n_shards", [1, 2])
def test_empty_online_snapshot_keeps_the_carried_state(
    graph, degenerate_graphs, n_shards
):
    solver = OnlineTriClustering(
        seed=7, max_iterations=SWEEPS, n_shards=n_shards
    )
    solver.partial_fit(graph)
    before = solver.user_sentiment_rows()
    step = solver.partial_fit(degenerate_graphs["empty"])
    assert step.new_user_rows.size == 0
    assert step.evolving_user_rows.size == 0
    after = solver.user_sentiment_rows()
    assert after.keys() == before.keys()
    for user_id, row in before.items():
        np.testing.assert_array_equal(after[user_id], row)
    _assert_defined(solver.partial_fit(graph), graph)


@pytest.mark.parametrize("n_shards", [1, 2])
def test_all_new_users_after_a_carried_state(
    corpus, shared_vectorizer, lexicon, n_shards
):
    """A snapshot that shares no user with the carried state solves
    every user as new and keeps the earlier users' rows."""
    users = corpus.user_ids
    first, second = set(users[::2]), set(users[1::2])
    graphs = [
        build_tripartite_graph(
            _sub_corpus(
                corpus, [t for t in corpus.tweets if t.user_id in group]
            ),
            vectorizer=shared_vectorizer,
            lexicon=lexicon,
        )
        for group in (first, second)
    ]
    solver = OnlineTriClustering(
        seed=7, max_iterations=SWEEPS, n_shards=n_shards
    )
    solver.partial_fit(graphs[0])
    carried = solver.user_sentiment_rows()
    step = solver.partial_fit(graphs[1])
    _assert_defined(step, graphs[1])
    assert step.evolving_user_rows.size == 0
    assert step.new_user_rows.size == graphs[1].num_users
    assert solver.seen_users == first | second
    rows = solver.user_sentiment_rows()
    for user_id in first:
        np.testing.assert_array_equal(rows[user_id], carried[user_id])
