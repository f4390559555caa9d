"""Load generation: every input the workloads feed the program.

Everything here is a pure function of the seed and the size, so the
same seed gives the same inputs.  Generation is the load generator's
cost, not the program's, and is never inside a timed region.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro import BallotDatasetGenerator, prop30_config
from repro.data.stream import iter_tweet_batches
from repro.data.synthetic import SyntheticCorpus, synthesize_graph
from repro.graph.tripartite import TripartiteGraph


@dataclass(frozen=True)
class Size:
    """How big each workload's inputs are."""

    #: ``prop30_config`` scale of the ballot corpus (2.5: ≈55k tweets).
    corpus_scale: float = 2.5
    #: Tweets per ``ingest`` call (producers stream small batches).
    ingest_chunk: int = 200
    #: Users per ``synthesize_graph`` snapshot in solve-sharded.
    graph_users: int = 20_000
    #: Single-text classify requests in each closed-loop probe.
    probes: int = 2000
    #: Single-row fold-in requests per solve-sharded run (each takes
    #: ~0.1 ms, so the tail needs many samples).
    fold_in_requests: int = 10_000
    #: Open-loop classify rate of serve-mixed, requests per second.  On
    #: the 2-core reference host one uncached text takes ≈1.2 ms on a
    #: warmed serve-mixed model, and back-to-back requests beside the
    #: scheduled producer complete at 554–616 req/s.  At a third of that
    #: (200 req/s) requests queued behind the producer's snapshots and
    #: GIL-bound ingest, and the p50 swung from 1.7 to 6.2 ms across
    #: seeds; at a sixth (100 req/s) it stayed at 1.4–2.4 ms over 20
    #: runs, close to the uncached service time, so the p50 measures
    #: serving.
    classify_rate: float = 100.0
    #: serve-mixed: tweets in each of its two warm-up snapshots and in
    #: each measured snapshot (about the corpus's first 32 days, then
    #: about one day each).
    warmup_tweets: int = 6250
    snapshot_tweets: int = 460
    #: Setups per run; ``setup_s`` is their median.
    setup_repeats: int = 5
    #: How far the final model's A(C,G) must beat a one-cluster model
    #: (the majority class's share) on tweets and on users; ``None``
    #: turns the check off.
    accuracy_margin: float | None = 0.05


FULL = Size()
TOY = Size(
    corpus_scale=0.1, ingest_chunk=50, graph_users=1_000, probes=100, fold_in_requests=300,
    classify_rate=40.0, warmup_tweets=250, snapshot_tweets=20, setup_repeats=2,
    accuracy_margin=None,
)


@dataclass
class TextInputs:
    """The ballot corpus cut into the batches a producer ingests."""

    corpus: object
    lexicon: object
    #: ``(start_day, tweets, profiles)`` per day with tweets.
    days: list[tuple[int, list, list]]


def ballot_inputs(seed: int, size: Size) -> TextInputs:
    generator = BallotDatasetGenerator(
        prop30_config(size.corpus_scale), seed=seed
    )
    corpus = generator.generate()
    days = [
        (start, tweets, corpus.profiles_for(tweets))
        for start, _, tweets in iter_tweet_batches(corpus, interval_days=1)
    ]
    return TextInputs(corpus, generator.lexicon(), days)


def tweet_snapshots(inputs: TextInputs, sizes: list[int]) -> list[tuple[list, list]]:
    """``(tweets, profiles)`` of consecutive snapshots of ``sizes`` tweets.

    The tweets are taken in time order from the start of the corpus, so
    every seed folds the same number of tweets into each snapshot; cut
    by calendar day, the snapshot sizes moved with the seed.
    """
    ordered = [tweet for _, tweets, _ in inputs.days for tweet in tweets]
    if sum(sizes) > len(ordered):
        raise ValueError(f"{sum(sizes)} tweets asked for, corpus has {len(ordered)}")
    snapshots, start = [], 0
    for count in sizes:
        tweets = ordered[start : start + count]
        snapshots.append((tweets, inputs.corpus.profiles_for(tweets)))
        start += count
    return snapshots


def probe_texts(inputs: TextInputs, count: int, seed: int) -> list[str]:
    """Distinct labelled tweet texts for the closed-loop classify probe."""
    corpus = inputs.corpus
    labelled = corpus.labeled_tweet_indices()
    texts = list(dict.fromkeys(corpus.tweets[i].text for i in labelled))
    rng = np.random.default_rng([seed, 1])
    picked = rng.choice(len(texts), size=min(count, len(texts)), replace=False)
    return [texts[i] for i in picked]


def classify_schedule(snapshots: list[list], count: int, seed: int) -> list[str]:
    """Request texts for the open-loop schedule, in send order.

    ``snapshots`` holds the tweets of each snapshot the producer folds
    in, in order, and the ``count`` requests spread evenly over them.
    Each request asks for the sentiment of a tweet of the snapshot that
    is being folded in when the request is due, drawn uniformly from
    that snapshot's tweets.  A retweet carries its source's text, so a
    text is asked for as often as the corpus posts it; nothing about
    the mix of repeated (cached) and new texts is set here.
    """
    rng = np.random.default_rng([seed, 2])
    requests = []
    for j in range(count):
        tweets = snapshots[j * len(snapshots) // count]
        requests.append(tweets[rng.integers(len(tweets))].text)
    return requests


def text_truth(inputs: TextInputs) -> tuple[np.ndarray, list[str], dict[int, int]]:
    """Labelled tweet rows, their texts, and labelled users' classes."""
    corpus = inputs.corpus
    truth = corpus.tweet_labels()
    labelled = np.flatnonzero(truth >= 0)
    user_truth = corpus.user_labels()
    users = {
        uid: int(user_truth[row])
        for row, uid in enumerate(corpus.user_ids)
        if user_truth[row] >= 0
    }
    return truth[labelled], [corpus.tweets[i].text for i in labelled], users


# ------------------------------------------------------------------ #
# Matrix-level inputs (solve-sharded)
# ------------------------------------------------------------------ #


def synthetic_stream(seed: int, size: Size, count: int) -> list:
    """``count`` snapshots of one synthetic user population.

    One ``synthesize_graph`` with ``count`` times the tweets and
    retweets, cut into ``count`` equal ranges of tweet rows (tweet rows
    are drawn independently, so each range is a random sample).  Users
    keep their stance, activity and ``Gu`` edges across snapshots,
    which is what the online solver's temporal priors assume.
    """
    whole = synthesize_graph(
        num_users=size.graph_users,
        tweets_per_user=4.0 * count,
        retweets_per_user=6.0 * count,
        seed=np.random.default_rng([seed, 3]),
    )
    users = whole.num_users
    xp, xr = whole.xp.tocsr(), whole.xr.tocsc()
    bounds = np.linspace(0, whole.num_tweets, count + 1).astype(np.int64)
    graphs = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        authors = whole.corpus.author_rows[lo:hi]
        incidence = sp.csr_matrix(
            (np.ones(hi - lo), (authors, np.arange(hi - lo))),
            shape=(users, hi - lo),
        )
        rows = xp[lo:hi]
        graphs.append(
            TripartiteGraph(
                corpus=SyntheticCorpus(authors, users),
                vectorizer=whole.vectorizer,
                xp=rows,
                xu=(incidence @ rows).tocsr(),
                xr=xr[:, lo:hi].tocsr(),
                user_graph=whole.user_graph,
                sf0=whole.sf0,
            )
        )
    return graphs


def synthetic_truth(graph, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Tweet and user classes implied by a synthetic graph's words.

    ``synthesize_graph`` draws each tweet's words from its author's
    class block of the vocabulary (or, as noise, from the shared tail
    after the ``num_classes`` blocks), so the block most of a tweet's
    words fall in is its class, and a user's tweets agree on the
    user's.  Rows with no class-block word get ``-1``.
    """
    xp = graph.xp.tocsr()
    block = graph.num_features // (num_classes + 1)
    rows = np.repeat(np.arange(xp.shape[0]), np.diff(xp.indptr))
    in_block = xp.indices < num_classes * block
    counts = np.zeros((xp.shape[0], num_classes))
    np.add.at(
        counts,
        (rows[in_block], xp.indices[in_block] // block),
        xp.data[in_block],
    )
    tweets = np.where(counts.any(axis=1), counts.argmax(axis=1), -1)
    per_user = np.zeros((graph.num_users, num_classes))
    np.add.at(per_user, graph.corpus.author_rows, counts)
    users = np.where(per_user.any(axis=1), per_user.argmax(axis=1), -1)
    return tweets, users


def sleep_until(deadline: float) -> None:
    remaining = deadline - time.perf_counter()
    if remaining > 0:
        time.sleep(remaining)
