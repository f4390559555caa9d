"""Bipartite matrix builders: ``Xp``, ``Xu`` and ``Xr``.

The offline framework (Section 3) separates the tripartite graph into
three mutually related bipartite graphs:

- ``Xp (n×l)`` tweet-feature: tf-idf (or count) weights from tweet text.
- ``Xu (m×l)`` user-feature: each user row aggregates the feature vectors
  of the tweets the user posted or retweeted ("users can be characterized
  by the word features of their tweets").
- ``Xr (m×n)`` user-tweet: ``Xr[i, j] > 0`` when user *i* posted or
  retweeted tweet *j* (Figure 2 draws both posting and retweeting edges
  between ``U`` and ``P``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.data.corpus import TweetCorpus
from repro.text.vectorizer import CountVectorizer


def build_tweet_feature_matrix(
    corpus: TweetCorpus, vectorizer: CountVectorizer
) -> sp.csr_matrix:
    """Build ``Xp``: one row per tweet, one column per feature.

    ``vectorizer`` must already be fitted (so that online snapshots can be
    projected onto the training vocabulary).
    """
    return vectorizer.transform(corpus.texts())


def build_user_tweet_matrix(
    corpus: TweetCorpus, include_retweets: bool = True
) -> sp.csr_matrix:
    """Build ``Xr``: ``Xr[i, j] = 1`` when user *i* posted/retweeted tweet *j*.

    A retweet entry in the corpus is itself a tweet row; additionally the
    retweeting user is connected to the *source* tweet row, which is what
    makes ``Xr`` denser than a pure authorship matrix and couples users
    through shared content.  Assembled from the corpus' author and
    source row arrays.
    """
    rows = corpus.author_rows
    cols = np.arange(corpus.num_tweets, dtype=np.int64)
    if include_retweets:
        sources = corpus.source_rows
        retweets = sources >= 0  # sources outside the corpus drop out
        rows = np.concatenate([rows, rows[retweets]])
        cols = np.concatenate([cols, sources[retweets]])
    data = np.ones(rows.shape[0], dtype=np.float64)
    matrix = sp.csr_matrix(
        (data, (rows, cols)),
        shape=(corpus.num_users, corpus.num_tweets),
    )
    matrix.sum_duplicates()
    matrix.data[:] = np.minimum(matrix.data, 1.0)  # binary incidence
    return matrix


def build_user_feature_matrix(
    xp: sp.csr_matrix,
    xr: sp.csr_matrix,
    normalize: bool = True,
) -> sp.csr_matrix:
    """Build ``Xu = Xr @ Xp`` — user rows aggregate their tweets' features.

    With ``normalize=True`` each user row is scaled by the user's tweet
    count so prolific users do not dominate the factorization purely by
    volume (the long-tail concern of Section 1).
    """
    xu = (xr @ xp).tocsr()
    if normalize:
        tweet_counts = np.asarray(xr.sum(axis=1)).ravel()
        tweet_counts[tweet_counts == 0.0] = 1.0
        scale = sp.diags(1.0 / tweet_counts)
        xu = (scale @ xu).tocsr()
    return xu
