"""Incremental snapshot construction for the streaming pipeline.

:func:`~repro.graph.tripartite.build_tripartite_graph` rebuilds
everything per snapshot: it re-tokenizes every text inside
``vectorizer.transform``.  That is fine for one offline fit but
wasteful on a stream, where the same work is repeated for every
snapshot and — when the caller also slices snapshots out of a full
corpus with ``TweetCorpus.window`` — each step additionally scans the
entire history.

:class:`IncrementalTripartiteBuilder` restructures construction around
per-snapshot deltas, and makes one pass over each tweet:

- ``ingest(tweets)`` tokenizes each distinct text once (a bounded memo
  serves retweets, which repeat their source's text), then interns and
  counts the whole batch in one
  :meth:`~repro.text.vocabulary.Vocabulary.add_documents` call.  That
  call grows the shared vocabulary in place (append-only ids, so
  feature columns stay aligned across snapshots), updates its term and
  document frequencies, and returns the batch's count rows, which are
  buffered as flat arrays;
- ``build_snapshot()`` concatenates the buffered rows into ``Xp``,
  assembles ``Xr`` and ``Gu`` from the snapshot corpus' author and
  source row arrays (the same functions the offline path uses), derives
  ``Xu = Xr·Xp`` and the lexicon prior ``Sf0``, and emits a regular
  :class:`~repro.graph.tripartite.TripartiteGraph` that the online
  solver consumes unchanged.

No stage loops over tokens or edges in Python, apart from the
tokenizer itself and one dictionary lookup per token.  Per-step *time*
is proportional to the size of the delta, not the length of the
history.  Memory is not entirely flat: the builder keeps
``O(distinct users)`` profiles and an ``O(tweets ever ingested)``
tweet-id → author map (needed to resolve retweets of earlier snapshots'
tweets); the tokenization memo, by contrast, is bounded.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np
import scipy.sparse as sp

from repro.data.corpus import TweetCorpus
from repro.data.tweet import Tweet, UserProfile
from repro.graph.bipartite import (
    build_user_feature_matrix,
    build_user_tweet_matrix,
)
from repro.graph.tripartite import TripartiteGraph
from repro.graph.usergraph import build_user_graph
from repro.text.lexicon import SentimentLexicon, build_sf0_rows
from repro.text.vectorizer import CountVectorizer, TfidfVectorizer

#: Bound on the text → token-list memo.  Retweets repeat their source
#: text verbatim, so memoizing tokenization pays for a large share of
#: real streams; the bound keeps long-running engines at flat memory.
_TOKEN_MEMO_LIMIT = 65536


class IncrementalTripartiteBuilder:
    """Assembles per-snapshot :class:`TripartiteGraph` objects from deltas.

    Parameters
    ----------
    vectorizer:
        Shared vectorizer whose vocabulary grows across snapshots.  A
        fresh :class:`~repro.text.vectorizer.TfidfVectorizer` is created
        when omitted.  A pre-fitted vectorizer is thawed: its existing
        ids are preserved and new tokens append after them.
    lexicon:
        When given, each snapshot graph carries an ``Sf0`` prior built
        against the vocabulary *as grown so far*.
    num_classes:
        Sentiment classes ``k`` for the prior.

    A snapshot's ``Gu`` links a retweet to its source's author only when
    the source tweet is in the same snapshot, matching
    :func:`~repro.graph.usergraph.build_user_graph`; its *user set*
    still includes retweeted authors of earlier tweets, exactly like
    :meth:`~repro.data.corpus.TweetCorpus.window`.
    """

    def __init__(
        self,
        vectorizer: CountVectorizer | None = None,
        lexicon: SentimentLexicon | None = None,
        num_classes: int = 3,
    ) -> None:
        self.vectorizer = vectorizer or TfidfVectorizer()
        self.lexicon = lexicon
        self.num_classes = num_classes

        if self.vectorizer.vocabulary is None:
            # partial_fit with no documents initializes an empty,
            # growable vocabulary.
            self.vectorizer.partial_fit([])
        self._analyzer = self.vectorizer.analyzer

        self._pending: list[Tweet] = []
        # One (lengths, ids, counts) CSR fragment per ingest call.
        self._pending_counts: list[tuple[np.ndarray, ...]] = []
        self._profiles: dict[int, UserProfile] = {}
        self._author_of: dict[int, int] = {}  # all ingested tweets
        self._last_seen: dict[int, int] = {}  # uid -> last active snapshot
        self._snapshots_built = 0
        self._token_memo: dict[str, list[str]] = {}
        self._sf0_rows: np.ndarray | None = None  # cached prior prefix

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def ingest(
        self,
        tweets: Iterable[Tweet],
        users: Iterable[UserProfile] | None = None,
    ) -> int:
        """Buffer ``tweets`` for the next snapshot; returns pending count.

        Each distinct text is tokenized here, once, and the batch's
        feature ids both grow the shared vocabulary and become the
        tweets' buffered ``Xp`` rows.  Unknown users get synthesized
        unlabeled profiles (matching :meth:`TweetCorpus.from_tweets`);
        pass ``users`` to attach ground-truth profiles for evaluation.
        Nothing is buffered when a text fails to tokenize.
        """
        vocabulary = self.vectorizer.vocabulary
        assert vocabulary is not None
        tweets = list(tweets)
        memo = self._token_memo
        documents = []
        for tweet in tweets:
            tokens = memo.get(tweet.text)
            if tokens is None:
                tokens = self._analyzer(tweet.text)
                if len(memo) >= _TOKEN_MEMO_LIMIT:
                    memo.clear()
                memo[tweet.text] = tokens
            documents.append(tokens)
        if vocabulary.frozen:
            vocabulary.thaw()
        self._pending_counts.append(vocabulary.add_documents(documents))
        self._pending.extend(tweets)
        for profile in users or ():
            self._profiles[profile.user_id] = profile
        for tweet in tweets:
            self._author_of[tweet.tweet_id] = tweet.user_id
            if tweet.user_id not in self._profiles:
                self._profiles[tweet.user_id] = UserProfile(
                    user_id=tweet.user_id, base_stance=None, labeled=False
                )
        return len(self._pending)

    @property
    def pending(self) -> int:
        """Number of tweets buffered for the next snapshot."""
        return len(self._pending)

    def has_ingested(self, tweet_id: int) -> bool:
        """Whether ``tweet_id`` was ever ingested (including pending).

        The author map this reads survives engine checkpoints, so a
        warm-restarted stream can skip tweets it already folded in
        instead of double-counting them.
        """
        return tweet_id in self._author_of

    @property
    def num_features(self) -> int:
        """Current (grown) vocabulary size."""
        assert self.vectorizer.vocabulary is not None
        return len(self.vectorizer.vocabulary)

    @property
    def snapshots_built(self) -> int:
        return self._snapshots_built

    def last_seen(self, user_id: int) -> int | None:
        """Snapshot index the user was last active in, or ``None``."""
        return self._last_seen.get(user_id)

    def compact(self, max_age: int) -> int:
        """Age out bookkeeping for long-inactive authors; returns count.

        Drops the profile, activity record and tweet→author entries of
        every user neither posting nor retweeted within the most recent
        ``max_age`` snapshots — the unbounded parts of the builder's
        memory on infinite streams.  Consequences, by design: a later
        retweet of an aged-out tweet no longer resolves its author
        (same handling as a never-ingested source), an aged-out user
        who returns gets a fresh synthesized profile, and
        :meth:`has_ingested` forgets their tweets (a warm-restarted
        stream may re-ingest them).  Users known only through a
        supplied ground-truth profile (never active) are kept — there
        is no recency evidence to age them out on.

        Rejected while tweets are pending: the buffered delta may
        reference the very bookkeeping being dropped.
        """
        if max_age < 1:
            raise ValueError(f"max_age must be >= 1, got {max_age}")
        if self._pending:
            raise ValueError(
                f"{len(self._pending)} tweets are pending; build the "
                "snapshot before compacting"
            )
        cutoff = self._snapshots_built - max_age
        stale = {
            uid for uid, seen in self._last_seen.items() if seen < cutoff
        }
        if not stale:
            return 0
        for uid in stale:
            del self._last_seen[uid]
            self._profiles.pop(uid, None)
        self._author_of = {
            tweet_id: uid
            for tweet_id, uid in self._author_of.items()
            if uid not in stale
        }
        return len(stale)

    # ------------------------------------------------------------------ #
    # Snapshot assembly
    # ------------------------------------------------------------------ #

    def build_snapshot(self, name: str | None = None) -> TripartiteGraph:
        """Assemble the buffered delta into a :class:`TripartiteGraph`.

        Clears the buffer.  Raises :class:`ValueError` when nothing has
        been ingested since the previous snapshot (the online solver has
        nothing to factorize).
        """
        if not self._pending:
            raise ValueError("no tweets ingested since the last snapshot")
        vocabulary = self.vectorizer.vocabulary
        assert vocabulary is not None

        corpus = self._snapshot_corpus(self._pending, name)

        if isinstance(self.vectorizer, TfidfVectorizer):
            # idf drifts as the vocabulary and document count grow; refresh
            # once per snapshot so Xp weighting and classify()-time
            # transforms use the same statistics.
            self.vectorizer.refresh_idf()
        xp = self._build_xp()
        xr = build_user_tweet_matrix(corpus)
        xu = build_user_feature_matrix(xp, xr)
        user_graph = build_user_graph(corpus)

        sf0 = None
        if self.lexicon is not None:
            sf0 = self._grow_sf0(vocabulary)

        self._pending = []
        self._pending_counts = []
        self._snapshots_built += 1
        return TripartiteGraph(
            corpus=corpus,
            vectorizer=self.vectorizer,
            xp=xp,
            xu=xu,
            xr=xr,
            user_graph=user_graph,
            sf0=sf0,
        )

    # ------------------------------------------------------------------ #

    def _grow_sf0(self, vocabulary) -> np.ndarray:
        """Extend the cached ``Sf0`` prefix with rows for new tokens only.

        A token's prior row depends on nothing but the token itself, so
        rows computed for earlier snapshots stay valid; per-snapshot cost
        is proportional to vocabulary *growth*, not vocabulary size.
        """
        assert self.lexicon is not None
        cached = 0 if self._sf0_rows is None else self._sf0_rows.shape[0]
        if len(vocabulary) > cached:
            new_rows = build_sf0_rows(
                vocabulary.tokens[cached:],
                self.lexicon,
                num_classes=self.num_classes,
            )
            self._sf0_rows = (
                new_rows
                if self._sf0_rows is None
                else np.vstack([self._sf0_rows, new_rows])
            )
        assert self._sf0_rows is not None
        return self._sf0_rows.copy()

    def _snapshot_corpus(
        self, tweets: list[Tweet], name: str | None
    ) -> TweetCorpus:
        """Per-snapshot corpus: posting users plus retweeted authors.

        A user is active when they posted in the snapshot *or* authored
        a tweet retweeted in it — the same universe
        :meth:`TweetCorpus.window` produces for causally ordered streams
        (a source tweet ingested no later than its retweet), so the
        engine path stays a drop-in replacement for the rebuild path.
        Sources never ingested are unresolvable here, whereas ``window``
        can see them elsewhere in its full corpus.
        """
        active = {t.user_id for t in tweets}
        for tweet in tweets:
            if tweet.retweet_of is not None:
                author = self._author_of.get(tweet.retweet_of)
                if author is not None:
                    active.add(author)
        for uid in active:
            # Activity recency (posted or was retweeted) drives the
            # optional checkpoint compaction in :meth:`compact`.
            self._last_seen[uid] = self._snapshots_built
        users = {uid: self._profiles[uid] for uid in active}
        return TweetCorpus(
            tweets=list(tweets),
            users=users,
            name=name or f"snapshot{self._snapshots_built}",
        )

    def _build_xp(self) -> sp.csr_matrix:
        """``Xp`` from the buffered count fragments — one concatenation."""
        lengths, ids, counts = (
            np.concatenate(parts) for parts in zip(*self._pending_counts)
        )
        indptr = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        raw = sp.csr_matrix(
            (counts.astype(np.float64), ids.astype(np.int32), indptr),
            shape=(lengths.shape[0], self.num_features),
            dtype=np.float64,
        )
        return self.vectorizer.transform_counts(raw)
