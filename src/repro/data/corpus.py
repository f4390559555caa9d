"""``TweetCorpus``: the container every pipeline stage consumes.

A corpus holds tweets and user profiles, provides stable integer index
mappings (tweet position, user position) for matrix construction, temporal
window slicing for the online framework, and labeled-subset access for
evaluation.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.data.tweet import Tweet, UserProfile


@dataclass
class TweetCorpus:
    """An ordered collection of tweets plus the users who wrote them."""

    tweets: list[Tweet] = field(default_factory=list)
    users: dict[int, UserProfile] = field(default_factory=dict)
    name: str = "corpus"

    def __post_init__(self) -> None:
        self._reindex()

    def _reindex(self) -> None:
        missing = {t.user_id for t in self.tweets} - set(self.users)
        if missing:
            raise ValueError(
                f"tweets reference unknown users: {sorted(missing)[:5]}"
            )
        self._tweet_index = {t.tweet_id: i for i, t in enumerate(self.tweets)}
        if len(self._tweet_index) != len(self.tweets):
            raise ValueError("duplicate tweet ids in corpus")
        self._user_ids = sorted(self.users)
        self._user_index = {uid: i for i, uid in enumerate(self._user_ids)}
        self._author_rows: np.ndarray | None = None
        self._source_rows: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Sizes and index mappings
    # ------------------------------------------------------------------ #

    @property
    def num_tweets(self) -> int:
        return len(self.tweets)

    @property
    def num_users(self) -> int:
        return len(self._user_ids)

    @property
    def user_ids(self) -> list[int]:
        """User ids in matrix-row order (a copy)."""
        return list(self._user_ids)

    def tweet_position(self, tweet_id: int) -> int:
        """Matrix-row index of ``tweet_id``."""
        return self._tweet_index[tweet_id]

    def user_position(self, user_id: int) -> int:
        """Matrix-row index of ``user_id``."""
        return self._user_index[user_id]

    @property
    def author_rows(self) -> np.ndarray:
        """Each tweet's author row index, one int64 entry per tweet.

        The vectorized form of ``user_position(t.user_id) for t in
        tweets`` that graph assembly and shard extraction need; cached
        (and marked read-only) because at realistic scale the per-tweet
        dict-lookup loop is measurable where the array is not.
        """
        if self._author_rows is None:
            index = self._user_index
            self._author_rows = _row_array(
                (index[t.user_id] for t in self.tweets), len(self.tweets)
            )
        return self._author_rows

    @property
    def source_rows(self) -> np.ndarray:
        """Each tweet's retweet-source tweet row, one int64 entry per tweet.

        ``-1`` for an original tweet and for a retweet whose source is
        outside this corpus.  Cached and read-only, like
        :attr:`author_rows`.
        """
        if self._source_rows is None:
            index = self._tweet_index
            self._source_rows = _row_array(
                (index.get(t.retweet_of, -1) for t in self.tweets),
                len(self.tweets),
            )
        return self._source_rows

    def __len__(self) -> int:
        return len(self.tweets)

    def __iter__(self) -> Iterator[Tweet]:
        return iter(self.tweets)

    # ------------------------------------------------------------------ #
    # Temporal structure
    # ------------------------------------------------------------------ #

    @property
    def day_range(self) -> tuple[int, int]:
        """``(first_day, last_day)`` inclusive; ``(0, -1)`` when empty."""
        if not self.tweets:
            return (0, -1)
        days = [t.day for t in self.tweets]
        return (min(days), max(days))

    def window(self, start_day: int, end_day: int, name: str | None = None) -> "TweetCorpus":
        """Sub-corpus of tweets with ``start_day <= day <= end_day``.

        Users are restricted to those active (posting or being retweeted)
        in the window, matching the online framework's per-snapshot data
        matrices ``Xp(t), Xu(t), Xr(t)``.
        """
        selected = [t for t in self.tweets if start_day <= t.day <= end_day]
        active_users = {t.user_id for t in selected}
        authors_of = {t.tweet_id: t.user_id for t in self.tweets}
        for tweet in selected:
            if tweet.retweet_of is not None and tweet.retweet_of in authors_of:
                active_users.add(authors_of[tweet.retweet_of])
        users = {uid: self.users[uid] for uid in active_users}
        return TweetCorpus(
            tweets=selected,
            users=users,
            name=name or f"{self.name}[{start_day}:{end_day}]",
        )

    def tweets_by_day(self) -> dict[int, list[Tweet]]:
        """Group tweets by day (sorted day keys)."""
        grouped: dict[int, list[Tweet]] = {}
        for tweet in self.tweets:
            grouped.setdefault(tweet.day, []).append(tweet)
        return dict(sorted(grouped.items()))

    # ------------------------------------------------------------------ #
    # Labels
    # ------------------------------------------------------------------ #

    def tweet_labels(self) -> np.ndarray:
        """Array of tweet sentiment ids; ``-1`` marks unlabeled tweets."""
        return np.array(
            [
                int(t.sentiment) if t.sentiment is not None else -1
                for t in self.tweets
            ],
            dtype=np.int64,
        )

    def user_labels(self, day: int | None = None) -> np.ndarray:
        """Array of user sentiment ids in user-row order; ``-1`` unlabeled.

        ``day`` evaluates evolving users at a point in time; the default
        uses the end of the corpus window (the paper evaluates user labels
        per snapshot in the online experiments).
        """
        if day is None:
            day = self.day_range[1]
        labels = np.empty(self.num_users, dtype=np.int64)
        for row, uid in enumerate(self._user_ids):
            label = self.users[uid].label_at(day)
            labels[row] = int(label) if label is not None else -1
        return labels

    def labeled_tweet_indices(self) -> np.ndarray:
        """Positions of tweets that carry a ground-truth label."""
        labels = self.tweet_labels()
        return np.flatnonzero(labels >= 0)

    def labeled_user_indices(self, day: int | None = None) -> np.ndarray:
        """Positions of users that carry a ground-truth label."""
        labels = self.user_labels(day)
        return np.flatnonzero(labels >= 0)

    # ------------------------------------------------------------------ #
    # Statistics / reporting
    # ------------------------------------------------------------------ #

    def tweet_label_counts(self, include_retweets: bool = True) -> Counter[str]:
        """Counter of tweet labels by short name plus ``unlabeled``.

        ``include_retweets=False`` counts original tweets only, which is
        what the paper's Table 3 statistics describe (a retweet row in
        this corpus is a separate entry carrying its source's label).
        """
        counts: Counter[str] = Counter()
        for tweet in self.tweets:
            if not include_retweets and tweet.is_retweet:
                continue
            if tweet.sentiment is None:
                counts["unlabeled"] += 1
            else:
                counts[tweet.sentiment.short_name] += 1
        return counts

    def user_label_counts(self, day: int | None = None) -> Counter[str]:
        """Counter of user labels by short name plus ``unlabeled``."""
        if day is None:
            day = self.day_range[1]
        counts: Counter[str] = Counter()
        for uid in self._user_ids:
            label = self.users[uid].label_at(day)
            if label is None:
                counts["unlabeled"] += 1
            else:
                counts[label.short_name] += 1
        return counts

    def retweet_edges(self) -> list[tuple[int, int]]:
        """``(retweeting_user_id, source_tweet_id)`` pairs within corpus."""
        edges = []
        for tweet in self.tweets:
            if tweet.retweet_of is not None and tweet.retweet_of in self._tweet_index:
                edges.append((tweet.user_id, tweet.retweet_of))
        return edges

    def texts(self) -> list[str]:
        """All tweet texts in matrix-row order."""
        return [t.text for t in self.tweets]

    def profiles_for(self, tweets: Iterable[Tweet]) -> list[UserProfile]:
        """Profiles of the authors of ``tweets``, in user-id order.

        The companion of streaming ingestion: feeding these alongside a
        tweet delta keeps ground-truth labels attached to the engine's
        per-snapshot corpora (otherwise unknown authors are synthesized
        as unlabeled and user-level evaluation silently degrades).
        """
        return [self.users[uid] for uid in sorted({t.user_id for t in tweets})]

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_tweets(
        cls,
        tweets: Iterable[Tweet],
        users: Iterable[UserProfile] | None = None,
        name: str = "corpus",
    ) -> "TweetCorpus":
        """Build a corpus, synthesizing missing user profiles as unlabeled."""
        tweet_list = list(tweets)
        profiles = {u.user_id: u for u in (users or [])}
        for tweet in tweet_list:
            if tweet.user_id not in profiles:
                profiles[tweet.user_id] = UserProfile(
                    user_id=tweet.user_id, base_stance=None, labeled=False
                )
        return cls(tweets=tweet_list, users=profiles, name=name)

    def merged_with(self, other: "TweetCorpus") -> "TweetCorpus":
        """Union of two corpora (tweet ids must not collide)."""
        users = {**self.users, **other.users}
        return TweetCorpus(
            tweets=[*self.tweets, *other.tweets],
            users=users,
            name=f"{self.name}+{other.name}",
        )


def _row_array(rows: Iterable[int], count: int) -> np.ndarray:
    """A read-only int64 array of the ``count`` ``rows``."""
    array = np.fromiter(rows, dtype=np.int64, count=count)
    array.flags.writeable = False
    return array


def concatenate_corpora(corpora: Sequence[TweetCorpus], name: str) -> TweetCorpus:
    """Concatenate several disjoint corpora into one."""
    merged_tweets: list[Tweet] = []
    merged_users: dict[int, UserProfile] = {}
    for corpus in corpora:
        merged_tweets.extend(corpus.tweets)
        merged_users.update(corpus.users)
    return TweetCorpus(tweets=merged_tweets, users=merged_users, name=name)
