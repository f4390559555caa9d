"""Independent oracles: the text-ingest stages as first written, per tweet.

The streaming ingest path tokenizes with fast paths that skip stages a
text does not need, interns and counts a whole batch of documents in
one call, and assembles each snapshot's matrices from flat index
arrays.  These are the straightforward versions it replaced, kept so
that equality tests compare that path with something other than
itself:

- :class:`ReferenceTokenizer` runs every stage on every text (the
  emoticon table rebuilt and scanned per call, one pass per stage);
- :class:`ReferenceVocabulary` registers one document at a time with
  three loops and string-keyed ``Counter`` statistics;
- :class:`ReferenceBuilder` buffers a ``Counter`` per tweet and builds
  ``Xp``, ``Xr`` and ``Gu`` through per-tweet position lookups and
  pair lists.

Only ``lowercase=True`` is an oracle: the tokenizer below drops upper
case letters when ``lowercase=False``.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.data.corpus import TweetCorpus
from repro.data.tweet import Tweet, UserProfile
from repro.graph.bipartite import build_user_feature_matrix
from repro.graph.tripartite import TripartiteGraph
from repro.graph.usergraph import UserGraph
from repro.text.lexicon import SentimentLexicon, build_sf0_rows
from repro.text.tokenizer import EMOTICONS, NEGATION_SUFFIX, NEGATION_WORDS
from repro.text.vectorizer import TfidfVectorizer

_URL_RE = re.compile(r"https?://\S+|www\.\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#(\w+)")
_ELONGATION_RE = re.compile(r"(.)\1{2,}")
_TOKEN_RE = re.compile(r"[a-z0-9_#@']+")


@dataclass
class ReferenceTokenizer:
    """The tweet tokenizer, every stage on every text."""

    lowercase: bool = True
    strip_urls: bool = True
    keep_mentions: bool = False
    keep_hashtags: bool = True
    mark_negation: bool = True
    squash_elongation: bool = True
    min_token_length: int = 2
    extra_emoticons: dict[str, str] = field(default_factory=dict)

    def tokenize(self, text: str) -> list[str]:
        working = text.lower() if self.lowercase else text
        if self.strip_urls:
            working = _URL_RE.sub(" ", working)
        working, emoticon_tokens = self._extract_emoticons(working)
        if not self.keep_mentions:
            working = _MENTION_RE.sub(" ", working)
        if self.keep_hashtags:
            working = _HASHTAG_RE.sub(r" \1 ", working)
        if self.squash_elongation:
            working = _ELONGATION_RE.sub(r"\1\1", working)
        tokens = self._split(working)
        if self.mark_negation:
            tokens = self._apply_negation(tokens)
        tokens.extend(emoticon_tokens)
        return [
            token
            for token in tokens
            if len(token.removesuffix(NEGATION_SUFFIX)) >= self.min_token_length
        ]

    __call__ = tokenize

    def _extract_emoticons(self, text: str) -> tuple[str, list[str]]:
        table = {**EMOTICONS, **self.extra_emoticons}
        found: list[str] = []
        working = text
        for raw, canonical in table.items():
            count = working.count(raw)
            if count:
                found.extend([canonical] * count)
                working = working.replace(raw, " ")
        return working, found

    def _split(self, text: str) -> list[str]:
        tokens = []
        for match in _TOKEN_RE.finditer(text):
            token = match.group().strip("'_")
            if token:
                tokens.append(token)
        return tokens

    def _apply_negation(self, tokens: list[str]) -> list[str]:
        result: list[str] = []
        scope_remaining = 0
        for token in tokens:
            bare = token.rstrip("'")
            if bare in NEGATION_WORDS or bare.endswith("n't"):
                result.append(bare)
                scope_remaining = 3
                continue
            if scope_remaining > 0:
                result.append(token + NEGATION_SUFFIX)
                scope_remaining -= 1
            else:
                result.append(token)
        return result


class ReferenceVocabulary:
    """Token ids and statistics, registered one document at a time."""

    def __init__(self) -> None:
        self._token_to_id: dict[str, int] = {}
        self._id_to_token: list[str] = []
        self._term_frequency: Counter[str] = Counter()
        self._document_frequency: Counter[str] = Counter()
        self._num_documents = 0
        self._frozen = False

    def add_document(self, tokens: Iterable[str]) -> list[int]:
        token_list = list(tokens)
        self._num_documents += 1
        ids: list[int] = []
        for token in token_list:
            feature_id = self._intern(token)
            if feature_id is not None:
                ids.append(feature_id)
        for token in set(token_list):
            if token in self._token_to_id:
                self._document_frequency[token] += 1
        for token in token_list:
            if token in self._token_to_id:
                self._term_frequency[token] += 1
        return ids

    def _intern(self, token: str) -> int | None:
        existing = self._token_to_id.get(token)
        if existing is not None:
            return existing
        if self._frozen:
            return None
        feature_id = len(self._id_to_token)
        self._token_to_id[token] = feature_id
        self._id_to_token.append(token)
        return feature_id

    def freeze(self) -> None:
        self._frozen = True

    def thaw(self) -> None:
        self._frozen = False

    @property
    def frozen(self) -> bool:
        return self._frozen

    def __len__(self) -> int:
        return len(self._id_to_token)

    def get(self, token: str, default: int | None = None) -> int | None:
        return self._token_to_id.get(token, default)

    @property
    def tokens(self) -> list[str]:
        return list(self._id_to_token)

    @property
    def num_documents(self) -> int:
        return self._num_documents

    def term_frequency(self, token: str) -> int:
        return self._term_frequency[token]

    def document_frequency(self, token: str) -> int:
        return self._document_frequency[token]

    def document_frequency_array(self) -> np.ndarray:
        df = self._document_frequency
        return np.fromiter(
            (df[token] for token in self._id_to_token),
            dtype=np.float64,
            count=len(self._id_to_token),
        )

    def most_common(self, count: int) -> list[tuple[str, int]]:
        return self._term_frequency.most_common(count)

    def to_state(self) -> dict:
        return {
            "tokens": list(self._id_to_token),
            "term_frequency": [
                self._term_frequency[t] for t in self._id_to_token
            ],
            "document_frequency": [
                self._document_frequency[t] for t in self._id_to_token
            ],
            "num_documents": self._num_documents,
            "frozen": self._frozen,
        }

    def pruned(
        self,
        min_document_frequency: int = 1,
        max_document_ratio: float = 1.0,
        max_features: int | None = None,
    ) -> "ReferenceVocabulary":
        ceiling = max_document_ratio * max(self._num_documents, 1)
        survivors = [
            token
            for token in self._id_to_token
            if min_document_frequency
            <= self._document_frequency[token]
            <= ceiling
        ]
        survivors.sort(key=lambda t: (-self._term_frequency[t], t))
        if max_features is not None:
            survivors = survivors[:max_features]
        pruned = ReferenceVocabulary()
        pruned._num_documents = self._num_documents
        for token in survivors:
            pruned._token_to_id[token] = len(pruned._id_to_token)
            pruned._id_to_token.append(token)
            pruned._term_frequency[token] = self._term_frequency[token]
            pruned._document_frequency[token] = self._document_frequency[token]
        return pruned


def reference_xp_counts(
    counts: list[Counter[int]], num_features: int
) -> sp.csr_matrix:
    """Raw ``Xp`` counts from one ``Counter`` per tweet, row by row."""
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    nnz = sum(len(c) for c in counts)
    indices = np.empty(nnz, dtype=np.int32)
    data = np.empty(nnz, dtype=np.float64)
    cursor = 0
    for row, tweet_counts in enumerate(counts):
        for feature_id in sorted(tweet_counts):
            indices[cursor] = feature_id
            data[cursor] = float(tweet_counts[feature_id])
            cursor += 1
        indptr[row + 1] = cursor
    return sp.csr_matrix(
        (data, indices, indptr),
        shape=(len(counts), num_features),
        dtype=np.float64,
    )


def reference_user_tweet_matrix(corpus: TweetCorpus) -> sp.csr_matrix:
    """``Xr`` through per-tweet position lookups."""
    rows: list[int] = []
    cols: list[int] = []
    for tweet in corpus.tweets:
        rows.append(corpus.user_position(tweet.user_id))
        cols.append(corpus.tweet_position(tweet.tweet_id))
        if tweet.retweet_of is not None:
            try:
                source_col = corpus.tweet_position(tweet.retweet_of)
            except KeyError:
                continue
            rows.append(corpus.user_position(tweet.user_id))
            cols.append(source_col)
    data = np.ones(len(rows), dtype=np.float64)
    matrix = sp.csr_matrix(
        (data, (rows, cols)),
        shape=(corpus.num_users, corpus.num_tweets),
    )
    matrix.sum_duplicates()
    matrix.data[:] = np.minimum(matrix.data, 1.0)
    return matrix


def reference_user_graph(corpus: TweetCorpus) -> sp.csr_matrix:
    """``Gu`` through a pair list of same-corpus retweet edges."""
    author_of = {t.tweet_id: t.user_id for t in corpus.tweets}
    rows: list[int] = []
    cols: list[int] = []
    for tweet in corpus.tweets:
        author = author_of.get(tweet.retweet_of)
        if author is None or author == tweet.user_id:
            continue
        i = corpus.user_position(tweet.user_id)
        j = corpus.user_position(author)
        rows.extend((i, j))
        cols.extend((j, i))
    data = np.ones(len(rows), dtype=np.float64)
    size = corpus.num_users
    adjacency = sp.csr_matrix((data, (rows, cols)), shape=(size, size))
    adjacency.sum_duplicates()
    adjacency.setdiag(0.0)
    adjacency.eliminate_zeros()
    return adjacency


class ReferenceBuilder:
    """Snapshot assembly from per-tweet ``Counter`` fragments.

    Follows the streaming builder's contract — a vocabulary grown in
    place, a bounded token memo, the snapshot corpus of posting plus
    retweeted users, an ``Sf0`` prefix grown per snapshot — with the
    oracles above for every stage.
    """

    def __init__(
        self, lexicon: SentimentLexicon | None = None, num_classes: int = 3
    ) -> None:
        self.vectorizer = TfidfVectorizer(
            analyzer=ReferenceTokenizer(), vocabulary=ReferenceVocabulary()
        )
        self.lexicon = lexicon
        self.num_classes = num_classes
        self._pending: list[Tweet] = []
        self._pending_counts: list[Counter[int]] = []
        self._profiles: dict[int, UserProfile] = {}
        self._author_of: dict[int, int] = {}
        self._snapshots_built = 0
        self._token_memo: dict[str, list[str]] = {}
        self._sf0_rows: np.ndarray | None = None

    @property
    def vocabulary(self) -> ReferenceVocabulary:
        return self.vectorizer.vocabulary

    def ingest(
        self,
        tweets: Iterable[Tweet],
        users: Iterable[UserProfile] | None = None,
    ) -> None:
        for profile in users or ():
            self._profiles[profile.user_id] = profile
        for tweet in tweets:
            tokens = self._token_memo.get(tweet.text)
            if tokens is None:
                tokens = self.vectorizer.analyzer(tweet.text)
                self._token_memo[tweet.text] = tokens
            ids = self.vocabulary.add_document(tokens)
            self._pending.append(tweet)
            self._pending_counts.append(Counter(ids))
            self._author_of[tweet.tweet_id] = tweet.user_id
            if tweet.user_id not in self._profiles:
                self._profiles[tweet.user_id] = UserProfile(
                    user_id=tweet.user_id, base_stance=None, labeled=False
                )

    def build_snapshot(self) -> TripartiteGraph:
        tweets = self._pending
        active = {t.user_id for t in tweets}
        for tweet in tweets:
            if tweet.retweet_of is not None:
                author = self._author_of.get(tweet.retweet_of)
                if author is not None:
                    active.add(author)
        corpus = TweetCorpus(
            tweets=list(tweets),
            users={uid: self._profiles[uid] for uid in active},
            name=f"snapshot{self._snapshots_built}",
        )
        self.vectorizer.refresh_idf()
        raw = reference_xp_counts(self._pending_counts, len(self.vocabulary))
        xp = self.vectorizer.transform_counts(raw)
        xr = reference_user_tweet_matrix(corpus)
        sf0 = None
        if self.lexicon is not None:
            cached = 0 if self._sf0_rows is None else self._sf0_rows.shape[0]
            if len(self.vocabulary) > cached:
                new_rows = build_sf0_rows(
                    self.vocabulary.tokens[cached:],
                    self.lexicon,
                    num_classes=self.num_classes,
                )
                self._sf0_rows = (
                    new_rows
                    if self._sf0_rows is None
                    else np.vstack([self._sf0_rows, new_rows])
                )
            sf0 = self._sf0_rows.copy()
        self._pending = []
        self._pending_counts = []
        self._snapshots_built += 1
        return TripartiteGraph(
            corpus=corpus,
            vectorizer=self.vectorizer,
            xp=xp,
            xu=build_user_feature_matrix(xp, xr),
            xr=xr,
            user_graph=UserGraph(adjacency=reference_user_graph(corpus)),
            sf0=sf0,
        )
