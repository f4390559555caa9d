"""The single-pass ingest path against the per-tweet oracles.

Tokens, vocabulary ids and statistics, and every snapshot matrix must be
byte-identical to :mod:`tests.text.reference`: the fast paths change
how much work a tweet costs, never what it produces.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.stream import iter_tweet_batches
from repro.data.tweet import Tweet, UserProfile
from repro.graph.bipartite import build_user_tweet_matrix
from repro.graph.incremental import IncrementalTripartiteBuilder
from repro.graph.usergraph import build_user_graph
from repro.text.tokenizer import TweetTokenizer
from repro.text.vocabulary import Vocabulary
from tests.text.reference import (
    ReferenceBuilder,
    ReferenceTokenizer,
    ReferenceVocabulary,
    reference_user_graph,
    reference_user_tweet_matrix,
)

#: Pieces the tokenizer treats specially, mixed with arbitrary characters.
FRAGMENTS = [
    ":-)", ":)", ">:(", ":(", ":'(", ":-/", ":/", ";-)", ":D", ":d", "<3",
    "http://", "https://x.co/A", "www.", "WWW.", "@", "@bob", "#", "#Yes",
    "'", "''", "_", "__", "ooo", "OOOO", "!!!", "zzz", "not", "NOT", "no",
    "never", "nor", "cannot", "without", "n't", "don't", "DON'T", "it's",
    ".", ",", "!", "?", ";", ":", "-", " ", " ", "  ", "\n", "\t", "a", "B",
    "go", "Good", "x9", "42", "é", "ÉÉÉ", "İ", "K", "ſ", "ı", "ς",
]
texts = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), st.characters()), max_size=40
).map("".join)
extra_emoticons = st.dictionaries(
    st.sampled_from(["^^", "xd", "XD", ":-)", "o_o", ":p", "<3", "d:"]),
    st.sampled_from(["emo_joy", "emo_smile", "x", "a_NEG", "Joy"]),
    max_size=3,
)
settings_combos = st.fixed_dictionaries(
    {
        "strip_urls": st.booleans(),
        "keep_mentions": st.booleans(),
        "keep_hashtags": st.booleans(),
        "mark_negation": st.booleans(),
        "squash_elongation": st.booleans(),
        "min_token_length": st.integers(0, 4),
        "extra_emoticons": extra_emoticons,
    }
)


def assert_same_csr(actual, expected) -> None:
    assert actual.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def assert_same_array(actual, expected) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestTokenizerOracle:
    @given(texts, settings_combos)
    @settings(max_examples=400, deadline=None)
    def test_tokens_match_every_setting(self, text, options):
        assert TweetTokenizer(**options)(text) == ReferenceTokenizer(**options)(
            text
        )

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            ">:(:-):):(",
            "<3<3 <<33",
            "not :) good",
            "NOT GOOD at ALL",
            "never ever n't",
            "'''quoted''' __under__ it's",
            "soooo gooooood!!!",
            "@alice @BOB hi #Prop30 #yes_on_30 ##double",
            "https://t.co/Ab http://x www.site.org/x visit",
            "i don't, can't and won't",
            "no. no, no! not",
        ],
    )
    def test_edge_cases(self, text):
        assert TweetTokenizer()(text) == ReferenceTokenizer()(text)

    def test_empty_emoticon_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            TweetTokenizer(extra_emoticons={"": "emo_none"})


documents = st.lists(
    st.lists(st.sampled_from("abcdefgh") | st.text("ab", max_size=3)),
    max_size=12,
)


class TestVocabularyOracle:
    @given(documents, st.lists(st.integers(1, 5), max_size=8), st.data())
    @settings(max_examples=150, deadline=None)
    def test_batches_match_one_document_at_a_time(self, docs, cuts, data):
        """Batch calls, single calls and freezing agree with the oracle."""
        vocab, oracle = Vocabulary(), ReferenceVocabulary()
        position = 0
        for cut in cuts + [len(docs)]:
            batch = docs[position : position + cut]
            position += len(batch)
            if data.draw(st.booleans()):
                vocab.freeze()
                oracle.freeze()
            else:
                vocab.thaw()
                oracle.thaw()
            if len(batch) == 1 and data.draw(st.booleans()):
                assert vocab.add_document(batch[0]) == oracle.add_document(
                    batch[0]
                )
                continue
            lengths, ids, counts = vocab.add_documents(batch)
            expected = [Counter(oracle.add_document(doc)) for doc in batch]
            assert lengths.tolist() == [len(c) for c in expected]
            assert ids.tolist() == [i for c in expected for i in sorted(c)]
            assert counts.tolist() == [
                c[i] for c in expected for i in sorted(c)
            ]
        assert vocab.to_state() == oracle.to_state()
        assert_same_array(
            vocab.document_frequency_array(), oracle.document_frequency_array()
        )
        for token in [*oracle.tokens, "zz_unknown"]:
            assert vocab.term_frequency(token) == oracle.term_frequency(token)
            assert vocab.document_frequency(token) == oracle.document_frequency(
                token
            )
        for count in (0, 1, 3, len(oracle) + 1):
            assert vocab.most_common(count) == oracle.most_common(count)
        for options in (
            {},
            {"min_document_frequency": 2},
            {"max_document_ratio": 0.5},
            {"max_features": 3},
        ):
            assert (
                vocab.pruned(**options).to_state()
                == oracle.pruned(**options).to_state()
            )

    def test_state_round_trip(self):
        vocab = Vocabulary()
        vocab.add_documents([["a", "b", "a"], [], ["c", "a"]])
        state = vocab.to_state()
        assert Vocabulary.from_state(state).to_state() == state
        assert state["term_frequency"] == [3, 1, 1]
        assert state["document_frequency"] == [2, 1, 1]
        assert state["num_documents"] == 3


def _build_both(stream, lexicon):
    """Run the builder and the oracle over ``(tweets, users)`` batches."""
    builder = IncrementalTripartiteBuilder(lexicon=lexicon)
    oracle = ReferenceBuilder(lexicon=lexicon)
    pairs = []
    for batches in stream:
        for tweets, users in batches:
            builder.ingest(tweets, users=users)
            oracle.ingest(tweets, users=users)
        pairs.append((builder.build_snapshot(), oracle.build_snapshot()))
    return builder, oracle, pairs


def assert_same_snapshots(builder, oracle, pairs) -> None:
    for graph, expected in pairs:
        assert graph.corpus.user_ids == expected.corpus.user_ids
        assert_same_csr(graph.xp, expected.xp)
        assert_same_csr(graph.xu, expected.xu)
        assert_same_csr(graph.xr, expected.xr)
        assert_same_csr(graph.user_graph.adjacency, expected.user_graph.adjacency)
        if expected.sf0 is None:
            assert graph.sf0 is None
        else:
            assert_same_array(graph.sf0, expected.sf0)
    assert builder.vectorizer.vocabulary.to_state() == oracle.vocabulary.to_state()


class TestBuilderOracle:
    def test_generated_corpus_weekly(self, corpus, lexicon):
        stream = []
        for _, _, tweets in iter_tweet_batches(corpus, interval_days=7):
            users = corpus.profiles_for(tweets)
            # Two ingest calls per snapshot: fragments must concatenate.
            half = len(tweets) // 2
            stream.append([(tweets[:half], users), (tweets[half:], None)])
        builder, oracle, pairs = _build_both(stream, lexicon)
        assert len(pairs) >= 10
        assert_same_snapshots(builder, oracle, pairs)

    def test_hand_built_stream(self, lexicon):
        def tweet(tweet_id, user_id, text, retweet_of=None):
            return Tweet(
                tweet_id=tweet_id, user_id=user_id, text=text, day=tweet_id,
                retweet_of=retweet_of,
            )

        labeled = UserProfile(user_id=1, base_stance=None, labeled=False)
        stream = [
            [
                (
                    [
                        tweet(0, 1, "Yes on 30, schools need it :)"),
                        tweet(1, 2, "not happy about taxes"),
                        tweet(2, 3, "Yes on 30, schools need it :)", 0),
                        tweet(3, 3, "a !!"),  # no tokens
                        tweet(4, 2, "not happy about taxes", 1),  # self
                    ],
                    [labeled],
                ),
                ([], None),
            ],
            [
                (
                    [
                        tweet(5, 4, "Yes on 30, schools need it :)", 0),
                        tweet(6, 5, "lost source", 999),  # never ingested
                        tweet(7, 6, "sooo good <3 #Prop30"),
                        tweet(8, 1, "sooo good <3 #Prop30", 7),
                        tweet(9, 1, "sooo good <3 #Prop30", 7),
                    ],
                    None,
                ),
            ],
            # No new words, and a user with no profile who only
            # retweets an earlier snapshot's tweet.
            [([tweet(10, 7, "Schools need it", 1), tweet(11, 2, "???")], None)],
        ]
        builder, oracle, pairs = _build_both(stream, lexicon)
        assert pairs[2][0].num_features == pairs[1][0].num_features
        assert pairs[1][0].user_graph.adjacency.nnz > 0
        assert_same_snapshots(builder, oracle, pairs)


class TestOfflineOracle:
    """The offline path's ``Xr``/``Gu`` builders, on whole corpora and windows
    whose retweets reach sources outside them."""

    @pytest.mark.parametrize("window", [None, (0, 20), (30, 60), (100, 121)])
    def test_user_tweet_matrix_and_graph(self, corpus, window):
        if window is not None:
            corpus = corpus.window(*window)
        assert_same_csr(
            build_user_tweet_matrix(corpus), reference_user_tweet_matrix(corpus)
        )
        assert_same_csr(
            build_user_graph(corpus).adjacency, reference_user_graph(corpus)
        )
