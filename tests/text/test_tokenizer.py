"""Unit + property tests for the tweet tokenizer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.tokenizer import (
    NEGATION_SUFFIX,
    TweetTokenizer,
    tokenize,
)


class TestBasics:
    def test_simple_words(self):
        assert tokenize("hello world") == ["hello", "world"]

    def test_lowercasing(self):
        assert tokenize("Hello WORLD") == ["hello", "world"]

    def test_rejects_non_string(self):
        with pytest.raises(TypeError):
            tokenize(123)

    def test_min_token_length(self):
        tokens = TweetTokenizer(min_token_length=3).tokenize("a go run")
        assert tokens == ["run"]

    def test_empty_string(self):
        assert tokenize("") == []


class TestUrls:
    def test_urls_stripped(self):
        tokens = tokenize("check https://example.com/page now")
        assert "check" in tokens and "now" in tokens
        assert not any("example" in t or "http" in t for t in tokens)

    def test_www_stripped(self):
        assert "www" not in " ".join(tokenize("see www.site.org today"))

    def test_urls_kept_when_disabled(self):
        tokenizer = TweetTokenizer(strip_urls=False, mark_negation=False)
        tokens = tokenizer("https://site.org")
        assert any("site" in t for t in tokens)


class TestMentionsAndHashtags:
    def test_mentions_dropped_by_default(self):
        assert tokenize("@alice hello") == ["hello"]

    def test_mentions_kept_when_enabled(self):
        tokenizer = TweetTokenizer(keep_mentions=True)
        assert "@alice" in tokenizer("@alice hello")

    def test_hashtag_symbol_stripped(self):
        assert tokenize("#prop37 rocks") == ["prop37", "rocks"]

    def test_hashtags_dropped_when_disabled(self):
        tokenizer = TweetTokenizer(keep_hashtags=False)
        tokens = tokenizer("#prop37 rocks")
        # without hashtag handling the '#word' still matches the token
        # regex as 'prop37' after '#' strip by regex char class
        assert "rocks" in tokens


class TestEmoticons:
    def test_smile_mapped(self):
        assert "emo_smile" in tokenize("love this :)")

    def test_frown_mapped(self):
        assert "emo_frown" in tokenize("hate this :(")

    def test_heart_mapped(self):
        assert "emo_heart" in tokenize("so good <3")

    def test_extra_emoticons(self):
        tokenizer = TweetTokenizer(extra_emoticons={"^^": "emo_joy"})
        assert "emo_joy" in tokenizer("nice ^^")


class TestElongation:
    def test_squashed_to_two(self):
        tokens = tokenize("sooooo goooood")
        assert tokens == ["soo", "good"]

    def test_disabled(self):
        tokenizer = TweetTokenizer(squash_elongation=False, mark_negation=False)
        assert tokenizer("sooo")[0] == "sooo"


class TestNegation:
    def test_negation_marks_following_tokens(self):
        tokens = tokenize("not good at all")
        assert f"good{NEGATION_SUFFIX}" in tokens

    def test_scope_is_bounded(self):
        tokens = tokenize("not one two three four five")
        marked = [t for t in tokens if t.endswith(NEGATION_SUFFIX)]
        assert len(marked) == 3  # window of three tokens

    def test_negation_word_kept_unmarked(self):
        tokens = tokenize("not good")
        assert "not" in tokens

    def test_disabled(self):
        tokenizer = TweetTokenizer(mark_negation=False)
        tokens = tokenizer("not good")
        assert "good" in tokens
        assert all(not t.endswith(NEGATION_SUFFIX) for t in tokens)


class TestProperties:
    @given(st.text(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_never_crashes_and_yields_strings(self, text):
        tokens = tokenize(text)
        assert isinstance(tokens, list)
        assert all(isinstance(t, str) and t for t in tokens)

    @given(st.text(alphabet=st.characters(whitelist_categories=["Ll"]), max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_idempotent_on_plain_words(self, text):
        once = tokenize(text)
        twice = tokenize(" ".join(once))
        assert twice == once

    @given(st.text(max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_tokens_contain_no_whitespace(self, text):
        for token in tokenize(text):
            assert " " not in token


class TestCasePreserving:
    """``lowercase=False`` keeps the original case and nothing else moves."""

    def test_mixed_case_tweet(self):
        tokenizer = TweetTokenizer(lowercase=False)
        text = "Good Morning CALIFORNIA voters, NOT happy :) #YesOn30 @Bob"
        assert tokenizer(text) == [
            "Good", "Morning", "CALIFORNIA", "voters", "NOT",
            f"happy{NEGATION_SUFFIX}", f"YesOn30{NEGATION_SUFFIX}", "emo_smile",
        ]

    def test_negation_and_emoticon_ignore_case(self):
        tokenizer = TweetTokenizer(lowercase=False)
        assert tokenizer("Not GOOD :D") == [
            "Not", f"GOOD{NEGATION_SUFFIX}", "emo_laugh",
        ]

    def test_elongation_ignores_case(self):
        tokenizer = TweetTokenizer(lowercase=False)
        assert tokenizer("sOOOo GooD") == ["sOO", "GooD"]

    @given(
        st.lists(
            st.one_of(
                st.sampled_from(
                    ["NOT", "Don't", ":D", ":-D", "<3", "#Yes", "@Bob", "HTTP://X",
                     "WWW.", "OOO", "Aaa", "İ", "K", " ", ",", "'", "_"]
                ),
                st.characters(),
            ),
            max_size=30,
        ).map("".join),
        st.fixed_dictionaries(
            {
                "strip_urls": st.booleans(),
                "keep_mentions": st.booleans(),
                "keep_hashtags": st.booleans(),
                "mark_negation": st.booleans(),
                "squash_elongation": st.booleans(),
                "min_token_length": st.integers(0, 3),
            }
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_case_folds_to_the_lowercase_tokens(self, text, options):
        cased = TweetTokenizer(lowercase=False, **options)(text)
        lowered = TweetTokenizer(lowercase=True, **options)(text)
        assert [t.lower() for t in cased] == [t.lower() for t in lowered]
        assert [t.endswith(NEGATION_SUFFIX) for t in cased] == [
            t.endswith(NEGATION_SUFFIX) for t in lowered
        ] or "_neg" in text.lower()
