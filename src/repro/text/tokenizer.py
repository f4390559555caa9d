"""Twitter-aware tokenizer.

Tweets are short, noisy documents: hashtags and @-mentions are meaningful
units, URLs are noise, emoticons carry strong sentiment signal, and
character elongation ("soooo goooood") is common emphasis.  This tokenizer
handles each of those cases and optionally applies *negation scope
marking* ("not good" -> ``good_NEG``), the standard trick from Pang et al.
that lets bag-of-words models distinguish negated sentiment.

Tokenizing is the first stage of streaming ingest, so a call does only
the work its text needs.  The emoticon table is merged once per
tokenizer and scanned only when one of its first characters occurs in
the text; the URL, mention and hashtag substitutions run only when
``http``/``www.``, ``@`` or ``#`` occur.  One regex splits the text,
strips each word and drops words under the minimum length; when no
negation word is among them they are the tokens, and otherwise one
loop marks the negation scopes as it filters.  Elongation squashing
and that split are the two regex passes every text pays.

Every rule matches the lower-cased text.  With ``lowercase=False`` each
edit is mirrored onto the original text, so the tokens are the
``lowercase=True`` tokens in their original case.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

_URL_RE = re.compile(r"https?://\S+|www\.\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#(\w+)")
_ELONGATION_RE = re.compile(r"(.)\1{2,}")
#: A word: a run of ``[a-z0-9_#@']`` less its leading and trailing
#: apostrophes and underscores.
_WORD_RE = re.compile(r"[a-z0-9#@](?:[a-z0-9_#@']*[a-z0-9#@])?")


@lru_cache(maxsize=None)
def _words_of_length(minimum: int) -> re.Pattern:
    """The words :data:`_WORD_RE` finds that have ``minimum`` or more characters."""
    if minimum <= 1:
        return _WORD_RE
    return re.compile(rf"[a-z0-9#@][a-z0-9_#@']{{{minimum - 2},}}[a-z0-9#@]")


#: Western-style emoticons mapped to canonical tokens.  Canonical tokens are
#: plain identifiers so they survive the word regex downstream.
EMOTICONS: dict[str, str] = {
    ":)": "emo_smile",
    ":-)": "emo_smile",
    ":d": "emo_laugh",
    ":-d": "emo_laugh",
    ";)": "emo_wink",
    ";-)": "emo_wink",
    "<3": "emo_heart",
    ":(": "emo_frown",
    ":-(": "emo_frown",
    ":'(": "emo_cry",
    ":/": "emo_skeptic",
    ":-/": "emo_skeptic",
    ">:(": "emo_angry",
}

#: Words that flip the polarity of the tokens that follow them.
NEGATION_WORDS: frozenset[str] = frozenset(
    {"not", "no", "never", "nor", "cannot", "n't", "without"}
)

NEGATION_SUFFIX = "_NEG"

#: Tokens after a negation word that take :data:`NEGATION_SUFFIX`.
_NEGATION_SCOPE = 3


@dataclass(frozen=True)
class TweetTokenizer:
    """Configurable tweet tokenizer.

    Settings are fixed at construction (the emoticon table is merged
    then).

    Parameters
    ----------
    lowercase:
        Fold tokens to lower case (default ``True``).  Either way every
        rule — negation words, emoticons such as ``:D``, elongation
        runs — matches without regard to case.
    strip_urls:
        Drop URLs entirely (default ``True``).
    keep_mentions:
        Keep ``@user`` mentions as tokens (default ``False``; mentions are
        user identity, not sentiment-bearing vocabulary).
    keep_hashtags:
        Keep hashtags, with the leading ``#`` stripped so that ``#prop37``
        and ``prop37`` share a feature (default ``True``).
    mark_negation:
        Append ``_NEG`` to tokens inside a negation scope (default ``True``).
    squash_elongation:
        Reduce runs of 3+ identical characters to 2 (default ``True``).
    min_token_length:
        Drop tokens shorter than this, not counting a ``_NEG`` suffix
        (default 2).
    extra_emoticons:
        Emoticons added to (or overriding) :data:`EMOTICONS`.  Like the
        text they are matched against, they should be lower case.
    """

    lowercase: bool = True
    strip_urls: bool = True
    keep_mentions: bool = False
    keep_hashtags: bool = True
    mark_negation: bool = True
    squash_elongation: bool = True
    min_token_length: int = 2
    extra_emoticons: dict[str, str] = field(default_factory=dict)
    # Derived from the settings in ``__post_init__``.
    _emoticons: tuple[tuple[str, str], ...] = field(init=False, repr=False, compare=False)
    _emoticon_starts: frozenset[str] = field(init=False, repr=False, compare=False)
    _long_words: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        table = {**EMOTICONS, **self.extra_emoticons}
        if "" in table:
            raise ValueError("an emoticon must be a non-empty string")
        object.__setattr__(self, "_emoticons", tuple(table.items()))
        object.__setattr__(
            self, "_emoticon_starts", frozenset(raw[0] for raw in table)
        )
        object.__setattr__(
            self, "_long_words", _words_of_length(self.min_token_length)
        )

    def tokenize(self, text: str) -> list[str]:
        """Tokenize ``text`` into a list of normalized tokens."""
        if not isinstance(text, str):
            raise TypeError(f"expected str, got {type(text).__name__}")
        working = text.lower()
        # ``cased`` is ``working`` in the original case, character for
        # character; ``None`` when tokens are lower-cased.
        cased = None
        if not self.lowercase:
            # U+0130 is the one character whose lower case is two long.
            cased = (
                text
                if len(text) == len(working)
                else text.replace("\u0130", "I\u0307")
            )

        if self.strip_urls and ("http" in working or "www." in working):
            working, cased = _sub(_URL_RE, " ", working, cased)

        emoticons: list[str] = []
        if any(map(working.__contains__, self._emoticon_starts)):
            working, cased, emoticons = self._extract_emoticons(working, cased)

        if not self.keep_mentions and "@" in working:
            working, cased = _sub(_MENTION_RE, " ", working, cased)
        if self.keep_hashtags and "#" in working:
            working, cased = _sub(_HASHTAG_RE, _spaced, working, cased)

        if self.squash_elongation:
            working, cased = _sub(_ELONGATION_RE, _doubled, working, cased)

        tokens = self._words(working, cased)
        if emoticons:
            shortest = self.min_token_length
            tokens.extend(
                token
                for token in emoticons
                if len(token.removesuffix(NEGATION_SUFFIX)) >= shortest
            )
        return tokens

    __call__ = tokenize

    def _extract_emoticons(
        self, text: str, cased: str | None
    ) -> tuple[str, str | None, list[str]]:
        """Replace emoticons with spaces, returning their canonical tokens."""
        found: list[str] = []
        for raw, canonical in self._emoticons:
            count = text.count(raw)
            if count:
                found.extend([canonical] * count)
                if cased is not None:
                    _, cased = _sub(re.compile(re.escape(raw)), " ", text, cased)
                text = text.replace(raw, " ")
        return text, cased, found

    def _words(self, text: str, cased: str | None) -> list[str]:
        """Words of the cleaned text, negation-marked and length-filtered.

        A negation word opens a scope over the next three words (tweet
        clauses are short; a fixed window matches common practice).
        Words shorter than ``min_token_length`` still count towards the
        scope.
        """
        if cased is None:
            # The regex drops short words itself.  Every negation word
            # has two or more characters, so at a minimum of two or less
            # a text whose long words hold none has no negation at all.
            words = self._long_words.findall(text)
            if not self.mark_negation or (
                self.min_token_length <= 2
                and "n't" not in text
                and NEGATION_WORDS.isdisjoint(words)
            ):
                return words
        shown = text if cased is None else cased
        marking = self.mark_negation
        tokens: list[str] = []
        scope = 0
        for match in _WORD_RE.finditer(text):
            word = match.group()
            token = shown[match.start() : match.end()]
            if marking and (word in NEGATION_WORDS or word.endswith("n't")):
                scope = _NEGATION_SCOPE
            elif scope:
                scope -= 1
                token += NEGATION_SUFFIX
            if len(word) >= self.min_token_length:
                tokens.append(token)
        return tokens


def _spaced(match: re.Match) -> str:
    return f" {match.group(1)} "


def _doubled(match: re.Match) -> str:
    return match.group(1) * 2


class _CasedMatch:
    """A match's groups, read from the original-case text."""

    def __init__(self, match: re.Match, cased: str) -> None:
        self._match = match
        self._cased = cased

    def group(self, index: int = 0) -> str:
        return self._cased[self._match.start(index) : self._match.end(index)]


def _sub(
    pattern: re.Pattern, repl, text: str, cased: str | None
) -> tuple[str, str | None]:
    """``pattern.sub(repl, text)``, with the same edits made to ``cased``.

    ``repl`` is a plain string or, as for :func:`re.sub`, a function of
    the match; for ``cased`` that function reads the match's groups in
    their original case.
    """
    if cased is None:
        return pattern.sub(repl, text), None
    mirrored: list[str] = []
    position = 0
    for match in pattern.finditer(text):
        mirrored.append(cased[position : match.start()])
        mirrored.append(
            repl if isinstance(repl, str) else repl(_CasedMatch(match, cased))
        )
        position = match.end()
    mirrored.append(cased[position:])
    return pattern.sub(repl, text), "".join(mirrored)


_DEFAULT_TOKENIZER = TweetTokenizer()


def tokenize(text: str) -> list[str]:
    """Tokenize ``text`` with the default :class:`TweetTokenizer` settings."""
    return _DEFAULT_TOKENIZER.tokenize(text)
