"""Vocabulary: the feature set ``F`` of the tripartite graph.

A :class:`Vocabulary` maps tokens to contiguous integer feature ids and
tracks corpus statistics (term frequency, document frequency) that the
vectorizers and the synthetic-data diagnostics (Figure 4, Table 2) need.

The statistics are int64 arrays indexed by feature id, grown by
doubling and updated in place.  :meth:`Vocabulary.add_documents`
registers a whole batch of documents in one call: one dictionary lookup
per token interns the batch, and one sort counts every (document,
feature) pair.  Those pair counts update the term and document
frequencies and are returned as the batch's count matrix, which the
streaming builder keeps as its ``Xp`` rows.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, repeat

import numpy as np


class Vocabulary:
    """Mutable token <-> feature-id mapping with frequency statistics."""

    def __init__(self) -> None:
        self._token_to_id: dict[str, int] = {}
        self._id_to_token: list[str] = []
        # Indexed by feature id; longer than the vocabulary once grown.
        self._term_frequency = np.zeros(0, dtype=np.int64)
        self._document_frequency = np.zeros(0, dtype=np.int64)
        self._num_documents = 0
        self._frozen = False

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_document(self, tokens: Iterable[str]) -> list[int]:
        """Register one document's tokens; return their feature ids.

        Unknown tokens are added unless the vocabulary is frozen, in which
        case they are silently dropped (the online setting: new snapshots
        are vectorized against the training vocabulary).  For more than a
        few documents, :meth:`add_documents` does the same in one call.
        """
        ids = self._ids(list(tokens))
        self._count(ids, np.zeros(ids.shape[0], dtype=np.int64), 1)
        return ids[ids >= 0].tolist()

    def add_documents(
        self, documents: Sequence[Sequence[str]]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Register a batch of documents; return their term counts.

        The same as :meth:`add_document` on each document in turn.  The
        counts come back as int64 arrays ``(lengths, ids, counts)``: the
        number of distinct features of each document, then those
        features' ids, ascending within each document, and their counts
        — the CSR rows of the batch's document-term count matrix.
        """
        lengths = np.fromiter(
            map(len, documents), dtype=np.int64, count=len(documents)
        )
        ids = self._ids(list(chain.from_iterable(documents)))
        rows = np.repeat(np.arange(len(documents), dtype=np.int64), lengths)
        return self._count(ids, rows, len(documents))

    def _ids(self, tokens: list[str]) -> np.ndarray:
        """Feature ids of ``tokens``; ``-1`` where a frozen vocabulary drops one.

        New tokens get the next ids in order of first occurrence.
        """
        index = self._token_to_id
        ids = np.fromiter(
            map(index.get, tokens, repeat(-1)), dtype=np.int64, count=len(tokens)
        )
        if not self._frozen:
            for position in np.flatnonzero(ids < 0).tolist():
                token = tokens[position]
                feature_id = index.get(token)
                if feature_id is None:
                    feature_id = len(self._id_to_token)
                    index[token] = feature_id
                    self._id_to_token.append(token)
                ids[position] = feature_id
        return ids

    def _count(
        self, ids: np.ndarray, rows: np.ndarray, num_documents: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Add ``num_documents`` documents (token ``ids`` in document
        ``rows``) to the statistics; return their CSR counts."""
        kept = ids >= 0
        if not kept.all():
            ids, rows = ids[kept], rows[kept]
        self._num_documents += num_documents
        width = len(self._id_to_token)
        if self._term_frequency.shape[0] < width:
            capacity = max(width, 2 * self._term_frequency.shape[0])
            self._term_frequency = _grown(self._term_frequency, capacity)
            self._document_frequency = _grown(self._document_frequency, capacity)
        pairs, counts = np.unique(rows * width + ids, return_counts=True)
        pair_rows, features = np.divmod(pairs, max(width, 1))
        np.add.at(self._term_frequency, features, counts)
        np.add.at(self._document_frequency, features, 1)
        lengths = np.bincount(pair_rows, minlength=num_documents)
        return lengths, features, counts

    def freeze(self) -> None:
        """Stop admitting new tokens (used for online snapshots)."""
        self._frozen = True

    def thaw(self) -> None:
        """Re-admit new tokens (the incremental/streaming mode).

        Existing feature ids are never reassigned — growth is strictly
        append-only, so matrices built against the old vocabulary remain
        column-aligned prefixes of matrices built after further growth.
        """
        self._frozen = False

    @property
    def frozen(self) -> bool:
        return self._frozen

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_token)

    def id_of(self, token: str) -> int:
        """Return the feature id of ``token`` (raises ``KeyError`` if absent)."""
        return self._token_to_id[token]

    def get(self, token: str, default: int | None = None) -> int | None:
        return self._token_to_id.get(token, default)

    def token_of(self, feature_id: int) -> str:
        """Return the token for ``feature_id``."""
        return self._id_to_token[feature_id]

    @property
    def tokens(self) -> list[str]:
        """All tokens in id order (a copy)."""
        return list(self._id_to_token)

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    @property
    def num_documents(self) -> int:
        return self._num_documents

    def term_frequency(self, token: str) -> int:
        """Total corpus occurrences of ``token``."""
        return self._statistic(self._term_frequency, token)

    def document_frequency(self, token: str) -> int:
        """Number of documents containing ``token``."""
        return self._statistic(self._document_frequency, token)

    def _statistic(self, values: np.ndarray, token: str) -> int:
        feature_id = self._token_to_id.get(token)
        return 0 if feature_id is None else int(values[feature_id])

    def document_frequency_array(self) -> np.ndarray:
        """Per-feature document frequencies in id order (float64).

        The vectorized input to idf computation, which the streaming
        path refreshes every snapshot over a growing vocabulary.
        """
        return self._document_frequency[: len(self)].astype(np.float64)

    def most_common(self, count: int) -> list[tuple[str, int]]:
        """The ``count`` highest term-frequency tokens (ties in id order)."""
        frequencies = zip(
            self._id_to_token, self._term_frequency[: len(self)].tolist()
        )
        return Counter(dict(frequencies)).most_common(count)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def to_state(self) -> dict:
        """JSON-serializable snapshot of the full vocabulary state.

        Captures everything idf computation and append-only growth need:
        tokens in id order, per-token term/document frequencies, the
        document count and the frozen flag.  The companion of
        :meth:`from_state` for engine checkpoints.
        """
        return {
            "tokens": list(self._id_to_token),
            "term_frequency": self._term_frequency[: len(self)].tolist(),
            "document_frequency": self._document_frequency[: len(self)].tolist(),
            "num_documents": self._num_documents,
            "frozen": self._frozen,
        }

    @classmethod
    def from_state(cls, state: dict) -> "Vocabulary":
        """Rebuild a vocabulary saved by :meth:`to_state` (exact ids)."""
        vocabulary = cls()
        vocabulary._id_to_token = list(state["tokens"])
        vocabulary._token_to_id = {
            token: feature_id
            for feature_id, token in enumerate(vocabulary._id_to_token)
        }
        vocabulary._term_frequency = np.asarray(
            state["term_frequency"], dtype=np.int64
        )
        vocabulary._document_frequency = np.asarray(
            state["document_frequency"], dtype=np.int64
        )
        vocabulary._num_documents = int(state["num_documents"])
        vocabulary._frozen = bool(state["frozen"])
        return vocabulary

    # ------------------------------------------------------------------ #
    # Pruning
    # ------------------------------------------------------------------ #

    def pruned(
        self,
        min_document_frequency: int = 1,
        max_document_ratio: float = 1.0,
        max_features: int | None = None,
    ) -> "Vocabulary":
        """Return a new vocabulary with rare/ubiquitous tokens removed.

        Tokens with document frequency below ``min_document_frequency`` or
        above ``max_document_ratio * num_documents`` are dropped; if
        ``max_features`` is given, the highest-frequency survivors are
        kept.  Ids are re-assigned contiguously in frequency order so the
        result is independent of the insertion order of the source.
        """
        if min_document_frequency < 1:
            raise ValueError("min_document_frequency must be >= 1")
        if not (0.0 < max_document_ratio <= 1.0):
            raise ValueError("max_document_ratio must be in (0, 1]")
        ceiling = max_document_ratio * max(self._num_documents, 1)
        df = self._document_frequency[: len(self)]
        term_frequency = self._term_frequency.tolist()
        survivors = np.flatnonzero(
            (df >= min_document_frequency) & (df <= ceiling)
        ).tolist()
        survivors.sort(
            key=lambda i: (-term_frequency[i], self._id_to_token[i])
        )
        if max_features is not None:
            survivors = survivors[:max_features]

        order = np.asarray(survivors, dtype=np.int64)
        pruned = Vocabulary()
        pruned._num_documents = self._num_documents
        pruned._id_to_token = [self._id_to_token[i] for i in survivors]
        pruned._token_to_id = {
            token: feature_id
            for feature_id, token in enumerate(pruned._id_to_token)
        }
        pruned._term_frequency = self._term_frequency[order]
        pruned._document_frequency = self._document_frequency[order]
        return pruned


def _grown(values: np.ndarray, capacity: int) -> np.ndarray:
    """``values`` followed by zeros, ``capacity`` entries in all."""
    grown = np.zeros(capacity, dtype=np.int64)
    grown[: values.shape[0]] = values
    return grown
