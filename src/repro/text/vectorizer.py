"""Count and tf-idf vectorizers producing sparse non-negative matrices.

These build the ``Xp`` (tweet-feature) and ``Xu`` (user-feature) matrices
of the tri-clustering framework.  Both vectorizers follow the familiar
fit/transform protocol and emit ``scipy.sparse.csr_matrix`` with
non-negative ``float64`` data, which is what the multiplicative-update
solver expects.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.text.tokenizer import TweetTokenizer
from repro.text.vocabulary import Vocabulary

Analyzer = Callable[[str], list[str]]


class CountVectorizer:
    """Bag-of-words vectorizer over a (optionally pre-built) vocabulary.

    Parameters
    ----------
    analyzer:
        Callable mapping a document string to a token list.  Defaults to a
        :class:`~repro.text.tokenizer.TweetTokenizer`.
    vocabulary:
        A pre-built :class:`~repro.text.vocabulary.Vocabulary`.  When given,
        ``fit`` keeps it frozen (tokens outside it are dropped), which is
        how online snapshots are vectorized against the training lexicon.
    min_document_frequency / max_document_ratio / max_features:
        Vocabulary pruning applied during ``fit`` (ignored when a
        vocabulary is supplied).
    binary:
        Emit 0/1 indicators instead of counts.
    """

    def __init__(
        self,
        analyzer: Analyzer | None = None,
        vocabulary: Vocabulary | None = None,
        min_document_frequency: int = 1,
        max_document_ratio: float = 1.0,
        max_features: int | None = None,
        binary: bool = False,
    ) -> None:
        self.analyzer: Analyzer = analyzer or TweetTokenizer()
        self.vocabulary = vocabulary
        self.min_document_frequency = min_document_frequency
        self.max_document_ratio = max_document_ratio
        self.max_features = max_features
        self.binary = binary
        self._fitted = vocabulary is not None

    def fit(self, documents: Iterable[str]) -> "CountVectorizer":
        """Learn the vocabulary from ``documents``."""
        if self.vocabulary is not None:
            self._fitted = True
            return self
        vocab = Vocabulary()
        vocab.add_documents([self.analyzer(document) for document in documents])
        needs_pruning = (
            self.min_document_frequency > 1
            or self.max_document_ratio < 1.0
            or self.max_features is not None
        )
        if needs_pruning:
            vocab = vocab.pruned(
                min_document_frequency=self.min_document_frequency,
                max_document_ratio=self.max_document_ratio,
                max_features=self.max_features,
            )
        vocab.freeze()
        self.vocabulary = vocab
        self._fitted = True
        return self

    def partial_fit(self, documents: Iterable[str]) -> "CountVectorizer":
        """Grow the vocabulary incrementally with ``documents``.

        The streaming counterpart of ``fit``: new tokens are appended to
        the existing vocabulary (which is created on first call and
        thawed if frozen) and frequency statistics accumulate across
        calls.  Growth is strictly append-only — ids assigned earlier
        never change — so matrices vectorized before a ``partial_fit``
        stay column-aligned prefixes of matrices vectorized after it.

        Pruning options (``min_document_frequency`` etc.) are **not**
        applied here: dropping a token retroactively would reassign ids
        and break cross-snapshot alignment.
        """
        if self.vocabulary is None:
            self.vocabulary = Vocabulary()
        if self.vocabulary.frozen:
            self.vocabulary.thaw()
        self.vocabulary.add_documents(
            [self.analyzer(document) for document in documents]
        )
        self._fitted = True
        return self

    def transform(self, documents: Sequence[str]) -> sp.csr_matrix:
        """Vectorize ``documents`` into an ``(n_docs, n_features)`` matrix."""
        data, indices, indptr, width = self._count_arrays(documents)
        if self.binary:
            data = np.minimum(data, 1.0)
        return _csr(data, indices, indptr, width)

    def _count_arrays(
        self, documents: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Raw counts of ``documents`` as CSR ``(data, indices, indptr)`` + width.

        Each row's column indices are sorted, so every matrix built from
        these arrays is in canonical format.
        """
        if not self._fitted or self.vocabulary is None:
            raise RuntimeError("vectorizer must be fitted before transform")
        vocab = self.vocabulary
        indptr = [0]
        indices: list[int] = []
        data: list[float] = []
        for document in documents:
            counts: Counter[int] = Counter()
            for token in self.analyzer(document):
                feature_id = vocab.get(token)
                if feature_id is not None:
                    counts[feature_id] += 1
            for feature_id in sorted(counts):
                indices.append(feature_id)
                data.append(float(counts[feature_id]))
            indptr.append(len(indices))
        return (
            np.asarray(data, dtype=np.float64),
            np.asarray(indices, dtype=np.int32),
            np.asarray(indptr, dtype=np.int32),
            len(vocab),
        )

    def transform_counts(self, counts: sp.csr_matrix) -> sp.csr_matrix:
        """Apply this vectorizer's weighting to a prebuilt count matrix.

        The incremental graph builders assemble raw count matrices from
        token ids directly (tokenizing each document exactly once, at
        ingest); this hook applies the same weighting ``transform`` would
        have applied, without re-tokenizing.
        """
        if self.binary:
            indicator = counts.copy()
            indicator.data = np.minimum(indicator.data, 1.0)
            return indicator
        return counts

    def fit_transform(self, documents: Sequence[str]) -> sp.csr_matrix:
        """``fit`` then ``transform`` on the same documents."""
        return self.fit(documents).transform(documents)


class TfidfVectorizer(CountVectorizer):
    """Tf-idf variant of :class:`CountVectorizer`.

    Uses smoothed idf ``log((1 + N) / (1 + df)) + 1`` (always positive, so
    the output stays non-negative) and optional L2 row normalization.
    """

    def __init__(
        self,
        analyzer: Analyzer | None = None,
        vocabulary: Vocabulary | None = None,
        min_document_frequency: int = 1,
        max_document_ratio: float = 1.0,
        max_features: int | None = None,
        sublinear_tf: bool = False,
        normalize: bool = True,
    ) -> None:
        super().__init__(
            analyzer=analyzer,
            vocabulary=vocabulary,
            min_document_frequency=min_document_frequency,
            max_document_ratio=max_document_ratio,
            max_features=max_features,
            binary=False,
        )
        self.sublinear_tf = sublinear_tf
        self.normalize = normalize
        self._idf: np.ndarray | None = None

    def fit(self, documents: Iterable[str]) -> "TfidfVectorizer":
        documents = list(documents)
        super().fit(documents)
        assert self.vocabulary is not None
        num_docs = max(self.vocabulary.num_documents, len(documents), 1)
        df = np.array(
            [
                self.vocabulary.document_frequency(token)
                for token in self.vocabulary.tokens
            ],
            dtype=np.float64,
        )
        self._idf = np.log((1.0 + num_docs) / (1.0 + df)) + 1.0
        return self

    def partial_fit(self, documents: Iterable[str]) -> "TfidfVectorizer":
        """Grow the vocabulary incrementally and refresh the idf weights."""
        super().partial_fit(documents)
        self.refresh_idf()
        return self

    @property
    def idf_size(self) -> int:
        """Features covered by the current idf vector (0 before any fit).

        The serving layer compares this against the vocabulary size to
        refresh the idf *once* before fanning transforms across worker
        threads (``refresh_idf`` mutates shared state and must not race).
        """
        return 0 if self._idf is None else int(self._idf.shape[0])

    def refresh_idf(self) -> np.ndarray:
        """Recompute idf from the vocabulary's accumulated statistics.

        Needed after the vocabulary grew (``partial_fit`` calls this
        automatically; callers mutating the vocabulary directly — e.g.
        the incremental graph builder — invoke it before weighting).
        """
        if self.vocabulary is None:
            raise RuntimeError("vectorizer has no vocabulary to refresh from")
        num_docs = max(self.vocabulary.num_documents, 1)
        df = np.maximum(self.vocabulary.document_frequency_array(), 1.0)
        self._idf = np.log((1.0 + num_docs) / (1.0 + df)) + 1.0
        return self._idf

    def transform(self, documents: Sequence[str]) -> sp.csr_matrix:
        data, indices, indptr, width = self._count_arrays(documents)
        return _csr(self._weigh(data, indices, indptr, width), indices, indptr, width)

    def transform_counts(self, counts: sp.csr_matrix) -> sp.csr_matrix:
        """Apply tf-idf weighting + L2 normalization to a count matrix."""
        counts = counts.tocsr()
        if not counts.has_canonical_format:
            counts = counts.copy()
            counts.sum_duplicates()
        indices = counts.indices.copy()
        indptr = counts.indptr.copy()
        data = self._weigh(counts.data, indices, indptr, counts.shape[1])
        return _csr(data, indices, indptr, counts.shape[1])

    def _weigh(
        self,
        counts: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        width: int,
    ) -> np.ndarray:
        """Tf-idf weighted (and L2-normalized) data of a CSR count matrix.

        Works on the CSR arrays directly -- ``counts`` is the data array,
        ``indices``/``indptr`` its structure, ``width`` the column count --
        and returns the new data array for that same structure.  Each
        step is the element-wise operation the scipy sparse formula runs
        (``tf * idf[col]``, then the row sums of squares as the same
        ``add.reduceat`` over storage order), so the result is bitwise
        the one that formula gives, without its per-call overhead.
        """
        idf = self._idf
        if idf is None or idf.shape[0] != width:
            # Either the vocabulary was injected without a fit pass, or it
            # grew (append-only) since the last idf refresh; recompute from
            # the document frequencies accumulated in the vocabulary.
            idf = self.refresh_idf()
            if idf.shape[0] != width:
                raise ValueError(
                    f"count matrix has {width} columns but the "
                    f"vocabulary has {idf.shape[0]} tokens"
                )
        tf = np.asarray(counts, dtype=np.float64)
        if self.binary:
            tf = np.minimum(tf, 1.0)
        if self.sublinear_tf:
            tf = 1.0 + np.log(tf)
        weighted = tf * idf[indices]
        if self.normalize and weighted.size:
            lengths = np.diff(indptr)
            nonempty = lengths > 0
            norms = np.ones(lengths.shape[0])
            norms[nonempty] = np.sqrt(
                np.add.reduceat(weighted * weighted, indptr[:-1][nonempty])
            )
            norms[norms == 0.0] = 1.0
            weighted *= np.repeat(1.0 / norms, lengths)
        return weighted


def _csr(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, width: int
) -> sp.csr_matrix:
    """One ``(rows, width)`` CSR matrix over the given arrays (no copies)."""
    return sp.csr_matrix((data, indices, indptr), shape=(indptr.shape[0] - 1, width))
