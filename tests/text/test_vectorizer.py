"""Tests for the count / tf-idf vectorizers."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.vectorizer import CountVectorizer, TfidfVectorizer
from repro.text.vocabulary import Vocabulary

DOCS = [
    "education funds schools education",
    "taxes hurt schools",
    "schools need funds",
]


class TestCountVectorizer:
    def test_shape_and_counts(self):
        vectorizer = CountVectorizer()
        matrix = vectorizer.fit_transform(DOCS)
        assert matrix.shape == (3, len(vectorizer.vocabulary))
        education = vectorizer.vocabulary.id_of("education")
        assert matrix[0, education] == 2.0

    def test_output_is_sparse_nonnegative(self):
        matrix = CountVectorizer().fit_transform(DOCS)
        assert sp.issparse(matrix)
        assert matrix.min() >= 0.0

    def test_binary_mode(self):
        vectorizer = CountVectorizer(binary=True)
        matrix = vectorizer.fit_transform(DOCS)
        assert set(np.unique(matrix.toarray())) <= {0.0, 1.0}

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            CountVectorizer().transform(DOCS)

    def test_unknown_tokens_dropped(self):
        vectorizer = CountVectorizer()
        vectorizer.fit(DOCS)
        out = vectorizer.transform(["quantum flux"])
        assert out.nnz == 0

    def test_injected_vocabulary(self):
        vocab = Vocabulary()
        vocab.add_document(["schools", "taxes"])
        vocab.freeze()
        vectorizer = CountVectorizer(vocabulary=vocab)
        matrix = vectorizer.transform(DOCS)
        assert matrix.shape == (3, 2)

    def test_min_document_frequency_pruning(self):
        vectorizer = CountVectorizer(min_document_frequency=2)
        vectorizer.fit(DOCS)
        assert "schools" in vectorizer.vocabulary   # df = 3
        assert "taxes" not in vectorizer.vocabulary  # df = 1

    def test_max_features(self):
        vectorizer = CountVectorizer(max_features=2)
        vectorizer.fit(DOCS)
        assert len(vectorizer.vocabulary) == 2


class TestTfidfVectorizer:
    def test_rows_unit_norm(self):
        matrix = TfidfVectorizer().fit_transform(DOCS)
        norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1))).ravel()
        assert np.allclose(norms[norms > 0], 1.0)

    def test_nonnegative(self):
        matrix = TfidfVectorizer().fit_transform(DOCS)
        assert matrix.min() >= 0.0

    def test_rare_terms_weighted_higher(self):
        vectorizer = TfidfVectorizer(normalize=False)
        matrix = vectorizer.fit_transform(DOCS).toarray()
        common = vectorizer.vocabulary.id_of("schools")  # df = 3
        rare = vectorizer.vocabulary.id_of("taxes")      # df = 1
        # Row 1 contains both exactly once: rare idf must exceed common.
        assert matrix[1, rare] > matrix[1, common]

    def test_sublinear_tf(self):
        plain = TfidfVectorizer(normalize=False).fit_transform(DOCS).toarray()
        sub = TfidfVectorizer(
            normalize=False, sublinear_tf=True
        ).fit_transform(DOCS).toarray()
        # repeated term ("education" twice) shrinks under sublinear tf
        assert sub[0].max() < plain[0].max()

    def test_transform_with_injected_vocabulary_without_fit(self):
        vocab = Vocabulary()
        vocab.add_document(["schools", "taxes"])
        vocab.freeze()
        vectorizer = TfidfVectorizer(vocabulary=vocab)
        matrix = vectorizer.transform(DOCS)
        assert matrix.shape == (3, 2)
        assert np.all(np.isfinite(matrix.toarray()))


class TestPartialFit:
    def test_partial_fit_from_scratch_matches_fit(self):
        """Without pruning, incremental fitting sees the same vocabulary."""
        full = CountVectorizer().fit(DOCS)
        incremental = CountVectorizer()
        for doc in DOCS:
            incremental.partial_fit([doc])
        assert incremental.vocabulary.tokens == full.vocabulary.tokens
        np.testing.assert_allclose(
            incremental.transform(DOCS).toarray(),
            full.transform(DOCS).toarray(),
        )

    def test_partial_fit_grows_append_only(self):
        vectorizer = CountVectorizer()
        vectorizer.partial_fit(DOCS[:2])
        before = vectorizer.vocabulary.tokens
        old = vectorizer.transform(DOCS[:2])
        vectorizer.partial_fit(["entirely new words arrive"])
        after = vectorizer.vocabulary.tokens
        assert after[: len(before)] == before
        assert len(after) > len(before)
        # Old rows re-vectorized against the grown vocabulary are
        # column-aligned prefixes of the new feature space.
        new = vectorizer.transform(DOCS[:2])
        assert new.shape[1] > old.shape[1]
        np.testing.assert_allclose(
            new.toarray()[:, : old.shape[1]], old.toarray()
        )

    def test_partial_fit_thaws_frozen_vocabulary(self):
        vectorizer = CountVectorizer().fit(DOCS)
        assert vectorizer.vocabulary.frozen
        vectorizer.partial_fit(["brand new token"])
        assert "brand" in vectorizer.vocabulary

    def test_tfidf_partial_fit_refreshes_idf(self):
        vectorizer = TfidfVectorizer()
        vectorizer.partial_fit(DOCS)
        matrix = vectorizer.transform(DOCS)
        assert matrix.shape == (3, len(vectorizer.vocabulary))
        vectorizer.partial_fit(["schools schools schools"])
        wider = vectorizer.transform(DOCS)
        assert wider.shape[1] == len(vectorizer.vocabulary)
        # idf covers every (possibly new) feature.
        assert vectorizer.refresh_idf().shape == (len(vectorizer.vocabulary),)


class TestTransformCounts:
    def test_count_vectorizer_passthrough_and_binary(self):
        vectorizer = CountVectorizer().fit(DOCS)
        counts = vectorizer.transform(DOCS)
        assert vectorizer.transform_counts(counts) is counts
        binary = CountVectorizer(binary=True).fit(DOCS)
        indic = binary.transform_counts(counts)
        assert indic.max() == 1.0
        assert indic.nnz == counts.nnz

    def test_tfidf_transform_counts_matches_transform(self):
        vectorizer = TfidfVectorizer().fit(DOCS)
        plain_counts = CountVectorizer(
            vocabulary=vectorizer.vocabulary
        ).transform(DOCS)
        np.testing.assert_array_equal(
            vectorizer.transform_counts(plain_counts).toarray(),
            vectorizer.transform(DOCS).toarray(),
        )


def scipy_tfidf(
    counts: sp.csr_matrix,
    idf: np.ndarray,
    binary: bool,
    sublinear_tf: bool,
    normalize: bool,
) -> sp.csr_matrix:
    """The scipy sparse-algebra tf-idf formula, kept here as the oracle."""
    tf = counts.copy().astype(np.float64)
    if binary:
        tf.data = np.minimum(tf.data, 1.0)
    if sublinear_tf:
        tf.data = 1.0 + np.log(tf.data)
    weighted = tf.multiply(sp.csr_matrix(idf)).tocsr()
    if normalize:
        norms = np.sqrt(weighted.multiply(weighted).sum(axis=1))
        norms = np.asarray(norms).ravel()
        norms[norms == 0.0] = 1.0
        weighted = (sp.diags(1.0 / norms) @ weighted).tocsr()
    return weighted


def assert_bitwise(actual: np.ndarray, expected: np.ndarray) -> None:
    np.testing.assert_array_equal(actual, expected)
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


WORDS = [f"w{i}" for i in range(12)]
FLAGS = st.fixed_dictionaries(
    {
        "binary": st.booleans(),
        "sublinear_tf": st.booleans(),
        "normalize": st.booleans(),
    }
)


def tfidf_over_words(flags: dict) -> TfidfVectorizer:
    """A vectorizer fitted on documents with varied document frequencies."""
    vectorizer = TfidfVectorizer(
        sublinear_tf=flags["sublinear_tf"], normalize=flags["normalize"]
    )
    vectorizer.binary = flags["binary"]
    return vectorizer.fit(
        [" ".join(WORDS[: i + 1]) for i in range(len(WORDS))]
    )


@st.composite
def count_matrices(draw, width: int) -> sp.csr_matrix:
    """Canonical count matrices, empty rows and 0-row batches included."""
    rows = draw(
        st.lists(
            st.dictionaries(
                st.integers(0, width - 1), st.integers(1, 40), max_size=width
            ),
            max_size=8,
        )
    )
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for row in rows:
        for column in sorted(row):
            indices.append(column)
            data.append(float(row[column]))
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.asarray(data), np.asarray(indices, dtype=np.int32), indptr),
        shape=(len(rows), width),
    )


class TestArrayWeighting:
    """``transform_counts`` weighs CSR arrays directly; the dense result
    must equal the scipy sparse formula bit for bit, for every option."""

    @settings(max_examples=150, deadline=None)
    @given(flags=FLAGS, data=st.data())
    def test_matches_scipy_formula_bitwise(self, flags, data):
        vectorizer = tfidf_over_words(flags)
        counts = data.draw(count_matrices(len(vectorizer.vocabulary)))
        weighted = vectorizer.transform_counts(counts)
        expected = scipy_tfidf(counts, vectorizer.refresh_idf(), **flags)
        assert weighted.shape == counts.shape
        assert weighted.has_canonical_format
        assert_bitwise(weighted.toarray(), expected.toarray())

    @settings(max_examples=50, deadline=None)
    @given(flags=FLAGS, data=st.data())
    def test_grown_vocabulary_refreshes_idf(self, flags, data):
        """Columns added since the last idf refresh (the builder grows the
        vocabulary in place) are weighted with the refreshed idf."""
        vectorizer = tfidf_over_words(flags)
        stale = vectorizer.idf_size
        vectorizer.vocabulary.thaw()
        vectorizer.vocabulary.add_document(["fresh1", "fresh2", WORDS[0]])
        counts = data.draw(count_matrices(len(vectorizer.vocabulary)))
        weighted = vectorizer.transform_counts(counts)
        assert vectorizer.idf_size == stale + 2
        expected = scipy_tfidf(counts, vectorizer.refresh_idf(), **flags)
        assert weighted.has_canonical_format
        assert_bitwise(weighted.toarray(), expected.toarray())

    @pytest.mark.parametrize("rows", [0, 3])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_no_entries(self, rows, normalize):
        """A 0-row batch and a matrix of empty rows weigh to all zeros."""
        vectorizer = TfidfVectorizer(normalize=normalize).fit(DOCS)
        width = len(vectorizer.vocabulary)
        counts = sp.csr_matrix((rows, width))
        weighted = vectorizer.transform_counts(counts)
        assert weighted.shape == (rows, width)
        assert weighted.nnz == 0
        assert weighted.has_canonical_format
        assert_bitwise(weighted.toarray(), np.zeros((rows, width)))
        assert vectorizer.transform([]).shape == (0, width)
        assert_bitwise(
            vectorizer.transform(["", "unknownword"]).toarray(),
            np.zeros((2, width)),
        )

    def test_non_canonical_counts_are_summed_first(self):
        """Unsorted and duplicate entries weigh like their canonical sum."""
        vectorizer = TfidfVectorizer().fit(DOCS)
        width = len(vectorizer.vocabulary)
        messy = sp.csr_matrix(
            (
                np.array([1.0, 2.0, 1.0, 3.0]),
                np.array([2, 0, 2, 1], dtype=np.int32),
                np.array([0, 3, 4]),
            ),
            shape=(2, width),
        )
        canonical = messy.copy()
        canonical.sum_duplicates()
        weighted = vectorizer.transform_counts(messy)
        assert weighted.has_canonical_format
        assert_bitwise(
            weighted.toarray(), vectorizer.transform_counts(canonical).toarray()
        )
        assert not messy.has_canonical_format  # the input is left alone

    @settings(max_examples=50, deadline=None)
    @given(
        documents=st.lists(
            st.lists(st.sampled_from(WORDS + ["oov"]), max_size=10).map(
                " ".join
            ),
            max_size=6,
        )
    )
    def test_transform_matches_formula_on_counts(self, documents):
        """``transform`` weighs the same arrays the count path builds, and
        each row is the same whether vectorized alone or in a batch."""
        vectorizer = tfidf_over_words(
            {"binary": False, "sublinear_tf": False, "normalize": True}
        )
        counts = CountVectorizer(vocabulary=vectorizer.vocabulary).transform(
            documents
        )
        weighted = vectorizer.transform(documents)
        expected = scipy_tfidf(
            counts, vectorizer.refresh_idf(), False, False, True
        )
        assert weighted.has_canonical_format
        assert_bitwise(weighted.toarray(), expected.toarray())
        for row, document in enumerate(documents):
            alone = vectorizer.transform([document])
            assert_bitwise(alone.data, weighted[row].data)
            assert_bitwise(alone.indices, weighted[row].indices)
