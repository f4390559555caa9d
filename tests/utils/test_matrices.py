"""Unit + property tests for the non-negative matrix kernels."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.utils.matrices import (
    EPS,
    as_dense,
    column_normalize,
    frobenius_sq,
    hard_assignments,
    is_nonnegative,
    nonneg_split,
    residual_frobenius_sq,
    row_normalize,
    safe_divide,
    safe_sqrt_ratio,
    trace_quadratic,
)

finite_matrices = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(-100, 100, allow_nan=False),
)

nonneg_matrices = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(0, 100, allow_nan=False),
)


class TestIsNonnegative:
    def test_accepts_zero_matrix(self):
        assert is_nonnegative(np.zeros((3, 3)))

    def test_rejects_negative_entry(self):
        matrix = np.ones((2, 2))
        matrix[1, 0] = -1e-6
        assert not is_nonnegative(matrix)

    def test_tolerance_allows_roundoff(self):
        matrix = np.ones((2, 2))
        matrix[1, 0] = -1e-13
        assert is_nonnegative(matrix, tolerance=1e-12)

    def test_sparse_matrix(self):
        matrix = sp.csr_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert is_nonnegative(matrix)
        matrix.data[0] = -1.0
        assert not is_nonnegative(matrix)

    def test_empty_sparse(self):
        assert is_nonnegative(sp.csr_matrix((3, 3)))


class TestSafeDivide:
    def test_plain_division(self):
        out = safe_divide(np.array([4.0]), np.array([2.0]))
        assert out[0] == pytest.approx(2.0)

    def test_zero_denominator_uses_floor(self):
        out = safe_divide(np.array([1.0]), np.array([0.0]))
        assert out[0] == pytest.approx(1.0 / EPS)

    @given(nonneg_matrices)
    @settings(max_examples=25, deadline=None)
    def test_never_nan_or_inf_for_nonneg(self, matrix):
        out = safe_divide(matrix, matrix)
        assert np.all(np.isfinite(out))


class TestSafeSqrtRatio:
    def test_identity_at_equal_inputs(self):
        m = np.full((2, 2), 3.0)
        assert np.allclose(safe_sqrt_ratio(m, m), 1.0)

    def test_negative_numerator_clipped(self):
        out = safe_sqrt_ratio(np.array([-1.0]), np.array([1.0]))
        assert out[0] == 0.0

    def test_max_ratio_bounds_both_sides(self):
        numerator = np.array([100.0, 0.01])
        denominator = np.array([0.01, 100.0])
        out = safe_sqrt_ratio(numerator, denominator, max_ratio=4.0)
        assert out[0] == pytest.approx(2.0)
        assert out[1] == pytest.approx(0.5)

    @given(nonneg_matrices, nonneg_matrices)
    @settings(max_examples=25, deadline=None)
    def test_output_nonnegative(self, a, b):
        if a.shape != b.shape:
            return
        out = safe_sqrt_ratio(a, b)
        assert np.all(out >= 0.0)


class TestNonnegSplit:
    @given(finite_matrices)
    @settings(max_examples=50, deadline=None)
    def test_reconstruction_and_nonnegativity(self, matrix):
        plus, minus = nonneg_split(matrix)
        assert np.all(plus >= 0.0)
        assert np.all(minus >= 0.0)
        assert np.allclose(plus - minus, matrix)

    @given(finite_matrices)
    @settings(max_examples=50, deadline=None)
    def test_parts_are_disjoint(self, matrix):
        plus, minus = nonneg_split(matrix)
        assert np.all((plus == 0.0) | (minus == 0.0))


class TestFrobenius:
    def test_dense_matches_definition(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert frobenius_sq(m) == pytest.approx(30.0)

    def test_sparse_matches_dense(self, rng):
        dense = rng.random((5, 4))
        dense[dense < 0.5] = 0.0
        assert frobenius_sq(sp.csr_matrix(dense)) == pytest.approx(
            frobenius_sq(dense)
        )

    @pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
    def test_duplicate_entries_are_summed_before_squaring(self, fmt):
        """(0,1) is stored as 1 + 2: its square is 9, not 1 + 4."""
        coo = sp.coo_matrix(
            ([1.0, 2.0, 3.0], ([0, 0, 1], [1, 1, 2])), shape=(2, 3)
        )
        matrix = coo.asformat(fmt) if fmt == "coo" else sp.csr_matrix(
            (coo.data, coo.col, [0, 2, 3]), shape=(2, 3)
        ).asformat(fmt)
        assert matrix.nnz == 3  # the duplicate is still stored twice
        data = matrix.data.copy()
        assert frobenius_sq(matrix) == 18.0
        np.testing.assert_array_equal(matrix.data, data)  # input untouched

    def test_sparse_is_bitwise_the_elementwise_square_sum(self, rng):
        """Reading the data array changes no bit of the value."""
        for seed in range(5):
            matrix = sp.random(
                300, 200, density=0.05, random_state=seed, format="csr"
            )
            assert frobenius_sq(matrix) == float(
                matrix.multiply(matrix).sum()
            )

    def test_residual_sparse_matches_dense(self, rng):
        x = rng.random((6, 5))
        x[x < 0.5] = 0.0
        approx = rng.random((6, 5))
        expected = float(np.sum((x - approx) ** 2))
        assert residual_frobenius_sq(sp.csr_matrix(x), approx) == pytest.approx(
            expected
        )
        assert residual_frobenius_sq(x, approx) == pytest.approx(expected)


class TestTraceQuadratic:
    def test_matches_direct_computation(self, rng):
        factor = rng.random((6, 3))
        adjacency = rng.random((6, 6))
        adjacency = (adjacency + adjacency.T) / 2
        degrees = np.diag(adjacency.sum(axis=1))
        laplacian = degrees - adjacency
        expected = float(np.trace(factor.T @ laplacian @ factor))
        assert trace_quadratic(factor, laplacian) == pytest.approx(expected)
        assert trace_quadratic(
            factor, sp.csr_matrix(laplacian)
        ) == pytest.approx(expected)


class TestNormalization:
    @given(nonneg_matrices)
    @settings(max_examples=50, deadline=None)
    def test_row_normalize_sums(self, matrix):
        out = row_normalize(matrix)
        sums = out.sum(axis=1)
        original = matrix.sum(axis=1)
        for row_sum, original_sum in zip(sums, original):
            if original_sum > 0:
                assert row_sum == pytest.approx(1.0)
            else:
                assert row_sum == pytest.approx(0.0)

    @given(nonneg_matrices)
    @settings(max_examples=50, deadline=None)
    def test_column_normalize_sums(self, matrix):
        out = column_normalize(matrix)
        sums = out.sum(axis=0)
        original = matrix.sum(axis=0)
        for col_sum, original_sum in zip(sums, original):
            if original_sum > 0:
                assert col_sum == pytest.approx(1.0)


class TestHardAssignments:
    def test_argmax_semantics(self):
        membership = np.array([[0.2, 0.7, 0.1], [0.9, 0.05, 0.05]])
        assert hard_assignments(membership).tolist() == [1, 0]

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            hard_assignments(np.zeros(3))

    def test_zero_rows_land_in_cluster_zero(self):
        assert hard_assignments(np.zeros((2, 3))).tolist() == [0, 0]


class TestAsDense:
    def test_sparse_roundtrip(self):
        dense = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert np.array_equal(as_dense(sp.csr_matrix(dense)), dense)

    def test_dense_passthrough(self):
        dense = np.ones((2, 2))
        assert np.array_equal(as_dense(dense), dense)
