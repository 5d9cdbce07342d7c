"""Kernel tests: Gram products, Cholesky, triangular inversion, HPD solves.

Hand-checkable oracles are frozen as literals; the property tests draw
random well-conditioned inputs in both scalar fields.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svarlic.exceptions import DimensionMismatch, NotPositiveDefinite, NumericalOverflow
from svarlic.linalg import (
    PIVOT_RTOL,
    as_matrix,
    cholesky_lower,
    gram_hermitian,
    invert_lower,
    solve_hpd,
)
from svarlic.model import SvarCoefficients

FIELDS = ["real", "complex"]


def random_matrix(rng, rows, cols, field):
    a = rng.standard_normal((rows, cols))
    if field == "complex":
        a = a + 1j * rng.standard_normal((rows, cols))
    return a


def random_hpd(rng, dim, field):
    g = random_matrix(rng, dim, dim, field)
    return gram_hermitian(g) + 1e-6 * np.eye(dim)


def random_lower(rng, dim, field):
    c = np.tril(random_matrix(rng, dim, dim, field), -1) * 0.5
    c = c.astype(np.complex128 if field == "complex" else np.float64)
    np.fill_diagonal(c, rng.uniform(0.5, 2.0, size=dim))
    return c


class TestAsMatrix:
    def test_int_input_becomes_float(self):
        out = as_matrix([[1, 2], [3, 4]])
        assert out.dtype == np.float64

    def test_complex_preserved(self):
        out = as_matrix([[1j, 0]])
        assert out.dtype == np.complex128

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix([[np.nan, 0.0]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix([[np.inf, 0.0]])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2-D"):
            as_matrix(np.zeros((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonzero"):
            as_matrix(np.zeros((0, 3)))

    def test_rejects_non_numeric(self):
        with pytest.raises(ValueError, match="numeric"):
            as_matrix(np.array([["a", "b"]]))


class TestGramHermitian:
    def test_identity(self):
        assert np.array_equal(gram_hermitian(np.eye(2)), np.eye(2))

    def test_hand_oracle(self):
        g = gram_hermitian([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(g, [[5.0, 11.0], [11.0, 25.0]])

    def test_complex_unit_row(self):
        g = gram_hermitian([[1j, 0.0]])
        assert g.shape == (1, 1)
        assert g[0, 0] == 1.0

    @pytest.mark.parametrize("field", FIELDS)
    def test_exactly_hermitian(self, field):
        rng = np.random.default_rng(42)
        for rows, cols in [(1, 1), (3, 5), (5, 3), (7, 7)]:
            g = gram_hermitian(random_matrix(rng, rows, cols, field))
            assert np.array_equal(g, g.conj().T)
            assert np.all(g.diagonal().imag == 0) if field == "complex" else True

    def test_overflow_raises_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalOverflow):
                gram_hermitian([[1e160, 1e160]])

    @pytest.mark.parametrize("field", FIELDS)
    def test_product_near_overflow_still_fits(self, field):
        a = np.full((2, 1), 1.2e154, dtype=np.complex128 if field == "complex" else float)
        assert np.array_equal(gram_hermitian(a), np.full((2, 2), 1.2e154**2))

    def test_matches_direct_product(self):
        rng = np.random.default_rng(7)
        a = random_matrix(rng, 4, 9, "complex")
        np.testing.assert_allclose(gram_hermitian(a), a @ a.conj().T,
                                   rtol=0, atol=1e-13)


NON_FINITE = [np.nan, np.inf, -np.inf, complex(1.0, np.nan), complex(0.0, np.inf)]


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_gram_hermitian_raises_value_error(self, bad):
        a = np.ones((3, 4), dtype=type(bad))
        a[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            gram_hermitian(a)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("where", [(1, 1), (2, 0)])
    def test_cholesky_lower_raises_value_error(self, bad, where):
        h = np.eye(3, dtype=type(bad))
        h[where] = bad
        with pytest.raises(ValueError, match="non-finite"):
            cholesky_lower(h)


class TestCholeskyLower:
    def test_identity(self):
        assert np.array_equal(cholesky_lower(np.eye(3)), np.eye(3))

    def test_hand_oracle(self):
        c = cholesky_lower([[4.0, 2.0], [2.0, 5.0]])
        assert np.array_equal(c, [[2.0, 0.0], [1.0, 2.0]])

    def test_hand_oracle_3x3(self):
        c = cholesky_lower([[4.0, 2.0, 2.0], [2.0, 5.0, 3.0], [2.0, 3.0, 6.0]])
        assert np.array_equal(c, [[2, 0, 0], [1, 2, 0], [1, 1, 2]])

    def test_complex_hand_oracle(self):
        c = cholesky_lower([[4.0, 2.0 - 2.0j], [2.0 + 2.0j, 6.0]])
        assert np.array_equal(c, [[2.0, 0.0], [1.0 + 1.0j, 2.0]])

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_lower([[1.0, 2.0], [2.0, 1.0]])

    def test_singular_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_lower([[1.0, 1.0], [1.0, 1.0]])

    def test_non_hermitian_raises(self):
        with pytest.raises(ValueError, match="Hermitian"):
            cholesky_lower([[1.0, 0.5], [0.0, 1.0]])

    def test_small_positive_pivot_names_its_index(self):
        # LAPACK factors this; the pivot rule rejects C[2, 2]**2 = 1e-14
        c = np.array([[1.0, 0.0, 0.0, 0.0],
                      [0.5, 1.0, 0.0, 0.0],
                      [0.3, -0.2, 1e-7, 0.0],
                      [0.1, 0.4, 0.2, 1.0]])
        with pytest.raises(NotPositiveDefinite, match="at index 2 "):
            cholesky_lower(c @ c.T)

    def test_lapack_stop_names_its_index(self):
        with pytest.raises(NotPositiveDefinite, match="pivot -3.000e.00 at index 1 "):
            cholesky_lower([[1.0, 2.0], [2.0, 1.0]])

    def test_pivot_just_above_threshold_factors(self):
        c = cholesky_lower(np.diag([1.0, 1.01 * PIVOT_RTOL]))
        assert c[1, 1] ** 2 > PIVOT_RTOL

    def test_pivot_just_below_threshold_raises(self):
        with pytest.raises(NotPositiveDefinite, match="at index 1 "):
            cholesky_lower(np.diag([1.0, 0.99 * PIVOT_RTOL]))

    def test_non_square_raises(self):
        with pytest.raises(ValueError, match="square"):
            cholesky_lower(np.ones((2, 3)))

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(11)
        h = random_hpd(rng, 6, "real")
        first = cholesky_lower(h)
        second = cholesky_lower(h.copy())
        assert first.tobytes() == second.tobytes()

    @pytest.mark.parametrize("field", FIELDS)
    def test_factor_shape_contract(self, field):
        rng = np.random.default_rng(5)
        c = cholesky_lower(random_hpd(rng, 5, field))
        assert np.all(np.triu(c, 1) == 0)
        assert np.all(c.diagonal().real > 0)
        if field == "complex":
            assert np.all(c.diagonal().imag == 0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dim=st.integers(2, 20), seed=st.integers(0, 2**31),
           field=st.sampled_from(FIELDS), data=st.data())
    def test_first_collapsed_pivot_is_named(self, dim, seed, field, data):
        # The pivots of C C^H are diag(C)**2 exactly, so shrinking some
        # diagonal entries to 1e-9 puts the first failing pivot (1e-18,
        # far below PIVOT_RTOL times the last row's untouched diagonal) at
        # the first shrunk index.
        tiny = data.draw(st.lists(st.integers(0, dim - 2), min_size=1, max_size=3))
        c = random_lower(np.random.default_rng(seed), dim, field)
        c[tiny, tiny] = 1e-9
        with pytest.raises(NotPositiveDefinite, match=f"at index {min(tiny)} "):
            cholesky_lower(c @ c.conj().T)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 20), seed=st.integers(0, 2**31),
           field=st.sampled_from(FIELDS))
    def test_reconstruction_property(self, dim, seed, field):
        rng = np.random.default_rng(seed)
        h = random_hpd(rng, dim, field)
        c = cholesky_lower(h)
        err = np.linalg.norm(c @ c.conj().T - h)
        assert err <= 1e-10 * np.linalg.norm(h)


class TestInvertLower:
    def test_identity(self):
        assert np.array_equal(invert_lower(np.eye(4)), np.eye(4))

    def test_hand_oracle(self):
        u = invert_lower([[2.0, 0.0], [1.0, 2.0]])
        assert np.array_equal(u, [[0.5, 0.0], [-0.25, 0.5]])

    def test_diagonal(self):
        u = invert_lower(np.diag([2.0, 4.0]))
        assert np.array_equal(u, np.diag([0.5, 0.25]))

    def test_rejects_upper_entries(self):
        with pytest.raises(ValueError, match="above the diagonal"):
            invert_lower([[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError, match="strictly positive"):
            invert_lower([[1.0, 0.0], [1.0, -2.0]])

    def test_rejects_complex_diagonal(self):
        with pytest.raises(ValueError, match="real"):
            invert_lower(np.array([[1.0 + 1.0j, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("check", [invert_lower, lambda c: SvarCoefficients(L=c)],
                             ids=["invert_lower", "SvarCoefficients"])
    @pytest.mark.parametrize("c, error, phrase", [
        (np.ones((2, 3)), DimensionMismatch, "square"),
        ([[1.0, 0.5], [0.0, 1.0]], ValueError, "lower triangular"),
        ([[1.0, 0.0], [1.0, 0.0]], ValueError, "strictly positive"),
        (np.diag([1.0, 1.0 + 1e-3j]), ValueError, "real"),
    ])
    def test_shares_the_factor_check_with_svar_coefficients(self, check, c, error, phrase):
        with pytest.raises(error, match=phrase):
            check(c)

    def test_upper_triangle_exactly_zero(self):
        rng = np.random.default_rng(3)
        u = invert_lower(random_lower(rng, 7, "complex"))
        strict_upper = u[np.triu_indices(7, 1)]
        assert np.all(strict_upper == 0)
        # +0 exactly, not -0: structural zeros never carry a sign
        assert not np.any(np.signbit(strict_upper.real))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 20), seed=st.integers(0, 2**31),
           field=st.sampled_from(FIELDS))
    def test_inverse_consistency_property(self, dim, seed, field):
        rng = np.random.default_rng(seed)
        c = random_lower(rng, dim, field)
        u = invert_lower(c)
        assert np.abs(u @ c - np.eye(dim)).max() <= 1e-10
        assert np.all(u.diagonal().real > 0)


class TestSolveHpd:
    def test_identity_system(self):
        y = solve_hpd(np.eye(2), [[7.0, 8.0]])
        assert np.array_equal(y, [[7.0, 8.0]])

    def test_diagonal_scaling(self):
        y = solve_hpd(np.diag([2.0, 4.0]), [[2.0, 4.0]])
        np.testing.assert_allclose(y, [[1.0, 1.0]], rtol=0, atol=1e-15)

    def test_hand_oracle(self):
        y = solve_hpd([[4.0, 2.0], [2.0, 5.0]], [[4.0, 2.0]])
        np.testing.assert_allclose(y, [[1.0, 0.0]], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("field", FIELDS)
    def test_residual_property(self, field):
        rng = np.random.default_rng(19)
        for dim, rows in [(1, 1), (4, 2), (9, 5)]:
            h = random_hpd(rng, dim, field)
            b = random_matrix(rng, rows, dim, field)
            y = solve_hpd(h, b)
            assert np.linalg.norm(y @ h - b) < 1e-10 * np.linalg.norm(b)

    def test_propagates_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            solve_hpd([[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_hpd(np.eye(3), np.ones((2, 2)))
