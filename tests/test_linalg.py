"""Kernel tests: Gram products, Cholesky, triangular inversion, HPD solves.

Hand-checkable oracles are frozen as literals; the property tests draw
random well-conditioned inputs in both scalar fields.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svarlic.exceptions import DimensionMismatch, NotPositiveDefinite, NumericalOverflow
from svarlic.linalg import (
    _CHUNK_SAMPLES,
    _MIN_CHUNK,
    _PHASE_BLOCK,
    _SOLVE_BLOCK,
    HERMITIAN_RTOL,
    PIVOT_RTOL,
    _chunk_bounds,
    _chunk_width,
    _divide_lower,
    _inverse_bottom_rows,
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

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(rows=st.integers(1, 5), field=st.sampled_from(FIELDS), width=st.integers(1, 9),
           seed=st.integers(0, 2**31), data=st.data())
    def test_chunked_matches_dense_product(self, chunks, rows, field, width, seed, data):
        # Columns cut into near-equal chunks of at most 1..9, N not a
        # multiple of the width (except width 1).
        cols = data.draw(st.integers(1, 6 * width).filter(lambda n: width == 1 or n % width))
        a = random_matrix(np.random.default_rng(seed), rows, cols, field)
        dense = a @ a.conj().T
        with chunks(width):
            g = gram_hermitian(a)
        assert g.dtype == dense.dtype
        assert np.abs(g - dense).max() <= 1e-13 * np.abs(dense).max()
        assert np.array_equal(g, g.conj().T)
        assert np.all(g.diagonal().imag == 0)

    def test_complex_memory_stays_below_one_conjugated_copy(self):
        a = random_matrix(np.random.default_rng(8), 8, 32760, "complex")
        tracemalloc.start()
        try:
            gram_hermitian(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes  # 4 MiB


NON_FINITE = [np.nan, np.inf, -np.inf, complex(1.0, np.nan), complex(0.0, np.inf)]


PASS_KINDS = ["gram", "residuals", "paired"]


def phase_rule(m, k, window, complex_field, kind):
    """The phase rule of `_chunk_bounds`, restated: every pass over a cut
    complex window with K >= 3, M >= 2 and (K+1)M >= 12, and the Gram of
    a real window of more than one chunk or block with 4 <= K <= 16 and
    8 <= M <= 68."""
    cut = _MIN_CHUNK <= _chunk_width(m) < window
    if complex_field:
        return cut and k >= 3 and m >= 2 and (k + 1) * m >= 12
    several = cut or window > _CHUNK_SAMPLES
    return several and kind == "gram" and 4 <= k <= 16 and 8 <= m <= 68


class TestChunkBounds:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(m=st.integers(1, 100), k=st.integers(0, 20), window=st.integers(1, 300000),
           complex_field=st.booleans(), kind=st.sampled_from(PASS_KINDS))
    def test_every_pass_gets_near_equal_chunks_of_bounded_width(self, m, k, window,
                                                                complex_field, kind):
        # The rule's contract for every pass, the Gram's, the residuals'
        # and the paired one of 2M rows per sample, in either form: it cuts
        # exactly the windows wider than an M-row chunk of at least
        # _MIN_CHUNK samples, walks every other window in blocks of at
        # most _CHUNK_SAMPLES, or _PHASE_BLOCK in the phase form, and
        # takes the phase form exactly where `phase_rule` says.
        n = k + window
        bounds, cut, phased = _chunk_bounds(m, n, k, np.dtype(complex if complex_field
                                                              else float), kind)
        widths = np.diff(bounds)
        assert (bounds[0], bounds[-1]) == (k, n)
        assert 1 <= widths.min() and widths.max() - widths.min() <= 1
        assert widths[-1] == widths.max()
        assert widths.max() <= _CHUNK_SAMPLES
        assert cut == (_MIN_CHUNK <= _chunk_width(m) < window)
        assert phased == phase_rule(m, k, window, complex_field, kind)
        if not cut:
            block = _PHASE_BLOCK if phased else _CHUNK_SAMPLES
            assert len(widths) == (1 if window <= _CHUNK_SAMPLES else -(-window // block))
            assert widths.max() <= block

    @pytest.mark.parametrize("m, k, n, complex_field, kind, phased", [
        (8, 4, 65536, False, "gram", True),
        (7, 4, 65536, False, "gram", False),  # M < 8
        (8, 3, 65536, False, "gram", False),  # K < 4
        (8, 16, 65536, False, "gram", True),
        (8, 17, 65536, False, "gram", False),  # K > 16
        (64, 16, 8192, False, "gram", True),
        (64, 17, 8192, False, "gram", False),
        (68, 4, 8192, False, "gram", True),  # uncut, in blocks
        (69, 4, 8192, False, "gram", False),  # M > 68
        (68, 4, 4 + 6144, False, "gram", False),  # one block
        (68, 4, 4 + 6145, False, "gram", True),
        (8, 4, 4 + 6144, False, "gram", False),  # one chunk
        (8, 4, 65536, False, "residuals", False),  # real residuals never
        (8, 4, 65536, False, "paired", False),
        (4, 3, 65536, True, "gram", True),
        (4, 2, 65536, True, "gram", False),  # K < 3
        (4, 2, 65536, True, "residuals", False),
        (4, 2, 65536, True, "paired", False),
        (4, 3, 65536, True, "residuals", True),
        (3, 3, 65536, True, "paired", True),  # (K+1)M = 12
        (2, 4, 65536, True, "gram", False),  # (K+1)M = 10
        (1, 11, 65536, True, "gram", False),  # M = 1
        (4, 3, 3 + 6144, True, "gram", False),  # one chunk
        (24, 3, 65536, True, "gram", False),  # M > 22: blocks, never cut
    ])
    def test_phase_rule_on_both_sides_of_every_bound(self, m, k, n, complex_field, kind,
                                                     phased):
        dtype = np.dtype(complex if complex_field else float)
        assert _chunk_bounds(m, n, k, dtype, kind)[2] == phased
        assert phase_rule(m, k, n - k, complex_field, kind) == phased

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(m=st.integers(1, 24), k=st.integers(0, 16), window=st.integers(1, 300000))
    def test_stacked_chunks_fit_the_m_row_buffer(self, m, k, window):
        # A pass that stacks 2M rows per sample, paired or in the complex
        # phase form, cuts the same window where the M-row pass cuts it,
        # into as few near-equal chunks as keep its 2M rows of width + M
        # samples within the M-row buffer of the widest chunk, each at
        # least one sample wide. A real Gram walks a cut window in the
        # M-row chunks or, in the phase form, in the fewest near-equal
        # chunks K+1 samples narrower than the widest of them, so that its
        # copy of width + K samples and its ones fit in the M+1 rows of
        # that chunk that the per-lag form holds.
        n, real = k + window, np.dtype(float)
        plain, cut, _ = _chunk_bounds(m, n, k, real, "residuals")
        paired, paired_cut, _ = _chunk_bounds(m, n, k, real, "paired")
        complex_bounds, _, in_phase_form = _chunk_bounds(m, n, k, np.dtype(complex))
        assert complex_bounds == (paired if in_phase_form else plain)
        if not cut:
            assert (paired, paired_cut) == (plain, cut)
            return
        gram, gram_cut, real_phased = _chunk_bounds(m, n, k, real)
        assert gram_cut
        if real_phased:
            widths, widest = np.diff(gram), plain[-1] - plain[-2]
            assert widths.max() - widths.min() <= 1 and widths[-1] == widths.max()
            assert widths.max() <= widest - k - 1
            assert (widths.max() + k) * m + widths.max() <= (m + 1) * widest
            assert -(-window // (len(widths) - 1)) > widest - k - 1
        else:
            assert gram == plain
        widths = np.diff(paired)
        assert (paired[0], paired[-1]) == (k, n)
        assert 1 <= widths.min() and widths.max() - widths.min() <= 1
        assert widths[-1] == widths.max()
        budget = m * (plain[-1] - plain[-2])
        assert 2 * m * (widths.max() + m) <= budget or widths.max() == 1
        fewer = len(widths) - 1
        assert fewer == 0 or 2 * m * (-(-window // fewer) + m) > budget


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_gram_hermitian_raises_value_error(self, bad):
        a = np.ones((3, 4), dtype=type(bad))
        a[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            gram_hermitian(a)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("where", [[(1, 1)], [(2, 0)], [(0, 2)], [(2, 0), (0, 2)]])
    def test_cholesky_lower_raises_value_error(self, bad, where):
        # The symmetric pair leaves an infinite h exactly Hermitian, so only
        # its failing pivot reveals the entry.
        h = np.eye(3, dtype=type(bad))
        for i, j in where:
            h[i, j] = bad if i >= j else np.conj(bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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

    @pytest.mark.parametrize("field", FIELDS)
    def test_asymmetry_within_tolerance_factors(self, field):
        # Inexact Hermitian input takes the tolerance test, not the
        # exact-equality short cut.
        h = random_hpd(np.random.default_rng(6), 5, field)
        h[0, 3] += 1e-3 * HERMITIAN_RTOL * np.abs(h).max()
        c = cholesky_lower(h)
        assert np.linalg.norm(c @ c.conj().T - np.tril(h) - np.tril(h, -1).conj().T) \
            <= 1e-12 * np.linalg.norm(h)

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

    def test_lapack_stop_at_the_first_pivot_names_its_value(self):
        with pytest.raises(NotPositiveDefinite, match="pivot -2.000e.00 at index 0 "):
            cholesky_lower([[-2.0, 1.0], [1.0, 3.0]])

    def test_pivot_just_above_threshold_factors(self):
        c = cholesky_lower(np.diag([1.0, 1.01 * PIVOT_RTOL]))
        assert c[1, 1] ** 2 > PIVOT_RTOL

    def test_pivot_at_the_threshold_raises_and_says_so(self):
        # A pivot passes only above the threshold, so equality fails it.
        with pytest.raises(NotPositiveDefinite) as info:
            cholesky_lower(np.diag([1.0, PIVOT_RTOL]))
        assert str(info.value) == ("pivot 1.000e-12 at index 1 is at or below threshold "
                                   "1.000e-12; matrix is not positive definite")

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

    @pytest.mark.parametrize("field", FIELDS)
    def test_above_the_block_stays_triangular(self, field):
        dim = 2 * _SOLVE_BLOCK + 3
        u = invert_lower(random_lower(np.random.default_rng(4), dim, field))
        assert np.all(u[np.triu_indices(dim, 1)] == 0)
        assert np.all(u.diagonal().real > 0)
        assert np.all(u.diagonal().imag == 0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 20), seed=st.integers(0, 2**31),
           field=st.sampled_from(FIELDS))
    def test_inverse_consistency_property(self, dim, seed, field):
        rng = np.random.default_rng(seed)
        c = random_lower(rng, dim, field)
        u = invert_lower(c)
        assert np.abs(u @ c - np.eye(dim)).max() <= 1e-10
        assert np.all(u.diagonal().real > 0)


class TestDivideLower:
    """The recursive block division behind `_inverse_bottom_rows` and
    `solve_hpd`, against one LU solve of the transposed system, on orders
    on both sides of `_SOLVE_BLOCK`."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dim=st.one_of(st.sampled_from([_SOLVE_BLOCK, _SOLVE_BLOCK + 1, 2 * _SOLVE_BLOCK + 1]),
                         st.integers(1, 4 * _SOLVE_BLOCK)),
           rows=st.one_of(st.integers(1, 8), st.none()), unit=st.booleans(),
           seed=st.integers(0, 2**31), field=st.sampled_from(FIELDS))
    def test_matches_lu_solve(self, dim, rows, unit, seed, field):
        rng = np.random.default_rng(seed)
        c = random_lower(rng, dim, field)
        rows = dim if rows is None else min(rows, dim)
        if unit:
            b = np.eye(rows, dim, dim - rows)
            y = _inverse_bottom_rows(c, rows)
        else:
            b = random_matrix(rng, rows, dim, field)
            y = _divide_lower(b, c)
        ref = np.linalg.solve(c.T, b.T).T
        assert y.shape == b.shape and y.flags.c_contiguous
        assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dim=st.integers(_SOLVE_BLOCK + 1, 4 * _SOLVE_BLOCK), rows=st.integers(1, 8),
           seed=st.integers(0, 2**31), field=st.sampled_from(FIELDS))
    def test_solve_hpd_above_the_block_matches_lu_solve(self, dim, rows, seed, field):
        rng = np.random.default_rng(seed)
        h = gram_hermitian(random_matrix(rng, dim, 2 * dim, field))
        b = random_matrix(rng, rows, dim, field)
        ref = np.linalg.solve(h.T, b.T).T
        assert np.linalg.norm(solve_hpd(h, b) - ref) <= 1e-12 * np.linalg.norm(ref)


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
