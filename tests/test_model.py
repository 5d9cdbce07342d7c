"""Model-layer tests: containers, regressor stacking, residuals, stability."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svarlic import linalg, model
from svarlic.complexity import lic_multiply_count, ls_multiply_count, savings_ratio
from svarlic.estimators import fit_both, fit_rvar_ls
from svarlic.exceptions import DimensionMismatch, NumericalOverflow, OrderTooLarge
from svarlic.model import (
    RvarCoefficients,
    SvarCoefficients,
    _regressor_gram,
    _window_products,
    build_regressor_s,
    build_regressor_t,
    companion_matrix,
    companion_spectral_radius,
    rvar_residuals,
    svar_residuals,
    validate_order,
)
from svarlic.synthetic import random_stable_svar, simulate_series


class TestSvarCoefficients:
    def test_defaults(self):
        m = SvarCoefficients(L=np.eye(2))
        assert m.branches == 2
        assert m.order == 0
        assert np.array_equal(m.t, [0.0, 0.0])

    def test_rejects_upper_triangular_entries(self):
        with pytest.raises(ValueError, match="lower triangular"):
            SvarCoefficients(L=[[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError, match="positive"):
            SvarCoefficients(L=[[1.0, 0.0], [0.0, -1.0]])

    def test_rejects_imaginary_diagonal(self):
        with pytest.raises(ValueError, match="positive real"):
            SvarCoefficients(L=np.array([[1.0 + 1.0j, 0.0], [0.0, 1.0]]))

    def test_rejects_wrong_lag_shape(self):
        with pytest.raises(DimensionMismatch):
            SvarCoefficients(L=np.eye(2), R=(np.eye(3),))

    def test_rejects_wrong_intercept_length(self):
        with pytest.raises(DimensionMismatch):
            SvarCoefficients(L=np.eye(2), t=[1.0, 2.0, 3.0])

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            SvarCoefficients(L=np.ones((2, 3)))


class TestRvarCoefficients:
    def test_basic(self):
        m = RvarCoefficients(c=[1.0, 2.0], A=(np.eye(2),))
        assert m.branches == 2
        assert m.order == 1
        assert m.V is None

    def test_rejects_wrong_residual_rows(self):
        with pytest.raises(DimensionMismatch):
            RvarCoefficients(c=[1.0, 2.0], V=np.ones((3, 5)))

    def test_scalar_intercept(self):
        m = RvarCoefficients(c=0.5)
        assert m.branches == 1

    @pytest.mark.parametrize("c", [[[1.0, 2.0, 3.0]], [[1.0], [2.0], [3.0]]])
    def test_row_or_column_intercept(self, c):
        assert RvarCoefficients(c=c).branches == 3

    def test_rejects_matrix_intercept(self):
        with pytest.raises(DimensionMismatch):
            RvarCoefficients(c=np.ones((2, 2)))


class TestValidateOrder:
    @pytest.mark.parametrize("k", [float("inf"), float("-inf"), float("nan"), 1.5, -1])
    def test_rejects(self, k):
        with pytest.raises(ValueError, match="order K must be a nonnegative integer"):
            validate_order(k)

    def test_accepts_integral_float(self):
        assert validate_order(3.0) == 3


def model_bytes(model):
    return b"".join(a.tobytes() for a in (model.L, *model.R, model.t))


#: Every count argument outside the fits, with the message it raises; each
#: follows `validate_order`'s rule with its own lower bound.
COUNTS = {
    "random_stable_svar m": (lambda v: model_bytes(random_stable_svar(v, 1, 0)),
                             "branch count must be >= 1, got {}"),
    "simulate_series n": (lambda v: simulate_series(random_stable_svar(2, 1, 0), v, 0).tobytes(),
                          "sample count must be >= 1, got {}"),
    "simulate_series burn_in": (
        lambda v: simulate_series(random_stable_svar(2, 1, 0), 5, 0, burn_in=v).tobytes(),
        "burn_in must be >= 0, got {}"),
    "complexity m": (lambda v: ls_multiply_count(v, 1, 10), "branch count M must be >= 1, got {}"),
    "complexity k": (lambda v: lic_multiply_count(2, v, 10), "order K must be >= 0, got {}"),
    "complexity n": (lambda v: savings_ratio(2, 1, v), "sample count N must be >= 1, got {}"),
}


class TestCountRule:
    @pytest.mark.parametrize("argument, value", [
        (argument, value) for argument in sorted(COUNTS)
        for value in (2.5, float("nan"), None, -1)
        if (argument, value) != ("simulate_series burn_in", None)])
    def test_rejects(self, argument, value):
        call, message = COUNTS[argument]
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == message.format(value)

    @pytest.mark.parametrize("argument", sorted(COUNTS))
    def test_accepts_integral_float(self, argument):
        call, _ = COUNTS[argument]
        assert call(2.0) == call(2)

    def test_burn_in_none_is_the_default(self):
        call, _ = COUNTS["simulate_series burn_in"]
        assert call(None) == call(10 * 1 * 2)  # 10*K*M


class TestBuildRegressorS:
    def test_transcription_k1(self):
        s = build_regressor_s([[1.0, 2.0, 3.0, 4.0]], 1)
        assert np.array_equal(s, [[1, 1, 1], [1, 2, 3]])

    def test_transcription_k2(self):
        s = build_regressor_s([[5.0, 6.0, 7.0, 8.0]], 2)
        assert np.array_equal(s, [[1, 1], [6, 7], [5, 6]])

    def test_two_branch_shape(self):
        x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        s = build_regressor_s(x, 1)
        assert s.shape == (3, 2)
        assert np.array_equal(s, [[1, 1], [1, 2], [4, 5]])

    def test_k0_is_ones_row(self):
        s = build_regressor_s([[9.0, 8.0]], 0)
        assert np.array_equal(s, [[1, 1]])

    def test_order_too_large(self):
        with pytest.raises(OrderTooLarge):
            build_regressor_s([[1.0, 2.0]], 2)

    @pytest.mark.parametrize("m,k,n", [(1, 1, 5), (2, 3, 10), (4, 2, 9), (3, 0, 4)])
    def test_shape(self, m, k, n):
        x = np.random.default_rng(0).standard_normal((m, n))
        assert build_regressor_s(x, k).shape == (m * k + 1, n - k)


class TestBuildRegressorT:
    def test_transcription_k1(self):
        t = build_regressor_t([[1.0, 2.0, 3.0, 4.0]], 1)
        assert np.array_equal(t, [[1, 1, 1], [1, 2, 3], [2, 3, 4]])

    def test_transcription_k0(self):
        t = build_regressor_t([[9.0, 8.0]], 0)
        assert np.array_equal(t, [[1, 1], [9, 8]])

    def test_bottom_block_is_current_samples(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 12))
        for k in range(4):
            t = build_regressor_t(x, k)
            assert np.array_equal(t[-3:, :], x[:, k:])

    def test_order_too_large(self):
        with pytest.raises(OrderTooLarge):
            build_regressor_t([[1.0]], 1)

    @pytest.mark.parametrize("m,k,n", [(1, 1, 5), (2, 3, 10), (4, 2, 9), (3, 0, 4)])
    def test_shape(self, m, k, n):
        x = np.random.default_rng(0).standard_normal((m, n))
        assert build_regressor_t(x, k).shape == (m * (k + 1) + 1, n - k)

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("m,k,n", [(1, 2, 9), (2, 1, 8), (3, 3, 20), (3, 0, 6)])
    def test_top_rows_are_s(self, m, k, n, complex_field):
        # One row layout: T is S with the current samples appended; at
        # K = 0, S is the row of ones alone.
        rng = np.random.default_rng(2)
        x = rng.standard_normal((m, n))
        if complex_field:
            x = x + 1j * rng.standard_normal((m, n))
        s = build_regressor_s(x, k)
        assert s.dtype == x.dtype
        assert np.array_equal(build_regressor_t(x, k)[:m * k + 1], s)
        if k == 0:
            assert np.array_equal(s, np.ones((1, n)))


def stack_spy(patch):
    """Patch `model._stack_regressor` with a spy through `patch`; returns
    the list of (stacked array, shape of the stack) it fills, one per call."""
    seen = []
    original = model._stack_regressor

    def spy(a, k):
        stack = original(a, k)
        seen.append((a, stack.shape))
        return stack

    patch.setattr(model, "_stack_regressor", spy)
    return seen


class TestLagCovarianceGram:
    """The structured ``T T^H`` from lag products against the dense product
    of the stacked T, at sizes the routes would send to the dense form:
    under ``chunks(N - K)`` the window is one chunk, whose M-row buffer
    cannot hold T's q rows, so the structured Gram is formed."""

    @staticmethod
    def check(x, k):
        t = build_regressor_t(x, k)
        dense = t @ t.conj().T
        g = _regressor_gram(x, k)
        assert g.dtype == dense.dtype
        assert np.abs(g - dense).max() <= 1e-13 * np.abs(dense).max()
        assert np.array_equal(g, g.conj().T)
        assert np.all(g.diagonal().imag == 0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(m=st.integers(1, 5), k=st.integers(0, 6), complex_field=st.booleans(),
           seed=st.integers(0, 2**31), data=st.data())
    def test_matches_dense_product(self, chunks, m, k, complex_field, seed, data):
        q = m * (k + 1) + 1
        n = k + data.draw(st.integers(q, 4 * q))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, n))
        if complex_field:
            x = x + 1j * rng.standard_normal((m, n))
        with chunks(n - k):
            self.check(x, k)

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("m,k,n", [(1, 6, 7), (2, 6, 10), (3, 4, 5), (5, 3, 5), (2, 2, 3)])
    def test_series_shorter_than_twice_the_order(self, chunks, m, k, n, complex_field):
        # The head and tail edge samples overlap once N < 2K.
        rng = np.random.default_rng(n)
        x = rng.standard_normal((m, n))
        if complex_field:
            x = x + 1j * rng.standard_normal((m, n))
        with chunks(n - k):
            self.check(x, k)

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("m,k,n", [(2, 30, 200), (1, 200, 500)])
    def test_matches_dense_product_at_high_order(self, chunks, m, k, n, complex_field):
        # Orders far above the property's, where a block row holds K+1
        # lag blocks and the edge stack 3K columns.
        x = draw_signal(np.random.default_rng(k), m, n, complex_field)
        with chunks(n - k):
            self.check(x, k)

    def test_one_write_per_block_row(self, chunks, monkeypatch):
        # Each of T's K+1 block rows is written by one np.concatenate into
        # the Gram, so the structured Gram's numpy calls grow with K, not
        # with its (K+1)^2 blocks.
        m, k, n = 2, 40, 300
        x = draw_signal(np.random.default_rng(9), m, n, False)
        writes = []
        original = np.concatenate

        def spy(*args, **kwargs):
            writes.append(kwargs.get("out") is not None)
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "concatenate", spy)
        with chunks(n - k):
            _regressor_gram(x, k)
        assert writes == [True] * (k + 1)

    def test_overflow_raises_without_warnings(self, chunks):
        x = np.random.default_rng(3).standard_normal((2, 40)) * 1e160
        with chunks(38), pytest.raises(NumericalOverflow, match="overflows"):
            _regressor_gram(x, 2)

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_order_zero_stacks_no_edge_terms(self, chunks, monkeypatch, complex_field):
        # At K = 0 the window is the whole signal, so there are no edge
        # terms to stack.
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 40))
        if complex_field:
            x = x + 1j * rng.standard_normal((3, 40))
        with chunks(40):
            self.check(x, 0)
            stacks = stack_spy(monkeypatch)
            _regressor_gram(x, 0)
        assert stacks == []


class TestChunkedGram:
    """The lag products summed over several chunks of the window."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(m=st.integers(1, 4), k=st.integers(0, 5), complex_field=st.booleans(),
           width=st.integers(1, 9), seed=st.integers(0, 2**31), data=st.data())
    def test_matches_dense_product(self, chunks, m, k, complex_field, width, seed, data):
        # Windows from one sample up, so N < 2K is drawn too; chunk widths
        # of 1..9 samples split them into several near-equal chunks.
        n = k + data.draw(st.integers(1, 6 * width))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, n))
        if complex_field:
            x = x + 1j * rng.standard_normal((m, n))
        with chunks(width):
            TestLagCovarianceGram.check(x, k)

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("m,k,n", [(3, 2, 40), (1, 0, 9), (2, 5, 8)])
    def test_one_chunk_is_one_product_per_lag(self, chunks, m, k, n, complex_field):
        # At or above the window's size the products and sums are those of
        # one product per lag over the whole window, bit for bit.
        rng = np.random.default_rng(m + n)
        x = rng.standard_normal((m, n))
        if complex_field:
            x = x + 1j * rng.standard_normal((m, n))
        window = x[:, k:]
        window_h = window.conj().T if complex_field else window.T
        expected = [(x[:, k - d:n - d] @ window_h).tobytes() for d in range(k + 1)]
        for samples in (n - k, 10 ** 9):
            with chunks(samples):
                products, sums = _window_products(x, k, sums=True)
            assert [p.tobytes() for p in products] == expected
            assert sums.tobytes() == window.sum(axis=1).tobytes()

    @pytest.mark.parametrize("m", [2, 24])
    def test_complex_memory_stays_below_one_window_copy(self, m):
        # A conjugated copy of the whole window would take M (N-K) 16 bytes;
        # chunks of 500 samples need an eighth of that. At M > 22 the chunk
        # rule leaves the window uncut, and it is conjugated in blocks of
        # _CHUNK_SAMPLES = 500 samples instead.
        k, n = 2, 4002
        rng = np.random.default_rng(5)
        x = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "_CHUNK_SAMPLES", 500)
            if m <= 22:  # lets the chunk rule cut the window
                patch.setattr(linalg, "_MIN_CHUNK", 1)
            assert linalg._chunk_bounds(m, n, k, x.dtype)[1] == (m <= 22)
            tracemalloc.start()
            try:
                _regressor_gram(x, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < m * (n - k) * 16

    def test_wide_gram_holds_one_gram_sized_temporary_at_a_time(self):
        # The lag blocks are written into g one block row at a time, so
        # beside g only the edge product, then the copy that makes g
        # exactly Hermitian, is Gram-sized. Gathering the blocks into a
        # Gram-sized array and reshaping it held 3.3 Grams (8.83 MB) here.
        m, k, n = 64, 8, 8192
        x = np.random.default_rng(6).standard_normal((m, n))
        gram_bytes = (m * (k + 1) + 1) ** 2 * 8
        tracemalloc.start()
        try:
            _regressor_gram(x, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * gram_bytes


class TestGramRule:
    """`_regressor_gram` stacks T whole exactly where its ``q (N-K)``
    entries fit in the M-row buffer of the widest chunk of an M-branch
    pass, ``M * linalg._chunk_width(M)`` elements, and elsewhere forms the
    structured Gram, whose only stack is its 3K-column edge stack."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(m=st.integers(1, 5), k=st.integers(0, 4), complex_field=st.booleans(),
           step=st.sampled_from([-1, 0, 1]), seed=st.integers(0, 2**31), data=st.data())
    def test_stacks_t_exactly_where_it_fits(self, chunks, m, k, complex_field, step, seed,
                                            data):
        # N just below, at and just above the last N whose q (N-K) entries
        # fit in M * width; a width that is a multiple of q puts that N's
        # q (N-K) on M * width exactly.
        q = m * (k + 1) + 1
        width = data.draw(st.one_of(st.integers(1, 3 * q),
                                    st.integers(1, 3).map(lambda c: c * q)))
        n = k + max(m * width // q + step, 1)
        x = draw_signal(np.random.default_rng(seed), m, n, complex_field)
        with chunks(width), pytest.MonkeyPatch.context() as patch:
            seen = stack_spy(patch)
            g = _regressor_gram(x, k)
        t = build_regressor_t(x, k)
        expected = t @ t.conj().T
        assert g.dtype == expected.dtype
        assert np.abs(g - expected).max() <= 1e-13 * np.abs(expected).max()
        assert np.array_equal(g, g.conj().T)
        assert np.all(g.diagonal().imag == 0)
        if q * (n - k) <= m * width:
            assert [(a is x, shape) for a, shape in seen] == [(True, (q, n - k))]
        else:
            assert [(a is x, shape) for a, shape in seen] == [(False, (q, 3 * k))] * (k > 0)

    @pytest.mark.parametrize("m, k, n, complex_field, whole", [
        (3, 2, 256, False, True),  # rolling_panel's windows
        (4, 2, 65536, False, False),  # tall_real
        (64, 8, 8192, False, False),  # wide_real
        (8, 8, 32768, True, False),  # complex_mid
    ])
    def test_benchmark_shapes_keep_their_branch(self, monkeypatch, m, k, n, complex_field,
                                                whole):
        # The shapes of the benchmark's workloads: only rolling_panel's
        # windows stack T; the others stack one edge stack of 3K columns.
        x = draw_signal(np.random.default_rng(n), m, n, complex_field)
        seen = stack_spy(monkeypatch)
        _regressor_gram(x, k)
        if whole:
            assert [(a is x, shape) for a, shape in seen] == [(True, (m * (k + 1) + 1, n - k))]
        else:
            assert [shape[1] for _, shape in seen] == [3 * k]


def draw_signal(rng, m, n, complex_field):
    x = rng.standard_normal((m, n))
    return x + 1j * rng.standard_normal((m, n)) if complex_field else x


class TestChunkedResiduals:
    """Residuals written in several chunks of the window."""

    def test_rvar_residuals_reproduce_the_fitted_v(self, chunks, residual_stacks):
        # Windows with at least one residual degree of freedom (an exact fit
        # flushes V to zero), cut into chunks of 1..48 samples whose width
        # need not divide N-K.

        @settings(max_examples=60, deadline=None, derandomize=True)
        @given(m=st.integers(1, 3), k=st.integers(0, 4), complex_field=st.booleans(),
               width=st.integers(1, 48), seed=st.integers(0, 2**31), data=st.data())
        def check(m, k, complex_field, width, seed, data):
            n = residual_stacks.window(data, m, k, width, lead=m * k + 2, most=8)
            x = draw_signal(np.random.default_rng(seed), m, n, complex_field)
            with chunks(width):
                fit = fit_rvar_ls(x, k)
                assert rvar_residuals(fit, x).tobytes() == fit.V.tobytes()

        check()
        residual_stacks.check()

    def test_match_the_per_lag_definition(self, chunks, residual_stacks):
        # Real L and t (or c) with complex R_i (or A_i) give complex residuals.

        @settings(max_examples=60, deadline=None, derandomize=True)
        @given(m=st.integers(1, 3), k=st.integers(0, 4), complex_field=st.booleans(),
               complex_lags=st.booleans(), width=st.integers(1, 48),
               seed=st.integers(0, 2**31), data=st.data())
        def check(m, k, complex_field, complex_lags, width, seed, data):
            n = residual_stacks.window(data, m, k, width, lead=1, most=6)
            rng = np.random.default_rng(seed)
            x = draw_signal(rng, m, n, complex_field)
            lags = tuple(draw_signal(rng, m, m, complex_lags) for _ in range(k))
            mixing = np.tril(rng.standard_normal((m, m)), -1) + 2 * np.eye(m)
            intercept = rng.standard_normal(m)
            structural = SvarCoefficients(L=mixing, R=lags, t=intercept)
            reduced = RvarCoefficients(c=intercept, A=lags)
            for lead, model_, residuals in [(mixing @ x[:, k:], structural, svar_residuals),
                                            (x[:, k:], reduced, rvar_residuals)]:
                direct = lead - intercept[:, None]
                for i, a in enumerate(lags, 1):
                    direct = direct - a @ x[:, k - i:n - i]
                with chunks(width):
                    chunked = residuals(model_, x)
                assert chunked.dtype == direct.dtype
                np.testing.assert_allclose(chunked, direct, rtol=1e-12, atol=1e-12)

        check()
        residual_stacks.check()

    def test_gram_mode_is_the_gram_of_the_residuals(self, chunks, residual_stacks):
        # fit_both's V V^H comes out of the residuals' own chunk loop: with
        # and without a mixing matrix, and complex lags on a real signal,
        # it is r r^H of the residuals r to rounding.

        @settings(max_examples=60, deadline=None, derandomize=True)
        @given(m=st.integers(1, 3), k=st.integers(0, 4), complex_field=st.booleans(),
               complex_lags=st.booleans(), mixed=st.booleans(), width=st.integers(1, 48),
               seed=st.integers(0, 2**31), data=st.data())
        def check(m, k, complex_field, complex_lags, mixed, width, seed, data):
            n = residual_stacks.window(data, m, k, width, lead=1, most=6)
            rng = np.random.default_rng(seed)
            x = draw_signal(rng, m, n, complex_field)
            lags = tuple(draw_signal(rng, m, m, complex_lags) for _ in range(k))
            mixing = (np.tril(rng.standard_normal((m, m)), -1) + 2 * np.eye(m)
                      if mixed else None)
            intercept = rng.standard_normal(m)
            with chunks(width):
                r = model._residuals(x, k, mixing, intercept, lags)
                g = model._residuals(x, k, mixing, intercept, lags, gram=True)
            expected = r @ r.conj().T
            assert g.dtype == r.dtype
            np.testing.assert_allclose(g, expected, rtol=0,
                                       atol=1e-13 * np.abs(expected).max())

        check()
        residual_stacks.check()

    def test_ls_memory_is_v_and_two_chunks(self):
        # V is allocated once; the lag products go through one chunk-sized
        # buffer, not one M x (N-K) temporary per lag.
        m, k, n = 4, 2, 65536
        x = np.random.default_rng(7).standard_normal((m, n))
        chunk_bytes = m * linalg._CHUNK_SAMPLES * 8
        tracemalloc.start()
        try:
            fit_rvar_ls(x, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * (n - k) * 8 + 2 * chunk_bytes

    def test_residuals_cut_where_the_gram_does(self, monkeypatch):
        # One rule cuts every pass over the samples and picks its form,
        # asked once per pass and told its kind: the structured Gram's
        # window with the Gram's M-row buffer, then V's with the same
        # buffer or, in fit_both, V V^H's, paired with 2M rows per sample,
        # a chunk of residuals and its product buffer. A complex window in
        # the phase form gets chunks cut for 2M rows in both passes. Each
        # pass walks the bounds it gets: at M = 24 the rule leaves the
        # complex window uncut and returns it in three blocks of 6144
        # samples, which no pass cuts again.
        seen, returned = [], []
        original = linalg._chunk_bounds

        def spy(m, n, k, dtype, kind="gram"):
            seen.append((m, n, k, dtype.kind, kind))
            returned.append(original(m, n, k, dtype, kind))
            return returned[-1]

        monkeypatch.setattr(linalg, "_chunk_bounds", spy)
        monkeypatch.setattr(model, "_chunk_bounds", spy)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 8192))
        wide = rng.standard_normal((24, 18433)) + 1j * rng.standard_normal((24, 18433))
        phased = draw_signal(rng, 3, 8192, True)
        for fit, kind in [(fit_rvar_ls, "residuals"), (fit_both, "paired")]:
            seen.clear()
            fit(x, 2)
            assert seen == [(4, 8192, 2, "f", "gram"), (4, 8192, 2, "f", kind)]
            seen.clear()
            returned.clear()
            fit(wide, 1)
            assert seen == [(24, 18433, 1, "c", "gram"), (24, 18433, 1, "c", kind)]
            assert returned == [([1, 6145, 12289, 18433], False, False)] * 2
            seen.clear()
            returned.clear()
            fit(phased, 3)
            assert seen == [(3, 8192, 3, "c", "gram"), (3, 8192, 3, "c", kind)]
            assert returned[0] == returned[1] and returned[0][1:] == (True, True)


class PhaseChunks:
    """Shapes inside the phase form's rule (`linalg._chunk_bounds`) and window
    lengths for a property run under ``chunks(width)``, and a check, once
    it has run, that the form's chunks came both shorter than K+1 samples,
    so that some phases have no window, and at least K+1 samples wide."""

    def __init__(self, chunks):
        self.chunks = chunks
        self.examples = []

    def draw(self, data, width, lead):
        """M, K and N drawn with `data`: M = 2 .. 4 with the least K >= 3
        the rule takes up to 6, and N - K = `lead` times T's q rows plus
        1 .. 4 chunks of `width` samples, so that the rule cuts it."""
        m = data.draw(st.integers(2, 4))
        k = data.draw(st.integers(5 if m == 2 else 3, 6))
        n = k + lead * (m * (k + 1) + 1) + data.draw(st.integers(width, 4 * width))
        with self.chunks(width):
            bounds, _, phased = linalg._chunk_bounds(m, n, k, np.dtype(complex))
        assert phased
        self.examples.append((k, np.diff(bounds)))
        return m, k, n

    def check(self):
        assert any((widths < k + 1).any() for k, widths in self.examples)
        assert any((widths >= k + 1).any() for k, widths in self.examples)


class TestPhaseForm:
    """Cut complex windows of order K >= 3 (`linalg._chunk_bounds`) are copied
    once per chunk, time-major, and read as K+1 phases, one product each,
    for the lag products and the residuals alike, and so are the lag
    products of real windows of 4 <= K <= 16 and 8 <= M <= 68 of several
    chunks or blocks. Under ``chunks(width)``, width 1 .. 64, the complex form's
    chunks are 1 to about width/2 samples wide, so many are shorter than
    K+1 samples."""

    @pytest.fixture
    def phase_chunks(self, chunks):
        return PhaseChunks(chunks)

    def test_real_gram_matches_the_dense_gram(self, chunks):
        # Real windows inside the rule, cut into chunks K+1 samples
        # narrower than the M-row chunks of ``chunks(width)``, down to one
        # sample wide, or left uncut in phase blocks of 1 .. width
        # samples. Each entry of T T^H and of the dense Gram is a sum of
        # at most N products, so each is within
        # N u sqrt(G_ii G_jj) of the exact one (Cauchy-Schwarz), and the
        # two within twice that; the check allows four times.
        u = np.finfo(float).eps / 2
        seen = []

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(width=st.integers(1, 64), uncut=st.booleans(), seed=st.integers(0, 2**31),
               data=st.data())
        def check(width, uncut, seed, data):
            m, k = data.draw(st.integers(8, 10)), data.draw(st.integers(4, 6))
            n = k + 2 * (m * (k + 1) + 1) + data.draw(st.integers(width, 4 * width))
            x = draw_signal(np.random.default_rng(seed), m, n, False)
            with chunks(width), pytest.MonkeyPatch.context() as patch:
                if uncut:
                    patch.setattr(linalg, "_MIN_CHUNK", width + 1)
                    patch.setattr(linalg, "_PHASE_BLOCK", data.draw(st.integers(1, width)))
                bounds, cut, phased = linalg._chunk_bounds(m, n, k, x.dtype)
                assert phased and cut != uncut
                g = _regressor_gram(x, k)
            seen.append(np.diff(bounds).max())
            expected = linalg.gram_hermitian(build_regressor_t(x, k))
            scale = np.sqrt(expected.diagonal())
            assert (np.abs(g - expected) <= 4 * n * u * np.outer(scale, scale)).all()

        check()
        assert min(seen) == 1 and max(seen) > 7

    def test_gram_matches_the_dense_gram(self, chunks, phase_chunks):
        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(width=st.integers(1, 64), seed=st.integers(0, 2**31), data=st.data())
        def check(width, seed, data):
            m, k, n = phase_chunks.draw(data, width, lead=2)
            x = draw_signal(np.random.default_rng(seed), m, n, True)
            with chunks(width):
                g = _regressor_gram(x, k)
            expected = linalg.gram_hermitian(build_regressor_t(x, k))
            assert np.abs(g - expected).max() <= 1e-13 * np.abs(expected).max()

        check()
        phase_chunks.check()

    def test_residuals_match_the_stacked_definition(self, chunks, phase_chunks):
        # [-c | -A_1 .. -A_K | mixing] times T, with and without a mixing
        # matrix, and their Gram.

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(mixed=st.booleans(), width=st.integers(1, 64), seed=st.integers(0, 2**31),
               data=st.data())
        def check(mixed, width, seed, data):
            m, k, n = phase_chunks.draw(data, width, lead=1)
            rng = np.random.default_rng(seed)
            x = draw_signal(rng, m, n, True)
            lags = tuple(draw_signal(rng, m, m, True) for _ in range(k))
            mixing = draw_signal(rng, m, m, True) if mixed else None
            intercept = draw_signal(rng, 1, m, True)[0]
            block = np.concatenate((-intercept[:, None], *(-lag for lag in lags),
                                    np.eye(m) if mixing is None else mixing), axis=1)
            expected = block @ build_regressor_t(x, k)
            with chunks(width):
                r = model._residuals(x, k, mixing, intercept, lags)
                g = model._residuals(x, k, mixing, intercept, lags, gram=True)
            assert r.shape == expected.shape and r.flags.c_contiguous
            np.testing.assert_allclose(r, expected, rtol=0,
                                       atol=1e-13 * np.abs(expected).max())
            expected = expected @ expected.conj().T
            np.testing.assert_allclose(g, expected, rtol=0,
                                       atol=1e-13 * np.abs(expected).max())

        check()
        phase_chunks.check()

    def test_real_signal_with_complex_coefficients(self, chunks, phase_chunks):
        # The residuals are complex, so the window takes the phase form in
        # the result's type, from a real signal.

        @settings(max_examples=30, deadline=None, derandomize=True)
        @given(width=st.integers(1, 64), seed=st.integers(0, 2**31), data=st.data())
        def check(width, seed, data):
            m, k, n = phase_chunks.draw(data, width, lead=1)
            rng = np.random.default_rng(seed)
            x = draw_signal(rng, m, n, False)
            structural = SvarCoefficients(
                L=np.tril(draw_signal(rng, m, m, True), -1) + 2 * np.eye(m),
                R=tuple(draw_signal(rng, m, m, True) for _ in range(k)),
                t=draw_signal(rng, 1, m, True)[0])
            block = np.concatenate((-structural.t[:, None], *(-r for r in structural.R),
                                    structural.L), axis=1)
            expected = block @ build_regressor_t(x, k)
            with chunks(width):
                w = svar_residuals(structural, x)
            assert w.dtype == np.complex128
            np.testing.assert_allclose(w, expected, rtol=0,
                                       atol=1e-13 * np.abs(expected).max())

        check()
        phase_chunks.check()

    def test_fit_both_routes_agree(self, chunks, phase_chunks):
        @settings(max_examples=30, deadline=None, derandomize=True)
        @given(width=st.integers(1, 64), seed=st.integers(0, 2**31), data=st.data())
        def check(width, seed, data):
            m, k, n = phase_chunks.draw(data, width, lead=3)
            x = draw_signal(np.random.default_rng(seed), m, n, True)
            with chunks(width):
                assert fit_both(x, k).discrepancy < 1e-12

        check()
        phase_chunks.check()

    @pytest.mark.parametrize("m, k, n, complex_field, gram_phased, residuals_phased", [
        (3, 3, 8192, True, True, True),
        (4, 3, 8192, False, False, False),  # real, M < 8
        (8, 4, 8192, False, True, False),  # real: the Gram only
        (68, 4, 6200, False, True, False),  # real, uncut: the Gram only
        (4, 2, 8192, True, False, False),  # K <= 2
        (2, 4, 8192, True, False, False),  # (K+1)M = 10
        (1, 11, 8192, True, False, False),  # M = 1
        (3, 3, 3000, True, False, False),  # one chunk
        (24, 3, 6300, True, False, False),  # M > 22: blocks, never cut
    ])
    def test_only_the_rule_enters_the_phase_form(self, monkeypatch, m, k, n, complex_field,
                                                 gram_phased, residuals_phased):
        # Everything the rule leaves runs the other forms' code: the
        # lag products, the per-lag residuals and their Gram. Every
        # phase form's time-major copy starts on a 64-byte boundary.
        entered = {linalg: [], model: []}
        offsets = set()
        original = linalg._phase_windows

        def spy(module):
            def phases(window, k, samples):
                entered[module].append(samples)
                offsets.add(window.ctypes.data % 64)
                return original(window, k, samples)
            return phases

        monkeypatch.setattr(linalg, "_phase_windows", spy(linalg))
        monkeypatch.setattr(model, "_phase_windows", spy(model))
        rng = np.random.default_rng(m + n)
        x = draw_signal(rng, m, n, complex_field)
        _, cut, in_phase_form = linalg._chunk_bounds(m, n, k, x.dtype)
        assert (cut, in_phase_form) == (n - k > 6144 and m <= 22, gram_phased)
        fit = fit_rvar_ls(x, k)
        both = fit_both(x, k)
        svar_residuals(both.lic, x)
        assert fit.V.flags.c_contiguous
        # The Grams of fit_both and fit_rvar_ls, then their residuals and
        # the structural residuals.
        assert sum(entered[linalg]) == gram_phased * 2 * (n - k)
        assert sum(entered[model]) == residuals_phased * 3 * (n - k)
        assert offsets == ({0} if gram_phased else set())

    @pytest.mark.parametrize("m, k, n", [(8, 4, 8192), (16, 8, 9000), (68, 4, 6200)])
    def test_real_residuals_never_take_the_phase_form(self, monkeypatch, m, k, n):
        # Real windows whose Gram takes the phase form, cut and uncut:
        # V, V V^H and both kinds of caller residuals keep the per-lag
        # products.
        calls = []
        monkeypatch.setattr(model, "_phase_residuals",
                            lambda *args: calls.append(args[1:3]))
        x = draw_signal(np.random.default_rng(m + k), m, n, False)
        assert linalg._chunk_bounds(m, n, k, x.dtype)[2]
        fit = fit_rvar_ls(x, k)
        both = fit_both(x, k)
        svar_residuals(both.lic, x)
        rvar_residuals(fit, x)
        assert calls == []


class TestSvarResiduals:
    def test_identity_model_returns_current_samples(self):
        x = np.random.default_rng(3).standard_normal((2, 8))
        m = SvarCoefficients(L=np.eye(2), R=(np.zeros((2, 2)),), t=[0.0, 0.0])
        assert np.array_equal(svar_residuals(m, x), x[:, 1:])

    def test_linear_in_signal_when_intercept_zero(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 30))
        m = SvarCoefficients(
            L=np.tril(rng.standard_normal((2, 2))) + 3 * np.eye(2),
            R=(rng.standard_normal((2, 2)),),
        )
        np.testing.assert_allclose(
            svar_residuals(m, 2.5 * x), 2.5 * svar_residuals(m, x),
            rtol=1e-13, atol=0)

    def test_round_trip_reproduces_injected_noise(self):
        model = random_stable_svar(3, 2, seed=6, target_radius=0.7)
        x, noise = simulate_series(model, 400, seed=7, return_noise=True)
        w = svar_residuals(model, x)
        np.testing.assert_allclose(w, noise[:, 2:], rtol=0, atol=1e-10)

    def test_branch_mismatch(self):
        m = SvarCoefficients(L=np.eye(2))
        with pytest.raises(DimensionMismatch):
            svar_residuals(m, np.ones((3, 5)))

    def test_matches_per_lag_definition_complex(self):
        rng = np.random.default_rng(9)
        m, k, n = 3, 3, 40

        def draw(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        x = draw(m, n)
        model = SvarCoefficients(L=np.tril(draw(m, m), -1) + 2 * np.eye(m),
                                 R=tuple(draw(m, m) for _ in range(k)), t=draw(m))
        direct = model.L @ x[:, k:] - model.t[:, None]
        for i, r in enumerate(model.R, 1):
            direct = direct - r @ x[:, k - i:n - i]
        np.testing.assert_allclose(svar_residuals(model, x), direct,
                                   rtol=1e-12, atol=1e-12)

    def test_real_mixing_complex_lag(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 30))
        r1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        model = SvarCoefficients(L=np.tril(rng.standard_normal((2, 2)), -1) + 2 * np.eye(2),
                                 R=(r1,), t=rng.standard_normal(2))
        direct = model.L @ x[:, 1:] - model.t[:, None] - r1 @ x[:, :-1]
        np.testing.assert_allclose(svar_residuals(model, x), direct,
                                   rtol=1e-12, atol=1e-12)


class TestRvarResiduals:
    def test_zero_model_returns_current_samples(self):
        x = np.random.default_rng(5).standard_normal((2, 9))
        m = RvarCoefficients(c=[0.0, 0.0], A=(np.zeros((2, 2)),))
        assert np.array_equal(rvar_residuals(m, x), x[:, 1:])

    def test_matches_definition(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 20))
        a1 = rng.standard_normal((2, 2))
        c = rng.standard_normal(2)
        m = RvarCoefficients(c=c, A=(a1,))
        direct = x[:, 1:] - c[:, None] - a1 @ x[:, :-1]
        np.testing.assert_allclose(rvar_residuals(m, x), direct,
                                   rtol=1e-13, atol=1e-14)

    def test_real_intercept_complex_lag(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 20))
        a1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        c = rng.standard_normal(2)
        direct = x[:, 1:] - c[:, None] - a1 @ x[:, :-1]
        np.testing.assert_allclose(rvar_residuals(RvarCoefficients(c=c, A=(a1,)), x),
                                   direct, rtol=1e-13, atol=1e-14)


class TestCompanion:
    def test_zero_lags_radius_zero(self):
        m = RvarCoefficients(c=[0.0, 0.0], A=(np.zeros((2, 2)),))
        assert companion_spectral_radius(m) == 0.0

    def test_no_lags_radius_zero(self):
        assert companion_spectral_radius(SvarCoefficients(L=np.eye(2))) == 0.0

    def test_scalar_ar1(self):
        m = RvarCoefficients(c=0.0, A=(np.array([[0.5]]),))
        assert companion_spectral_radius(m) == pytest.approx(0.5, abs=1e-12)

    def test_scalar_ar2_quadratic_root(self):
        # largest root of z^2 = 0.5 z + 0.3, i.e. (0.5 + sqrt(1.45)) / 2
        m = RvarCoefficients(c=0.0, A=(np.array([[0.5]]), np.array([[0.3]])))
        assert companion_spectral_radius(m) == pytest.approx(
            0.8520797289396147, abs=1e-12)

    def test_svar_uses_implied_reduced_form(self):
        # L = 2I with R_1 = 2 * 0.5 I implies A_1 = 0.5 I
        m = SvarCoefficients(L=2 * np.eye(2), R=(np.eye(2),), t=[0.0, 0.0])
        assert companion_spectral_radius(m) == pytest.approx(0.5, abs=1e-12)

    def test_companion_matrix_layout(self):
        a1 = np.array([[1.0, 2.0], [3.0, 4.0]])
        a2 = np.array([[5.0, 6.0], [7.0, 8.0]])
        comp = companion_matrix((a1, a2))
        assert comp.shape == (4, 4)
        assert np.array_equal(comp[:2, :2], a1)
        assert np.array_equal(comp[:2, 2:], a2)
        assert np.array_equal(comp[2:, :2], np.eye(2))
        assert np.array_equal(comp[2:, 2:], np.zeros((2, 2)))

    def test_companion_matrix_of_one_lag_is_the_lag(self):
        a1 = np.array([[1.0, 2.0], [3.0, 4j]])
        comp = companion_matrix((a1,))
        assert comp.dtype == a1.dtype and np.array_equal(comp, a1)

    def test_companion_requires_a_lag(self):
        with pytest.raises(ValueError):
            companion_matrix(())
