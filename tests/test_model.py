"""Model-layer tests: containers, regressor stacking, residuals, stability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svarlic.exceptions import DimensionMismatch, NumericalOverflow, OrderTooLarge
from svarlic.model import (
    RvarCoefficients,
    SvarCoefficients,
    _lag_covariance_gram,
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

    @pytest.mark.parametrize("m,k,n", [(1, 2, 9), (2, 1, 8), (3, 3, 20)])
    def test_top_rows_are_s(self, m, k, n):
        # One row layout: T is S with the current samples appended.
        x = np.random.default_rng(2).standard_normal((m, n))
        assert np.array_equal(build_regressor_t(x, k)[:m * k + 1], build_regressor_s(x, k))


class TestLagCovarianceGram:
    """The structured ``T T^H`` from lag products against the dense product
    of the stacked T, at sizes the routes would send to the dense form."""

    @staticmethod
    def check(x, k):
        t = build_regressor_t(x, k)
        dense = t @ t.conj().T
        g = _lag_covariance_gram(x, k)
        assert g.dtype == dense.dtype
        assert np.abs(g - dense).max() <= 1e-13 * np.abs(dense).max()
        assert np.array_equal(g, g.conj().T)
        assert np.all(g.diagonal().imag == 0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(m=st.integers(1, 5), k=st.integers(0, 6), complex_field=st.booleans(),
           seed=st.integers(0, 2**31), data=st.data())
    def test_matches_dense_product(self, m, k, complex_field, seed, data):
        q = m * (k + 1) + 1
        n = k + data.draw(st.integers(q, 4 * q))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, n))
        if complex_field:
            x = x + 1j * rng.standard_normal((m, n))
        self.check(x, k)

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("m,k,n", [(1, 6, 7), (2, 6, 10), (3, 4, 5), (5, 3, 5), (2, 2, 3)])
    def test_series_shorter_than_twice_the_order(self, m, k, n, complex_field):
        # The head and tail edge samples overlap once N < 2K.
        rng = np.random.default_rng(n)
        x = rng.standard_normal((m, n))
        if complex_field:
            x = x + 1j * rng.standard_normal((m, n))
        self.check(x, k)

    def test_overflow_raises_without_warnings(self):
        x = np.random.default_rng(3).standard_normal((2, 40)) * 1e160
        with pytest.raises(NumericalOverflow, match="overflows"):
            _lag_covariance_gram(x, 2)


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

    def test_companion_requires_a_lag(self):
        with pytest.raises(ValueError):
            companion_matrix(())
