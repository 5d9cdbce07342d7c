"""Estimator tests: the least-squares route, the whitening conversion, the
direct inverse-Cholesky route, and the equivalence between them.
"""

import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from svarlic import linalg, model
from svarlic.estimators import (
    coefficient_discrepancy,
    fit_both,
    fit_rvar_ls,
    fit_svar_lic,
    rvar_to_svar,
)
from svarlic.exceptions import (
    DimensionMismatch,
    InsufficientSamples,
    NotPositiveDefinite,
    NumericalOverflow,
    OrderTooLarge,
    RankDeficient,
)
from svarlic.linalg import gram_hermitian
from svarlic.model import (
    RvarCoefficients,
    build_regressor_s,
    rvar_residuals,
    whitening_error,
)
from svarlic.synthetic import random_stable_svar, simulate_series


def stable_series(m, k, n, seed, radius=0.8, complex_field=False):
    model = random_stable_svar(m, k, seed, radius, complex_field=complex_field)
    return simulate_series(model, n, seed=seed + 1000)


def exact_ar1(n, a=0.5, c=1.0, x0=0.0):
    x = np.empty(n)
    x[0] = x0
    for i in range(1, n):
        x[i] = c + a * x[i - 1]
    return x[None, :]


class TestFitRvarLs:
    def test_exact_ar1_interpolation(self):
        # noise-free recursion x(n) = 1 + 0.5 x(n-1): the overdetermined
        # system is consistent, so the fit interpolates it exactly
        x = exact_ar1(6)
        fit = fit_rvar_ls(x, 1)
        assert fit.c[0] == pytest.approx(1.0, abs=1e-10)
        assert fit.A[0][0, 0] == pytest.approx(0.5, abs=1e-10)
        assert np.abs(fit.V).max() < 1e-12

    def test_ramp_fits_exactly_then_whitening_fails(self):
        x = np.arange(50.0)[None, :]
        fit = fit_rvar_ls(x, 1)
        assert np.abs(fit.V).max() < 1e-9
        with pytest.raises(NotPositiveDefinite):
            rvar_to_svar(fit)

    def test_reconstruction(self):
        x = stable_series(3, 2, 300, seed=0)
        fit = fit_rvar_ls(x, 2)
        stacked = np.hstack([fit.c[:, None], *fit.A])
        recon = stacked @ build_regressor_s(x, 2) + fit.V
        assert (np.linalg.norm(recon - x[:, 2:])
                < 1e-10 * np.linalg.norm(x[:, 2:]))

    def test_residuals_orthogonal_to_regressors(self):
        x = stable_series(2, 1, 200, seed=1)
        fit = fit_rvar_ls(x, 1)
        s = build_regressor_s(x, 1)
        assert (np.linalg.norm(fit.V @ s.conj().T)
                <= 1e-8 * np.linalg.norm(x[:, 1:]) * np.linalg.norm(s))

    def test_stored_residuals_match_recomputation_bitwise(self):
        # Small and dense, above the dense-Gram cut, and complex there.
        for m, k, n, complex_field in [(2, 2, 150, False), (4, 2, 8192, False),
                                       (8, 8, 4096, True)]:
            x = stable_series(m, k, n, seed=2, complex_field=complex_field)
            fit = fit_rvar_ls(x, k)
            assert rvar_residuals(fit, x).tobytes() == fit.V.tobytes()

    def test_insufficient_samples(self):
        x = np.random.default_rng(0).standard_normal((2, 6))
        with pytest.raises(InsufficientSamples, match="N - K"):
            fit_rvar_ls(x, 2)

    def test_order_too_large(self):
        with pytest.raises(OrderTooLarge):
            fit_rvar_ls(np.ones((1, 3)), 3)

    def test_collinear_branches_raise_rank_deficient(self):
        rng = np.random.default_rng(3)
        row = rng.standard_normal(100)
        x = np.vstack([row, row])  # identical branches
        with pytest.raises(RankDeficient):
            fit_rvar_ls(x, 1)


class TestRvarToSvar:
    def test_already_white_residuals(self):
        v = np.hstack([np.eye(2), np.zeros((2, 3))])
        a1 = np.array([[1.0, 2.0], [3.0, 4.0]])
        fit = RvarCoefficients(c=[5.0, 6.0], A=(a1,), V=v)
        out = rvar_to_svar(fit)
        assert np.array_equal(out.L, np.eye(2))
        assert np.array_equal(out.R[0], a1)
        assert np.array_equal(out.t, [5.0, 6.0])

    def test_scalar_closed_form(self):
        v = np.array([[2.0, 1.0, 2.0, 1.0]])  # VV^H = 10
        fit = RvarCoefficients(c=[3.0], A=(np.array([[0.4]]),), V=v)
        out = rvar_to_svar(fit)
        scale = 1.0 / np.sqrt(10.0)
        assert out.L[0, 0] == pytest.approx(scale, rel=1e-15)
        assert out.R[0][0, 0] == pytest.approx(0.4 * scale, rel=1e-15)
        assert out.t[0] == pytest.approx(3.0 * scale, rel=1e-15)

    def test_whitens_residual_gram(self):
        x = stable_series(3, 1, 250, seed=4)
        fit = fit_rvar_ls(x, 1)
        out = rvar_to_svar(fit)
        g = out.L @ gram_hermitian(fit.V) @ out.L.conj().T
        assert np.linalg.norm(g - np.eye(3)) < 1e-9

    def test_requires_residuals(self):
        with pytest.raises(ValueError, match="V"):
            rvar_to_svar(RvarCoefficients(c=[0.0]))

    def test_rank_deficient_residuals(self):
        fit = RvarCoefficients(c=[0.0, 0.0], V=np.ones((2, 5)))
        with pytest.raises(RankDeficient):
            rvar_to_svar(fit)


class TestFitSvarLic:
    def test_ramp_raises_rank_deficient(self):
        x = np.arange(50.0)[None, :]
        with pytest.raises(RankDeficient, match="singular"):
            fit_svar_lic(x, 1)

    def test_matches_ls_pipeline(self):
        x = stable_series(1, 1, 512, seed=5)
        lic = fit_svar_lic(x, 1)
        ls = rvar_to_svar(fit_rvar_ls(x, 1))
        assert coefficient_discrepancy(ls, lic) < 1e-8

    def test_whitening_identity(self):
        x = stable_series(2, 2, 400, seed=6)
        assert whitening_error(fit_svar_lic(x, 2), x) < 1e-8

    def test_triangular_output(self):
        x = stable_series(3, 1, 300, seed=7)
        out = fit_svar_lic(x, 1)
        assert np.all(np.triu(out.L, 1) == 0)
        assert np.all(out.L.diagonal().real > 0)

    def test_insufficient_samples_stricter_than_ls(self):
        # N - K = 6 samples: enough for least squares (needs 5) but not
        # for the direct route (needs 7) at M = 2, K = 2
        x = np.random.default_rng(8).standard_normal((2, 8))
        fit_rvar_ls(x, 2)
        with pytest.raises(InsufficientSamples, match="N - K"):
            fit_svar_lic(x, 2)

    def test_order_too_large(self):
        with pytest.raises(OrderTooLarge):
            fit_svar_lic(np.ones((1, 2)), 2)

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("k", [0, 1, 2, 4])
    def test_matches_paper_layout(self, k, complex_field):
        # The paper's reading: T stacked oldest lag first, the full inverse
        # of its Gram's Cholesky factor, and R_i from lag block K-i+1.
        m, n = 3, 600
        x = stable_series(m, k, n, seed=11, complex_field=complex_field)
        t = np.vstack([np.ones((1, n - k)), *(x[:, j:n - k + j] for j in range(k + 1))])
        u = np.linalg.inv(np.linalg.cholesky(t @ t.conj().T))
        bottom = u[m * k + 1:]
        fit = fit_svar_lic(x, k)

        def close(got, want):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

        close(fit.L, bottom[:, m * k + 1:])
        close(fit.t, -bottom[:, 0])
        for i, r in enumerate(fit.R, 1):
            j = k - i + 1
            close(r, -bottom[:, (j - 1) * m + 1:j * m + 1])


class TestGramOverflow:
    def test_fit_both_raises_numerical_overflow_without_warnings(self):
        x = stable_series(2, 1, 256, seed=9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalOverflow, match="overflows"):
                fit_both(x * 1e160, 1)


def rebind(monkeypatch, original, replacement):
    """Point every `svarlic` module attribute bound to `original` (the
    package imports its kernels by name) at `replacement`."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "svarlic" or module_name.startswith("svarlic."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


ROUTES = {
    "lic": fit_svar_lic,
    "ls": lambda x, k: rvar_to_svar(fit_rvar_ls(x, k)),
    "both": fit_both,
}


class TestNonFiniteSignal:
    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_raises_value_error(self, route, bad, field):
        x = stable_series(2, 1, 64, seed=11)
        if field == "complex":
            x = x.astype(np.complex128)
            x[1, 5] = complex(1.0, bad)
        else:
            x[1, 5] = bad
        with pytest.raises(ValueError, match="signal contains non-finite entries"):
            ROUTES[route](x, 1)


class TestSignalCheckedOnce:
    """Finiteness passes over arrays with at least N - K columns: the
    signal once per route, `fit_both` included, and the residuals once,
    through `RvarCoefficients`; never the stacked regressors T or S."""

    @pytest.fixture
    def checked(self, monkeypatch):
        seen = []
        original = linalg.as_matrix

        def spy(a, name="matrix"):
            seen.append(a)
            return original(a, name)

        rebind(monkeypatch, original, spy)
        return seen

    @pytest.mark.parametrize("route, passes", [("lic", 1), ("ls", 2), ("both", 2)])
    def test_passes_per_route(self, checked, route, passes):
        m, k, n = 2, 2, 200
        x = stable_series(m, k, n, seed=12)
        ROUTES[route](x, k)
        shapes = [np.shape(a) for a in checked]
        assert sum(shape[1] >= n - k for shape in shapes) == passes
        assert sum(a is x for a in checked) == 1
        assert (m * (k + 1) + 1, n - k) not in shapes  # T
        assert (m * k + 1, n - k) not in shapes  # S
        assert shapes.count((m, n - k)) == (0 if route == "lic" else 1)  # V

    def test_rvar_residuals_scans_signal_once(self, checked):
        x = stable_series(2, 2, 200, seed=12)
        fit = fit_rvar_ls(x, 2)
        checked.clear()
        rvar_residuals(fit, x)
        assert [np.shape(a) for a in checked] == [x.shape]


def structured_series(m, k, n, seed, complex_field=False):
    """A stable series large enough that the routes form ``T T^H`` from lag
    products rather than from a stacked T."""
    q = m * (k + 1) + 1
    assert q * q * (n - k) >= model._DENSE_GRAM_WORK
    return stable_series(m, k, n, seed, complex_field=complex_field)


class TestStructuredGramRoutes:
    """The routes at sizes above `model._DENSE_GRAM_WORK`, which the small
    grids elsewhere never reach."""

    @pytest.mark.parametrize("m,k,complex_field", [(4, 2, False), (3, 3, True)])
    def test_equivalence_and_whitening(self, m, k, complex_field):
        x = structured_series(m, k, 8192, seed=21, complex_field=complex_field)
        result = fit_both(x, k)
        assert result.discrepancy < 1e-8
        assert whitening_error(result.ls, x) < 1e-8
        assert whitening_error(result.lic, x) < 1e-8
        lic = fit_svar_lic(x, k)
        assert coefficient_discrepancy(result.lic, lic) == 0.0

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("branch", ["ramp", "constant"])
    def test_collinear_branch_raises_rank_deficient(self, route, branch):
        x = structured_series(4, 2, 8192, seed=22)
        x[3] = np.arange(8192.0) if branch == "ramp" else 3.0
        with pytest.raises(RankDeficient, match="singular"):
            ROUTES[route](x, 2)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_overflow_raises_without_warnings(self, route, complex_field):
        x = structured_series(4, 2, 8192, seed=23, complex_field=complex_field)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalOverflow, match="overflows"):
                ROUTES[route](x * 1e160, 2)

    @pytest.mark.parametrize("route, n, message", [
        ("ls", 105, "least squares needs N - K >= M*K + 1; "
                    "got N-K=100 < 101 for M=20, K=5"),
        ("both", 105, "least squares needs N - K >= M*K + 1; "
                      "got N-K=100 < 101 for M=20, K=5"),
        ("lic", 115, "direct route needs N - K >= M*(K+1) + 1; "
                     "got N-K=110 < 121 for M=20, K=5"),
    ])
    def test_insufficient_samples_message(self, route, n, message):
        x = np.random.default_rng(24).standard_normal((20, n))
        assert 121 ** 2 * (n - 5) >= model._DENSE_GRAM_WORK
        with pytest.raises(InsufficientSamples) as info:
            ROUTES[route](x, 5)
        assert str(info.value) == message


class TestGramWork:
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_lic_peak_memory_below_t(self, complex_field):
        m, k, n = 8, 8, 4096
        x = structured_series(m, k, n, seed=25, complex_field=complex_field)
        t_bytes = (m * (k + 1) + 1) * (n - k) * x.itemsize
        tracemalloc.start()
        try:
            fit_svar_lic(x, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < t_bytes

    @pytest.mark.parametrize("route", ["ls", "both"])
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_ls_peak_memory_below_s(self, route, complex_field):
        # The residuals come from lag slices of the signal, not from S.
        m, k, n = 8, 8, 4096
        x = structured_series(m, k, n, seed=25, complex_field=complex_field)
        s_bytes = (m * k + 1) * (n - k) * x.itemsize
        tracemalloc.start()
        try:
            ROUTES[route](x, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < s_bytes

    @pytest.mark.parametrize("m,k,n", [(2, 2, 200), (4, 2, 8192)])
    def test_fit_both_forms_one_regressor_gram(self, monkeypatch, m, k, n):
        # One q x q Gram for both routes and the M x M residual Gram;
        # no separate S S^H.
        shapes = []

        def spying(original):
            def spy(*args):
                g = original(*args)
                shapes.append(g.shape)
                return g
            return spy

        for original in (linalg.gram_hermitian, model._lag_covariance_gram):
            rebind(monkeypatch, original, spying(original))
        fit_both(stable_series(m, k, n, seed=26), k)
        q = m * (k + 1) + 1
        assert sorted(shapes) == sorted([(q, q), (m, m)])


class TestRegressorStacks:
    """Only the dense Gram stacks a regressor: fits and residuals evaluate
    lag by lag on slices of the signal and never stack S."""

    @pytest.fixture
    def stacks(self, monkeypatch):
        shapes = []
        original = model._stack_regressor

        def spy(x, k, direct):
            stack = original(x, k, direct)
            shapes.append(stack.shape)
            return stack

        rebind(monkeypatch, original, spy)
        return shapes

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_no_stack_above_the_dense_cut(self, stacks, complex_field):
        k = 2
        x = structured_series(4, k, 8192, seed=27, complex_field=complex_field)
        fit = fit_rvar_ls(x, k)
        svar = fit_both(x, k).ls
        rvar_residuals(fit, x)
        model.svar_residuals(svar, x)
        assert stacks == []

    def test_dense_fit_both_stacks_t_once(self, stacks):
        m, k, n = 3, 2, 256
        fit_both(stable_series(m, k, n, seed=28), k)
        assert stacks == [(m * (k + 1) + 1, n - k)]


class TestBlockTriangularSolves:
    """Fits whose factors exceed `linalg._SOLVE_BLOCK`, so that the bottom
    rows, the whitening mixing matrix and the least-squares solve go
    through the recursive block division."""

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_mixing_matrix_above_the_block(self, complex_field):
        m = linalg._SOLVE_BLOCK + 6
        x = stable_series(m, 1, 600, seed=31, complex_field=complex_field)
        result = fit_both(x, 1)
        assert result.discrepancy < 1e-8
        assert whitening_error(result.ls, x) < 1e-8
        assert whitening_error(result.lic, x) < 1e-8

    def test_no_lu_solve_above_the_block(self, monkeypatch):
        m, k = 16, 4  # q = 81 and p = 65 both exceed the block
        orders = []
        original = np.linalg.solve

        def spy(a, b):
            orders.append(np.shape(a)[0])
            return original(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        fit_both(stable_series(m, k, 2048, seed=32), k)
        assert orders and max(orders) <= linalg._SOLVE_BLOCK

    @pytest.mark.parametrize("route", ["lic", "ls"])
    def test_failing_pivot_reuses_the_passing_factor(self, monkeypatch, route):
        # Branch 69 repeats branch 3, so the first failing pivot is the
        # last lag-1 row, index 70, of a Gram above the block.
        x = stable_series(linalg._SOLVE_BLOCK + 6, 1, 600, seed=31)
        x[69] = x[3]
        solved, factored = [], []
        solve, cholesky = np.linalg.solve, np.linalg.cholesky

        def solve_spy(a, b):
            solved.append(np.shape(a)[0])
            return solve(a, b)

        def cholesky_spy(a):
            factored.append(np.shape(a)[0])
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "solve", solve_spy)
        monkeypatch.setattr(np.linalg, "cholesky", cholesky_spy)
        fit = fit_svar_lic if route == "lic" else fit_rvar_ls
        with pytest.raises(RankDeficient, match="at index 70 "):
            fit(x, 1)
        assert solved and max(solved) <= linalg._SOLVE_BLOCK
        assert sorted(set(factored)) == sorted(factored)


class TestEquivalence:
    @pytest.mark.parametrize("m,k", [(1, 0), (1, 2), (2, 1), (2, 2), (3, 1), (4, 3)])
    def test_grid(self, m, k):
        n = 64 * (m * (k + 1) + 1)
        x = stable_series(m, k, n, seed=100 + 10 * m + k)
        result = fit_both(x, k)
        assert result.discrepancy < 1e-8

    @pytest.mark.parametrize("m,k", [(1, 1), (2, 2), (3, 1)])
    def test_grid_complex_field(self, m, k):
        n = 64 * (m * (k + 1) + 1)
        x = stable_series(m, k, n, seed=200 + 10 * m + k, complex_field=True)
        result = fit_both(x, k)
        assert result.discrepancy < 1e-8
        assert np.all(result.lic.L.diagonal().imag == 0)

    def test_whitening_both_paths(self):
        x = stable_series(2, 1, 300, seed=9)
        result = fit_both(x, 1)
        assert whitening_error(result.ls, x) < 1e-8
        assert whitening_error(result.lic, x) < 1e-8

    def test_scale_equivariance(self):
        # x -> gamma x maps L -> L/gamma, R_i -> R_i/gamma, t -> t: the
        # ones row of the regressors is unscaled while signal rows scale
        gamma = 3.5
        x = stable_series(2, 2, 400, seed=10)
        base = fit_svar_lic(x, 2)
        scaled = fit_svar_lic(gamma * x, 2)
        np.testing.assert_allclose(scaled.L, base.L / gamma, rtol=1e-9)
        for rs, rb in zip(scaled.R, base.R):
            np.testing.assert_allclose(rs, rb / gamma, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(scaled.t, base.t, rtol=1e-9, atol=1e-12)

    def test_k0_pure_whitening(self):
        x = stable_series(3, 0, 200, seed=11)
        result = fit_both(x, 0)
        assert result.lic.order == 0
        assert result.discrepancy < 1e-10
        assert whitening_error(result.lic, x) < 1e-8

    def test_purity_same_input_identical_output(self):
        x = stable_series(2, 1, 150, seed=12)
        r1 = fit_both(x, 1)
        r2 = fit_both(x.copy(), 1)
        assert r1.lic.L.tobytes() == r2.lic.L.tobytes()
        assert r1.ls.L.tobytes() == r2.ls.L.tobytes()
        assert r1.discrepancy == r2.discrepancy

    def test_near_singular_never_silently_disagrees(self):
        # a branch duplicated up to 1e-14 jitter: either route may fail
        # outright, but a silent pair of answers must agree or be flagged
        # by the reported discrepancy
        rng = np.random.default_rng(13)
        base = stable_series(1, 1, 300, seed=14)
        x = np.vstack([base, base + 1e-14 * rng.standard_normal(base.shape)])
        try:
            result = fit_both(x, 1)
        except NotPositiveDefinite:
            return
        assert (result.discrepancy < 1e-8
                or result.discrepancy > 1e-4
                or not np.isfinite(result.discrepancy))


class TestDiscrepancyMetric:
    def test_zero_for_identical_models(self):
        x = stable_series(2, 1, 200, seed=15)
        m = fit_svar_lic(x, 1)
        assert coefficient_discrepancy(m, m) == 0.0

    def test_unit_floor_guards_small_intercepts(self):
        from svarlic.model import SvarCoefficients
        a = SvarCoefficients(L=np.eye(1), t=[0.0])
        b = SvarCoefficients(L=np.eye(1), t=[1e-9])
        assert coefficient_discrepancy(a, b) == pytest.approx(1e-9)

    def test_mismatched_models_rejected(self):
        from svarlic.model import SvarCoefficients
        a = SvarCoefficients(L=np.eye(1))
        b = SvarCoefficients(L=np.eye(2))
        with pytest.raises(DimensionMismatch):
            coefficient_discrepancy(a, b)
