"""Estimator tests: the least-squares route, the whitening conversion, the
direct inverse-Cholesky route, and the equivalence between them.
"""

import dataclasses
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svarlic import estimators, linalg, model
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
    SvarCoefficients,
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

    def test_small_residuals_are_kept_relative_to_the_signal(self):
        # The flush compares the residuals with the signal's own norm, not
        # with a fixed scale: residuals of 1e-13 from a signal of 1e-13 stay.
        x = np.random.default_rng(31).standard_normal((2, 200)) * 1e-13
        fit = fit_rvar_ls(x, 0)
        np.testing.assert_allclose(fit.V, x - x.mean(axis=1, keepdims=True),
                                   rtol=1e-12, atol=0)

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
        # T stacked whole, and past the cut where it is (structured), real
        # and complex.
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

    def test_overflowing_rescale_raises_numerical_overflow(self):
        # L is about 4.1e9, so R_1 = L A_1 does not fit in double precision.
        fit = RvarCoefficients(c=[0.0], A=(np.array([[1e300]]),),
                               V=np.array([[1e-10, -1e-10, 2e-10]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalOverflow, match="overflow"):
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

    def test_fit_both_checks_both_sample_rules_before_the_gram(self, monkeypatch):
        # N - K = 8 samples: enough for least squares (needs 7) but not for
        # the direct route (needs 10) at M = 3, K = 2. fit_both fails at the
        # door with the direct route's message and forms no Gram.
        x = np.random.default_rng(8).standard_normal((3, 10))
        calls = []
        original = model._regressor_gram

        def spy(*args):
            calls.append(args)
            return original(*args)

        rebind(monkeypatch, original, spy)
        with pytest.raises(InsufficientSamples) as expected:
            fit_svar_lic(x, 2)
        with pytest.raises(InsufficientSamples) as info:
            fit_both(x, 2)
        assert str(info.value) == str(expected.value)
        assert calls == []

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


def raises_non_finite(route, x, k):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="signal contains non-finite entries"):
            ROUTES[route](x, k)


class TestNonFiniteSignal:
    """The fits do not scan the signal: a non-finite sample makes the
    regressor Gram non-finite, and its check names the signal."""

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

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(route=st.sampled_from(sorted(ROUTES)), m=st.integers(1, 3), k=st.integers(1, 3),
           complex_field=st.booleans(), imaginary=st.booleans(),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]),
           width=st.one_of(st.none(), st.integers(1, 9)), data=st.data())
    def test_one_entry_anywhere_raises_value_error(self, chunks, route, m, k, complex_field,
                                                   imaginary, bad, width, data):
        # Dense Gram (width None) or structured with chunks of 1..9 samples.
        # The entry goes in either part of a complex sample, at a random
        # sample or one of: the first K, the last, either side of a chunk
        # boundary.
        n = 40
        x = stable_series(m, k, n, seed=32, complex_field=complex_field)
        edges = {0, k - 1, n - 1}
        if width is not None:
            count = -(-(n - k) // width)
            for i in range(count):
                bound = k + i * (n - k) // count
                edges |= {bound - 1, bound}
        sample = data.draw(st.one_of(st.sampled_from(sorted(edges)), st.integers(0, n - 1)))
        row = data.draw(st.integers(0, m - 1))
        if complex_field:
            z = x[row, sample]
            x[row, sample] = complex(z.real, bad) if imaginary else complex(bad, z.imag)
        else:
            x[row, sample] = bad
        with chunks(width):
            raises_non_finite(route, x, k)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("width", [None, 4])
    def test_infinity_among_zeros(self, chunks, route, width):
        # Every product of the infinity with another sample is inf * 0 = NaN;
        # its own square keeps a diagonal entry infinite.
        x = np.zeros((2, 40))
        x[1, 17] = np.inf
        with chunks(width):
            raises_non_finite(route, x, 2)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_finite_overflow_in_chunks_stays_numerical_overflow(self, chunks, route,
                                                                 complex_field):
        x = stable_series(2, 2, 64, seed=33, complex_field=complex_field)
        with chunks(5), warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalOverflow, match="overflows"):
                ROUTES[route](x * 1e160, 2)


class TestSignalCheckedOnce:
    """Finiteness passes over arrays with at least N - K columns: none in
    the fits, whose Gram check covers every sample; the signal once in the
    residual routines; never the residuals `V`, which the fit hands on
    unchecked, nor the stacked regressors T or S."""

    @pytest.fixture
    def checked(self, monkeypatch):
        seen = []
        original = linalg.as_matrix

        def spy(a, name="matrix"):
            seen.append(a)
            return original(a, name)

        rebind(monkeypatch, original, spy)
        return seen

    @pytest.mark.parametrize("route, passes", [("lic", 0), ("ls", 0), ("both", 0)])
    def test_passes_per_route(self, checked, route, passes):
        m, k, n = 2, 2, 200
        x = stable_series(m, k, n, seed=12)
        ROUTES[route](x, k)
        shapes = [np.shape(a) for a in checked]
        assert sum(shape[1] >= n - k for shape in shapes) == passes
        assert sum(a is x for a in checked) == passes
        assert (m * (k + 1) + 1, n - k) not in shapes  # T
        assert (m * k + 1, n - k) not in shapes  # S
        assert shapes.count((m, n - k)) == 0  # V

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("width", [None, 64])
    def test_fits_make_no_scan(self, checked, chunks, route, width):
        # Dense Gram (width None) or structured in chunks of 64 samples: the
        # Gram check reads the signal's finiteness, and `cholesky_lower`
        # reads each Gram's off its pivots.
        x = stable_series(2, 2, 200, seed=12)
        with chunks(width):
            ROUTES[route](x, 2)
        assert checked == []

    def test_rvar_residuals_scans_signal_once(self, checked):
        x = stable_series(2, 2, 200, seed=12)
        fit = fit_rvar_ls(x, 2)
        checked.clear()
        rvar_residuals(fit, x)
        assert [np.shape(a) for a in checked] == [x.shape]


def stacks_t_whole(m, k, n):
    """Whether `model._regressor_gram` stacks T whole for an M x N signal at
    order K: where T's q (N-K) entries fit in the M-row buffer of the
    widest chunk of an M-branch pass."""
    return (m * (k + 1) + 1) * (n - k) <= m * linalg._chunk_width(m)


def structured_series(m, k, n, seed, complex_field=False):
    """A stable series large enough that the routes form ``T T^H`` from lag
    products rather than from a stacked T."""
    assert not stacks_t_whole(m, k, n)
    return stable_series(m, k, n, seed, complex_field=complex_field)


class TestStructuredGramRoutes:
    """The routes at sizes where T does not fit the chunk buffer, so that
    the Gram is formed from lag products, sizes which the small grids
    elsewhere reach only under the `chunks` fixture."""

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
        ("ls", 250, "least squares needs N - K >= M*K + 1; "
                    "got N-K=240 < 241 for M=24, K=10"),
        ("both", 250, "least squares needs N - K >= M*K + 1; "
                      "got N-K=240 < 241 for M=24, K=10"),
        ("lic", 274, "direct route needs N - K >= M*(K+1) + 1; "
                     "got N-K=264 < 265 for M=24, K=10"),
    ])
    def test_insufficient_samples_message(self, route, n, message):
        x = np.random.default_rng(24).standard_normal((24, n))
        assert not stacks_t_whole(24, 10, n)
        with pytest.raises(InsufficientSamples) as info:
            ROUTES[route](x, 10)
        assert str(info.value) == message


class TestGramWork:
    def test_lic_peak_memory_below_a_signal_mask(self):
        # The chunk buffer stays below the M x N bool mask a scan of the
        # signal at the door would allocate (256 KiB here).
        m, k, n = 4, 2, 65536
        x = stable_series(m, k, n, seed=34)
        tracemalloc.start()
        try:
            fit_svar_lic(x, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * n

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

    def test_fit_both_never_allocates_v(self):
        # The least-squares half sums V V^H chunk by chunk: its peak stays
        # below the M x (N-K) array of V, and within the direct route's,
        # whose Gram pass fit_both also makes: a chunk of residuals and
        # its product buffer take no more than the Gram's chunk buffer.
        m, k, n = 4, 2, 65536
        x = stable_series(m, k, n, seed=36)
        peaks = []
        for fit in (fit_both, fit_svar_lic):
            tracemalloc.start()
            try:
                fit(x, k)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < m * (n - k) * 8
        assert peaks[0] <= peaks[1]

    def test_wide_ls_holds_neither_the_gram_nor_a_second_v(self):
        # The Gram is freed before V is formed, and the per-lag residual
        # pass, which no chunk cuts at M > 22, runs its products through
        # one buffer of a block, here half of V. The Gram or a V-sized
        # product buffer beside V would break the bound.
        m, k, n = 64, 8, 8192
        x = np.random.default_rng(39).standard_normal((m, n))
        gram_bytes = (m * (k + 1) + 1) ** 2 * 8
        v_bytes = m * (n - k) * 8
        tracemalloc.start()
        try:
            rvar_to_svar(fit_rvar_ls(x, k))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < gram_bytes + v_bytes

    def test_fit_both_never_holds_v_where_no_chunk_cuts_the_window(self):
        # At M > 22 V V^H is summed over blocks of at most _CHUNK_SAMPLES
        # samples, three of 6144 here: a block of residuals and a block of
        # products, below the M x (N-K) array of V.
        m, k, n = 24, 1, 18433
        x = np.random.default_rng(40).standard_normal((m, n))
        assert not linalg._chunk_bounds(m, n, k, x.dtype)[1]
        tracemalloc.start()
        try:
            fit_both(x, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * (n - k) * 8

    def test_lic_frees_the_gram_before_the_division(self, monkeypatch):
        # When the bottom rows of the inverse factor are solved for, the
        # factor is the one Gram-sized array held; T T^H beside it would
        # make two.
        m, k, n = 64, 8, 8192
        x = np.random.default_rng(41).standard_normal((m, n))
        gram_bytes = (m * (k + 1) + 1) ** 2 * 8
        held = []
        original = estimators._inverse_bottom_rows

        def spy(c, rows):
            held.append(tracemalloc.get_traced_memory()[0])
            return original(c, rows)

        monkeypatch.setattr(estimators, "_inverse_bottom_rows", spy)
        tracemalloc.start()
        try:
            fit_svar_lic(x, k)
        finally:
            tracemalloc.stop()
        assert len(held) == 1 and held[0] < 1.5 * gram_bytes

    def test_fit_both_peaks_at_the_direct_routes_floor(self):
        # T T^H is factored and freed before the direct route's division,
        # and the factor before the residual pass, so the peak is the
        # factor step's Gram and factor. T T^H held through the residual
        # pass and the division read 6.88 MiB here.
        m, k, n = 64, 8, 8192
        x = np.random.default_rng(42).standard_normal((m, n))
        gram_bytes = (m * (k + 1) + 1) ** 2 * 8
        tracemalloc.start()
        try:
            fit_both(x, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * gram_bytes + 2**19

    @pytest.mark.parametrize("m,k,n", [(2, 2, 200), (4, 2, 8192)])
    def test_fit_both_forms_one_regressor_gram(self, monkeypatch, m, k, n):
        # One q x q Gram for both routes and the M x M residual Gram;
        # no separate S S^H. Every Gram is made Hermitian by one step.
        shapes = []
        original = linalg._finish_gram

        def spy(g, *args):
            shapes.append(g.shape)
            return original(g, *args)

        rebind(monkeypatch, original, spy)
        fit_both(stable_series(m, k, n, seed=26), k)
        q = m * (k + 1) + 1
        assert sorted(shapes) == sorted([(q, q), (m, m)])


class TestRegressorStacks:
    """Only the Grams stack a whole regressor: the dense Gram stacks T, the
    structured Gram one 3K-column stack for its edge terms. No fit or
    residual pass stacks T or S, not even one chunk at a time: the
    residuals take one product per lag."""

    @pytest.fixture
    def stacks(self, monkeypatch):
        shapes = []
        original = model._stack_regressor

        def spy(*args, **kwargs):
            stack = original(*args, **kwargs)
            shapes.append(stack.shape)
            return stack

        rebind(monkeypatch, original, spy)
        return shapes

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_no_stack_above_the_dense_cut(self, stacks, complex_field):
        m, k, n = 4, 2, 8192
        x = structured_series(m, k, n, seed=27, complex_field=complex_field)
        assert linalg._chunk_bounds(m, n, k, x.dtype)[1]
        fit = fit_rvar_ls(x, k)
        svar = fit_both(x, k).ls
        rvar_residuals(fit, x)
        model.svar_residuals(svar, x)
        # One edge stack for each of the two Grams formed, and none in
        # the four residual passes: V, fit_both's V V^H and the two
        # residual routines.
        assert stacks == [(m * (k + 1) + 1, 3 * k)] * 2

    def test_dense_fit_both_stacks_t_once(self, stacks):
        m, k, n = 3, 2, 256
        fit_both(stable_series(m, k, n, seed=28), k)
        assert stacks == [(m * (k + 1) + 1, n - k)]


class TestLinalgCallFloor:
    """On a small window each route makes the fewest numpy.linalg calls
    its method needs: one factorization per Gram, one LU solve per
    division, and no norm, so per-call glue cannot creep back unseen."""

    @pytest.mark.parametrize("m, k, n, complex_field", [(3, 2, 256, False), (2, 1, 64, True)])
    @pytest.mark.parametrize("route, counts", [
        ("lic", (1, 1, 0)), ("ls", (2, 2, 0)), ("both", (3, 3, 0))])
    def test_calls_per_route(self, monkeypatch, m, k, n, complex_field, route, counts):
        x = stable_series(m, k, n, seed=35, complex_field=complex_field)
        calls = dict.fromkeys(("cholesky", "solve", "norm"), 0)

        def spying(name, original):
            def spy(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return spy

        for name in calls:
            monkeypatch.setattr(np.linalg, name, spying(name, getattr(np.linalg, name)))
        ROUTES[route](x, k)
        assert tuple(calls.values()) == counts


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


class TestOneFactorStep:
    """Each estimator Gram is factored once, through `estimators._factor`,
    the only caller of `cholesky_lower` in the estimators, and the
    least-squares solve divides by the factor of ``S S^H`` from that step
    without a `solve_hpd` call."""

    @pytest.fixture
    def factored(self, monkeypatch):
        names, callers = [], []
        factor, cholesky = estimators._factor, estimators.cholesky_lower

        def factor_spy(gram, name, cause):
            names.append(name)
            return factor(gram, name, cause)

        def cholesky_spy(h):
            callers.append(sys._getframe(1).f_code.co_name)
            return cholesky(h)

        def solve_spy(h, b):
            raise AssertionError("solve_hpd is off the fit path")

        monkeypatch.setattr(estimators, "_factor", factor_spy)
        monkeypatch.setattr(estimators, "cholesky_lower", cholesky_spy)
        monkeypatch.setattr(linalg, "solve_hpd", solve_spy)
        monkeypatch.setattr(estimators, "solve_hpd", solve_spy, raising=False)
        return names, callers

    SSH, VVH, TTH = ("regressor Gram matrix SS^H", "residual Gram matrix VV^H",
                     "stacked Gram matrix TT^H")

    @pytest.mark.parametrize("m, k, n", [(3, 2, 256), (4, 2, 8192), (16, 4, 2048)])
    @pytest.mark.parametrize("route, grams", [
        ("lic", [TTH]), ("ls", [SSH, VVH]), ("both", [SSH, TTH, VVH])])
    def test_each_gram_factored_once(self, factored, route, grams, m, k, n):
        x = stable_series(m, k, n, seed=34)
        fit = {"lic": fit_svar_lic, "both": fit_both,
               "ls": lambda x, k: rvar_to_svar(fit_rvar_ls(x, k))}[route]
        fit(x, k)
        names, callers = factored
        assert names == grams
        assert callers == ["_factor"] * len(grams)

    @pytest.mark.parametrize("m, k", [(9, 7), (8, 8)])  # p = M*K + 1 = 64 and 65
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_ls_block_equals_solve_hpd_bit_for_bit(self, m, k, complex_field):
        x = stable_series(m, k, 1200, seed=35, complex_field=complex_field)
        p = m * k + 1
        gram = model._regressor_gram(x, k)
        fit = fit_rvar_ls(x, k)
        block = np.column_stack([fit.c, *fit.A])
        expected = linalg.solve_hpd(gram[:p, :p], gram[p:, :p])
        assert (block.dtype, block.shape) == (expected.dtype, expected.shape)
        assert block.tobytes() == expected.tobytes()


class TestRankDeficientMessages:
    """The estimator Grams' `RankDeficient` messages, word for word apart
    from the pivot and threshold values, each caused by the kernel's
    `NotPositiveDefinite`."""

    NUMBER = r"-?\d\.\d{3}e[+-]\d+"

    @pytest.mark.parametrize("route, gram, index, cause", [
        ("lic", "stacked Gram matrix TT^H", 2,
         "the signal is deterministic or has collinear branches"),
        ("ls", "regressor Gram matrix SS^H", 2, "the regressors are collinear"),
        ("ramp", "residual Gram matrix VV^H", 0, "residuals are rank deficient"),
        # fit_both factors T T^H before it sums V V^H, so it names the
        # cause the ramp has, as fit_svar_lic(ramp, 1) does.
        ("both-ramp", "stacked Gram matrix TT^H", 2,
         "the signal is deterministic or has collinear branches"),
    ])
    def test_message_and_cause(self, route, gram, index, cause):
        x = stable_series(2, 1, 200, seed=33)
        x[1] = x[0]  # a duplicated branch: T's row 2 repeats row 1
        # Fitted exactly up to rounding: V is flushed to zero, whose Gram
        # fails at index 0. (An integer ramp leaves no rounding to flush.)
        ramp = np.arange(50.0)[None, :] / 3
        fit = {"lic": lambda: fit_svar_lic(x, 1),
               "ls": lambda: fit_rvar_ls(x, 1),
               "ramp": lambda: rvar_to_svar(fit_rvar_ls(ramp, 1)),
               "both-ramp": lambda: fit_both(ramp, 1)}[route]
        with pytest.raises(RankDeficient) as info:
            fit()
        message = str(info.value)
        assert re.fullmatch(
            rf"{re.escape(gram)} is singular \(pivot {self.NUMBER} at index {index} "
            rf"is at or below threshold {self.NUMBER}; matrix is not positive definite\); "
            rf"{re.escape(cause)}", message), message
        assert type(info.value.__cause__) is NotPositiveDefinite
        assert message == f"{gram} is singular ({info.value.__cause__}); {cause}"


class TestResidualFlush:
    @pytest.mark.parametrize("width", [None, 8])
    def test_fit_both_keeps_small_residuals_of_a_small_signal(self, chunks, width):
        # White noise of 1e-13 at K = 0: residuals of 1e-13, whose squares
        # sum to about 8e-25, below an absolute floor of
        # RESIDUAL_FLUSH_RTOL^2 but not below the signal's share of it. The
        # least-squares route whitens them. fit_both's least-squares half,
        # which runs first, keeps them too, so the fit fails only in the
        # direct half, whose pivot rule reads the signal against the ones
        # row. Width 8 cuts fit_both's sum of V V^H into chunks.
        x = 1e-13 * np.random.default_rng(39).standard_normal((2, 40))
        with chunks(width):
            assert whitening_error(rvar_to_svar(fit_rvar_ls(x, 0)), x) < 1e-8
            with pytest.raises(RankDeficient, match=r"^stacked Gram matrix TT\^H"):
                fit_both(x, 0)


def stacked_coefficients(fit, d):
    """``[t | R_1 D .. R_K D | L D]`` for branch scales `d`, the diagonal of D."""
    return np.hstack([fit.t[:, None], *(r * d for r in fit.R), fit.L * d])


class TestBranchScaling:
    """Scaling the branches by ``D = diag(2^e)`` maps ``(L, R_i, t)`` to
    ``(L D^-1, R_i D^-1, t)``: bit for bit on the direct route, whose
    Gram, factor and triangular divisions all commute with power-of-two
    scaling, and to rounding on least squares, whose LU solve of order 64
    or less pivots on magnitudes."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(m=st.integers(1, 3), k=st.integers(0, 3), complex_field=st.booleans(),
           structured=st.booleans(), seed=st.integers(0, 2**31), data=st.data())
    def test_power_of_two_branch_scaling(self, m, k, complex_field, structured, seed, data):
        q = m * (k + 1) + 1
        # N on either side of the cut that stacks T whole; past it, windows
        # of one chunk and of two.
        width = linalg._chunk_width(m)
        n = k + (data.draw(st.integers(m * width // q + 1, 2 * width)) if structured
                 else 16 * q)
        assert stacks_t_whole(m, k, n) != structured
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, n)) + rng.standard_normal((m, 1))
        if complex_field:
            x = x + 1j * rng.standard_normal((m, n))
        e = data.draw(st.lists(st.integers(-8, 8), min_size=m, max_size=m))
        d = np.ldexp(1.0, e)
        scaled_x = x * d[:, None]

        base, scaled = fit_svar_lic(x, k), fit_svar_lic(scaled_x, k)
        assert scaled.L.tobytes() == (base.L / d).tobytes()
        for rs, rb in zip(scaled.R, base.R):
            assert rs.tobytes() == (rb / d).tobytes()
        assert scaled.t.tobytes() == base.t.tobytes()

        expected = stacked_coefficients(ROUTES["ls"](x, k), np.ones(m))
        error = np.linalg.norm(stacked_coefficients(ROUTES["ls"](scaled_x, k), d) - expected)
        assert error <= 1e-12 * np.linalg.norm(expected)


class TestFitBothLeastSquaresHalf:
    """`fit_both` whitens from ``V V^H`` summed chunk by chunk, or block
    by block, without V; its least-squares half agrees with
    ``rvar_to_svar(fit_rvar_ls(x))``: bit for bit where the residuals'
    window is one block, one product per lag over the whole window, so
    both Grams of V are the same product, and to rounding where it is cut
    into chunks or blocks."""

    @staticmethod
    def halves(x, k):
        return fit_both(x, k).ls, rvar_to_svar(fit_rvar_ls(x, k))

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("m,k,n", [(3, 2, 256), (24, 1, 1000), (24, 1, 6145)])
    def test_one_chunk_windows_agree_bit_for_bit(self, m, k, n, complex_field):
        # (3, 2, 256) stacks T whole; (24, 1, 1000) forms the structured
        # Gram, whose window M > 22 never cuts, and (24, 1, 6145) too, on
        # the widest window the residuals take as one block.
        assert linalg._chunk_bounds(m, n, k, np.dtype(float)) == ([k, n], False, False)
        assert n - k <= linalg._CHUNK_SAMPLES
        assert stacks_t_whole(m, k, n) == (m == 3)
        x = stable_series(m, k, n, seed=37, complex_field=complex_field)
        both, ls = self.halves(x, k)
        for a, b in [(both.L, ls.L), (both.t, ls.t), *zip(both.R, ls.R)]:
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_cut_windows_agree_to_rounding(self, complex_field):
        m, k, n = 4, 2, 8192
        assert linalg._chunk_bounds(m, n, k, np.dtype(float))[1]
        both, ls = self.halves(stable_series(m, k, n, seed=38, complex_field=complex_field), k)
        assert coefficient_discrepancy(ls, both) <= 1e-13

    def test_chunked_windows_agree_to_rounding(self, chunks, residual_stacks):
        # Windows of at least twice T's rows, cut into chunks of 1..48 samples.

        @settings(max_examples=60, deadline=None, derandomize=True)
        @given(m=st.integers(1, 3), k=st.integers(0, 3), complex_field=st.booleans(),
               width=st.integers(1, 48), seed=st.integers(0, 2**31), data=st.data())
        def check(m, k, complex_field, width, seed, data):
            q = m * (k + 1) + 1
            n = residual_stacks.window(data, m, k, width, lead=2 * q, most=8)
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((m, n))
            if complex_field:
                x = x + 1j * rng.standard_normal((m, n))
            with chunks(width):
                both, ls = self.halves(x, k)
            assert coefficient_discrepancy(ls, both) <= 1e-13

        check()
        residual_stacks.check()


class TestPerLagBlocks:
    """Where no chunk cuts the window, as at M > 22, the chunk rule returns
    it in near-equal blocks of at most `linalg._CHUNK_SAMPLES` samples,
    here patched to 1 .. 48. The residuals' one-product-per-lag pass walks
    them, and so do the Gram products where the window is complex; a real
    window's Gram products read it whole. The residuals with a mixing
    matrix, and their Gram, take the same blocks."""

    def test_blocked_windows_agree(self):
        seen = []

        @settings(max_examples=50, deadline=None, derandomize=True)
        @given(m=st.integers(23, 26), k=st.integers(0, 2), complex_field=st.booleans(),
               width=st.integers(1, 48), extra=st.integers(0, 96),
               seed=st.integers(0, 2**31))
        def check(m, k, complex_field, width, extra, seed):
            # Windows of at least twice T's rows, so V V^H is well conditioned.
            n = k + 2 * (m * (k + 1) + 1) + extra
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((m, n))
            if complex_field:
                x = x + 1j * rng.standard_normal((m, n))
            mixing = rng.standard_normal((m, m)).astype(x.dtype)
            if complex_field:
                mixing += 1j * rng.standard_normal((m, m))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(linalg, "_CHUNK_SAMPLES", width)
                fit = fit_rvar_ls(x, k)
                assert rvar_residuals(fit, x).tobytes() == fit.V.tobytes()
                both = fit_both(x, k).ls
                gram = model._regressor_gram(x, k)
                mixed = model._residuals(x, k, mixing, fit.c, fit.A)
                mixed_gram = model._residuals(x, k, mixing, fit.c, fit.A, gram=True)
            seen.append(-(-(n - k) // width))
            # Under the patch a complex window's Gram is summed over blocks.
            expected = model._regressor_gram(x, k)
            np.testing.assert_allclose(gram, expected, rtol=0,
                                       atol=1e-13 * np.abs(expected).max())
            unblocked = x[:, k:] - fit.c[:, None]
            for i, a in enumerate(fit.A, 1):
                unblocked -= a @ x[:, k - i:n - i]
            np.testing.assert_allclose(fit.V, unblocked, rtol=0,
                                       atol=1e-13 * np.abs(unblocked).max())
            assert coefficient_discrepancy(rvar_to_svar(fit), both) <= 1e-13
            unblocked = mixing @ x[:, k:] - fit.c[:, None]
            for i, a in enumerate(fit.A, 1):
                unblocked -= a @ x[:, k - i:n - i]
            np.testing.assert_allclose(mixed, unblocked, rtol=0,
                                       atol=1e-13 * np.abs(unblocked).max())
            expected = mixed @ mixed.conj().T
            np.testing.assert_allclose(mixed_gram, expected, rtol=0,
                                       atol=1e-13 * np.abs(expected).max())

        check()
        # Windows of a few blocks and of many one-sample blocks alike.
        assert min(seen) <= 4 and max(seen) >= 100


class TestRowStridedWindows:
    """A window of a longer series, ``big[:, s:s + n]``, a view whose rows
    are strided, as the rolling fits of a panel take them, fits to the
    bytes of a contiguous copy of that window, on every route and for
    either residual form: at a window of one chunk that stacks T whole, a
    window the chunks cut, a complex window of many lags and an M > 22
    window the chunks never cut."""

    @staticmethod
    def arrays(x, k, svar, rvar):
        lic = fit_svar_lic(x, k)
        ls = rvar_to_svar(fit_rvar_ls(x, k))
        both = fit_both(x, k)
        fits = (lic, ls, both.ls, both.lic)
        return [*(a for fit in fits for a in (fit.L, fit.t, *fit.R)),
                np.float64(both.discrepancy),
                model.svar_residuals(svar, x), rvar_residuals(rvar, x)]

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("m,k,n", [(3, 2, 256), (4, 2, 8192), (8, 8, 4096), (24, 1, 6200)])
    def test_view_fits_to_the_bytes_of_its_copy(self, m, k, n, complex_field):
        big = stable_series(m, k, n + 128, seed=41, complex_field=complex_field)
        view = big[:, 64:64 + n]
        assert not view.flags.c_contiguous
        copy = np.ascontiguousarray(view)
        svar, rvar = fit_svar_lic(copy, k), fit_rvar_ls(copy, k)
        for a, b in zip(self.arrays(view, k, svar, rvar), self.arrays(copy, k, svar, rvar),
                        strict=True):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()


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

    @pytest.mark.parametrize("exponent", [-530, -600, -1074])
    def test_difference_whose_square_underflows_is_measured(self, exponent):
        # 2^-600 squared underflows to 0, and 2^-530 squared to a
        # subnormal that has lost bits; both are measured scaled, exactly.
        from svarlic.model import SvarCoefficients
        a = SvarCoefficients(L=np.eye(1), t=[0.0])
        b = SvarCoefficients(L=np.eye(1), t=[2.0 ** exponent])
        assert coefficient_discrepancy(a, b) == 2.0 ** exponent

    def test_mismatched_models_rejected(self):
        from svarlic.model import SvarCoefficients
        a = SvarCoefficients(L=np.eye(1))
        b = SvarCoefficients(L=np.eye(2))
        with pytest.raises(DimensionMismatch):
            coefficient_discrepancy(a, b)


def assert_rebuilds(fitted):
    """`fitted`, a container the package built without its caller checks,
    passes its public constructor unchanged: every field keeps its type,
    dtype, shape and bytes. A structural `L` is also checked against the
    factor convention directly: nothing above the diagonal and a real
    positive diagonal."""
    cls = type(fitted)
    names = [f.name for f in dataclasses.fields(cls)]
    rebuilt = cls(**{name: getattr(fitted, name) for name in names})
    for name in names:
        ours, theirs = getattr(fitted, name), getattr(rebuilt, name)
        if isinstance(ours, tuple):
            assert isinstance(theirs, tuple) and len(ours) == len(theirs)
        else:
            ours, theirs = (ours,), (theirs,)
        for a, b in zip(ours, theirs):
            assert isinstance(a, np.ndarray)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    if cls is SvarCoefficients:
        assert not np.triu(fitted.L, 1).any()
        assert np.all(fitted.L.diagonal().imag == 0) and np.all(fitted.L.diagonal().real > 0)


class TestFittedResults:
    """Every route hands on its result without the containers' caller
    checks (`model._fitted`), and what it hands on is exactly what those
    checks would have produced."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(m=st.integers(1, 3), k=st.integers(0, 4), complex_field=st.booleans(),
           structured=st.booleans(), seed=st.integers(0, 2**31), extra=st.integers(1, 32))
    def test_fits_equal_their_public_rebuild(self, m, k, complex_field, structured, seed,
                                             extra):
        q = m * (k + 1) + 1
        # N on either side of the cut that stacks T whole; past it, a window
        # longer than one chunk.
        n = k + (linalg._chunk_width(m) + extra if structured else q + extra)
        assert stacks_t_whole(m, k, n) != structured
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, n))
        if complex_field:
            x = x + 1j * rng.standard_normal((m, n))
        rvar = fit_rvar_ls(x, k)
        both = fit_both(x, k)
        for fitted in (fit_svar_lic(x, k), rvar, rvar_to_svar(rvar), both.ls, both.lic):
            assert_rebuilds(fitted)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(m=st.integers(1, 4), k=st.integers(0, 4), complex_field=st.booleans(),
           seed=st.integers(0, 2**31))
    def test_generator_equals_its_public_rebuild(self, m, k, complex_field, seed):
        assert_rebuilds(random_stable_svar(m, k, seed, complex_field=complex_field))

    @pytest.mark.parametrize("route", ["lic", "ls", "both", "fit_rvar_ls", "rvar_to_svar",
                                       "random_stable_svar"])
    def test_routes_skip_the_caller_checks(self, monkeypatch, route):
        checked = []
        for cls in (SvarCoefficients, RvarCoefficients):
            def spy(self, original=cls.__post_init__):
                checked.append(type(self).__name__)
                original(self)

            monkeypatch.setattr(cls, "__post_init__", spy)
        SvarCoefficients(L=np.eye(2))  # the spy sees caller-built containers
        assert checked == ["SvarCoefficients"]
        x = np.random.default_rng(30).standard_normal((2, 200))
        fitted = fit_rvar_ls(x, 2)
        checked.clear()
        calls = {**ROUTES, "fit_rvar_ls": fit_rvar_ls,
                 "rvar_to_svar": lambda x, k: rvar_to_svar(fitted),
                 "random_stable_svar": lambda x, k: random_stable_svar(3, k, seed=31)}
        calls[route](x, 2)
        assert checked == []
