"""Generator tests: stability, determinism, and the forward recursion."""

import re
import warnings

import numpy as np
import pytest

from svarlic.exceptions import NumericalOverflow
from svarlic.model import SvarCoefficients, companion_spectral_radius, svar_residuals
from svarlic.synthetic import OVERFLOW_LIMIT, random_stable_svar, simulate_series


def reference_recursion(model, noise):
    """The recursion stepped lag by lag from rest, with no overflow check:
    ``x(n) = L^{-1}(t + sum_i R_i x(n-i) + w(n))`` for every column of
    `noise`."""
    linv = np.linalg.inv(model.L)
    lags = [linv @ r for r in model.R]
    driven = linv @ (noise + model.t[:, None])
    x = np.zeros_like(driven)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(x.shape[1]):
            col = driven[:, step].copy()
            for i, a in enumerate(lags, 1):
                if step >= i:
                    col += a @ x[:, step - i]
            x[:, step] = col
    return x


def full_noise(model, total, seed):
    """The shocks of a `total`-step run of `model`, burn-in included. The
    draw depends only on the branch count, the field and the seed, so a
    lag-free model of the same shape, which cannot overflow, returns them
    all when run with no burn-in."""
    white = SvarCoefficients(L=np.eye(model.branches, dtype=model.L.dtype))
    return simulate_series(white, total, seed, burn_in=0, return_noise=True)[1]


def unstable(m, k, seed, gain):
    """A generated model with every lag matrix multiplied by `gain`."""
    model = random_stable_svar(m, k, seed)
    return SvarCoefficients(L=model.L, R=tuple(gain * r for r in model.R), t=model.t)


class TestRandomStableSvar:
    @pytest.mark.parametrize("m,k", [(1, 1), (2, 2), (4, 3), (3, 1)])
    def test_radius_bound(self, m, k):
        for seed in range(10):
            model = random_stable_svar(m, k, seed, target_radius=0.8)
            assert companion_spectral_radius(model) <= 0.8 + 1e-12

    def test_deterministic(self):
        a = random_stable_svar(3, 2, seed=5)
        b = random_stable_svar(3, 2, seed=5)
        assert a.L.tobytes() == b.L.tobytes()
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.R, b.R))
        assert a.t.tobytes() == b.t.tobytes()

    def test_different_seeds_differ(self):
        a = random_stable_svar(2, 1, seed=0)
        b = random_stable_svar(2, 1, seed=1)
        assert not np.array_equal(a.L, b.L)

    def test_scalar_companion_bound(self):
        model = random_stable_svar(1, 1, seed=3, target_radius=0.5)
        assert abs(model.R[0][0, 0] / model.L[0, 0]) <= 0.5 + 1e-12

    @pytest.mark.parametrize("m,k", [(1, 1), (3, 2), (4, 3)])
    def test_one_eigenvalue_computation(self, monkeypatch, m, k):
        calls = []
        eigvals = np.linalg.eigvals

        def spy(a):
            calls.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", spy)
        for seed in range(5):
            random_stable_svar(m, k, seed)
        assert calls == [(m * k, m * k)] * 5

    def test_k0_has_no_lags(self):
        model = random_stable_svar(2, 0, seed=1)
        assert model.order == 0
        assert companion_spectral_radius(model) == 0.0

    def test_complex_field(self):
        model = random_stable_svar(3, 1, seed=2, complex_field=True)
        assert np.iscomplexobj(model.L)
        assert np.all(model.L.diagonal().imag == 0)
        assert np.all(model.L.diagonal().real > 0)
        assert companion_spectral_radius(model) <= 0.8 + 1e-12

    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.2, -0.5])
    def test_invalid_radius(self, bad):
        with pytest.raises(ValueError):
            random_stable_svar(2, 1, seed=0, target_radius=bad)

    def test_invalid_branch_count(self):
        with pytest.raises(ValueError):
            random_stable_svar(0, 1, seed=0)


class TestSimulateSeries:
    def test_shape_and_determinism(self):
        model = random_stable_svar(2, 1, seed=0)
        a = simulate_series(model, 100, seed=42)
        b = simulate_series(model, 100, seed=42)
        assert a.shape == (2, 100)
        assert a.tobytes() == b.tobytes()

    def test_identity_model_returns_raw_noise(self):
        model = SvarCoefficients(L=np.eye(2), t=[0.0, 0.0])
        x, noise = simulate_series(model, 50, seed=1, return_noise=True)
        assert np.array_equal(x, noise)

    def test_iid_mean_approaches_intercept(self):
        model = SvarCoefficients(L=np.eye(2), t=[5.0, -3.0])
        x = simulate_series(model, 20000, seed=2)
        np.testing.assert_allclose(x.mean(axis=1), [5.0, -3.0], atol=0.1)

    def test_round_trip_noise(self):
        model = random_stable_svar(2, 2, seed=3, target_radius=0.7)
        x, noise = simulate_series(model, 300, seed=4, return_noise=True)
        w = svar_residuals(model, x)
        np.testing.assert_allclose(w, noise[:, 2:], rtol=0, atol=1e-10)

    def test_burn_in_zero_starts_from_rest(self):
        model = random_stable_svar(1, 1, seed=5)
        x, noise = simulate_series(model, 10, seed=6, burn_in=0,
                                   return_noise=True)
        first = (model.t[0] + noise[0, 0]) / model.L[0, 0]
        assert x[0, 0] == pytest.approx(first, rel=1e-15)

    def test_complex_noise_unit_variance(self):
        model = SvarCoefficients(L=np.eye(1, dtype=complex))
        x = simulate_series(model, 50000, seed=7)
        assert np.iscomplexobj(x)
        assert np.mean(np.abs(x) ** 2) == pytest.approx(1.0, abs=0.05)

    def test_unstable_model_overflows(self):
        model = SvarCoefficients(L=np.eye(1), R=(np.array([[1.5]]),), t=[0.0])
        with pytest.raises(NumericalOverflow, match="unstable"):
            simulate_series(model, 500, seed=8)

    def test_rejects_bad_lengths(self):
        model = random_stable_svar(1, 1, seed=0)
        with pytest.raises(ValueError):
            simulate_series(model, 0, seed=0)
        with pytest.raises(ValueError):
            simulate_series(model, 10, seed=0, burn_in=-1)


class TestAgainstReferenceRecursion:
    @pytest.mark.parametrize("m,k", [(1, 0), (2, 1), (3, 2), (4, 3)])
    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("burn_in", [None, 0])
    def test_matches_per_lag_loop(self, m, k, complex_field, burn_in):
        model = random_stable_svar(m, k, seed=m + k, complex_field=complex_field)
        n = 257
        burn = 10 * k * m if burn_in is None else burn_in
        x, noise = simulate_series(model, n, seed=21, burn_in=burn_in,
                                   return_noise=True)
        shocks = full_noise(model, burn + n, seed=21)
        expected = reference_recursion(model, shocks)[:, burn:]
        assert x.shape == noise.shape == (m, n)
        assert np.array_equal(noise, shocks[:, burn:])
        assert np.abs(x - expected).max() <= 1e-13 * np.abs(expected).max()


class TestOverflow:
    @pytest.mark.parametrize("model", [
        SvarCoefficients(L=np.eye(1), R=(np.array([[1.5]]),), t=[0.0]),
        unstable(2, 2, seed=9, gain=3.0),
        unstable(3, 1, seed=4, gain=2.5),
    ])
    def test_names_first_sample_beyond_limit(self, model):
        n = 400
        burn = 10 * model.order * model.branches
        with pytest.raises(NumericalOverflow) as exc:
            simulate_series(model, n, seed=8)
        x = reference_recursion(model, full_noise(model, burn + n, seed=8))
        first = np.flatnonzero(np.abs(x).max(axis=0) > OVERFLOW_LIMIT)[0] + 1
        assert re.match(rf"sample {first} exceeded 1e\+12; model is unstable",
                        str(exc.value))

    @pytest.mark.parametrize("model", [
        SvarCoefficients(L=np.eye(1), R=(np.array([[1.5]]),), t=[0.0]),
        unstable(3, 2, seed=2, gain=4.0),
    ])
    def test_run_to_infinity_raises_without_warnings(self, model):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalOverflow, match="unstable"):
                simulate_series(model, 5000, seed=3)

    @pytest.mark.parametrize("seed", range(4))
    def test_stable_run_never_raises(self, seed):
        model = random_stable_svar(3, 2, seed, target_radius=0.95)
        x = simulate_series(model, 20000, seed=seed)
        assert np.isfinite(x).all()


class TestLayout:
    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("burn_in", [None, 0])
    def test_rows_are_contiguous(self, complex_field, burn_in):
        # Fits copy rows of the series, and a strided row makes each copy slow.
        model = random_stable_svar(3, 2, seed=1, complex_field=complex_field)
        x, noise = simulate_series(model, 100, seed=2, burn_in=burn_in,
                                   return_noise=True)
        assert x.strides[1] == x.itemsize
        assert noise.strides[1] == noise.itemsize
