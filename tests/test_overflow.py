"""Non-finite results of checked input: every public numeric routine either
returns finite output or raises, with no numpy warning.

A product of finite input that leaves double precision is decided by one
rule, `linalg._finite`, which raises `NumericalOverflow`. The repros below
are inputs on which a routine once returned inf or NaN, or leaked a
warning; the property runs every routine over inputs from 2^-1022 up to
within a factor of 2 of the largest double.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svarlic.estimators import coefficient_discrepancy, rvar_to_svar
from svarlic.exceptions import NumericalOverflow, SvarlicError
from svarlic.linalg import cholesky_lower, gram_hermitian, invert_lower, solve_hpd
from svarlic.model import (
    RvarCoefficients,
    SvarCoefficients,
    companion_spectral_radius,
    rvar_residuals,
    svar_residuals,
    whitening_error,
)
from svarlic.synthetic import simulate_series


@pytest.fixture
def warnings_as_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def huge_lag(cls=SvarCoefficients, mixing=1.0):
    """A one-branch, one-lag model whose lag coefficient is 1e300."""
    if cls is SvarCoefficients:
        return SvarCoefficients(L=[[mixing]], R=(np.array([[1e300]]),))
    return RvarCoefficients(c=[0.0], A=(np.array([[1e300]]),))


SIGNAL = 1e10 * np.random.default_rng(0).standard_normal((1, 50))


@pytest.mark.usefixtures("warnings_as_errors")
class TestRepros:
    @pytest.mark.parametrize("routine", [
        lambda: svar_residuals(huge_lag(), SIGNAL),
        lambda: rvar_residuals(huge_lag(RvarCoefficients), SIGNAL),
        lambda: whitening_error(huge_lag(), SIGNAL),
    ], ids=["svar_residuals", "rvar_residuals", "whitening_error"])
    def test_overflowing_residuals(self, routine):
        with pytest.raises(NumericalOverflow, match="residual overflows"):
            routine()

    @pytest.mark.parametrize("routine, what", [
        (lambda: solve_hpd(1e-300 * np.eye(2), [[1e10, 1e10]]), "solution"),
        (lambda: invert_lower(1e-310 * np.eye(3)), "inverse"),
        (lambda: invert_lower([[1e-200, 0], [1e200, 1e-200]]), "inverse"),
    ], ids=["solve_hpd", "invert_lower-subnormal", "invert_lower-growth"])
    def test_overflowing_kernels(self, routine, what):
        with pytest.raises(NumericalOverflow, match=f"^{what} overflows double precision"):
            routine()

    @pytest.mark.parametrize("h", [
        [[1e308, -1e308], [1e308, 1e308]],  # h - h^H overflows
        [[1, 1.5e308 + 1.5e308j], [0, 1]],  # |h| overflows
        # Each component of (h - h^H) / 2 fits; its modulus does not.
        [[1, 1.5e308 + 1.5e308j], [-1.5e308 + 1.5e308j, 1]],
    ], ids=["difference", "modulus", "modulus-of-difference"])
    def test_asymmetry_that_overflows_is_asymmetry(self, h):
        with pytest.raises(ValueError, match="not Hermitian"):
            cholesky_lower(h)

    @pytest.mark.parametrize("routine", [
        lambda: companion_spectral_radius(huge_lag(mixing=1e-300)),
        lambda: simulate_series(huge_lag(mixing=1e-300), 10, seed=0),
    ], ids=["companion_spectral_radius", "simulate_series"])
    def test_overflowing_implied_reduced_form(self, routine):
        with pytest.raises(NumericalOverflow, match="implied reduced-form coefficient"):
            routine()

    def test_simulation_driving_term_overflow_is_caught(self):
        # L^-1 = 1e308 fits; L^-1 times a unit shock does not.
        model = SvarCoefficients(L=[[1e-308]], R=(np.array([[0.0]]),))
        with pytest.raises(NumericalOverflow, match="exceeded"):
            simulate_series(model, 10, seed=0)


def one_part_model(lag, t=(0.0,)):
    return SvarCoefficients(L=np.eye(len(t)), R=(np.array(lag),), t=t)


@pytest.mark.usefixtures("warnings_as_errors")
class TestDiscrepancyOverflow:
    @pytest.mark.parametrize("ref, other, expected", [
        # ||a - b||^2 overflows.
        (one_part_model([[1e308]]), one_part_model([[-1e308]]), 2.0),
        # ||a - b|| = 1e154 fits; ||a||^2 = 1.96e308 does not.
        (one_part_model([[1.4e154]]), one_part_model([[0.4e154]]), 1 / 1.4),
        # ||R||^2 overflows; t's difference of 1e10 must still be read.
        (one_part_model([[1e308]]), one_part_model([[1e308]], t=(1e10,)), 1e10),
        # Within the overflowing part, a difference of 1e160 beside 1e300.
        (one_part_model([[1e300, 0.0], [0.0, 0.0]], t=(0.0, 0.0)),
         one_part_model([[1e300, 0.0], [0.0, 1e160]], t=(0.0, 0.0)), 1e-140),
        # Scaled by 2^-1021, ||R_ref||^2 underflows; its norm 2^100 must
        # stay the denominator, not the floor of 1.
        (one_part_model([[2.0 ** 100]]), one_part_model([[2.0 ** 1020]]), 2.0 ** 920),
        # Each part of R fits; its modulus does not.
        (one_part_model([[1.5e308 + 1.5e308j]]), one_part_model([[0.0]]), 1.0),
    ], ids=["opposite-huge-parts", "norm-overflows", "other-part-keeps-scale",
            "small-difference-beside-huge-entry", "reference-norm-underflows-when-scaled",
            "complex-modulus-overflows"])
    def test_overflowing_part_is_measured(self, ref, other, expected):
        assert coefficient_discrepancy(ref, other) == pytest.approx(expected, rel=1e-14, abs=0)

    def test_discrepancy_beyond_double_precision_raises(self):
        ref = one_part_model([[0.0, 0.0], [0.0, 0.0]], t=(0.0, 0.0))
        other = one_part_model([[0.0, 0.0], [0.0, 0.0]], t=(1.5e308, 1.5e308))
        with pytest.raises(NumericalOverflow, match="coefficient discrepancy overflows"):
            coefficient_discrepancy(ref, other)


def scaled(rng, shape, exponents, complex_field):
    """An array of `shape` whose row i holds ``+-[1, 2) * 2**exponents[i]``,
    in both parts if complex: at an exponent of 1023 its entries lie within
    a factor of 2 of the largest double, and all are finite."""
    def mantissas():
        return rng.uniform(1.0, 2.0, shape) * rng.choice([-1.0, 1.0], shape)

    z = mantissas() + 1j * mantissas() if complex_field else mantissas()
    return z * (2.0 ** np.asarray(exponents, dtype=float)).reshape(-1, *[1] * (len(shape) - 1))


def lower_factor(rng, m, exponents, diagonal, complex_field):
    """A lower factor whose rows are scaled by `exponents` below the
    diagonal, and whose diagonal entries lie in ``[1, 2) * 2**diagonal``."""
    c = np.tril(scaled(rng, (m, m), exponents, complex_field), -1)
    np.fill_diagonal(c, rng.uniform(1.0, 2.0, m) * 2.0 ** np.asarray(diagonal, dtype=float))
    return c


def hpd(rng, m, exponents, complex_field):
    """``D G D`` with ``G = B B^H + I`` divided by its largest entry, a
    diagonal one, and ``D = diag(2**(exponents / 2))``: finite, positive
    definite and scaled far apart by row, its diagonal up to ``2**1023``."""
    b = scaled(rng, (m, m), [0] * m, complex_field)
    g = b @ b.conj().T + np.eye(m)
    d = 2.0 ** (np.asarray(exponents, dtype=float) / 2)
    return d[:, None] * (g / g.diagonal().real.max()) * d[None, :]


def svar_model(rng, m, k, e, complex_field):
    return SvarCoefficients(L=lower_factor(rng, m, e[0], e[2], complex_field),
                            R=tuple(scaled(rng, (m, m), e[1], complex_field) for _ in range(k)),
                            t=scaled(rng, (m,), e[2][:1] * m, complex_field))


def rvar_model(rng, m, k, n, e, complex_field):
    return RvarCoefficients(c=scaled(rng, (m,), e[2][:1] * m, complex_field),
                            A=tuple(scaled(rng, (m, m), e[1], complex_field) for _ in range(k)),
                            V=scaled(rng, (m, n), e[3], complex_field))


#: Each routine on inputs drawn from `rng`, M branches, order K, N samples
#: and four lists of M row exponents `e`.
ROUTINES = {
    "gram_hermitian": lambda rng, m, k, n, e, c: gram_hermitian(scaled(rng, (m, n), e[0], c)),
    "cholesky_lower": lambda rng, m, k, n, e, c: cholesky_lower(hpd(rng, m, e[0], c)),
    "cholesky_lower_any": lambda rng, m, k, n, e, c: cholesky_lower(
        scaled(rng, (m, m), e[0], c)),
    "solve_hpd": lambda rng, m, k, n, e, c: solve_hpd(hpd(rng, m, e[0], c),
                                                      scaled(rng, (m, m), e[1], c)),
    "invert_lower": lambda rng, m, k, n, e, c: invert_lower(lower_factor(rng, m, e[0], e[1], c)),
    "svar_residuals": lambda rng, m, k, n, e, c: svar_residuals(
        svar_model(rng, m, k, e, c), scaled(rng, (m, n), e[3], c)),
    "rvar_residuals": lambda rng, m, k, n, e, c: rvar_residuals(
        rvar_model(rng, m, k, n, e, c), scaled(rng, (m, n), e[3], c)),
    "whitening_error": lambda rng, m, k, n, e, c: whitening_error(
        svar_model(rng, m, k, e, c), scaled(rng, (m, n), e[3], c)),
    "rvar_to_svar": lambda rng, m, k, n, e, c: rvar_to_svar(rvar_model(rng, m, k, n, e, c)),
    "companion_spectral_radius_svar": lambda rng, m, k, n, e, c: companion_spectral_radius(
        svar_model(rng, m, k, e, c)),
    "companion_spectral_radius_rvar": lambda rng, m, k, n, e, c: companion_spectral_radius(
        rvar_model(rng, m, k, n, e, c)),
    "coefficient_discrepancy": lambda rng, m, k, n, e, c: coefficient_discrepancy(
        svar_model(rng, m, k, e, c), svar_model(rng, m, k, e[::-1], c)),
}


def row_exponents(data, m):
    """Four lists of M row exponents of 2: all alike, or each row its own."""
    spread = data.draw(st.sampled_from([0, 33, 1000]))
    base = data.draw(st.lists(st.integers(-1022, 1023), min_size=4, max_size=4))
    return [[min(max(b + data.draw(st.integers(-spread, spread)), -1022), 1023)
             for _ in range(m)] for b in base]


def squared_norm(a, b=0.0):
    """``||a - b||_F^2`` in exact rational arithmetic."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    return sum((Fraction(x.real) - Fraction(y.real)) ** 2
               + (Fraction(x.imag) - Fraction(y.imag)) ** 2
               for x, y in zip(a.ravel().tolist(), b.ravel().tolist()))


def outputs(result):
    """The arrays and numbers a routine returned."""
    if isinstance(result, SvarCoefficients):
        return [result.L, *result.R, result.t]
    return [result]


class TestFiniteOrRaises:
    @pytest.mark.parametrize("routine", ROUTINES)
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(m=st.integers(1, 3), k=st.integers(0, 2), n=st.integers(8, 40),
           complex_field=st.booleans(), seed=st.integers(0, 2**31),
           data=st.data())
    def test_finite_output_or_raises(self, routine, m, k, n, complex_field, seed, data):
        e = row_exponents(data, m)
        rng = np.random.default_rng(seed)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = ROUTINES[routine](rng, m, k, n, e, complex_field)
        except (SvarlicError, ValueError):
            return
        for value in outputs(result):
            assert np.isfinite(value).all()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(m=st.integers(1, 3), k=st.integers(0, 2), complex_field=st.booleans(),
           seed=st.integers(0, 2**31), data=st.data())
    def test_discrepancy_matches_exact_arithmetic(self, m, k, complex_field, seed, data):
        # Finite is not enough: a part's difference read as 0, or its floor
        # of 1 read in place of a larger norm, is finite too. The result
        # must be within 1e-12 of the exact value, however small: a part
        # whose squares underflow is measured scaled.
        e = row_exponents(data, m)
        rng = np.random.default_rng(seed)
        ref, other = (svar_model(rng, m, k, e, complex_field),
                      svar_model(rng, m, k, e[::-1], complex_field))
        exact = max(squared_norm(a, b) / max(squared_norm(a), 1)
                    for a, b in [(ref.L, other.L), (ref.t, other.t), *zip(ref.R, other.R)])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = Fraction(coefficient_discrepancy(ref, other))
        except NumericalOverflow:
            assert exact > Fraction(np.finfo(float).max) ** 2 / 4
            return
        rtol = Fraction(1, 10 ** 12)
        assert (got * (1 - rtol)) ** 2 <= exact <= (got * (1 + rtol)) ** 2
