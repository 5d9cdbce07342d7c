"""The fits against an exact least-squares reference.

Every double is a rational, so the reduced form's normal equations
``[c | A_1 .. A_K] (S S^H) = X S^H`` can be formed from the series and
solved with no rounding at all (`fractions.Fraction`). Criterion 1 compares
the two routes with each other, and both start from one ``T T^H``, so an
error the Gram carries reaches both alike; this reference does not share
it. Square roots are not rational, so the structural fits are checked
through identities that are: ``R_i = L A_i``, ``t = L c`` and
``L Σ L^H = I``, with Σ the exact residual Gram. Each error is bounded by
a multiple of the Gram's condition number times the unit roundoff, the
condition number read off the exact Gram.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svarlic import linalg
from svarlic.estimators import fit_both, fit_rvar_ls, fit_svar_lic
from svarlic.synthetic import random_stable_svar, simulate_series

U = 2.0 ** -53
# The multiple of ``cond u`` that every fit stays within. Over 60 random
# shapes of q <= 13 and the near-collinear family, the largest readings
# were 3.8 for least squares (at K = 0, where cond(S S^H) = 1), 2.7 for
# ``[t | R_i] = L [c | A_i]`` and 1.6 for ``L Σ L^H = I``.
MULTIPLE = 16


def exact_gram(t):
    """``T T^H`` of the double array `t`, exactly: the real and imaginary
    parts as object arrays of integers, and the denominator they share.
    Every entry of `t` is an integer over one power of two `d`, so the
    Gram is an integer matrix over ``d^2``."""
    values = [Fraction(v) for v in np.concatenate([t.real.ravel(), t.imag.ravel()]).tolist()]
    d = max(v.denominator for v in values)
    re, im = np.array([v.numerator * (d // v.denominator) for v in values],
                      dtype=object).reshape(2, *t.shape)
    return re @ re.T + im @ im.T, im @ re.T - re @ im.T, d * d


def solve(g, b):
    """`y` with ``y g = b`` for a symmetric positive definite `g`, by
    Gauss-Jordan elimination in `Fraction`s. The pivots of a positive
    definite matrix are positive, so no row is swapped."""
    aug = np.concatenate([g, b.T], axis=1) * Fraction(1)
    for j in range(len(g)):
        aug[j] = aug[j] / aug[j, j]
        column = aug[:, j].copy()
        column[j] = 0
        aug = aug - np.outer(column, aug[j])
    return aug[:, len(g):].T


def times(a, b):
    """The product of two complex matrices held as (real, imaginary)."""
    return a[0] @ b[0] - a[1] @ b[1], a[0] @ b[1] + a[1] @ b[0]


def minus(a, b):
    """The difference of two (real, imaginary) pairs."""
    return a[0] - b[0], a[1] - b[1]


def exact_fit(x, k):
    """The reduced form ``[c | A_1 .. A_K]`` of the series `x` at order `k`,
    its residual Gram Σ, both exact as (real, imaginary) object arrays of
    `Fraction`, and the exact ``S S^H`` and ``T T^H`` rounded to doubles.

    T stacks a row of ones, the K lags (lag 1 first) and the current
    samples, so S is its top ``p = MK+1`` rows and X the rest. A complex
    system is solved in its real embedding: ``A = Ar + i Ai`` solves
    ``A G = P`` exactly when ``[Ar, Ai] [[Gr, Gi], [-Gi, Gr]] = [Pr, Pi]``,
    and that matrix is symmetric positive definite when G is Hermitian
    positive definite."""
    m, n = x.shape
    t = np.vstack([np.ones((1, n - k)), *(x[:, k - i:n - i] for i in range(1, k + 1)),
                   x[:, k:]]).astype(complex)
    re, im, d = exact_gram(t)
    p = m * k + 1
    if np.iscomplexobj(x):
        y = solve(np.block([[re[:p, :p], im[:p, :p]], [-im[:p, :p], re[:p, :p]]]),
                  np.concatenate([re[p:, :p], im[p:, :p]], axis=1))
        a = y[:, :p], y[:, p:]
    else:
        a = solve(re[:p, :p], re[p:, :p]), np.zeros((m, p), dtype=object)
    # Σ = X X^H - A (X S^H)^H, since A (S S^H) A^H = (X S^H) A^H.
    residual = minus((re[p:, p:], im[p:, p:]), times(a, (re[p:, :p].T, -im[p:, :p].T)))
    sigma = residual[0] / d, residual[1] / d
    gram = (re / d + 1j * (im / d)).astype(complex)
    return a, sigma, gram[:p, :p], gram


def rational(a):
    """The double array `a` as exact (real, imaginary) `Fraction` arrays."""
    a = np.asarray(a, dtype=complex)
    to = np.vectorize(Fraction, otypes=[object])
    return to(a.real), to(a.imag)


def norm(a):
    """The Frobenius norm of a (real, imaginary) pair, from its exact square."""
    return float(sum(v * v for part in a for v in part.ravel())) ** 0.5


def stacked(c, blocks):
    """``[c | B_1 .. B_K]``."""
    return np.hstack([c[:, None], *blocks])


def structural_errors(svar, a, sigma):
    """The relative errors of ``[t | R_i] = L [c | A_i]`` and of
    ``L Σ L^H = I`` for the fitted structural form `svar`, against the
    exact reduced form `a` and residual Gram `sigma`."""
    L = rational(svar.L)
    coefficients = minus(rational(stacked(svar.t, svar.R)), times(L, a))
    whitened = times(times(L, sigma), (L[0].T, -L[1].T))
    identity = np.identity(len(svar.L), dtype=object), np.zeros_like(whitened[1])
    return (norm(coefficients) / (norm(L) * norm(a)),
            norm(minus(whitened, identity)) / len(svar.L) ** 0.5)


def check_against_exact(x, k):
    """Each fit of `x` within `MULTIPLE` ``cond u`` of the exact answer:
    the least-squares reduced form with the condition of ``S S^H``, the
    structural fits' identities with that of ``T T^H``, the Gram the
    direct route factors."""
    a, sigma, ssh, tth = exact_fit(x, k)
    ls = fit_rvar_ls(x, k)
    error = norm(minus(rational(stacked(ls.c, ls.A)), a)) / norm(a)
    assert error <= MULTIPLE * np.linalg.cond(ssh) * U
    bound = MULTIPLE * np.linalg.cond(tth) * U
    for svar in (fit_svar_lic(x, k), fit_both(x, k).ls):
        assert max(structural_errors(svar, a, sigma)) <= bound


class TestExactReference:
    def test_reference_solves_the_normal_equations_of_a_known_system(self):
        # x(n) = 1 + x(n-1)/2 from x(0) = 0: dyadic samples that the
        # order-1 reduced form (c, A_1) = (1, 1/2) fits with no residual.
        x = np.empty((1, 12))
        x[0, 0] = 0
        for i in range(1, 12):
            x[0, i] = 1 + x[0, i - 1] / 2
        (re, im), sigma, _, _ = exact_fit(x, 1)
        assert re.tolist() == [[1, Fraction(1, 2)]] and not im.any()
        assert sigma[0].tolist() == [[0]]

    def test_reference_embeds_a_complex_system(self):
        # The series times i fits the same A_i, with c turned by i (the
        # row of ones does not turn), and leaves the same residual Gram.
        x = simulate_series(random_stable_svar(2, 1, 1), 40, 2)
        (re, im), sigma, _, _ = exact_fit(x, 1)
        (re_i, im_i), sigma_i, _, _ = exact_fit(1j * x, 1)
        assert not im.any()
        assert (re_i[:, 1:] == re[:, 1:]).all() and not im_i[:, 1:].any()
        assert (im_i[:, 0] == re[:, 0]).all() and not re_i[:, 0].any()
        assert (sigma_i[0] == sigma[0]).all() and not sigma_i[1].any()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(m=st.integers(1, 4), complex_field=st.booleans(), extra=st.integers(0, 200),
           seed=st.integers(0, 2**31), data=st.data())
    def test_fits_are_within_cond_u_of_the_exact_reduced_form(self, m, complex_field, extra,
                                                              seed, data):
        k = data.draw(st.integers(0, 14 // m - 1))  # q = M(K+1)+1 <= 15
        n = k + 2 * (m * (k + 1) + 1) + 8 + extra
        model = random_stable_svar(m, k, seed, complex_field=complex_field)
        check_against_exact(simulate_series(model, n, seed + 1), k)

    @pytest.mark.parametrize("eps", [1e-4, 1e-5])
    def test_near_collinear_family(self, eps):
        # A fourth branch that copies the first up to `eps` noise: full
        # rank, with cond(S S^H) near 1e9 and 1e11.
        x = simulate_series(random_stable_svar(3, 1, 1), 400, 2)
        noise = np.random.default_rng(3).standard_normal(400)
        check_against_exact(np.vstack([x, x[0] + eps * noise]), 1)

    @pytest.mark.parametrize("m, k, complex_field, width", [
        (3, 3, True, 4), (3, 3, True, 40), (2, 5, True, 4), (2, 5, True, 40),
        (8, 4, False, 4),  # q = 41: its exact fit takes 4.6 s
    ])
    def test_phase_form_is_within_cond_u(self, chunks, m, k, complex_field, width):
        # Windows that chunks of `width` samples cut, so that the Grams
        # take the phase form (linalg._chunk_bounds), and the complex
        # window's residuals too: in chunks of one sample, or of four,
        # most phases empty, and of several.
        model = random_stable_svar(m, k, 5, complex_field=complex_field)
        x = simulate_series(model, k + 4 * (m * (k + 1) + 1), 6)
        with chunks(width):
            assert linalg._chunk_bounds(m, x.shape[1], k, x.dtype)[2]
            check_against_exact(x, k)
