"""The two estimation routes for structural VAR coefficients.

Route 1, least squares: fit the reduced form by solving the normal
equations ``A (S S^H) = X S^H``, then whiten the residuals with the inverse
Cholesky factor of ``V V^H`` and rescale every coefficient by it
(`fit_rvar_ls` followed by `rvar_to_svar`).

Route 2, direct: take the taller stacked matrix T, which is the
least-squares regressor S with the current samples appended, factor
``T T^H`` as ``C C^H``, compute only the bottom block rows of ``C^-1``, and
read the structural coefficients straight out of them (`fit_svar_lic`).
One factorization of a slightly larger matrix replaces the whole
least-squares chain.

Both routes start from ``T T^H`` (`model._regressor_gram`): route 1 reads
``S S^H`` and ``X S^H`` off its leading blocks. Above a size it is formed
from the K+1 distinct lag products of the signal, so T is never built.

Both routes share S's row layout, so both read their coefficients through
one block split, `model._unstack_coefficients`: from ``[c | A_1 .. A_K]``
in route 1 and from ``-[t | R_1 .. R_K]`` in route 2.

Under the shared positive-diagonal factor convention the two routes agree
exactly in exact arithmetic; `fit_both` runs them side by side and reports
the floating-point discrepancy.

Whitening here is unnormalized: the fitted residuals satisfy
``sum_n w(n) w(n)^H = I`` without a 1/(N-K) factor, so the coefficient
scale shrinks like 1/sqrt(N-K) as the sample grows. Ratios such as
``L^{-1} R_i`` are scale free.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .exceptions import (
    DimensionMismatch,
    InsufficientSamples,
    NotPositiveDefinite,
    RankDeficient,
)
from .linalg import (
    _inverse_bottom_rows,
    cholesky_lower,
    gram_hermitian,
    solve_hpd,
)
from .model import (
    RvarCoefficients,
    SvarCoefficients,
    _check_signal,
    _regressor_gram,
    _residuals,
    _unstack_coefficients,
)

#: Residuals whose Frobenius norm falls below this fraction of the signal's
#: are pure cancellation noise from an exact fit (deterministic series) and
#: are flushed to exact zero, so the whitening step sees a singular Gram
#: matrix instead of amplifying rounding garbage.
RESIDUAL_FLUSH_RTOL = 1e-12

__all__ = [
    "fit_rvar_ls",
    "rvar_to_svar",
    "fit_svar_lic",
    "fit_both",
    "FitComparison",
    "coefficient_discrepancy",
]


def _require_samples(shape: tuple[int, int], k: int, direct: bool) -> None:
    """Raise `InsufficientSamples` if a signal of `shape` (M, N) gives the
    route's regressor, T if `direct` else S, fewer columns (samples) than
    rows, so its Gram matrix cannot be full rank."""
    m, n = shape
    if direct:
        rows, rule = m * (k + 1) + 1, "direct route needs N - K >= M*(K+1) + 1"
    else:
        rows, rule = m * k + 1, "least squares needs N - K >= M*K + 1"
    if n - k < rows:
        raise InsufficientSamples(f"{rule}; got N-K={n - k} < {rows} for M={m}, K={k}")


def fit_rvar_ls(x: ArrayLike, k: int) -> RvarCoefficients:
    """Least-squares fit of the reduced form: ``A = X S^H (S S^H)^{-1}``.

    ``S S^H`` and ``X S^H`` are read off ``T T^H``, the Gram of the direct
    route's regressor, whose top rows are S and whose bottom M rows are
    the current samples X. The Gram matrix is factored and solved, never
    explicitly inverted. Returns the intercept `c`, lag matrices
    `A_1..A_K` and the residual matrix ``V = X - A S``.

    Raises
    ------
    OrderTooLarge
        If N <= K.
    InsufficientSamples
        If N - K < M*K + 1, so the Gram matrix cannot be full rank.
    RankDeficient
        If the regressors are collinear (e.g. a constant branch).
    """
    x, k = _check_signal(x, k)
    _require_samples(x.shape, k, direct=False)
    return _finish_ls(x, k, _regressor_gram(x, k))


def _finish_ls(x: NDArray, k: int, gram: NDArray) -> RvarCoefficients:
    """The least-squares route from ``T T^H`` on: solve for ``[c | A_i]``,
    split it into `c` and the `A_i`, and form the residuals
    ``V = X - c - sum_i A_i x(n-i)`` from them lag by lag on slices of the
    signal (`model._residuals`), never stacking S. `rvar_residuals`
    evaluates the same expression on the same arrays, so it reproduces `V`
    bit for bit."""
    p = x.shape[0] * k + 1
    try:
        a = solve_hpd(gram[:p, :p], gram[p:, :p])
    except NotPositiveDefinite as exc:
        raise RankDeficient(
            f"regressor Gram matrix SS^H is singular ({exc}); "
            "the regressors are collinear") from exc
    c, lags = _unstack_coefficients(a)
    current = x[:, k:]
    v = _residuals(x, k, current.copy(), c, lags)
    if np.linalg.norm(v) <= RESIDUAL_FLUSH_RTOL * np.linalg.norm(current):
        v = np.zeros_like(v)
    return RvarCoefficients(c=c, A=lags, V=v)


def rvar_to_svar(model: RvarCoefficients) -> SvarCoefficients:
    """Whiten a fitted reduced form into structural coefficients.

    `L` is the inverse of the lower Cholesky factor of ``V V^H`` (positive
    real diagonal), and every reduced-form coefficient is rescaled by it:
    ``R_i = L A_i``, ``t = L c``.

    Raises
    ------
    RankDeficient
        (a `NotPositiveDefinite`) if the residuals are rank deficient, e.g.
        after an exact fit of a deterministic series.
    """
    if model.V is None:
        raise ValueError("model has no residual matrix V; fit it first")
    try:
        factor = cholesky_lower(gram_hermitian(model.V))
    except NotPositiveDefinite as exc:
        raise RankDeficient(
            f"residual Gram matrix VV^H is singular ({exc}); "
            "residuals are rank deficient") from exc
    mixing = _inverse_bottom_rows(factor, factor.shape[0])
    return SvarCoefficients(
        L=mixing,
        R=tuple(mixing @ a for a in model.A),
        t=mixing @ model.c,
    )


def fit_svar_lic(x: ArrayLike, k: int) -> SvarCoefficients:
    """Direct fit: one large inverse Cholesky factorization of ``T T^H``.

    With ``U = (cholesky(T T^H))^{-1}`` (lower, positive real diagonal) and
    1-based index sets ``alpha = (MK+2 .. M(K+1)+1)`` over the bottom block
    and ``beta_i = ((i-1)M+2 .. iM+1)`` over the block of lag i in T, the
    coefficients are block reads from the bottom M rows ``U[alpha, :]``,
    which are the only rows of `U` computed, by block substitution against
    the last M unit vectors in about ``q^2 M / 2`` multiplies for T's q
    rows:

    * ``L = U[alpha, alpha]``
    * ``R_i = -U[alpha, beta_i]``
    * ``t = -U[alpha, 1]``

    The paper stacks T oldest lag first and reads ``R_i`` from block
    ``K-i+1``. The rows read here are the same: with ``T T^H`` split at
    the current block into ``G11, G21, G22``, the bottom rows of `U` are
    ``C22^-1 [-G21 G11^-1, I]``, where ``C22`` factors the Schur
    complement, so reordering the regressor rows only permutes columns.

    Above a size set by `model._DENSE_GRAM_WORK`, ``T T^H`` is formed from
    the K+1 distinct M x M lag products of the signal and T itself is never
    built.

    Raises the same errors as `fit_rvar_ls`, with the stricter sample
    requirement N - K >= M*(K+1) + 1.
    """
    x, k = _check_signal(x, k)
    _require_samples(x.shape, k, direct=True)
    return _finish_lic(x.shape[0], k, _regressor_gram(x, k))


def _finish_lic(m: int, k: int, gram: NDArray) -> SvarCoefficients:
    """The direct route from ``T T^H`` on: factor it, solve for the bottom
    M rows of the inverse factor and read the coefficients out of them."""
    try:
        factor = cholesky_lower(gram)
    except NotPositiveDefinite as exc:
        raise RankDeficient(
            f"stacked Gram matrix TT^H is singular ({exc}); "
            "the signal is deterministic or has collinear branches") from exc
    u_alpha = _inverse_bottom_rows(factor, m)
    t, lags = _unstack_coefficients(-u_alpha[:, :m * k + 1])
    return SvarCoefficients(L=u_alpha[:, m * k + 1:].copy(), R=lags, t=t)


def coefficient_discrepancy(ref: SvarCoefficients, other: SvarCoefficients) -> float:
    """Max over {L, R_1..R_K, t} of ``||delta||_F / max(||ref part||_F, 1)``.

    The floor of 1 in the denominator keeps the metric meaningful when a
    coefficient (typically `t`) is near zero.
    """
    if ref.order != other.order or ref.branches != other.branches:
        raise DimensionMismatch("models differ in branch count or order")

    def rel(a: NDArray, b: NDArray) -> float:
        return float(np.linalg.norm(a - b) / max(np.linalg.norm(a), 1.0))

    errs = [rel(ref.L, other.L), rel(ref.t, other.t)]
    errs.extend(rel(a, b) for a, b in zip(ref.R, other.R))
    return max(errs)


class FitComparison(NamedTuple):
    ls: SvarCoefficients
    lic: SvarCoefficients
    discrepancy: float


def fit_both(x: ArrayLike, k: int) -> FitComparison:
    """Run both routes and report their relative Frobenius discrepancy.

    The least-squares result serves as the reference in the discrepancy
    metric. On well-conditioned inputs the discrepancy sits at rounding
    level (far below 1e-8); a large value flags ill conditioning. The
    signal is checked once and ``T T^H`` formed once; both routes finish
    from that one Gram, so they decide rank from the same numbers.
    """
    x, k = _check_signal(x, k)
    _require_samples(x.shape, k, direct=False)
    gram = _regressor_gram(x, k)
    ls = rvar_to_svar(_finish_ls(x, k, gram))
    _require_samples(x.shape, k, direct=True)
    lic = _finish_lic(x.shape[0], k, gram)
    return FitComparison(ls=ls, lic=lic, discrepancy=coefficient_discrepancy(ls, lic))
