"""The two estimation routes for structural VAR coefficients.

Route 1, least squares: fit the reduced form by solving the normal
equations ``A (S S^H) = X S^H``, then whiten the residuals with the inverse
Cholesky factor of ``V V^H`` and rescale every coefficient by it
(`fit_rvar_ls` followed by `rvar_to_svar`).

Route 2, direct: build the taller stacked matrix T, which is the
least-squares regressor S with the current samples appended, factor
``T T^H`` as ``C C^H``, compute only the bottom block rows of ``C^-1``, and
read the structural coefficients straight out of them (`fit_svar_lic`).
One factorization of a slightly larger matrix replaces the whole
least-squares chain.

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
    _conj_transpose,
    _inverse_bottom_rows,
    cholesky_lower,
    gram_hermitian,
    solve_hpd,
)
from .model import (
    RvarCoefficients,
    SvarCoefficients,
    _stack_regressor,
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


def _require_samples(stacked: NDArray, rule: str, m: int, k: int) -> None:
    """Raise `InsufficientSamples` if the regressor `stacked` has fewer
    columns (samples) than rows, so its Gram matrix cannot be full rank."""
    rows, cols = stacked.shape
    if cols < rows:
        raise InsufficientSamples(f"{rule}; got N-K={cols} < {rows} for M={m}, K={k}")


def fit_rvar_ls(x: ArrayLike, k: int) -> RvarCoefficients:
    """Least-squares fit of the reduced form: ``A = X S^H (S S^H)^{-1}``.

    The Gram matrix is factored and solved, never explicitly inverted.
    Returns the intercept `c`, lag matrices `A_1..A_K` and the residual
    matrix ``V = X - A S``.

    Raises
    ------
    OrderTooLarge
        If N <= K.
    InsufficientSamples
        If N - K < M*K + 1, so the Gram matrix cannot be full rank.
    RankDeficient
        If the regressors are collinear (e.g. a constant branch).
    """
    x, k, s = _stack_regressor(x, k, direct=False)
    m = x.shape[0]
    _require_samples(s, "least squares needs N - K >= M*K + 1", m, k)
    current = x[:, k:]
    try:
        a = solve_hpd(gram_hermitian(s), current @ _conj_transpose(s))
    except NotPositiveDefinite as exc:
        raise RankDeficient(
            f"regressor Gram matrix SS^H is singular ({exc}); "
            "the regressors are collinear") from exc
    # Contiguous layout keeps V bit-reproducible from the unpacked pieces.
    a = np.ascontiguousarray(a)
    v = current - a @ s
    if np.linalg.norm(v) <= RESIDUAL_FLUSH_RTOL * np.linalg.norm(current):
        v = np.zeros_like(v)
    c, lags = _unstack_coefficients(a)
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
    which are the only rows of `U` computed (one triangular solve against
    the last M unit vectors):

    * ``L = U[alpha, alpha]``
    * ``R_i = -U[alpha, beta_i]``
    * ``t = -U[alpha, 1]``

    The paper stacks T oldest lag first and reads ``R_i`` from block
    ``K-i+1``. The rows read here are the same: with ``T T^H`` split at
    the current block into ``G11, G21, G22``, the bottom rows of `U` are
    ``C22^-1 [-G21 G11^-1, I]``, where ``C22`` factors the Schur
    complement, so reordering the regressor rows only permutes columns.

    Raises the same errors as `fit_rvar_ls`, with the stricter sample
    requirement N - K >= M*(K+1) + 1.
    """
    x, k, t = _stack_regressor(x, k, direct=True)
    m = x.shape[0]
    _require_samples(t, "direct route needs N - K >= M*(K+1) + 1", m, k)
    # T is not kept past its Gram product: it is the largest array of the fit.
    gram = gram_hermitian(t)
    del t
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
    level (far below 1e-8); a large value flags ill conditioning. Each
    route checks the signal and order itself.
    """
    ls = rvar_to_svar(fit_rvar_ls(x, k))
    lic = fit_svar_lic(x, k)
    return FitComparison(ls=ls, lic=lic, discrepancy=coefficient_discrepancy(ls, lic))
