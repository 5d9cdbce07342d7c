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
``S S^H`` and ``X S^H`` off its leading blocks. Wherever T does not fit in
one chunk buffer (the rule is `_regressor_gram`'s) it is formed from the
K+1 distinct lag products of the signal, so T is never built.

Both routes share S's row layout, so both read their coefficients through
one block split, `model._unstack_coefficients`: from ``[c | A_1 .. A_K]``
in route 1 and from ``-[t | R_1 .. R_K]`` in route 2.

The routes differ only in which Grams they factor: route 1 factors
``S S^H`` to solve for ``[c | A_i]`` and ``V V^H`` to whiten, route 2
factors ``T T^H`` once. All three go through one step, `_factor`, the only
place the estimators factor a Gram, and a singular one raises
`RankDeficient` there with one message format, naming the Gram and the
likely cause. Route 1 solves through the factor of ``S S^H``
(`linalg._solve_factored`); both routes whiten by taking bottom rows of an
inverse factor, all M of ``V V^H``'s in route 1 and the bottom M of
``T T^H``'s in route 2.

Under the shared positive-diagonal factor convention the two routes agree
exactly in exact arithmetic; `fit_both` runs them side by side and reports
the floating-point discrepancy. Its route 1 needs only ``V V^H``, not V:
it sums that Gram over chunks of the signal
(`linalg._residuals`), and whitens through the one step `rvar_to_svar`
takes after forming ``V V^H`` from a whole V (`_whiten`). It factors the
Grams in the order ``S S^H``, ``T T^H``, ``V V^H``, freeing ``T T^H`` and
its factor before the residual pass, so its peak memory is the direct
route's floor, ``T T^H`` beside its factor, and a deterministic series
names ``T T^H``, as it does in route 2.

Whitening here is unnormalized: the fitted residuals satisfy
``sum_n w(n) w(n)^H = I`` without a 1/(N-K) factor, so the coefficient
scale shrinks like 1/sqrt(N-K) as the sample grows. Ratios such as
``L^{-1} R_i`` are scale free.
"""

from __future__ import annotations

import math
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
    _finish_gram,
    _finite,
    _inverse_bottom_rows,
    _residuals,
    _solve_factored,
    cholesky_lower,
    gram_hermitian,
)
from .model import (
    RvarCoefficients,
    SvarCoefficients,
    _check_signal,
    _fitted,
    _regressor_gram,
    _rescaled,
    _unstack_coefficients,
)

#: Residuals whose Frobenius norm falls below this fraction of the signal's
#: are pure cancellation noise from an exact fit (deterministic series) and
#: are flushed to exact zero, so the whitening step sees a singular Gram
#: matrix instead of amplifying rounding garbage.
RESIDUAL_FLUSH_RTOL = 1e-12

#: `coefficient_discrepancy` measures a part whose squared difference
#: falls below this again, scaled: 2^53 times the smallest normal double,
#: so squares that went subnormal, each off by at most 2^-1075, move a sum
#: above it by less than rounding.
_SQUARES_FLOOR = 2.0 ** -969

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


def _check_both(x: ArrayLike, k: int) -> tuple[NDArray, int]:
    """The door of every call that runs both routes on one signal: the
    signal and order (`_check_signal`), then the least-squares and the
    direct route's sample rules, in that order. Returns `x` and `k`
    checked."""
    x, k = _check_signal(x, k)
    _require_samples(x.shape, k, direct=False)
    _require_samples(x.shape, k, direct=True)
    return x, k


def _factor(gram: NDArray, name: str, cause: str) -> NDArray:
    """The lower factor ``C`` of ``gram = C C^H``, for the estimator Gram
    matrix named `name`: the one step where the estimators factor a Gram.
    A singular Gram raises `RankDeficient` in the one message format,
    with `cause` as its reading."""
    try:
        return cholesky_lower(gram)
    except NotPositiveDefinite as exc:
        raise RankDeficient(f"{name} is singular ({exc}); {cause}") from exc


def fit_rvar_ls(x: ArrayLike, k: int) -> RvarCoefficients:
    """Least-squares fit of the reduced form: ``A = X S^H (S S^H)^{-1}``.

    ``S S^H`` and ``X S^H`` are read off ``T T^H``, the Gram of the direct
    route's regressor, whose top rows are S and whose bottom M rows are
    the current samples X. The Gram matrix is factored and solved, never
    explicitly inverted. Returns the intercept `c`, lag matrices
    `A_1..A_K` and the residual matrix ``V = X - A S``.

    The flush floor is read off the Gram's diagonal, and the Gram is freed
    once the coefficients are solved, before `V` is formed. `V` is formed
    in one loop over chunks of the signal (`linalg._residuals`), beside one
    chunk-sized buffer, so the route never holds the Gram or a second
    array of V's size beside it. `rvar_residuals` evaluates the same
    expression on the same arrays, so it reproduces `V` bit for bit.

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
    m = x.shape[0]
    gram = _regressor_gram(x, k)
    floor = _flush_floor(gram, m)
    c, lags = _solve_ls(m, k, gram)
    del gram  # freed before V: _solve_ls returns copies
    v = _residuals(x, k, None, c, lags)
    if np.vdot(v, v).real <= floor:
        v = np.zeros_like(v)
    return _fitted(RvarCoefficients, c=c, A=lags, V=v)


def _solve_ls(m: int, k: int, gram: NDArray) -> tuple[NDArray, tuple[NDArray, ...]]:
    """`c` and the `A_i` of the least-squares route from ``T T^H``: solve
    ``[c | A_i] (S S^H) = X S^H`` through the factor of ``S S^H`` and split
    the solution. The factor and the solved block are passed on at once,
    so neither outlives the call."""
    p = m * k + 1
    h = gram[:p, :p]
    return _unstack_coefficients(_solve_factored(
        h, _factor(h, "regressor Gram matrix SS^H", "the regressors are collinear"),
        gram[p:, :p]))


def _flush_floor(gram: NDArray, m: int) -> float:
    """`RESIDUAL_FLUSH_RTOL` squared times ``||X||_F^2``, the trace of the
    bottom M x M block ``X X^H`` of ``T T^H``: residuals whose squared
    Frobenius norm is at or below it are flushed. Squares, so no root is
    taken."""
    return RESIDUAL_FLUSH_RTOL ** 2 * gram.diagonal()[-m:].real.sum()


def _whiten(vv: NDArray, c: NDArray, lags: tuple[NDArray, ...]) -> SvarCoefficients:
    """Structural coefficients from a reduced form's `c` and `A_i` and the
    Gram ``V V^H`` of its residuals: `L` is the inverse of the lower factor
    of ``V V^H``, ``R_i = L A_i`` and ``t = L c`` (`model._rescaled`)."""
    mixing = _inverse_bottom_rows(
        _factor(vv, "residual Gram matrix VV^H", "residuals are rank deficient"),
        vv.shape[0])
    lags, t = _rescaled(mixing, lags, c, "rescaled coefficient")
    return _fitted(SvarCoefficients, L=mixing, R=lags, t=t)


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
    NumericalOverflow
        If a rescaled coefficient overflows double precision, as it can
        for a caller's reduced form whose `V` and `A_i` differ widely in
        scale.
    """
    if model.V is None:
        raise ValueError("model has no residual matrix V; fit it first")
    return _whiten(gram_hermitian(model.V), model.c, model.A)


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

    Wherever T does not fit in one chunk buffer (`model._regressor_gram`
    states the rule), ``T T^H`` is formed from the K+1 distinct M x M lag
    products of the signal and T itself is never built. ``T T^H`` is freed
    once it is factored, before the division, so the factor is the one
    Gram-sized array the division holds.

    Raises the same errors as `fit_rvar_ls`, with the stricter sample
    requirement N - K >= M*(K+1) + 1.
    """
    x, k = _check_signal(x, k)
    _require_samples(x.shape, k, direct=True)
    # No name holds the Gram, so it is freed once it is factored.
    return _finish_lic(x.shape[0], k, _factor_stacked(_regressor_gram(x, k)))


def _factor_stacked(gram: NDArray) -> NDArray:
    """The lower factor of ``T T^H`` (`_factor`)."""
    return _factor(gram, "stacked Gram matrix TT^H",
                   "the signal is deterministic or has collinear branches")


def _finish_lic(m: int, k: int, factor: NDArray) -> SvarCoefficients:
    """The direct route from the lower factor of ``T T^H`` on: solve for
    the bottom M rows of its inverse and read the coefficients out of
    them."""
    u_alpha = _inverse_bottom_rows(factor, m)
    coefficients = u_alpha[:, :m * k + 1]
    np.negative(coefficients, out=coefficients)  # u_alpha is fresh: negate in place
    t, lags = _unstack_coefficients(coefficients)
    return _fitted(SvarCoefficients, L=u_alpha[:, m * k + 1:].copy(), R=lags, t=t)


def coefficient_discrepancy(ref: SvarCoefficients, other: SvarCoefficients) -> float:
    """Max over {L, R_1..R_K, t} of ``||delta||_F / max(||ref part||_F, 1)``.

    The floor of 1 in the denominator keeps the metric meaningful when a
    coefficient (typically `t`) is near zero. Each part is measured from
    the squared norms of its difference and of its reference array. The
    scaled path runs only for a part whose squared difference or squared
    norm overflows, or whose squared difference falls below
    `_SQUARES_FLOOR`, where squares that went subnormal may have lost
    precision (an exact agreement included): the part is measured again
    with both of its arrays scaled by the power of two that brings their
    largest real or imaginary part below 1, at most 2^1023. That is exact
    but for entries more than 2^511 times smaller than the largest, whose
    squares lose precision; the reference part's norm is kept unscaled
    where it fits, since its scaled square can underflow. So no part is
    dropped or read as agreement, and no floor stands in for a norm.

    Raises
    ------
    NumericalOverflow
        If the discrepancy itself exceeds double precision.
    """
    if ref.order != other.order or ref.branches != other.branches:
        raise DimensionMismatch("models differ in branch count or order")
    errs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in [(ref.L, other.L), (ref.t, other.t), *zip(ref.R, other.R)]:
            s = 1.0
            delta = a - b
            diff2, size2 = np.vdot(delta, delta).real, np.vdot(a, a).real
            diff, size = math.sqrt(diff2), math.sqrt(size2)
            # Squares that overflow, or a squared difference too small to
            # trust: measure the part scaled.
            if not (_SQUARES_FLOOR <= diff2 < math.inf and size2 < math.inf):
                # Real and imaginary parts: a complex modulus can overflow.
                # Parts below 2^-1023 are scaled by 2^1023, the largest
                # power of two a double holds.
                parts = np.concatenate((a, b), axis=None).view(np.float64)
                s = math.ldexp(1.0, min(-math.frexp(np.abs(parts).max())[1], 1023))
                delta = a * s - b * s
                diff = math.sqrt(np.vdot(delta, delta).real)
                size = size * s if size2 < math.inf else math.sqrt(np.vdot(a * s, a * s).real)
            errs.append(diff / max(size, s))  # s is the floor of 1, scaled
    worst = max(errs)
    if not math.isfinite(worst):
        _finite(worst, "coefficient discrepancy")  # raises NumericalOverflow
    return worst


class FitComparison(NamedTuple):
    ls: SvarCoefficients
    lic: SvarCoefficients
    discrepancy: float


def fit_both(x: ArrayLike, k: int) -> FitComparison:
    """Run both routes and report their relative Frobenius discrepancy.

    The least-squares result serves as the reference in the discrepancy
    metric. On well-conditioned inputs the discrepancy sits at rounding
    level (far below 1e-8); a large value flags ill conditioning. The
    signal's shape and both routes' sample rules are checked once, at the
    door, the least-squares rule first, before ``T T^H`` is formed once,
    whose check reads the signal's finiteness; both routes finish from
    that one Gram, so they decide rank from the same numbers.

    The steps run in the order that frees each Gram-sized array before
    the next step needs room: form ``T T^H`` and read the flush floor off
    its diagonal, solve the least-squares block through the factor of
    ``S S^H``, factor ``T T^H`` and free it, take the direct route's
    bottom rows and free the factor, and only then sum ``V V^H`` over the
    residual pass, flush it, whiten and measure the discrepancy. So the
    peak is the larger of the least-squares solve and the direct route's
    floor, ``T T^H`` beside its factor (5.33 MiB at (64,8,8192)), and
    the Grams are factored in the order ``S S^H``, ``T T^H``, ``V V^H``: a
    deterministic series raises `RankDeficient` naming ``T T^H``, as
    `fit_svar_lic` does, before its residuals are flushed.

    The least-squares half is `fit_rvar_ls` then `rvar_to_svar` without
    V: ``V V^H`` is summed chunk by chunk in the residuals' loop
    (`linalg._residuals`), so V is never held whole where the window is
    cut, and V is flushed, as `fit_rvar_ls` flushes it, on that Gram's
    trace, ``||V||_F^2``. The flush stays: it is `fit_rvar_ls`'s rule,
    and whether ``T T^H``'s pivot rule always rejects the series it
    guards against first depends on `linalg.PIVOT_RTOL` against
    `RESIDUAL_FLUSH_RTOL`. Where the residuals' window is one chunk, one
    product per lag over the whole window (N-K at most
    `linalg._CHUNK_SAMPLES` and not cut by the Gram's chunks), the result
    is bit for bit that of the two public steps; where it is cut, the
    Gram is summed over the chunks, and the two agree to rounding.
    """
    x, k = _check_both(x, k)
    m = x.shape[0]
    gram = _regressor_gram(x, k)
    floor = _flush_floor(gram, m)
    c, lags = _solve_ls(m, k, gram)
    factor = _factor_stacked(gram)
    del gram  # freed before the division, as in `fit_svar_lic`
    lic = _finish_lic(m, k, factor)
    del factor  # freed before the residual pass
    with np.errstate(over="ignore", invalid="ignore"):
        vv = _finish_gram(_residuals(x, k, None, c, lags, gram=True), None)
    # The trace of V V^H is ||V||_F^2, the sum `fit_rvar_ls` flushes on.
    if vv.diagonal().real.sum() <= floor:
        vv = np.zeros_like(vv)
    ls = _whiten(vv, c, lags)
    return FitComparison(ls=ls, lic=lic, discrepancy=coefficient_discrepancy(ls, lic))
