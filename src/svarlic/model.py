"""Signal and model containers, stacked-regressor builders, residuals and
stability diagnostics.

A signal is an M x N array: one row per branch, one column per sample, with
column ``n`` holding the sample ``x(n)`` (1-based in all documentation, as
usual for time-series notation; code indexes from zero).

Two model forms appear throughout:

* the structural form ``L x(n) = t + sum_i R_i x(n-i) + w(n)`` with a
  lower-triangular mixing matrix `L` on the left and whitened shocks `w`, and
* the reduced form ``x(n) = c + sum_i A_i x(n-i) + v(n)`` with correlated
  innovations `v`.

The two estimation routes in :mod:`svarlic.estimators` use one row layout:
a row of ones, then K lag blocks of M rows, lag 1 first
(`build_regressor_s`); the direct route's `build_regressor_t` appends the
current samples as one more block. So every coefficient block the routes
read, ``[c | A_1 .. A_K]`` or ``-[t | R_1 .. R_K]``, has the same columns,
and `_unstack_coefficients` is the one place that splits it into lags.

Both routes start from the Gram ``T T^H`` of that layout
(`_regressor_gram`). Its blocks are sliding-window lag covariances, so
above a small size it is computed from the K+1 distinct M x M lag products
of the signal, about ``M^2 (K+1) N`` multiplies, and T is never stacked;
`svarlic.complexity` still charges the paper's ``q^2 N / 2``.

Residuals of either form, the least-squares fit's `V` included, are one
expression, `_residuals`, with one product per lag on a slice of the
signal, so no fit or residual routine stacks S; S is stacked only by
`build_regressor_s`, and T only by `build_regressor_t` and the dense Gram.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .exceptions import DimensionMismatch, OrderTooLarge
from .linalg import (
    _check_lower_factor,
    _conj_transpose,
    _finish_gram,
    as_matrix,
    gram_hermitian,
    invert_lower,
)

__all__ = [
    "SvarCoefficients",
    "RvarCoefficients",
    "as_signal",
    "validate_order",
    "build_regressor_s",
    "build_regressor_t",
    "svar_residuals",
    "rvar_residuals",
    "companion_matrix",
    "companion_spectral_radius",
    "whitening_error",
]


def as_signal(x: ArrayLike) -> NDArray:
    """Coerce `x` to a validated M x N signal array (finite, 2-D)."""
    return as_matrix(x, "signal")


def validate_order(k: int) -> int:
    try:
        if int(k) == k and k >= 0:
            return int(k)
    except (TypeError, ValueError, OverflowError):  # None, NaN, infinity
        pass
    raise ValueError(f"order K must be a nonnegative integer, got {k!r}")


def _as_vector(v: ArrayLike, m: int, name: str) -> NDArray:
    arr = np.atleast_1d(np.asarray(v))
    if arr.ndim == 2 and 1 in arr.shape:
        arr = arr.ravel()
    if arr.ndim != 1 or arr.shape[0] != m:
        raise DimensionMismatch(f"{name} must be a length-{m} vector, got shape {arr.shape}")
    arr = as_matrix(arr[None, :], name)[0]
    return arr


def _as_square(a: ArrayLike, m: int, name: str) -> NDArray:
    arr = as_matrix(a, name)
    if arr.shape != (m, m):
        raise DimensionMismatch(f"{name} must be {m}x{m}, got shape {arr.shape}")
    return arr


@dataclass
class SvarCoefficients:
    """Structural-form coefficients (L, R_1..R_K, t).

    `L` must be lower triangular with a strictly positive real diagonal;
    both estimation routes produce exactly that under the shared sign
    convention, and the synthetic generator constructs it directly.
    """

    L: NDArray
    R: tuple[NDArray, ...] = field(default_factory=tuple)
    t: NDArray | None = None

    def __post_init__(self):
        self.L = as_matrix(self.L, "L")
        _check_lower_factor(self.L, "L")
        m = self.L.shape[0]
        self.R = tuple(_as_square(r, m, f"R_{i}") for i, r in enumerate(self.R, 1))
        self.t = (np.zeros(m, dtype=self.L.dtype) if self.t is None
                  else _as_vector(self.t, m, "t"))

    @property
    def branches(self) -> int:
        return self.L.shape[0]

    @property
    def order(self) -> int:
        return len(self.R)


@dataclass
class RvarCoefficients:
    """Reduced-form coefficients (c, A_1..A_K) plus the fitted residual
    matrix `V` when produced by an estimator."""

    c: NDArray
    A: tuple[NDArray, ...] = field(default_factory=tuple)
    V: NDArray | None = None

    def __post_init__(self):
        self.c = _as_vector(self.c, np.size(self.c), "c")
        m = self.c.shape[0]
        self.A = tuple(_as_square(a, m, f"A_{i}") for i, a in enumerate(self.A, 1))
        if self.V is not None:
            self.V = as_matrix(self.V, "V")
            if self.V.shape[0] != m:
                raise DimensionMismatch(
                    f"V must have {m} rows, got shape {self.V.shape}")

    @property
    def branches(self) -> int:
        return self.c.shape[0]

    @property
    def order(self) -> int:
        return len(self.A)


def _check_signal(x: ArrayLike, k: int, branches: int | None = None) -> tuple[NDArray, int]:
    """Check the signal `x` and order `k` at the door of every fit and
    residual route: `x` is coerced and scanned for finiteness once, `k` is
    validated, N > K and, if `branches` is given, `x` has that many rows.
    Returns both as checked values; nothing built from them is checked
    again."""
    x = as_signal(x)
    k = validate_order(k)
    n = x.shape[1]
    if n <= k:
        raise OrderTooLarge(f"order K={k} too large for N={n} samples (need N > K)")
    if branches is not None and x.shape[0] != branches:
        raise DimensionMismatch(
            f"signal has {x.shape[0]} branches, model expects {branches}")
    return x, k


def _stack_regressor(x: NDArray, k: int, direct: bool) -> NDArray:
    """Stack a regressor matrix from a checked signal `x` and order `k`.

    The stack is a row of ones over K blocks of M rows, lag 1 first, with
    `direct` over one more block, the current samples. This is the
    package's only row layout.
    """
    m, n = x.shape
    lags = [*range(1, k + 1), 0] if direct else range(1, k + 1)
    stack = np.empty((m * len(lags) + 1, n - k), dtype=x.dtype)
    stack[0] = 1
    for j, d in enumerate(lags):
        stack[1 + j * m:1 + (j + 1) * m] = x[:, k - d:n - d]
    return stack


#: `_regressor_gram` stacks T and forms the dense product while that
#: product costs fewer than this many multiply-adds, ``q^2 (N-K)``; above
#: it the lag products' saving outweighs their fixed cost of numpy calls.
_DENSE_GRAM_WORK = 2 ** 20


def _regressor_gram(x: NDArray, k: int) -> NDArray:
    """``T T^H`` for a checked signal `x` and order `k`, with T the
    `build_regressor_t` stack: dense below `_DENSE_GRAM_WORK`, from lag
    products above it (`_lag_covariance_gram`). Both forms are exactly
    Hermitian with a real diagonal and raise `NumericalOverflow` on a
    product that does not fit."""
    q = x.shape[0] * (k + 1) + 1
    if q * q * (x.shape[1] - k) < _DENSE_GRAM_WORK:
        return gram_hermitian(_stack_regressor(x, k, direct=True))
    return _lag_covariance_gram(x, k)


def _lag_covariance_gram(x: NDArray, k: int) -> NDArray:
    """``T T^H`` in T's row layout from K+1 lag products, without T.

    The block of ``T T^H`` at the rows of lags i and j is the sliding lag
    covariance ``sum_{n=K}^{N-1} x(n-i) x(n-j)^H`` (Whittle 1963; Morf,
    Vieira, Lee & Kailath 1978). For i >= j, shifting n by j turns it into
    the window product ``P_{i-j} = sum_{n=K}^{N-1} x(n-i+j) x(n)^H``, plus
    the j samples the shift adds before the window, minus the j it drops
    at the end. So only the K+1 products ``P_0 .. P_K`` pass over the
    samples (about ``M^2 (K+1) N`` multiplies, against ``q^2 N`` for the
    dense product), and the working memory is at most one conjugated copy
    of the window (complex input), M N values, not T's ``M (K+1) N``.

    The edge terms come from two small stacks over the 2K edge samples: in
    column s < d, the row block of lag d holds ``x(K-d+s)`` at the head
    and ``x(N-d+s)`` at the tail, and the ones row holds ones, so the
    head's product minus the tail's corrects every block, the intercept
    row's lag sums included.
    """
    m, n = x.shape
    q = m * (k + 1) + 1
    lags = np.array([*range(1, k + 1), 0])
    window = x[:, k:]
    window_h = _conj_transpose(window)
    with np.errstate(over="ignore", invalid="ignore"):
        products = np.stack([x[:, k - d:n - d] @ window_h for d in range(k + 1)])
        # toeplitz[K + i - j] is the window block of lags (i, j): P_{i-j}
        # for i >= j, else P_{j-i}^H.
        toeplitz = np.concatenate([products[:0:-1].conj().swapaxes(1, 2), products])
        g = np.empty((q, q), dtype=x.dtype)
        g[0, 0] = n - k
        g[1:, 0] = np.tile(window.sum(axis=1), k + 1)
        g[0, 1:] = g[1:, 0].conj()
        g[1:, 1:] = (toeplitz[k + lags[:, None] - lags]
                     .swapaxes(1, 2).reshape(q - 1, q - 1))
        s = np.arange(k)
        inside = np.tile(s < lags[:, None], 2)
        offset = np.tile(s - lags[:, None], 2)
        columns = np.where(inside, offset + np.repeat([k, n], k), n - 1)
        edges = np.ones((q, 2 * k), dtype=x.dtype)
        edges[1:] = (x[:, columns] * inside).swapaxes(0, 1).reshape(q - 1, 2 * k)
        g += (edges * np.repeat([1.0, -1.0], k)) @ _conj_transpose(edges)
    return _finish_gram(g, x)


def _unstack_coefficients(block: NDArray) -> tuple[NDArray, tuple[NDArray, ...]]:
    """Split an M x (M*K+1) coefficient block, whose columns follow the
    rows of `build_regressor_s`, into copies of its column 0 and of its K
    square lag blocks, lag 1 first."""
    m = block.shape[0]
    k = (block.shape[1] - 1) // m
    return block[:, 0].copy(), tuple(block[:, 1 + i * m:1 + (i + 1) * m].copy()
                                     for i in range(k))


def build_regressor_s(x: ArrayLike, k: int) -> NDArray:
    """Stack the least-squares regressor matrix of shape (M*K+1) x (N-K).

    Row 1 is all ones; below it sit K blocks of M rows, lag 1 first: block
    j holds the samples ``x(K+1-j) .. x(N-j)``.
    """
    return _stack_regressor(*_check_signal(x, k), direct=False)


def build_regressor_t(x: ArrayLike, k: int) -> NDArray:
    """Stack the one-shot regressor matrix of shape (M*(K+1)+1) x (N-K).

    The top M*K+1 rows are `build_regressor_s` output, entry for entry;
    below them sits one more block of M rows, the current samples
    ``x(K+1) .. x(N)``.
    """
    return _stack_regressor(*_check_signal(x, k), direct=True)


def _residuals(x: NDArray, k: int, lead: NDArray, intercept: NDArray,
               lags: tuple[NDArray, ...]) -> NDArray:
    """``lead - intercept - sum_i lags[i-1] x(n-i)`` over n = K+1 .. N for
    a checked signal `x` and order `k`: an M x (N-K) array, one column per
    sample, with one product per lag on a slice of `x`, so S is never
    stacked. `lead` must be an array the caller gives up: it is overwritten
    when it already has the result's type, the type of all the operands,
    so real `lead` and `intercept` with a complex lag give complex
    residuals."""
    n = x.shape[1]
    r = lead.astype(np.result_type(x, lead, intercept, *lags), copy=False)
    r -= intercept[:, None]
    for i, a in enumerate(lags, 1):
        r -= a @ x[:, k - i:n - i]
    return r


def svar_residuals(model: SvarCoefficients, x: ArrayLike) -> NDArray:
    """Structural residuals ``w(n) = L x(n) - t - sum_i R_i x(n-i)``.

    Evaluated lag by lag on slices of the signal (`_residuals`), the
    expression `rvar_residuals` and the least-squares fit use. Returns an
    M x (N-K) array, one column per sample n = K+1 .. N.
    """
    x, k = _check_signal(x, model.order, model.branches)
    return _residuals(x, k, model.L @ x[:, k:], model.t, model.R)


def rvar_residuals(model: RvarCoefficients, x: ArrayLike) -> NDArray:
    """Reduced-form residuals ``v(n) = x(n) - c - sum_i A_i x(n-i)``.

    Evaluated lag by lag on slices of the signal (`_residuals`), the same
    expression the least-squares fit uses for `V`, so on a fitted model the
    result reproduces the stored `V` bit for bit.
    """
    x, k = _check_signal(x, model.order, model.branches)
    return _residuals(x, k, x[:, k:].copy(), model.c, model.A)


def companion_matrix(a: tuple[NDArray, ...] | list[NDArray]) -> NDArray:
    """Companion form of the lag polynomial: (M*K) x (M*K), K >= 1."""
    k = len(a)
    if k == 0:
        raise ValueError("companion matrix requires at least one lag matrix")
    m = a[0].shape[0]
    dtype = np.result_type(*(ai.dtype for ai in a))
    comp = np.zeros((m * k, m * k), dtype=dtype)
    comp[:m, :] = np.hstack(a)
    if k > 1:
        comp[m:, :-m] = np.eye(m * (k - 1), dtype=dtype)
    return comp


def companion_spectral_radius(model: SvarCoefficients | RvarCoefficients) -> float:
    """Spectral radius of the implied reduced-form companion matrix.

    For structural coefficients the implied lag matrices are
    ``A_i = L^{-1} R_i``. Zero for K = 0. The process is covariance stable
    iff the radius is below one.
    """
    if isinstance(model, SvarCoefficients):
        _, a, _ = _implied_reduced_form(model)
    else:
        a = model.A
    if len(a) == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvals(companion_matrix(a))).max())


def whitening_error(model: SvarCoefficients, x: ArrayLike) -> float:
    """Frobenius distance of the residual Gram matrix from the identity,
    ``|| sum_n w(n) w(n)^H - I ||_F``.

    Both estimators drive this to machine precision by construction; on a
    model that did not generate/fit the data it measures misfit.
    """
    w = svar_residuals(model, x)
    g = gram_hermitian(w)
    return float(np.linalg.norm(g - np.eye(model.branches)))


def _implied_reduced_form(model: SvarCoefficients) -> tuple[NDArray, tuple[NDArray, ...], NDArray]:
    """(L^{-1}, A_i = L^{-1} R_i, c = L^{-1} t) for forward simulation."""
    linv = invert_lower(model.L)
    a = tuple(linv @ r for r in model.R)
    c = linv @ model.t
    return linv, a, c
