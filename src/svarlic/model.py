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

The two estimation routes in :mod:`svarlic.estimators` consume the stacked
regressor matrices built here. Note their lag orderings differ on purpose:
`build_regressor_s` stacks lag 1 first, `build_regressor_t` stacks the
oldest sample first and the current samples last. The block-extraction map
in the direct estimator absorbs the difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .exceptions import DimensionMismatch, OrderTooLarge
from .linalg import _check_lower_factor, as_matrix, gram_hermitian, invert_lower

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
    if int(k) != k or k < 0:
        raise ValueError(f"order K must be a nonnegative integer, got {k!r}")
    return int(k)


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
        c = np.atleast_1d(np.asarray(self.c)).ravel()
        self.c = _as_vector(c, c.shape[0], "c")
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


def _check_usable(x: NDArray, k: int) -> None:
    n = x.shape[1]
    if n <= k:
        raise OrderTooLarge(f"order K={k} too large for N={n} samples (need N > K)")


def _stack_regressor(x: ArrayLike, k: int, direct: bool) -> tuple[NDArray, int, NDArray]:
    """Check the signal `x` and order `k`, then stack a regressor matrix.

    Returns the signal as an array, the order as an int and the stack: a
    row of ones over K blocks of M rows, lag 1 first (the least-squares
    layout), or with `direct` over K+1 blocks, oldest first, whose last
    block is the current samples (the direct layout). The routes call this
    once per fit, so the signal is checked once.
    """
    x = as_signal(x)
    k = validate_order(k)
    _check_usable(x, k)
    n = x.shape[1]
    starts = range(k + 1) if direct else range(k - 1, -1, -1)
    blocks = [np.ones((1, n - k), dtype=x.dtype)]
    blocks.extend(x[:, j:n - k + j] for j in starts)
    return x, k, np.vstack(blocks)


def build_regressor_s(x: ArrayLike, k: int) -> NDArray:
    """Stack the least-squares regressor matrix of shape (M*K+1) x (N-K).

    Row 1 is all ones; below it sit K blocks of M rows, lag 1 first: block
    j holds the samples ``x(K+1-j) .. x(N-j)``.
    """
    return _stack_regressor(x, k, direct=False)[2]


def build_regressor_t(x: ArrayLike, k: int) -> NDArray:
    """Stack the one-shot regressor matrix of shape (M*(K+1)+1) x (N-K).

    Row 1 is all ones; then K+1 blocks of M rows, oldest first: block j
    holds ``x(j) .. x(N-K+j-1)``. The final block is the current samples
    ``x(K+1) .. x(N)``, so the top M*K+1 rows are a block-reversed
    permutation of `build_regressor_s` output.
    """
    return _stack_regressor(x, k, direct=True)[2]


def svar_residuals(model: SvarCoefficients, x: ArrayLike) -> NDArray:
    """Structural residuals ``w(n) = L x(n) - t - sum_i R_i x(n-i)``.

    Returns an M x (N-K) array, one column per sample n = K+1 .. N.
    """
    x = as_signal(x)
    if x.shape[0] != model.branches:
        raise DimensionMismatch(
            f"signal has {x.shape[0]} branches, model expects {model.branches}")
    k = model.order
    _check_usable(x, k)
    n = x.shape[1]
    w = model.L @ x[:, k:] - model.t[:, None]
    for i, r in enumerate(model.R, 1):
        w = w - r @ x[:, k - i:n - i]
    return w


def rvar_residuals(model: RvarCoefficients, x: ArrayLike) -> NDArray:
    """Reduced-form residuals ``v(n) = x(n) - c - sum_i A_i x(n-i)``.

    Evaluated as one stacked product ``X - [c, A_1..A_K] S``, the same
    expression the least-squares fit uses, so on a fitted model the result
    reproduces the stored `V` bit for bit.
    """
    x, k, s = _stack_regressor(x, model.order, direct=False)
    if x.shape[0] != model.branches:
        raise DimensionMismatch(
            f"signal has {x.shape[0]} branches, model expects {model.branches}")
    stacked = np.hstack([model.c[:, None], *model.A])
    return x[:, k:] - stacked @ s


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
