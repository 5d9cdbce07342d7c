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

The two estimation routes in :mod:`svarlic.estimators` use one stack, T,
the direct route's regressor (`build_regressor_t`, `_stack_regressor`): a
row of ones, then K lag blocks of M rows, lag 1 first, then the current
samples as one more block. The least-squares regressor S is its top
M*K+1 rows (`build_regressor_s`). So every coefficient block the routes
read, ``[c | A_1 .. A_K]`` or ``-[t | R_1 .. R_K]``, has the same columns,
and `_unstack_coefficients` is the one place that splits it into lags.

Both routes start from the Gram ``T T^H`` of that layout
(`_regressor_gram`). Its blocks are sliding-window lag covariances, so
wherever T does not fit in one chunk buffer (the rule is
`_regressor_gram`'s) it is computed from the K+1 distinct M x M lag
products of the signal, about ``M^2 (K+1) N`` multiplies, summed over
chunks of samples by the package's one Gram chunk loop
(`linalg._window_products`), and T is never stacked: where the window is
cut, the working memory is one chunk-sized buffer. `svarlic.complexity`
still charges the paper's ``q^2 N / 2``. The fits read the signal's
finiteness off that Gram rather than scanning the signal
(`_check_signal`).

Residuals of either form, the least-squares fit's `V` and `fit_both`'s
``V V^H`` included, are one expression and one loop,
`linalg._residuals`, a pass over the samples like the Gram's lag
products, with the mixing matrix L, where there is one, as one more
product. So no fit or residual routine stacks T, and the working memory
beside the result is one chunk's: T is stacked whole only by
`build_regressor_t`, `build_regressor_s` and the Gram where it fits in
that buffer. The structured Gram stacks T over one snippet of 4K
samples, the ends of the signal each followed by K zeros, for its edge
terms.

An inverse factor rescales a model's coefficients in one step,
`_rescaled`: the least-squares route's whitening and the reduced form a
structural model implies both take it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .exceptions import DimensionMismatch, OrderTooLarge
from .linalg import (
    _as_float_matrix,
    _check_lower_factor,
    _chunk_width,
    _finish_gram,
    _finite,
    _inverse_bottom_rows,
    _residuals,
    _window_products,
    as_matrix,
    gram_hermitian,
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


def _integer(value: object, least: int, message: str) -> int:
    """`value` as an int if it is integral, integral floats included, and
    at least `least`; anything else raises `ValueError` with `message`
    formatted with the value. The package's one rule for counts."""
    try:
        if int(value) == value and value >= least:
            return int(value)
    except (TypeError, ValueError, OverflowError):  # None, NaN, infinity
        pass
    raise ValueError(message.format(value))


def validate_order(k: int) -> int:
    return _integer(k, 0, "order K must be a nonnegative integer, got {!r}")


def _as_vector(v: ArrayLike, m: int, name: str) -> NDArray:
    arr = np.atleast_1d(np.asarray(v))
    if arr.ndim == 2 and 1 in arr.shape:
        arr = arr.ravel()
    if arr.ndim != 1 or arr.shape[0] != m:
        raise DimensionMismatch(f"{name} must be a length-{m} vector, got shape {arr.shape}")
    return as_matrix(arr[None, :], name)[0]


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

    The constructor checks caller input: every array is coerced and
    scanned for finiteness and shape once, and `L` against the factor
    convention. The estimators and the generator hand on the arrays they
    build through `_fitted`, unchecked.
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
    matrix `V` when produced by an estimator.

    As with `SvarCoefficients`, the constructor checks caller input and
    the package's own results skip it (`_fitted`), `V` included.
    """

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


def _fitted(cls: type, **fields: object) -> SvarCoefficients | RvarCoefficients:
    """A `cls` container holding `fields`, arrays the package built from
    checked input, made without the caller checks of `__post_init__`.
    Every field is passed: `R` and `A` have no class default."""
    fitted = object.__new__(cls)
    vars(fitted).update(fields)
    return fitted


def _check_order(k: int, n: int) -> None:
    """Raise `OrderTooLarge` unless N > K: the package's one order rule,
    for the fits' signals and the cost models' counts alike."""
    if n <= k:
        raise OrderTooLarge(f"order K={k} too large for N={n} samples (need N > K)")


def _check_signal(x: ArrayLike, k: int, branches: int | None = None) -> tuple[NDArray, int]:
    """Check the signal `x` and order `k` at the door of every fit and
    residual route: `x` is coerced to a 2-D float array without reading
    its entries, `k` is validated, N > K and, if `branches` is given, `x`
    has that many rows. Returns both as checked values; nothing built from
    them is checked again.

    The fits scan no entry here: every sample reaches the diagonal of the
    regressor Gram, whose finiteness check names the signal
    (`linalg._finish_gram`). Routes that form no Gram from `x`, the
    residuals and the stacked regressors, pass it through `as_signal`
    first, their one scan."""
    x = _as_float_matrix(x, "signal")
    k = validate_order(k)
    _check_order(k, x.shape[1])
    if branches is not None and x.shape[0] != branches:
        raise DimensionMismatch(
            f"signal has {x.shape[0]} branches, model expects {branches}")
    return x, k


def _stack_regressor(x: NDArray, k: int) -> NDArray:
    """Stack T from a checked signal `x` and order `k` into a new array of
    `x`'s type: the regressors, the dense Gram's operand and, over a
    snippet of the signal's ends, the structured Gram's edge terms.

    T is a row of ones over K+1 blocks of M rows: lags 1 .. K, then lag
    0, the current samples. Its top M*K+1 rows are S. This is the
    package's only stack and its only row layout.
    """
    m, n = x.shape
    t = np.empty((m * (k + 1) + 1, n - k), dtype=x.dtype)
    t[0] = 1
    for j, d in enumerate([*range(1, k + 1), 0]):
        t[1 + j * m:1 + (j + 1) * m] = x[:, k - d:n - d]
    return t


def _regressor_gram(x: NDArray, k: int) -> NDArray:
    """``T T^H`` for a checked signal `x` and order `k`, with T the
    `build_regressor_t` stack: exactly Hermitian with a real diagonal. It
    raises `ValueError` naming the signal if the signal has a non-finite
    entry, which the fits do not scan for, and `NumericalOverflow` on a
    product of a finite signal that does not fit.

    One rule picks the form: T is stacked whole exactly where its
    ``q (N-K)`` entries fit in the M-row buffer of the widest chunk of an
    M-branch pass (``M * linalg._chunk_width(M)`` elements, the buffer
    whose elements also bound every other pass's chunks). There the Gram
    is T's one product, which takes the fewest numpy calls. Elsewhere T is
    never stacked, and the Gram comes from K+1 lag products.

    The block of ``T T^H`` at the rows of lags i and j is the sliding lag
    covariance ``sum_{n=K}^{N-1} x(n-i) x(n-j)^H`` (Whittle 1963; Morf,
    Vieira, Lee & Kailath 1978). For i >= j, shifting n by j turns it into
    the window product ``P_{i-j} = sum_{n=K}^{N-1} x(n-i+j) x(n)^H``, plus
    the j samples the shift adds before the window, minus the j it drops
    at the end. So only the K+1 products ``P_0 .. P_K`` pass over the
    samples (about ``M^2 (K+1) N`` multiplies, against ``q^2 N`` for the
    dense product). They and the intercept row's window sums are summed
    over the chunks of linalg's one rule for every pass over the samples
    (`_window_products`), so the working memory is one chunk-sized buffer
    where the window is cut, or of several blocks and complex or in the
    phase form, never T's ``M (K+1) N`` values.

    The edge terms come from one stack in T's own layout
    (`_stack_regressor`) of a snippet of 4K samples: the first K samples
    and K zeros (the head), then the last K and K zeros (the tail). Of its
    3K columns, the first K stack the head and columns 2K+1 .. 3K the
    tail; only those 2K are kept. In the s-th column (s = 1 .. K) of a
    half, the block of lag d holds ``x(K-d+s)`` at the head and
    ``x(N-d+s)`` at the tail when s <= d, and zero otherwise, and the ones
    row holds ones. So one signed product, head columns added and tail
    columns subtracted, corrects every block, the intercept row's lag sums
    included. At K = 0 no shift adds or drops a sample, and the product
    is skipped.

    Each block row of the Gram is written in place by one call from one
    list of its pieces: the window sums, then ``P_K^H .. P_1^H``, each
    conjugated once, and ``P_0 .. P_K``. Counting the sums as piece 0,
    the block at the rows of lags i and j is piece K + 1 + i - j, so the
    block row of lag i is the sums, pieces K + i down to i + 1, and piece
    K + 1 + i, lag 0's. The list goes with the lag products before the
    edge product, so the Gram-sized arrays beside the Gram are the edge
    terms' product and the copy `_finish_gram` makes, one at a time.
    """
    m, n = x.shape
    q = m * (k + 1) + 1
    with np.errstate(over="ignore", invalid="ignore"):
        if q * (n - k) <= m * _chunk_width(m):
            (g,), _ = _window_products(_stack_regressor(x, k), 0)
            return _finish_gram(g, x, "signal")
        products, sums = _window_products(x, k, sums=True)
        pieces = [sums[:, None], *(p.conj().T for p in products[:0:-1]), *products]
        g = np.empty((q, q), dtype=x.dtype)
        g[0, 0] = n - k
        for b, i in enumerate([*range(1, k + 1), 0]):
            np.concatenate((pieces[0], *pieces[i + k:i:-1], pieces[i + k + 1]), axis=1,
                           out=g[1 + b * m:1 + (b + 1) * m])
        g[0, 1:] = g[1:, 0].conj()
        del products, pieces  # freed before the edge terms' product
        if k:  # at K = 0 the window is the whole signal: no edge terms
            snippet = np.zeros((m, 4 * k), dtype=x.dtype)
            snippet[:, :k], snippet[:, 2 * k:3 * k] = x[:, :k], x[:, n - k:]
            edges = _stack_regressor(snippet, k)[:, [*range(k), *range(2 * k, 3 * k)]]
            g += (edges * np.repeat([1.0, -1.0], k)) @ edges.conj().T
    return _finish_gram(g, x, "signal")


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
    j holds the samples ``x(K+1-j) .. x(N-j)``. S is the top M*K+1 rows of
    T (`build_regressor_t`), so this stacks T, M rows more than S, and
    returns a view of its top rows.
    """
    x, k = _check_signal(as_signal(x), k)
    return _stack_regressor(x, k)[:x.shape[0] * k + 1]


def build_regressor_t(x: ArrayLike, k: int) -> NDArray:
    """Stack the one-shot regressor matrix of shape (M*(K+1)+1) x (N-K).

    The top M*K+1 rows are `build_regressor_s` output, entry for entry;
    below them sits one more block of M rows, the current samples
    ``x(K+1) .. x(N)``.
    """
    return _stack_regressor(*_check_signal(as_signal(x), k))


def _caller_residuals(model: SvarCoefficients | RvarCoefficients, x: ArrayLike,
                      mixing: NDArray | None, intercept: NDArray,
                      lags: tuple[NDArray, ...]) -> NDArray:
    """`linalg._residuals` of a caller's signal `x` under `model`'s
    coefficients: `x` is scanned once, and a residual that overflows
    raises `NumericalOverflow` (`linalg._finite`). The least-squares fit
    calls `_residuals` itself: an overflowing `V` fails its Gram's
    check."""
    x, k = _check_signal(as_signal(x), model.order, model.branches)
    with np.errstate(over="ignore", invalid="ignore"):
        r = _residuals(x, k, mixing, intercept, lags)
    return _finite(r, "residual")


def svar_residuals(model: SvarCoefficients, x: ArrayLike) -> NDArray:
    """Structural residuals ``w(n) = L x(n) - t - sum_i R_i x(n-i)``.

    Evaluated chunk by chunk of the signal (`linalg._residuals`), the
    expression `rvar_residuals` and the least-squares fit use. Returns an
    M x (N-K) array, one column per sample n = K+1 .. N. Raises
    `NumericalOverflow` if a residual overflows double precision.
    """
    return _caller_residuals(model, x, model.L, model.t, model.R)


def rvar_residuals(model: RvarCoefficients, x: ArrayLike) -> NDArray:
    """Reduced-form residuals ``v(n) = x(n) - c - sum_i A_i x(n-i)``.

    Evaluated chunk by chunk of the signal (`linalg._residuals`), the same
    expression the least-squares fit uses for `V`, so on a fitted model the
    result reproduces the stored `V` bit for bit. Raises
    `NumericalOverflow` if a residual overflows double precision.
    """
    return _caller_residuals(model, x, None, model.c, model.A)


def companion_matrix(a: tuple[NDArray, ...] | list[NDArray]) -> NDArray:
    """Companion form of the lag polynomial: (M*K) x (M*K), K >= 1."""
    k = len(a)
    if k == 0:
        raise ValueError("companion matrix requires at least one lag matrix")
    m = a[0].shape[0]
    dtype = np.result_type(*(ai.dtype for ai in a))
    comp = np.zeros((m * k, m * k), dtype=dtype)
    comp[:m, :] = np.hstack(a)
    comp[m:, :-m] = np.eye(m * (k - 1), dtype=dtype)
    return comp


def companion_spectral_radius(model: SvarCoefficients | RvarCoefficients) -> float:
    """Spectral radius of the implied reduced-form companion matrix.

    For structural coefficients the implied lag matrices are
    ``A_i = L^{-1} R_i``. Zero for K = 0. The process is covariance stable
    iff the radius is below one. Raises `NumericalOverflow` if the implied
    lag matrices or the radius overflow double precision.
    """
    if isinstance(model, SvarCoefficients):
        _, a, _ = _implied_reduced_form(model)
    else:
        a = model.A
    if len(a) == 0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        radius = np.abs(np.linalg.eigvals(companion_matrix(a))).max()
    return float(_finite(radius, "companion spectral radius"))


def whitening_error(model: SvarCoefficients, x: ArrayLike) -> float:
    """Frobenius distance of the residual Gram matrix from the identity,
    ``|| sum_n w(n) w(n)^H - I ||_F``.

    Both estimators drive this to machine precision by construction; on a
    model that did not generate/fit the data it measures misfit. Raises
    `NumericalOverflow` if the residuals, their Gram or the distance
    overflow double precision.
    """
    g = gram_hermitian(svar_residuals(model, x))
    with np.errstate(over="ignore", invalid="ignore"):
        error = np.linalg.norm(g - np.eye(model.branches))
    return float(_finite(error, "whitening error"))


def _rescaled(mixing: NDArray, lags: tuple[NDArray, ...], intercept: NDArray,
              what: str) -> tuple[tuple[NDArray, ...], NDArray]:
    """``mixing @ lags[i]`` and ``mixing @ intercept``: the one step that
    rescales a model's coefficients by an inverse factor `mixing`. It
    raises `NumericalOverflow` saying that `what` overflows if a product
    is not finite (`linalg._finite`). A non-finite entry of `mixing`
    makes its row of the intercept's product non-finite too, ``inf * 0``
    included, so the products' check covers `mixing`."""
    with np.errstate(over="ignore", invalid="ignore"):
        lags = tuple(mixing @ a for a in lags)
        intercept = mixing @ intercept
    _finite(np.concatenate((intercept, *lags), axis=None), what)
    return lags, intercept


def _implied_reduced_form(model: SvarCoefficients) -> tuple[NDArray, tuple[NDArray, ...], NDArray]:
    """(L^{-1}, A_i = L^{-1} R_i, c = L^{-1} t) for forward simulation,
    raising `NumericalOverflow` if an entry overflows double precision."""
    with np.errstate(over="ignore", invalid="ignore"):
        linv = _inverse_bottom_rows(model.L, model.branches)
    return (linv, *_rescaled(linv, model.R, model.t, "implied reduced-form coefficient"))
