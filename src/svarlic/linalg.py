"""Dense linear algebra kernel: Hermitian Gram products, lower Cholesky
factorization, lower-triangular inversion, and Hermitian positive-definite
solves.

All routines work on plain 2-D numpy arrays in double precision, real or
complex. Conjugate transpose is written ``H`` throughout; for real matrices
it degenerates to the plain transpose. Cholesky factors follow one fixed
convention: lower triangular with a strictly positive real diagonal, which
makes the factor unique and lets two estimation routes be compared exactly
rather than up to sign. LAPACK's ``potrf`` returns exactly that factor, so
the factorization goes through numpy's LAPACK bindings; the package adds
the pivot rule (`PIVOT_RTOL`) on top. numpy exposes no triangular solve,
so divisions by a factor are the package's recursive block substitution
in matrix products, with one LU solve only on blocks of order
`_SOLVE_BLOCK` or less. The direct route needs only the bottom M rows of
the inverse factor and computes just those rows, and a positive-definite
solve above that order divides by the factor it has already computed.

Finiteness is checked where caller input enters: `as_matrix` makes one pass
over a signal, container or small kernel operand. `gram_hermitian` makes
none over its input, which is the largest array of a fit: a non-finite
input entry makes a diagonal entry of the product non-finite, so the check
on the q x q product catches it, and only then is the input inspected.
Arrays the package computes from checked input are not checked again.

Both estimation pipelines in :mod:`svarlic.estimators` run through this one
kernel, so cross-method tests isolate method differences, not kernel
differences.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .exceptions import DimensionMismatch, NotPositiveDefinite, NumericalOverflow

#: Relative tolerance for the Hermitian-symmetry check in `cholesky_lower`.
HERMITIAN_RTOL = 1e-10

#: A Cholesky pivot below PIVOT_RTOL times the largest diagonal entry of the
#: input is treated as zero and raises `NotPositiveDefinite`.
PIVOT_RTOL = 1e-12

#: Order at or below which a triangular division is one LU solve. Above it
#: the recursive split in matrix products is faster: on a 2-core Xeon with
#: OpenBLAS 0.3.31 on one thread they tie at order 64 on real input, and
#: the split wins from about order 56 on complex input.
_SOLVE_BLOCK = 64

__all__ = [
    "HERMITIAN_RTOL",
    "PIVOT_RTOL",
    "as_matrix",
    "gram_hermitian",
    "cholesky_lower",
    "invert_lower",
    "solve_hpd",
]


def _as_float_matrix(a: ArrayLike, name: str) -> NDArray:
    """Coerce `a` to a nonempty 2-D float64 or complex128 array without
    reading its entries."""
    arr = np.asarray(a)
    if arr.dtype.kind in "iub":
        arr = arr.astype(np.float64)
    elif arr.dtype.kind == "f":
        arr = arr.astype(np.float64, copy=False)
    elif arr.dtype.kind == "c":
        arr = arr.astype(np.complex128, copy=False)
    else:
        raise ValueError(f"{name} must be numeric, got dtype {arr.dtype}")
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"{name} must have nonzero dimensions, got {arr.shape}")
    return arr


def as_matrix(a: ArrayLike, name: str = "matrix") -> NDArray:
    """Coerce `a` to a 2-D float64 or complex128 array with finite entries."""
    arr = _as_float_matrix(a, name)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _conj_transpose(a: NDArray) -> NDArray:
    return a.conj().T if np.iscomplexobj(a) else a.T


def gram_hermitian(a: ArrayLike) -> NDArray:
    """Return the Gram matrix ``a @ a^H`` of shape (rows, rows).

    The result is Hermitian exactly, entry for entry: the product is
    averaged with its conjugate transpose, halved first so that nothing
    that fits overflows, which also makes the diagonal real. numpy forms
    a real ``a @ a.T`` symmetric already, so it comes back unchanged
    except in subnormal entries, which the halving rounds.

    The input is not scanned for finiteness up front: a non-finite entry
    of `a` makes a diagonal entry of the product non-finite, so the input
    is inspected only when the product fails its finiteness check.

    Raises
    ------
    ValueError
        If `a` has non-finite entries.
    NumericalOverflow
        If an entry of the product of a finite `a` overflows double
        precision.
    """
    a = _as_float_matrix(a, "matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        g = a @ _conj_transpose(a)
    return _finish_gram(g, a)


def _finish_gram(g: NDArray, source: NDArray) -> NDArray:
    """Make the Gram product `g`, formed from `source` with overflow
    ignored, exactly Hermitian in place: halve it, then add its conjugate
    transpose. A non-finite `g` raises instead: `ValueError` if `source`
    has non-finite entries, else `NumericalOverflow`."""
    if not np.isfinite(g).all():
        as_matrix(source)  # raises ValueError if the input is to blame
        raise NumericalOverflow(
            "Gram product overflows double precision; rescale the input")
    g *= 0.5
    g += _conj_transpose(g)
    return g


def _checked_factor(h: NDArray, threshold: float) -> NDArray | None:
    """LAPACK's lower Cholesky factor of `h`, or None if a pivot
    ``C[j, j]**2`` is at or below `threshold` or the factorization stops."""
    try:
        c = np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return None
    return c if np.all(c.diagonal().real ** 2 > threshold) else None


def _first_failing_pivot(h: NDArray, threshold: float) -> tuple[int, float]:
    """Index and value of the first Cholesky pivot of `h` at or below
    `threshold`, for an `h` known to have one.

    The pivots of a leading block are the leading pivots of the whole, so
    the largest passing leading block is found by bisection; the failing
    pivot is the Schur complement of that block at the next index, formed
    with the block's factor from the bisection by one division by its
    adjoint.
    """
    good, bad, factor = 0, h.shape[0], None
    while bad - good > 1:
        mid = (good + bad) // 2
        c = _checked_factor(h[:mid, :mid], threshold)
        if c is None:
            bad = mid
        else:
            good, factor = mid, c
    pivot = h[good, good].real
    if factor is not None:
        z = _divide_adjoint(h[good:good + 1, :good], factor)
        pivot -= np.vdot(z, z).real
    return good, float(pivot)


def cholesky_lower(h: ArrayLike) -> NDArray:
    """Factor a Hermitian positive-definite `h` as ``C @ C^H``.

    Returns the unique lower-triangular factor `C` with strictly positive
    real diagonal, as computed by LAPACK ``potrf``. Only the lower
    triangle of `h` is read once the symmetry check passes.

    Raises
    ------
    NotPositiveDefinite
        If a pivot ``C[j, j]**2`` falls at or below
        ``PIVOT_RTOL * max(diag(h))``, which signals a rank-deficient or
        indefinite input. The message names the index of the first such
        pivot.
    ValueError
        If `h` is not square or departs from Hermitian symmetry by more
        than ``HERMITIAN_RTOL`` relative to its largest entry.
    """
    h = as_matrix(h, "h")
    n = h.shape[0]
    if h.shape[1] != n:
        raise ValueError(f"h must be square, got shape {h.shape}")
    # Every Gram the package factors is exactly Hermitian, and one
    # equality pass accepts it; other input meets the tolerance test.
    if not np.array_equal(h, _conj_transpose(h)):
        scale = np.abs(h).max()
        if scale > 0 and np.abs(h - _conj_transpose(h)).max() > HERMITIAN_RTOL * scale:
            raise ValueError("h is not Hermitian within tolerance")

    threshold = PIVOT_RTOL * max(float(h.diagonal().real.max()), 0.0)
    c = _checked_factor(h, threshold)
    if c is None:
        j, pivot = _first_failing_pivot(h, threshold)
        raise NotPositiveDefinite(
            f"pivot {pivot:.3e} at index {j} is below threshold "
            f"{threshold:.3e}; matrix is not positive definite"
        )
    return c


def _check_lower_factor(c: NDArray, name: str) -> None:
    """Check that the matrix `c`, named `name` in messages, is a factor in
    the package's convention: square, nothing above the diagonal, and a
    strictly positive real diagonal."""
    if c.shape[0] != c.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {c.shape}")
    if np.any(np.triu(c, 1) != 0):
        raise ValueError(f"{name} must be lower triangular, "
                         "got nonzero entries above the diagonal")
    d = c.diagonal()
    if np.any(d.real <= 0) or (np.iscomplexobj(c) and np.any(d.imag != 0)):
        raise ValueError(f"{name} must have a strictly positive real diagonal")


def _divide_lower(b: NDArray, c: NDArray) -> NDArray:
    """Right division by a lower-triangular `c` with a nonzero diagonal:
    the row-contiguous `Y` with ``Y @ c = b``.

    Recursive block substitution: with `c` split in halves, ``Y2 = b2 /
    c22`` and then ``Y1 = (b1 - Y2 c21) / c11``, so all work above
    `_SOLVE_BLOCK` is matrix products. A block of order `_SOLVE_BLOCK` or
    less is one LU solve of ``c^T @ Y^T = b^T``: ``c^T`` is upper
    triangular with a nonzero diagonal, so the LU does no row exchanges
    and reduces to back substitution.
    """
    n = c.shape[0]
    if n <= _SOLVE_BLOCK:
        return np.ascontiguousarray(np.linalg.solve(c.T, b.T).T)
    h = n // 2
    y2 = _divide_lower(b[:, h:], c[h:, h:])
    y1 = _divide_lower(b[:, :h] - y2 @ c[h:, :h], c[:h, :h])
    return np.concatenate((y1, y2), axis=1)


def _divide_adjoint(b: NDArray, c: NDArray) -> NDArray:
    """Right division by the adjoint of a lower-triangular `c`: ``b c^-H``.

    Reversing rows and columns turns the upper-triangular ``c^H`` into the
    lower-triangular one `_divide_lower` takes.
    """
    return _divide_lower(b[:, ::-1], _conj_transpose(c)[::-1, ::-1])[:, ::-1]


def _inverse_bottom_rows(c: NDArray, rows: int) -> NDArray:
    """The bottom `rows` rows of ``c^-1`` for a lower factor `c` in the
    package's convention (LAPACK's, or one `_check_lower_factor` passed).

    They solve ``Y @ c = E``, with `E` the last `rows` rows of the
    identity, by block substitution (`_divide_lower`): about
    ``n^2 rows / 2`` multiplies for a factor of order n, not the ``n^3/3``
    of an LU of the whole factor.
    """
    n = c.shape[0]
    return _divide_lower(np.eye(rows, n, n - rows, dtype=c.dtype), c)


def invert_lower(c: ArrayLike) -> NDArray:
    """Invert a lower-triangular factor with positive real diagonal.

    The inverse is again lower triangular with positive real diagonal and
    exact zeros above the diagonal.
    """
    c = as_matrix(c, "c")
    _check_lower_factor(c, "factor")
    return _inverse_bottom_rows(c, c.shape[0])


def solve_hpd(h: ArrayLike, b: ArrayLike) -> NDArray:
    """Solve ``y @ h = b`` (right division) for Hermitian positive-definite `h`.

    `cholesky_lower` factors ``h = C C^H`` under the package's pivot rule,
    and `y` comes from two triangular divisions through that factor, first
    by ``C^H``, then by `C`, never an explicit inverse. Up to order
    `_SOLVE_BLOCK` it is instead one LU solve of ``h^T @ y^T = b^T``,
    which costs less than two solves that small. `b` must have
    ``h.shape[0]`` columns.

    Raises
    ------
    NotPositiveDefinite
        Propagated from the factorization.
    """
    b = as_matrix(b, "b")
    c = cholesky_lower(h)
    if b.shape[1] != c.shape[0]:
        raise DimensionMismatch(
            f"b has {b.shape[1]} columns but h is {c.shape[0]}x{c.shape[0]}"
        )
    if c.shape[0] <= _SOLVE_BLOCK:
        return np.linalg.solve(np.asarray(h).T, b.T).T
    return _divide_lower(_divide_adjoint(b, c), c)
