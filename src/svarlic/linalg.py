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
the inverse factor and computes just those rows. A positive-definite solve
is `_solve_factored`: one LU solve up to that order, and above it two
divisions by the factor already computed. The least-squares route calls it
with the factor of ``S S^H`` it has in hand; `solve_hpd` is its public
door, with the caller checks and the factorization.

Finiteness is checked where caller input enters: `as_matrix` makes one pass
over a residual routine's signal, a container or a small kernel operand.
Nothing scans the input of a Gram product, the largest array of a fit,
the fits' signals included: every input entry reaches a diagonal entry of
the product (a non-finite one makes it non-finite, ``inf * 0`` included),
so `_finish_gram`'s check on the q x q product catches it, and only then
is the input inspected, to name it or to tell a non-finite input from an
overflow. Arrays the package computes from checked input are not checked
again, results included: the estimators and the generator hand theirs to
the coefficient containers past the constructors' caller checks
(`model._fitted`). The factorization reads finiteness off its pivots: it
scans its input only if the input is not exactly Hermitian (a NaN never
equals itself) or a pivot fails (an infinity always makes one fail), so
the Grams of a fit pass unscanned. The public solve scans its right-hand
side, and the inverse its factor.

A product of checked input that leaves double precision is decided by one
rule, `_finite`: the product is formed with overflow and invalid
operations ignored, and if it is not finite it raises `NumericalOverflow`
naming what overflowed, after naming an unscanned source with
`ValueError` if the source is to blame. The Gram products, the public
solve and inverse, the residual routines and the rescaling of a reduced
form all raise through it, so no public routine returns a silent inf or
NaN or leaks a numpy warning.

Every pass over the samples is cut by one rule, `_chunk_bounds`, which
returns the pass's blocks, whether it cut them and whether the pass takes
the phase form, and is walked by one of two chunk loops.
`_window_products` sums the Gram products of the signal: the K+1 lag
products of the structured regressor Gram, and with K = 0 the plain
``a a^H`` of `gram_hermitian` and of the regressor Gram where T is
stacked whole. `model._residuals` forms the residuals, one
product per lag, in the Gram's chunks, and sums `fit_both`'s ``V V^H``
in chunks cut for 2M rows per sample, a chunk of residuals beside its
product buffer. A window the rule does not cut comes back in blocks of
at most `_CHUNK_SAMPLES` samples, so every pass's working memory is
bounded on every window. A Gram pass copies a cut chunk into a buffer,
and so a block of a complex window of several blocks, so no product
conjugates more than one block; everything else, the residuals' lag
products included, reads the signal in place.

Both loops fork once more where the rule returns the phase form: each
chunk and its K leading samples are copied once, time-major, into a
buffer that starts on a 64-byte boundary (`_aligned`), and read as K+1
phases (`_phase_windows`), whose rows are the windows ``[x(n-K) .. x(n)]``
of every (K+1)-th sample. One product per phase gives all K+1 lag
products (`_phase_products`), or the phase's residuals
(`model._phase_residuals`), so each pass keeps K+1 products per chunk,
each with (K+1)M output rows or columns or inner dimension instead of M.
The rule gives the form to every pass over a cut complex window with
K >= 3, M >= 2 and (K+1)M >= 12, and to the Gram pass alone of a real
window of several chunks or blocks with 4 <= K <= 16 and 8 <= M <= 68:
real residuals, V and ``V V^H``, keep their per-lag products. A complex
window is cut for 2M rows per sample, the copy and a conjugated copy, or
the copy and the chunk's residuals; a real Gram reads its copy alone, in
chunks at least K+1 samples narrower than the widest M-row chunk or,
uncut, in blocks of at most `_PHASE_BLOCK` samples.

Both estimation pipelines in :mod:`svarlic.estimators` run through this one
kernel, so cross-method tests isolate method differences, not kernel
differences.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .exceptions import DimensionMismatch, NotPositiveDefinite, NumericalOverflow

#: Relative tolerance for the Hermitian-symmetry check in `cholesky_lower`.
HERMITIAN_RTOL = 1e-10

#: A Cholesky pivot at or below PIVOT_RTOL times the largest diagonal entry
#: of the input is treated as zero and raises `NotPositiveDefinite`.
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
    if arr.dtype.kind not in "iubfc":
        raise ValueError(f"{name} must be numeric, got dtype {arr.dtype}")
    arr = arr.astype(np.complex128 if arr.dtype.kind == "c" else np.float64, copy=False)
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


def gram_hermitian(a: ArrayLike) -> NDArray:
    """Return the Gram matrix ``a @ a^H`` of shape (rows, rows).

    The product is `_window_products` at K = 0: summed over the chunks
    of columns `_chunk_bounds` cuts, and over its blocks of at most
    `_CHUNK_SAMPLES` columns where it leaves a complex `a` of more than
    that uncut, so a complex `a` is conjugated one chunk or block at a
    time. The result is Hermitian exactly, entry for entry: the product
    is averaged with its conjugate transpose, halved first so that
    nothing that fits overflows, which also makes the diagonal real.

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
        (g,), _ = _window_products(a, 0)
    return _finish_gram(g, a)


#: Every pass over the samples, the Gram products (`_window_products`) and
#: the residuals (`model._residuals`), walks its window in the chunks of
#: `_chunk_bounds`: near-equal, and as few as keep each chunk at or below
#: `_CHUNK_SAMPLES` samples and each M x M product at or below `_CHUNK_WORK`
#: multiply-adds, ``M^2`` per sample. OpenBLAS 0.3.31 on SkylakeX runs a
#: real product of at most 10^6 multiply-adds through its unpacked
#: small-matrix kernel; a larger one runs 2x (M=16) to 6x (M=4) slower per
#: multiply-add. The sample cap keeps a chunk, its copy and the lagged
#: columns the products read in cache, and the Gram's copy, a ones row
#: included, below a quarter MiB at M=4: from 5120 to 7168 samples
#: tall_real's fit time is flat, and wider copies set its peak memory
#: (CHANGES.md has the sweep). A window is not cut where a chunk would hold
#: fewer than `_MIN_CHUNK` samples (M > 22): products that wide gain
#: nothing from that kernel and lose to per-call cost in narrow chunks.
#: The rule still returns such a window in blocks of at most
#: `_CHUNK_SAMPLES` samples, which the residuals' per-lag pass walks, and
#: the Gram products where it is complex, so that no buffer grows with N.
#: The M-row buffer of the widest chunk (`_chunk_width`) also decides where
#: the regressor Gram stacks T whole (`model._regressor_gram` states the
#: rule). The residuals' K lag products per chunk write M rows per sample
#: in the Gram's chunks; `fit_both`'s ``V V^H`` keeps a chunk of residuals
#: beside them, 2M rows, so the rule cuts its window for 2M rows. Against
#: one product per chunk with a stack of T's q = M(K+1)+1 rows in chunks
#: cut for q rows, that ran LS 0.99x and `fit_both` 0.97x at (4,2,65536)
#: with `fit_both`'s peak 0.30 -> 0.23 MiB, but 1.09x/1.28x at real
#: (16,4,65536) (paired interleaved calls, one thread, 2-core Xeon).
_CHUNK_WORK = 10 ** 6
_CHUNK_SAMPLES = 6144
_MIN_CHUNK = 2048

#: The widest block of a real window that the rule leaves uncut and the
#: Gram walks in the phase form. Its time-major copy is the pass's buffer:
#: in blocks of 6144 samples LIC's traced peak at (32,6,16384) rose from
#: 0.86 to 1.49 MiB, while 1024-sample blocks ran LIC 0.99x as long at
#: (64,8,8192) and 1.03x at (32,6,16384) (interleaved calls, one thread).
_PHASE_BLOCK = 1024


def _chunk_width(m: int) -> int:
    """The widest chunk, in samples, that `_chunk_bounds` allows a pass
    over an M-branch signal: `_CHUNK_WORK` multiply-adds per M x M
    product, and at most `_CHUNK_SAMPLES`."""
    return min(_CHUNK_WORK // (m * m), _CHUNK_SAMPLES)


def _chunk_bounds(m: int, n: int, k: int, dtype: np.dtype,
                  kind: str = "gram") -> tuple[list[int], bool, bool]:
    """The bounds ``[K, .., N]`` of the chunks of the window of samples
    K .. N-1 of an M-branch signal with N > K, whether the rule cut the
    window, and whether the pass takes the phase form (`_phase_windows`):
    the package's one rule for a pass over the samples. `kind` names the
    pass: ``"gram"``, the lag products of `_window_products`;
    ``"residuals"``, the residuals of `model._residuals`; or ``"paired"``,
    `fit_both`'s ``V V^H``. The chunks are near-equal, the last one the
    widest, and none holds more than `_CHUNK_SAMPLES` samples.

    The rule cuts a window wider than `_chunk_width` where that width is
    at least `_MIN_CHUNK` (M <= 22), into the fewest chunks of at most
    that width: they fit a pass whose buffer holds M rows per sample, as
    the Gram products' does. A window the rule does not cut comes back in
    the fewest near-equal blocks of at most `_CHUNK_SAMPLES` samples, one
    if it fits in one.

    Every pass over a cut complex window takes the phase form with K >= 3,
    M >= 2 and at least 12 rows in a phase window, (K+1)M. Those passes,
    and a ``"paired"`` one, fill 2M rows per sample, so their window is
    cut for 2M rows: into the fewest near-equal chunks whose 2M rows of
    width + M samples fit in the elements of the M-row buffer of the
    widest chunk, each at least one sample wide. The Gram pass of a real
    window of more than one chunk or block takes the form with
    4 <= K <= 16 and 8 <= M <= 68; real residuals never take it. Cut, it
    walks the fewest near-equal chunks of at most K+1 samples fewer than
    the widest M-row chunk, each at least one sample wide, so its copy,
    which holds each chunk's K leading samples, and its vector of ones
    fit in the M+1 rows of that chunk that the per-lag form's buffer
    holds: in the M-row chunks LIC's traced peak rose by about
    (K-1)M x 8 bytes, 1327 B at (16,8,65536). Uncut, it walks the fewest
    near-equal blocks of at most `_PHASE_BLOCK` samples.

    The complex form, measured against the stacked or per-lag forms
    (in-process paired calls, one thread, 2-core Xeon): the routes inside
    the rule ran 0.78-0.81x at (8,8,32768), LIC 0.73x at (3,3,65536),
    `fit_both` 0.90x at (2,5,65536) and LS 0.97x at (22,3,20000). At
    K = 2 the Gram alone gains, but not always by 5%: LIC 0.93-1.00x in
    four runs at (4,2,65536), 0.88-0.89x at (8,2,32768); the residuals
    there ran LS 1.06x. Outside it, `fit_both` ran 1.04-1.05x at
    (2,4,65536) and LIC 1.5-1.8x at M = 1, where a phase's products are
    matrix-vector ones. Real residuals in the form ran LS 1.02-1.29x at
    M = 8 .. 16. The real Gram's region is the rectangle in which every
    shape of this sweep of LIC, the real form against the per-lag
    products (`tools/ab_inprocess.py`, geometric mean of both tree
    orders, one thread, 2-core Xeon), reads below 1, N being 65536 up to
    M = 16, 20000 at M = 24, 16384 at 32, 12000 at 48 and 8192 above::

        M \\ K   2     3     4     6     8     12    16
        4      .     .     .     .     1.43  .     1.29
        6      .     .     1.39  .     1.12  .     0.92
        8      1.06  0.99  0.98  0.91  0.84  0.80  0.75
        12     0.87  .     0.82  0.75  0.71  0.69  0.65
        16     0.63  .     0.63  0.59  0.60  0.60  0.62
        24     0.76  .     0.68  0.65  0.66  0.66  0.69
        32     1.07  0.93  0.92  0.79  0.80  0.79  0.77
        48     .     .     0.98  .     .     .     .
        64     1.10  1.01  0.98  0.93  0.91  0.93  0.96
        68     .     .     0.97  .     .     .     0.97
        72     .     .     1.08  0.96  0.94  .     1.00
        80     .     .     1.09  1.02  0.98  .     1.02
        100    1.29  .     1.06  1.01  0.99  1.00  1.02
        128    1.32  .     1.12  1.06  1.04  1.07  1.05

    Inside the region LS and `fit_both` read at most 1.002. The bounds sit
    where the rows and columns cross: M = 6 loses below K = 16, K = 3 ties
    at M = 8 and loses at M = 64, and M = 72 loses at K = 4 and 16. The
    sweep stops at K = 16, and so does the region: near the M bound the
    ratio rises with K, and an uncut block of 1024 samples leaves each
    phase about 1024 / (K+1) rows."""
    width = _chunk_width(m)
    if n - k <= width or width < _MIN_CHUNK and n - k <= _CHUNK_SAMPLES:
        return [k, n], False, False
    cut = width >= _MIN_CHUNK
    if dtype.kind == "c":
        phased = cut and k >= 3 and m >= 2 and (k + 1) * m >= 12
    else:
        phased = kind == "gram" and 4 <= k <= 16 and 8 <= m <= 68
    if cut and (kind == "paired" or phased):
        chunks = -(-(n - k) // width)
        widest = -(-(n - k) // chunks)
        if kind == "paired" or dtype.kind == "c":
            width = max(widest // 2 - m, 1)
        else:
            width = max(widest - k - 1, 1)
    elif not cut:
        width = _PHASE_BLOCK if phased else _CHUNK_SAMPLES
    chunks = -(-(n - k) // width)
    return [k + i * (n - k) // chunks for i in range(chunks + 1)], cut, phased


def _phase_windows(window: NDArray, k: int, samples: int) -> Iterator[tuple[int, NDArray]]:
    """The phases j = 0 .. min(K, `samples` - 1) of a time-major chunk:
    `window` holds the chunk's K leading samples and then its `samples`
    samples, one row each, and phase j is ``(j, Y_j)``, the view from
    sample j reshaped, without a copy, to an r x (K+1)M matrix whose rows
    are the windows ``[x(n-K) .. x(n)]`` of the chunk's samples n = j,
    j + K+1, .. (counted from the chunk's first). A product of ``Y_j``
    has (K+1)M rows or columns where a lag product has M, a taller shape
    that OpenBLAS runs faster: at complex (8,8) one phase's Gram product
    over 606 windows took 40 us, one lag product over the 5460 samples
    they span, the same multiply-adds, 66 us (one thread, 2-core Xeon)."""
    m = window.shape[1]
    flat = window.reshape(-1)
    for j in range(min(k + 1, samples)):
        rows = -(-(samples - j) // (k + 1))
        yield j, flat[j * m:(j + rows * (k + 1)) * m].reshape(rows, (k + 1) * m)


def _window_products(x: NDArray, k: int,
                     sums: bool = False) -> tuple[Sequence[NDArray], NDArray | None]:
    """The window products ``P_d = sum_{n=K}^{N-1} x(n-d) x(n)^H`` of a
    2-D float array `x` with more than `k` columns, as a sequence over
    d = 0 .. K, and with `sums` the window's row sums (else None). With
    K = 0 it is the Gram ``x x^H``.

    The package's one chunk loop for Gram products, over the bounds of
    `_chunk_bounds`. A window the rule returns in the phase form goes to
    `_phase_products`, which only the structured Gram reaches (K >= 3,
    with `sums`). Any other window of one chunk, or real one the rule
    leaves uncut, takes one product per lag and no buffer. Each chunk of
    any other cut window, and each block of a complex window of several
    blocks, is copied, conjugated if complex, into one reused buffer that
    every product reads while it is in cache, so no complex window of
    more than `_CHUNK_SAMPLES` samples is conjugated whole. The copy is a
    second operand, so numpy sends ``P_0`` to gemm, which OpenBLAS runs in
    its small-matrix kernel, and not to syrk, which has none.
    With `sums`, a row of ones under the copy gives ``P_0`` one more
    column, the chunk's row sums. Each chunk's products go through
    preallocated arrays, so the working memory is the buffer. Run it with
    overflow and invalid operations ignored: the caller checks the result.
    """
    m, n = x.shape
    bounds, cut, phased = _chunk_bounds(m, n, k, x.dtype, "gram")
    if phased:
        return _phase_products(x, k, bounds)
    # No copy: the buffer took 9.4 against 4.9 us at (3,2,256).
    if len(bounds) == 2 or not cut and x.dtype.kind != "c":
        window = x[:, k:]
        window_h = window.conj().T
        products = [window @ window_h]
        for d in range(1, k + 1):
            products.append(x[:, k - d:n - d] @ window_h)
        return products, window.sum(axis=1) if sums else None
    buffer = np.empty((m + sums, bounds[-1] - bounds[-2]), dtype=x.dtype)
    buffer[m:] = 1
    lead = np.zeros((m, m + sums), dtype=x.dtype)  # P_0 beside the row sums
    lags = np.zeros((k, m, m), dtype=x.dtype)  # P_1 .. P_K
    lead_term, lag_terms = np.empty_like(lead), np.empty_like(lags)
    for a, b in zip(bounds[:-1], bounds[1:]):
        chunk = buffer[:, :b - a]
        if x.dtype.kind == "c":
            np.conjugate(x[:, a:b], out=chunk[:m])
        else:
            chunk[:m] = x[:, a:b]
        np.matmul(x[:, a:b], chunk.T, out=lead_term)
        lead += lead_term
        for d in range(1, k + 1):
            np.matmul(x[:, a - d:b - d], chunk[:m].T, out=lag_terms[d - 1])
        lags += lag_terms
    return [lead[:, :m], *lags], lead[:, m] if sums else None


def _aligned(shape: tuple[int, ...], dtype: np.dtype) -> NDArray:
    """An uninitialised array of `shape` and `dtype` whose data starts on a
    64-byte boundary: 64 bytes more are allocated, and the array is the
    slice of them that starts there. The phase forms' time-major buffers
    take it, so their offset no longer moves with the heap's history: at
    the offsets it gave them, 16 or 48 bytes mod 64, the complex (8,8)
    Gram pass ran 6.5-8% slower and the real (16,8) one 27-30% (one
    thread, 2-core Xeon). Whole fits with the buffers aligned ran LIC
    0.81x as long as with numpy's own at real (16,8,65536) and 0.96x at
    complex (8,8,32768) (`tools/ab_inprocess.py`). The address is read
    through the array interface: `ctypes` left 56 bytes traced behind."""
    size = int(np.prod(shape)) * np.dtype(dtype).itemsize
    raw = np.empty(size + 64, dtype=np.uint8)
    return np.ndarray(shape, dtype, raw, -raw.__array_interface__["data"][0] % 64)


def _phase_products(x: NDArray, k: int,
                    bounds: list[int]) -> tuple[Sequence[NDArray], NDArray]:
    """`_window_products` in the phase form, over the chunks or blocks
    `bounds` of `x`'s window.

    Each chunk and its K leading samples are copied once into a reused
    time-major buffer, and each phase ``Y_j`` of the chunk
    (`_phase_windows`) gives every lag at once. A real window needs no
    second buffer: its phase product is the chunk's samples of that phase,
    read in the copy as an r x M view, transposed, times ``Y_j``, an
    M x (K+1)M product whose column block c holds the phase's terms of
    ``P_{K-c}^T``. Summed over the phases and chunks, in one M x K+1 x M
    array, its blocks are returned transposed, as views, in reverse. A
    complex window copies the chunk's samples once more, conjugated, into
    a second buffer, 2M rows per sample, and takes ``Y_j^T conj(Y_j)``'s
    last M columns, read as a strided view of that copy: a (K+1)M x M
    product whose block of rows d holds the phase's terms of ``P_{K-d}``,
    so the products are that sum's blocks in reverse. The complex
    orientation stays: the real one ran the complex Gram pass 1.24x as
    long at (8,8,32768) and 1.08x at (4,3,65536); on real windows the
    complex one ran 1.06x at (64,8,8192), 1.00x at (32,8,16384) and 0.93x
    at (16,8,65536) (interleaved calls, one thread). The row sums come
    from one matrix-vector product of ones per chunk: at complex (8,8) a
    ones column beside the conjugated copy ran each phase's product 1.4x
    slower (38.5 against 27.0 us), nine times per chunk, where the
    matrix-vector product takes 12 us once."""
    m = x.shape[0]
    width = bounds[-1] - bounds[-2]
    real = x.dtype.kind != "c"
    window = _aligned((width + k, m), x.dtype)
    current = window[k:] if real else _aligned((width, m), x.dtype)
    ones = np.ones(width, dtype=x.dtype)
    total = np.zeros((m, k + 1, m) if real else (k + 1, m, m), dtype=x.dtype)
    term = np.empty_like(total)
    out = term.reshape(m, -1) if real else term.reshape(-1, m)
    row_sums = np.zeros(m, dtype=x.dtype)
    for a, b in zip(bounds[:-1], bounds[1:]):
        window[:b - a + k] = x[:, a - k:b].T
        if not real:
            np.conjugate(window[k:b - a + k], out=current[:b - a])
        for j, y in _phase_windows(window, k, b - a):
            if real:
                np.matmul(current[j:b - a:k + 1].T, y, out=out)
            else:
                np.matmul(y.T, current[j:b - a:k + 1], out=out)
            total += term
        row_sums += ones[:b - a] @ window[k:b - a + k]
    if not real:
        return total[::-1], row_sums
    # Made from P_K down, so that the views a caller frees first, the
    # list's last, hold the shape blocks numpy had cached, not new ones:
    # made from P_0, they left up to 96 B more at LIC's traced peak.
    return [total[:, c].T for c in range(k + 1)][::-1], row_sums


def _finite(values: NDArray, what: str, source: NDArray | None = None,
            name: str = "matrix") -> NDArray:
    """The package's one rule for a non-finite product of checked input:
    return `values`, computed with overflow and invalid operations ignored,
    if every entry is finite. Otherwise, if they were formed from `source`,
    an array nothing has scanned, and it has a non-finite entry, raise
    `ValueError` naming it as `name`; else raise `NumericalOverflow` saying
    that `what` overflows."""
    if not np.isfinite(values).all():
        if source is not None:
            as_matrix(source, name)  # raises ValueError if the input is to blame
        raise NumericalOverflow(f"{what} overflows double precision; rescale the input")
    return values


def _finish_gram(g: NDArray, source: NDArray | None, name: str = "matrix") -> NDArray:
    """Make the Gram product `g`, formed from `source` with overflow
    ignored, exactly Hermitian in place: halve it, then add its conjugate
    transpose. Every entry of `source` reaches a diagonal entry of `g`, so
    a finite `g` clears `source` too, and a non-finite `g` raises through
    `_finite`, naming `source` as `name` if it has non-finite entries. A
    `source` of None, one no longer held, names nothing."""
    _finite(g, "Gram product", source, name)
    g *= 0.5
    g += g.conj().T
    return g


def _checked_factor(h: NDArray, threshold: float) -> NDArray | None:
    """LAPACK's lower Cholesky factor of `h`, or None if a pivot
    ``C[j, j]**2`` is at or below `threshold` or the factorization stops."""
    try:
        c = np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return None
    # LAPACK's diagonal entries are square roots, nonnegative or NaN, so the
    # smallest one holds the smallest pivot, and a NaN fails the test.
    return c if c.diagonal().real.min() ** 2 > threshold else None


def _first_failing_pivot(h: NDArray, threshold: float) -> tuple[int, float]:
    """Index and value of the first Cholesky pivot of `h` at or below
    `threshold`, for an `h` known to have one.

    The pivots of a leading block are the leading pivots of the whole, so
    the largest passing leading block is found by bisection; the failing
    pivot is the Schur complement of that block at the next index, formed
    with the block's factor from the bisection by one division by its
    adjoint. The bisection starts from the empty block, whose Schur
    complement is the first diagonal entry itself.
    """
    good, bad, factor = 0, h.shape[0], h[:0, :0]
    while bad - good > 1:
        mid = (good + bad) // 2
        c = _checked_factor(h[:mid, :mid], threshold)
        if c is None:
            bad = mid
        else:
            good, factor = mid, c
    z = _divide_adjoint(h[good:good + 1, :good], factor)
    return good, float(h[good, good].real - np.vdot(z, z).real)


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
        If `h` has non-finite entries, is not square, or departs from
        Hermitian symmetry by more than ``HERMITIAN_RTOL`` relative to its
        largest entry.
    """
    h = _as_float_matrix(h, "h")
    n = h.shape[0]
    if h.shape[1] != n:
        raise ValueError(f"h must be square, got shape {h.shape}")
    # Every Gram the package factors is finite and exactly Hermitian, and
    # one elementwise comparison with its conjugate transpose accepts it.
    # Other input, any with a NaN among it (NaN never equals itself), is
    # scanned, then meets the tolerance test.
    if not (h == h.conj().T).all():
        as_matrix(h, "h")
        # Quartered, so that neither a difference nor its complex modulus,
        # up to 2 * sqrt(2) times the largest component, overflows.
        q = 0.25 * h
        scale = np.abs(q).max()
        if scale > 0 and np.abs(q - q.conj().T).max() > HERMITIAN_RTOL * scale:
            raise ValueError("h is not Hermitian within tolerance")

    threshold = PIVOT_RTOL * max(float(h.diagonal().real.max()), 0.0)
    c = _checked_factor(h, threshold)
    if c is None:
        # An infinite entry fails a pivot: on the diagonal it makes the
        # threshold infinite, off it it drives a later pivot to -inf or NaN.
        as_matrix(h, "h")
        with np.errstate(over="ignore", invalid="ignore"):  # the pivot is only reported
            j, pivot = _first_failing_pivot(h, threshold)
        raise NotPositiveDefinite(
            f"pivot {pivot:.3e} at index {j} is at or below threshold "
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
    if np.any(d.real <= 0) or np.any(d.imag != 0):
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
    return _divide_lower(b[:, ::-1], c.conj().T[::-1, ::-1])[:, ::-1]


def _inverse_bottom_rows(c: NDArray, rows: int) -> NDArray:
    """The bottom `rows` rows of ``c^-1`` for a lower factor `c` in the
    package's convention: LAPACK's, one `_check_lower_factor` passed, or
    a container's `L` that the package built.

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

    Raises
    ------
    NumericalOverflow
        If an entry of the inverse overflows double precision.
    """
    c = as_matrix(c, "c")
    _check_lower_factor(c, "factor")
    with np.errstate(over="ignore", invalid="ignore"):
        inverse = _inverse_bottom_rows(c, c.shape[0])
    return _finite(inverse, "inverse")


def _solve_factored(h: NDArray, c: NDArray, b: NDArray) -> NDArray:
    """Solve ``y @ h = b`` for a Hermitian positive-definite `h` whose
    factor ``h = c c^H`` is in hand, `b` a 2-D array with ``h.shape[0]``
    columns. Up to order `_SOLVE_BLOCK` it is one LU solve of
    ``h^T @ y^T = b^T``, which costs less than two divisions that small;
    above it, two triangular divisions through the factor, first by
    ``c^H``, then by `c`, never an explicit inverse."""
    if c.shape[0] <= _SOLVE_BLOCK:
        return np.linalg.solve(h.T, b.T).T
    return _divide_lower(_divide_adjoint(b, c), c)


def solve_hpd(h: ArrayLike, b: ArrayLike) -> NDArray:
    """Solve ``y @ h = b`` (right division) for Hermitian positive-definite `h`.

    `cholesky_lower` factors ``h = C C^H`` under the package's pivot rule,
    and `_solve_factored` divides by it. `b` must have ``h.shape[0]``
    columns.

    Raises
    ------
    NotPositiveDefinite
        Propagated from the factorization.
    NumericalOverflow
        If an entry of the solution overflows double precision.
    """
    b = as_matrix(b, "b")
    c = cholesky_lower(h)
    if b.shape[1] != c.shape[0]:
        raise DimensionMismatch(
            f"b has {b.shape[1]} columns but h is {c.shape[0]}x{c.shape[0]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        y = _solve_factored(np.asarray(h), c, b)
    return _finite(y, "solution")
