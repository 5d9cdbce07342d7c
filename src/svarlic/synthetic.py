"""Seeded generation of stable structural VAR systems and simulated series.

Everything here is deterministic per seed: identical arguments reproduce
identical coefficients and samples bit for bit. Cross-implementation
comparisons should use stored datasets, never generator-stream equality.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .exceptions import NumericalOverflow
from .model import (
    RvarCoefficients,
    SvarCoefficients,
    _fitted,
    _implied_reduced_form,
    _integer,
    companion_spectral_radius,
    validate_order,
)

#: Any simulated sample beyond this magnitude aborts with NumericalOverflow.
OVERFLOW_LIMIT = 1e12

__all__ = ["OVERFLOW_LIMIT", "random_stable_svar", "simulate_series"]


def random_stable_svar(
    m: int,
    k: int,
    seed: int,
    target_radius: float = 0.8,
    *,
    complex_field: bool = False,
) -> SvarCoefficients:
    """Draw structural coefficients whose implied companion spectral radius
    is at most `target_radius`, up to rounding.

    Reduced-form lag matrices are sampled. If their companion radius
    exceeds the target, lag i is multiplied by ``s**i`` with
    ``s = target_radius / radius``, which scales every companion
    eigenvalue by exactly `s`, so one eigenvalue computation puts the
    radius on the target up to rounding (under 1e-14 above it). A random
    lower-triangular mixing matrix with positive diagonal maps the system
    to structural form.
    """
    if not 0.0 < target_radius < 1.0:
        raise ValueError(f"target_radius must be in (0, 1), got {target_radius}")
    m = _integer(m, 1, "branch count must be >= 1, got {}")
    k = validate_order(k)
    rng = np.random.default_rng(seed)
    lags = tuple(_normal(rng, (m, m), complex_field) / (k * np.sqrt(m)) for _ in range(k))
    radius = companion_spectral_radius(_fitted(RvarCoefficients, c=np.zeros(m), A=lags, V=None))
    if radius > target_radius:
        scale = target_radius / radius
        lags = tuple(scale**i * a for i, a in enumerate(lags, 1))

    mixing = np.zeros((m, m), dtype=np.complex128 if complex_field else np.float64)
    idx = np.tril_indices(m, -1)
    mixing[idx] = 0.3 * _normal(rng, idx[0].size, complex_field)
    np.fill_diagonal(mixing, rng.uniform(0.5, 1.5, size=m))
    intercept = _normal(rng, m, complex_field)

    return _fitted(SvarCoefficients, L=mixing, R=tuple(mixing @ a for a in lags), t=intercept)


def simulate_series(
    model: SvarCoefficients,
    n: int,
    seed: int,
    burn_in: int | None = None,
    *,
    return_noise: bool = False,
) -> NDArray | tuple[NDArray, NDArray]:
    """Run the structural recursion forward and return M x `n` samples.

    Each step draws a unit shock w(n), standard normal per branch for real
    models and circularly symmetric unit normal for complex ones, and solves
    ``x(n) = L^{-1}(t + sum_i R_i x(n-i) + w(n))`` from zero initial
    conditions. The first `burn_in` samples (default ``10*K*M``) are
    discarded to wash out the start-up transient.

    The samples live in a time-major buffer led by K zero rows, which are
    those initial conditions, and are computed in blocks of B samples,
    one Python step per block. Each row starts as its driving term
    ``L^{-1}(t + w(n))``; one product with the block response to driving
    terms turns every block's driving terms into its driven response, and
    each step then adds one product of the block response to the past with
    the K samples before the block, read as one contiguous slice. Both
    responses are built once per call by running the single-sample step,
    ``[A_K .. A_1]`` times the K previous samples, on unit inputs. B
    depends only on M, K, the run length and the field (`_block_size`).
    At B = 1 the response to the past is ``[A_K .. A_1]`` exactly and the
    response to driving terms is empty, so each step is the single-sample
    step, bit for bit; at K = 0 the series is the driving terms. Other B
    change samples by rounding only.

    With ``return_noise=True`` also returns the M x `n` shock block aligned
    with the returned samples, for round-trip checks against
    `svar_residuals`.

    Raises
    ------
    NumericalOverflow
        If any sample magnitude exceeds `OVERFLOW_LIMIT` (unstable model
        run too long). The whole run is checked in one pass after the
        loop; the message names the first such sample, burn-in counted.
        Also if the implied reduced form ``L^-1 R_i``, ``L^-1 t``
        overflows double precision.
    """
    n = _integer(n, 1, "sample count must be >= 1, got {}")
    m = model.branches
    k = model.order
    burn_in = _integer(10 * k * m if burn_in is None else burn_in, 0,
                       "burn_in must be >= 0, got {}")
    total = burn_in + n

    noise = _normal(np.random.default_rng(seed), (m, total), np.iscomplexobj(model.L))

    linv, lag_mats, intercept = _implied_reduced_form(model)
    stacked = np.hstack([np.zeros((m, 0)), *lag_mats[::-1]])
    with np.errstate(over="ignore", invalid="ignore"):
        driven = linv @ noise + intercept[:, None]
        size = _block_size(m, k, total, driven.itemsize)
        width = size * m
        blocks = -(-total // size)
        # Zero driving terms pad the run to whole blocks.
        buf = np.zeros((k + blocks * size, m), dtype=driven.dtype)
        buf[k:k + total] = driven.T
        past, driving = _block_response(stacked, m, k, size)
        rows = buf[k:].reshape(blocks, width)
        rows[:, m:] += rows[:, :-m] @ driving.T
        flat = buf.reshape(-1)
        lead = k * m
        for start in range(lead, flat.size if k else 0, width):
            flat[start:start + width] += past @ flat[start - lead:start]
        # Written as "not <=" so that a NaN sample counts as beyond the limit.
        over = np.flatnonzero(~(np.abs(buf[k:k + total]).max(axis=1) <= OVERFLOW_LIMIT))
    if over.size:
        raise NumericalOverflow(
            f"sample {over[0] + 1} exceeded {OVERFLOW_LIMIT:g}; "
            "model is unstable or run too long")

    # Fits copy rows of the series, so hand back rows that are contiguous.
    x = np.ascontiguousarray(buf[k + burn_in:k + total].T)
    if return_noise:
        return x, noise[:, burn_in:]
    return x


def _normal(rng: np.random.Generator, shape: int | tuple[int, ...],
            complex_field: bool) -> NDArray:
    """Standard normal draws of `shape`, or circularly symmetric unit
    normal ones if `complex_field`, real parts drawn first."""
    z = rng.standard_normal(shape)
    if complex_field:
        z = (z + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return z


def _block_size(m: int, k: int, total: int, itemsize: int) -> int:
    """Samples per step of `simulate_series`' recursion: the largest power
    of two B (1 at K = 0) with B*M <= 256, a block response to the past of
    at most 128 KiB (``B*K*M^2`` entries of `itemsize` bytes), and a block
    response build, ``((K+B) M)^2`` entries, no larger than the M x `total`
    series, so no temporary outgrows the noise.

    A block trades the Python cost of B - 1 steps for a B*M-row response to
    the past, a share of one B*M-wide product with the response to driving
    terms, and B steps to build both. Set by a sweep of B = 1..256 on 19
    shapes, M = 1..64, K = 1..8, `total` = 220..300060 (minimum of 7 or 15
    interleaved calls per B, one BLAS thread, 2-core Xeon, OpenBLAS
    0.3.31). Where the rule allows blocks, its pick ran within 15% of the
    fastest B: (3,2) over 444 samples took 1.79 ms at B = 1, 0.48 at the
    pick, 8, and 0.42 at 16, which the last bound rules out; (4,2) over
    65616 took 214 ms at B = 1 and 19.5 at the pick, 64. Past the 128 KiB
    bound the sweeps disagreed: (64,8) over 13312 ran 25-40% faster at
    B = 2 in two sweeps and 25% slower in a third, so such shapes keep the
    single-sample step and the series it gives.
    """
    size = 1
    while (k and 2 * size * m <= 256 and 2 * size * k * m * m * itemsize <= 2**17
           and (k + 2 * size) ** 2 * m <= total):
        size *= 2
    return size


def _block_response(stacked: NDArray, m: int, k: int, size: int) -> tuple[NDArray, NDArray]:
    """The responses of a block of `size` samples of the recursion with lag
    matrices ``stacked = [A_K .. A_1]``: in time-major order a block's
    samples are ``Phi`` times the K samples before it plus ``Psi`` times
    its own driving terms. Returns ``Phi`` and ``Psi`` less its identity
    diagonal, with the first sample's rows and the last sample's columns
    dropped, which are then zero. Both come from running the recursion's
    own step on every unit input of a block."""
    n_in = (k + size) * m
    unit = np.eye(n_in, dtype=stacked.dtype).reshape(k + size, m, n_in)
    for step in range(size):
        unit[k + step] += stacked @ unit[step:step + k].reshape(k * m, n_in)
    response = unit[k:].reshape(size * m, n_in)
    response[:, k * m:] -= np.eye(size * m)
    return (np.ascontiguousarray(response[:, :k * m]),
            np.ascontiguousarray(response[m:, k * m:n_in - m]))
