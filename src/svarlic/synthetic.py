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
    _implied_reduced_form,
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
    if m < 1:
        raise ValueError(f"branch count must be >= 1, got {m}")
    k = validate_order(k)
    rng = np.random.default_rng(seed)

    def draw(*shape: int) -> NDArray:
        z = rng.standard_normal(shape)
        if complex_field:
            z = (z + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        return z

    lags = tuple(draw(m, m) / (k * np.sqrt(m)) for _ in range(k))
    radius = companion_spectral_radius(RvarCoefficients(np.zeros(m), lags))
    if radius > target_radius:
        scale = target_radius / radius
        lags = tuple(scale**i * a for i, a in enumerate(lags, 1))

    mixing = np.zeros((m, m), dtype=np.complex128 if complex_field else np.float64)
    idx = np.tril_indices(m, -1)
    if idx[0].size:
        mixing[idx] = 0.3 * draw(idx[0].size)
    np.fill_diagonal(mixing, rng.uniform(0.5, 1.5, size=m))
    intercept = draw(m)

    return SvarCoefficients(
        L=mixing,
        R=tuple(mixing @ a for a in lags),
        t=intercept,
    )


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
    conditions. The samples live in a time-major buffer led by K zero rows,
    which are those initial conditions; each row starts as its driving term
    ``L^{-1}(t + w(n))`` and each step adds one product of ``[A_K .. A_1]``
    with the K previous samples, read as one contiguous slice. The first
    `burn_in` samples (default ``10*K*M``) are discarded to wash out the
    start-up transient.

    With ``return_noise=True`` also returns the M x `n` shock block aligned
    with the returned samples, for round-trip checks against
    `svar_residuals`.

    Raises
    ------
    NumericalOverflow
        If any sample magnitude exceeds `OVERFLOW_LIMIT` (unstable model
        run too long). The whole run is checked in one pass after the
        loop; the message names the first such sample, burn-in counted.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    m = model.branches
    k = model.order
    if burn_in is None:
        burn_in = 10 * k * m
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    total = burn_in + n

    rng = np.random.default_rng(seed)
    if np.iscomplexobj(model.L):
        noise = (rng.standard_normal((m, total))
                 + 1j * rng.standard_normal((m, total))) / np.sqrt(2.0)
    else:
        noise = rng.standard_normal((m, total))

    linv, lag_mats, intercept = _implied_reduced_form(model)
    driven = linv @ noise + intercept[:, None]
    stacked = np.hstack([np.zeros((m, 0)), *lag_mats[::-1]])

    buf = np.zeros((k + total, m), dtype=driven.dtype)
    buf[k:] = driven.T
    flat = buf.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(total):
            buf[k + step] += stacked @ flat[step * m:(step + k) * m]
        # Written as "not <=" so that a NaN sample counts as beyond the limit.
        over = np.flatnonzero(~(np.abs(buf[k:]).max(axis=1) <= OVERFLOW_LIMIT))
    if over.size:
        raise NumericalOverflow(
            f"sample {over[0] + 1} exceeded {OVERFLOW_LIMIT:g}; "
            "model is unstable or run too long")

    # Fits copy rows of the series, so hand back rows that are contiguous.
    x = np.ascontiguousarray(buf[k + burn_in:].T)
    if return_noise:
        return x, noise[:, burn_in:]
    return x
