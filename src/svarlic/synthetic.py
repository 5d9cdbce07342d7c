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
    is at most `target_radius`.

    Reduced-form lag matrices are sampled, then shrunk by a common factor
    until the radius bound holds; a random lower-triangular mixing matrix
    with positive diagonal maps the system to structural form.
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
    if k:
        radius = companion_spectral_radius(RvarCoefficients(np.zeros(m), lags))
        scale = min(1.0, target_radius / radius) if radius > 0 else 1.0
        while companion_spectral_radius(RvarCoefficients(
                np.zeros(m), tuple(scale * a for a in lags))) > target_radius:
            scale *= 0.95
        lags = tuple(scale * a for a in lags)

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
    conditions. The first `burn_in` samples (default ``10*K*M``) are
    discarded to wash out the start-up transient.

    With ``return_noise=True`` also returns the M x `n` shock block aligned
    with the returned samples, for round-trip checks against
    `svar_residuals`.

    Raises
    ------
    NumericalOverflow
        If any sample magnitude exceeds `OVERFLOW_LIMIT` (unstable model
        run too long).
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
    is_complex = np.iscomplexobj(model.L)
    if is_complex:
        noise = (rng.standard_normal((m, total))
                 + 1j * rng.standard_normal((m, total))) / np.sqrt(2.0)
    else:
        noise = rng.standard_normal((m, total))

    linv, lag_mats, intercept = _implied_reduced_form(model)
    driven = linv @ noise + intercept[:, None]

    x = np.zeros((m, total), dtype=driven.dtype)
    for step in range(total):
        col = driven[:, step].copy()
        for i, a in enumerate(lag_mats, 1):
            if step >= i:
                col += a @ x[:, step - i]
        if np.abs(col).max() > OVERFLOW_LIMIT:
            raise NumericalOverflow(
                f"sample {step + 1} exceeded {OVERFLOW_LIMIT:g}; "
                "model is unstable or run too long")
        x[:, step] = col

    if return_noise:
        return x[:, burn_in:], noise[:, burn_in:]
    return x[:, burn_in:]
