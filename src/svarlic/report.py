"""Deterministic text rendering for CLI reports.

One format everywhere: ``key: value`` lines in a fixed order, matrices
row-major on a single line, numbers printed with 17 significant digits so
double precision round-trips and reports are byte-comparable.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .complexity import lic_multiply_count, ls_multiply_count, savings_ratio
from .model import SvarCoefficients, companion_spectral_radius

__all__ = [
    "format_number",
    "format_vector",
    "format_matrix",
    "render_fit_report",
    "render_model",
    "render_count_table",
    "render_bench_report",
]


def format_number(value: float) -> str:
    value = float(value)
    if value == 0.0:
        value = 0.0  # collapse -0.0 so structural zeros render as plain 0
    return f"{value:.17g}"


def format_vector(v: NDArray) -> str:
    return "[" + ", ".join(format_number(x) for x in np.asarray(v).ravel()) + "]"


def format_matrix(a: NDArray) -> str:
    return "[" + ", ".join(format_vector(row) for row in np.asarray(a)) + "]"


def _coefficient_lines(model: SvarCoefficients) -> list[str]:
    lines = [f"L: {format_matrix(model.L)}"]
    for i, r in enumerate(model.R, 1):
        lines.append(f"R_{i}: {format_matrix(r)}")
    lines.append(f"t: {format_vector(model.t)}")
    return lines


def render_fit_report(
    model: SvarCoefficients,
    *,
    n: int,
    method: str,
    source: str,
    whitening: float,
    discrepancy: float | None = None,
) -> str:
    """Report of a fit of `model` to N = `n` samples: M and K are read off
    the model."""
    m, k = model.branches, model.order
    lines = [
        "svarlic fit report",
        f"input: {source}",
        f"branches_m: {m}",
        f"samples_n: {n}",
        f"order_k: {k}",
        f"method: {method}",
    ]
    lines += _coefficient_lines(model)
    lines.append(f"whitening_error: {format_number(whitening)}")
    lines.append(f"ls_multiplies: {format_number(ls_multiply_count(m, k, n).total)}")
    lines.append(f"lic_multiplies: {format_number(lic_multiply_count(m, k, n).total)}")
    lines.append(f"savings_ratio: {format_number(savings_ratio(m, k, n))}")
    if discrepancy is not None:
        lines.append(f"discrepancy: {format_number(discrepancy)}")
    return "\n".join(lines) + "\n"


def render_model(
    model: SvarCoefficients,
    *,
    seed: int,
    target_radius: float,
) -> str:
    """Sidecar report of generating coefficients for a simulated dataset."""
    lines = [
        "svarlic generating model",
        f"branches_m: {model.branches}",
        f"order_k: {model.order}",
        f"seed: {seed}",
        f"target_radius: {format_number(target_radius)}",
        f"spectral_radius: {format_number(companion_spectral_radius(model))}",
    ]
    lines += _coefficient_lines(model)
    return "\n".join(lines) + "\n"


def render_count_table(m: int, k: int, n: int) -> str:
    """Both itemized multiply-count tables plus the savings ratio."""
    ls = ls_multiply_count(m, k, n)
    lic = lic_multiply_count(m, k, n)
    ratio = savings_ratio(m, k, n)
    width = max(len(label) for label, _ in ls.items + lic.items + (("total", 0.0),))
    lines = [f"multiply-count model: M={m} K={k} N={n}"]
    for title, route in (("least-squares", ls), ("large-inverse-cholesky", lic)):
        lines.append(f"{title} route:")
        for label, count in route.items + (("total", route.total),):
            lines.append(f"  {label:<{width}}  {format_number(count)}")
    lines.append(f"savings_ratio: {format_number(ratio)}")
    if ratio < 0:
        lines.append("note: LIC not beneficial at this size")
    return "\n".join(lines) + "\n"


def render_bench_report(
    *,
    m: int,
    k: int,
    n: int,
    trials: int,
    seed: int,
    ls_median: float,
    lic_median: float,
) -> str:
    modeled = savings_ratio(m, k, n)
    measured_ratio = lic_median / ls_median if ls_median > 0 else float("nan")
    lines = [
        f"benchmark: M={m} K={k} N={n} trials={trials} seed={seed}",
        f"ls_median_seconds: {format_number(ls_median)}",
        f"lic_median_seconds: {format_number(lic_median)}",
        f"measured_time_ratio_lic_over_ls: {format_number(measured_ratio)}",
        f"measured_savings_ratio: {format_number(1.0 - measured_ratio)}",
        f"modeled_savings_ratio: {format_number(modeled)}",
        f"lic_faster: {'yes' if lic_median <= ls_median else 'no'}",
    ]
    return "\n".join(lines) + "\n"
