"""Executable multiply-count cost models for both estimation routes.

The convention: count multiplications only (a fused multiply-accumulate
hides the additions), charge half the conventional count where a product
is known to be Hermitian, and charge N^3/2 for factorizing and inverting
an N x N matrix. Counts are kept as exact reals; the cube-halving terms
are fractional for odd dimensions on purpose.

The model describes the algorithms' arithmetic, not this implementation's
instruction trace: the least-squares route here solves rather than inverts
the Gram matrix, but the tally follows the conventional inversion recipe.
Likewise the direct route computes only the bottom M rows of the inverse
factor, yet ``U_hat`` is charged the full ``q^3/2`` for factorizing and
inverting, as in the paper's cost table.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "MultiplyCount",
    "ls_multiply_count",
    "lic_multiply_count",
    "savings_ratio",
]


@dataclass(frozen=True)
class MultiplyCount:
    """Itemized multiply counts: ordered (label, count) pairs."""

    items: tuple[tuple[str, float], ...]

    @property
    def total(self) -> float:
        return sum(count for _, count in self.items)

    def __getitem__(self, label: str) -> float:
        for name, count in self.items:
            if name == label:
                return count
        raise KeyError(label)


def _validate(m: int, k: int, n: int) -> None:
    if m < 1:
        raise ValueError(f"branch count M must be >= 1, got {m}")
    if k < 0:
        raise ValueError(f"order K must be >= 0, got {k}")
    if n <= k:
        raise ValueError(f"need N > K, got N={n}, K={k}")


def ls_multiply_count(m: int, k: int, n: int) -> MultiplyCount:
    """Multiply count of the least-squares route, itemized per operation."""
    _validate(m, k, n)
    p = m * k + 1          # rows of S
    cols = n - k
    return MultiplyCount(items=(
        ("SS^H", p * p * cols / 2),
        ("(SS^H)^-1", p ** 3 / 2),
        ("XS^H", m * p * cols),
        ("XS^H(SS^H)^-1", m * p * p),
        ("V_hat", m * p * cols),
        ("V_hat V_hat^H", m * m * cols),
        ("L", m ** 3 / 2),
        ("R_i", m ** 3 * k),
        ("t", m * m),
    ))


def lic_multiply_count(m: int, k: int, n: int) -> MultiplyCount:
    """Multiply count of the direct inverse-Cholesky route."""
    _validate(m, k, n)
    q = m * (k + 1) + 1    # rows of T
    cols = n - k
    return MultiplyCount(items=(
        ("TT^H", q * q * cols / 2),
        ("U_hat", q ** 3 / 2),
    ))


def savings_ratio(m: int, k: int, n: int) -> float:
    """Fractional multiply savings of the direct route over least squares,
    ``1 - lic_total / ls_total``.

    Positive once N dominates (the direct route's per-sample cost is always
    lower); can go negative at very small N, where its larger one-off
    factorization term wins out.
    """
    return 1.0 - lic_multiply_count(m, k, n).total / ls_multiply_count(m, k, n).total
