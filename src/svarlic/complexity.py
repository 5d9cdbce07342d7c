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
factor, by block substitution in about ``q^2 M/2`` multiplies plus LU
solves of blocks of order at most 64, yet ``U_hat`` is still charged the
full ``q^3/2`` for factorizing and inverting, as in the paper's cost
table, so the reproduced savings are the paper's. And ``TT^H`` is charged
the paper's ``q^2 N/2`` for a dense Hermitian product, while wherever T
does not fit in one chunk buffer (the rule is
`svarlic.model._regressor_gram`'s) the implementation forms it from the
K+1 distinct M x M lag products of the series, about ``M^2 (K+1) N``
multiplies; the least-squares route reads ``SS^H`` and ``XS^H`` off that
same Gram.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import _check_order, _integer

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
        return dict(self.items)[label]


def _validate(m: int, k: int, n: int) -> tuple[int, int, int]:
    """(M, K, N) as ints under the package's rule for counts and its
    order rule, N > K (`model._check_order`)."""
    m = _integer(m, 1, "branch count M must be >= 1, got {}")
    k = _integer(k, 0, "order K must be >= 0, got {}")
    n = _integer(n, 1, "sample count N must be >= 1, got {}")
    _check_order(k, n)
    return m, k, n


def ls_multiply_count(m: int, k: int, n: int) -> MultiplyCount:
    """Multiply count of the least-squares route, itemized per operation."""
    m, k, n = _validate(m, k, n)
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
    m, k, n = _validate(m, k, n)
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
