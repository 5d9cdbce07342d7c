"""Structural vector autoregression estimation via least squares or a
single large inverse Cholesky factor, with an exact multiply-count cost
model for comparing the two routes.

The top level holds the estimation routes, the coefficient containers, the
synthetic generator, the cost model and the exceptions. The kernels
(`svarlic.linalg`), the regressor builders and residual helpers
(`svarlic.model`) are imported from their own modules.
"""

from .complexity import lic_multiply_count, ls_multiply_count, savings_ratio
from .estimators import (
    FitComparison,
    coefficient_discrepancy,
    fit_both,
    fit_rvar_ls,
    fit_svar_lic,
    rvar_to_svar,
)
from .exceptions import (
    DimensionMismatch,
    InsufficientSamples,
    NotPositiveDefinite,
    NumericalOverflow,
    OrderTooLarge,
    RankDeficient,
    SvarlicError,
)
from .model import RvarCoefficients, SvarCoefficients, whitening_error
from .synthetic import random_stable_svar, simulate_series

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatch",
    "FitComparison",
    "InsufficientSamples",
    "NotPositiveDefinite",
    "NumericalOverflow",
    "OrderTooLarge",
    "RankDeficient",
    "RvarCoefficients",
    "SvarCoefficients",
    "SvarlicError",
    "coefficient_discrepancy",
    "fit_both",
    "fit_rvar_ls",
    "fit_svar_lic",
    "lic_multiply_count",
    "ls_multiply_count",
    "random_stable_svar",
    "rvar_to_svar",
    "savings_ratio",
    "simulate_series",
    "whitening_error",
    "__version__",
]
