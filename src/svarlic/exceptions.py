"""Exception types raised across the package."""


class SvarlicError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(SvarlicError, ValueError):
    """Operands have inconsistent shapes (branch counts, lag counts, ...)."""


class OrderTooLarge(SvarlicError, ValueError):
    """The autoregressive order K leaves no usable samples (N <= K)."""


class InsufficientSamples(SvarlicError):
    """Too few samples for the requested fit: the route's stacked regressor
    has fewer columns (N - K samples) than rows, so its Gram matrix cannot
    be full rank. Least squares stacks M*K + 1 rows, the direct
    inverse-Cholesky route M*(K+1) + 1."""


class NotPositiveDefinite(SvarlicError):
    """A Hermitian matrix expected to be positive definite was not:
    a Cholesky pivot fell below the relative threshold."""


class RankDeficient(NotPositiveDefinite):
    """An estimator's Gram matrix is singular, signalling collinear
    regressors or rank-deficient residuals (e.g. a deterministic or
    duplicated branch)."""


class NumericalOverflow(SvarlicError):
    """A computed value left its range. Any result computed from checked
    input that leaves double precision raises it (`linalg._finite`, the
    package's one rule for that): Gram products, residuals, solves and
    inverses, rescaled and implied coefficients, and the diagnostics
    alike. So does a simulated sample beyond `synthetic.OVERFLOW_LIMIT`
    (the model is unstable or was run too long)."""
