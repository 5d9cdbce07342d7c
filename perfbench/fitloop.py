"""The three fit routes, the per-fit correctness gate and the timed loop.

Each round fits one window by every route back to back (one caller, closed
loop). Only the fit call itself is timed; every result is then checked
outside the timed region, and a fit that raises, warns or fails a check is
counted as failed under its exception or check name.

Each round also times `reference_fit`, a fixed plain-numpy computation
of the same shape that shares no code with the package. The host this
runs on changes the speed it gives one process by up to a half for tens
of seconds at a time (process CPU time moves with wall time, so it is
not descheduling); dividing each fit by the reference timed in the same
few rounds cancels that drift. The reference mixes the kinds of work a
fit does (BLAS products, a LAPACK call and a Python loop of small numpy
operations) because the drift slows them by different shares: a
reference without the loop slowed more than the sub-millisecond fits
did, and its ratio to them moved by a fifth between runs.
"""

from __future__ import annotations

import gc
import math
import statistics
import tracemalloc
from collections import Counter
from time import perf_counter

import numpy as np

from svarlic import estimators, model

#: Bound on the ls-vs-lic discrepancy and on each route's whitening error.
TOLERANCE = 1e-8


def _fit_lic(x, k):
    return estimators.fit_svar_lic(x, k)


def _fit_ls(x, k):
    return estimators.rvar_to_svar(estimators.fit_rvar_ls(x, k))


def _fit_both(x, k):
    return estimators.fit_both(x, k)


#: Routes are looked up on the modules at call time, so traced wrappers apply.
ROUTES = {"lic": _fit_lic, "ls": _fit_ls, "both": _fit_both}


def reference_fit(x, k: int):
    """Stack the regressors of `x` and form their Gram matrix, factor it
    with LAPACK, then factor it again column by column in a Python loop of
    small numpy operations, as the package's kernels do; a ridge of the
    trace keeps the factor defined. Returns the larger difference between
    the two factors."""
    n = x.shape[1]
    t = np.vstack([np.ones((1, n - k), dtype=x.dtype)]
                  + [x[:, j:n - k + j] for j in range(k + 1)])
    g = t @ t.conj().T
    g += np.trace(g).real * np.eye(len(g))
    c = np.linalg.cholesky(g)
    d = np.zeros_like(g)
    for j in range(len(g)):
        d[j, j] = math.sqrt((g[j, j] - d[j, :j] @ d[j, :j].conj()).real)
        d[j + 1:, j] = (g[j + 1:, j] - d[j + 1:, :j] @ d[j, :j].conj()) / d[j, j]
    return np.abs(c - d).max()


def reference_seconds(x, k: int) -> float:
    """Wall time of one `reference_fit` of `x`."""
    t0 = perf_counter()
    reference_fit(x, k)
    return perf_counter() - t0


def check(route: str, result, x) -> str | None:
    """Name of the first check `result` fails, or None if it passes."""
    if route == "both":
        if not result.discrepancy < TOLERANCE:
            return "DiscrepancyCheck"
        parts = (result.ls, result.lic)
    else:
        parts = (result,)
    for coeffs in parts:
        if not model.whitening_error(coeffs, x) < TOLERANCE:
            return "WhiteningCheck"
    return None


class Tally:
    """Attempts, failures by class, and latencies of successful fits."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: Counter[str] = Counter()
        #: Per route, (fit seconds, index of the round it ran in).
        self.latency: dict[str, list[tuple[float, int]]] = {route: [] for route in ROUTES}

    def fail(self, route: str, reason: str) -> None:
        self.failed += 1
        self.errors[f"{route}.{reason}"] += 1

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def fit_round(x, k: int, tally: Tally, tracer=None) -> tuple[dict, float]:
    """Fit `x` by every route; return ({route: (result, seconds, spans)},
    reference seconds).

    With a tracer, its wrappers must already be installed; each attempt's
    spans are returned whether or not the fit succeeded.
    """
    reference = reference_seconds(x, k)
    done = {}
    gc.disable()  # as timeit does; garbage is collected between rounds
    try:
        for route, fit in ROUTES.items():
            spans = tracer.begin() if tracer is not None else None
            tally.attempted += 1
            t0 = perf_counter()
            try:
                result = fit(x, k)
            except Exception as exc:  # any raise, numpy warnings included, is a failed fit
                done[route] = (None, perf_counter() - t0, spans)
                tally.fail(route, type(exc).__name__)
                continue
            done[route] = (result, perf_counter() - t0, spans)
    finally:
        gc.enable()
    return done, reference


def verify_round(done: dict, round_index: int, x, tally: Tally) -> set[str]:
    """Check every successful fit of a round; return the routes that passed."""
    passed = set()
    for route, (result, seconds, _) in done.items():
        if result is None:
            continue
        try:
            problem = check(route, result, x)
            ls = done.get("ls", (None,))[0]
            if problem is None and route == "lic" and ls is not None \
                    and not estimators.coefficient_discrepancy(ls, result) < TOLERANCE:
                problem = "DiscrepancyCheck"
        except Exception as exc:  # a check that cannot be evaluated fails the fit
            problem = type(exc).__name__
        if problem is None:
            passed.add(route)
            tally.latency[route].append((seconds, round_index))
        else:
            tally.fail(route, problem)
            tally.wrong += 1
    return passed


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


def block_medians(keys: list[int], values: list[float]) -> list[float]:
    """For each value, the median of all values with the same block key."""
    blocks: dict[int, list[float]] = {}
    for key, value in zip(keys, values):
        blocks.setdefault(key, []).append(value)
    medians = {key: statistics.median(vals) for key, vals in blocks.items()}
    return [medians[key] for key in keys]


def batch_medians(values: list[float], size: int) -> list[float]:
    """Medians of consecutive batches of `size` values; a last, short batch
    is dropped."""
    return [statistics.median(values[i:i + size])
            for i in range(0, len(values) - size + 1, size)]


#: Percentiles a tail may be reported at. A p99 of the sub-millisecond
#: rolling_panel fits swung by a fifth between runs on a shared 2-core host.
TAIL_PERCENTILES = (90.0, 75.0)


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest of TAIL_PERCENTILES with at least
    ten samples beyond it. With too few samples for any of them, the
    eleventh largest sample, whose percentile is given; with fewer than
    eleven samples, the largest."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return float("nan"), float("nan")
    if n < 11:
        return ordered[-1], 100.0
    for pct in TAIL_PERCENTILES:
        rank = int(n * pct / 100.0)  # samples at or below the percentile
        if n - rank >= 10:
            return ordered[rank - 1], pct
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_mib(fit, windows, k: int) -> float:
    """Largest tracemalloc peak of one fit over `windows`, in MiB."""
    peak = 0
    for x in windows:
        tracemalloc.start()
        try:
            fit(x, k)
        except Exception:  # failures are counted by the timed loop, not here
            pass
        finally:
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    return peak / 2**20
