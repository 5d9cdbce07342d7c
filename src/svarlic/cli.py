"""Command-line front end: fit models from CSV, simulate datasets, print
the multiply-count tables, and benchmark both estimators.

CSV convention: one row per time sample (oldest first), one column per
branch, comma separated, no header unless --header is given. Real values
only; complex support is library level.

Exit codes: 0 success, 2 usage or malformed input, 3 numerical failure
(rank-deficient data, too few samples, overflow). Every failure prints a
single diagnostic line to stderr.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .estimators import fit_both, fit_rvar_ls, fit_svar_lic, rvar_to_svar
from .exceptions import (
    InsufficientSamples,
    NotPositiveDefinite,
    NumericalOverflow,
    OrderTooLarge,
)
from .model import whitening_error
from .report import (
    render_bench_report,
    render_count_table,
    render_fit_report,
    render_model,
)
from .synthetic import random_stable_svar, simulate_series

PROG = "svarlic"


class _SingleLineParser(argparse.ArgumentParser):
    """ArgumentParser that reports usage errors as one stderr line."""

    def error(self, message):
        print(f"{PROG}: error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _read_csv(path: str, skip_header: bool) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # empty input becomes our own error below
        data = np.loadtxt(path, delimiter=",", skiprows=1 if skip_header else 0,
                          dtype=np.float64, ndmin=2)
    if data.size == 0:
        raise ValueError(f"no samples in {path}")
    return data.T  # rows are samples on disk; the library wants branches x samples


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _cmd_fit(args) -> int:
    x = _read_csv(args.input, args.header)
    m, n = x.shape
    k = args.order
    if args.method == "ls":
        model = rvar_to_svar(fit_rvar_ls(x, k))
        discrepancy = None
    elif args.method == "lic":
        model = fit_svar_lic(x, k)
        discrepancy = None
    else:
        result = fit_both(x, k)
        model = result.lic
        discrepancy = result.discrepancy
    report = render_fit_report(
        model,
        m=m, n=n, k=k,
        method=args.method,
        source=args.input,
        whitening=whitening_error(model, x),
        discrepancy=discrepancy,
    )
    _write_text(args.output, report)
    return 0


def _cmd_simulate(args) -> int:
    model = random_stable_svar(args.branches, args.order, args.seed, args.radius)
    x = simulate_series(model, args.length, seed=args.seed + 1)
    np.savetxt(args.output, x.T, delimiter=",", fmt="%.17g")
    sidecar = Path(args.output).with_suffix(".model.txt")
    _write_text(str(sidecar), render_model(model, seed=args.seed,
                                           target_radius=args.radius))
    return 0


def _cmd_count(args) -> int:
    _write_text(args.output, render_count_table(args.branches, args.order, args.length))
    return 0


def _cmd_bench(args) -> int:
    model = random_stable_svar(args.branches, args.order, args.seed, args.radius)
    x = simulate_series(model, args.length, seed=args.seed + 1)

    def timed(fit):
        fit(x, args.order)  # warm-up, untimed
        samples = []
        for _ in range(args.trials):
            start = time.perf_counter()
            fit(x, args.order)
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    ls_median = timed(lambda sig, k: rvar_to_svar(fit_rvar_ls(sig, k)))
    lic_median = timed(fit_svar_lic)
    report = render_bench_report(
        m=args.branches, k=args.order, n=args.length,
        trials=args.trials, seed=args.seed,
        ls_median=ls_median, lic_median=lic_median,
    )
    _write_text(args.output, report)
    return 0


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _SingleLineParser(prog=PROG, description=__doc__,
                               formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SingleLineParser)

    fit = sub.add_parser("fit", help="estimate SVAR coefficients from a CSV series")
    fit.add_argument("--input", "-i", required=True, help="CSV file, rows = samples")
    fit.add_argument("--order", "-k", required=True, type=_nonneg_int,
                     help="autoregressive order K")
    fit.add_argument("--method", choices=("ls", "lic", "both"), default="both",
                     help="estimation route (default: both, reports the lic "
                          "coefficients plus the cross-method discrepancy)")
    fit.add_argument("--output", "-o", default=None, help="report file (default: stdout)")
    fit.add_argument("--header", action="store_true", help="skip one header line")
    fit.set_defaults(func=_cmd_fit)

    sim = sub.add_parser("simulate", help="write a synthetic stable dataset + sidecar model")
    sim.add_argument("--branches", "-m", required=True, type=_positive_int)
    sim.add_argument("--order", "-k", required=True, type=_nonneg_int)
    sim.add_argument("--length", "-n", required=True, type=_positive_int,
                     help="number of samples N")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--radius", type=float, default=0.8,
                     help="target companion spectral radius in (0, 1)")
    sim.add_argument("--output", "-o", required=True, help="CSV output path")
    sim.set_defaults(func=_cmd_simulate)

    count = sub.add_parser("count", help="print both multiply-count tables")
    count.add_argument("--branches", "-m", required=True, type=_positive_int)
    count.add_argument("--order", "-k", required=True, type=_nonneg_int)
    count.add_argument("--length", "-n", required=True, type=_positive_int)
    count.add_argument("--output", "-o", default=None)
    count.set_defaults(func=_cmd_count)

    bench = sub.add_parser("bench", help="time both estimators on one synthetic dataset")
    bench.add_argument("--branches", "-m", required=True, type=_positive_int)
    bench.add_argument("--order", "-k", required=True, type=_nonneg_int)
    bench.add_argument("--length", "-n", required=True, type=_positive_int)
    bench.add_argument("--trials", type=_positive_int, default=20)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--radius", type=float, default=0.8)
    bench.add_argument("--output", "-o", default=None)
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OrderTooLarge as exc:
        print(f"{PROG}: error: order too large: {exc}", file=sys.stderr)
        return 2
    except (InsufficientSamples, NotPositiveDefinite, NumericalOverflow) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
