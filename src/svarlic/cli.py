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
import gc
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .estimators import (
    _check_both,
    fit_both,
    fit_rvar_ls,
    fit_svar_lic,
    rvar_to_svar,
)
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
    # Rows are samples on disk; the library wants branches x samples, as
    # rows of adjacent samples, so the fit takes the library's BLAS paths.
    return np.ascontiguousarray(data.T)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _cmd_fit(args) -> int:
    x = _read_csv(args.input, args.header)
    k = args.order
    discrepancy = None
    if args.method == "ls":
        model = rvar_to_svar(fit_rvar_ls(x, k))
    elif args.method == "lic":
        model = fit_svar_lic(x, k)
    else:
        _, model, discrepancy = fit_both(x, k)
    report = render_fit_report(
        model,
        n=x.shape[1],
        method=args.method,
        source=args.input,
        whitening=whitening_error(model, x),
        discrepancy=discrepancy,
    )
    _write_text(args.output, report)
    return 0


def _dataset(args):
    """The model drawn with ``--seed`` and its series drawn with seed + 1."""
    model = random_stable_svar(args.branches, args.order, args.seed, args.radius)
    return model, simulate_series(model, args.length, seed=args.seed + 1)


def _cmd_simulate(args) -> int:
    model, x = _dataset(args)
    np.savetxt(args.output, x.T, delimiter=",", fmt="%.17g")
    sidecar = Path(args.output).with_suffix(".model.txt")
    _write_text(str(sidecar), render_model(model, seed=args.seed,
                                           target_radius=args.radius))
    return 0


def _cmd_count(args) -> int:
    _write_text(args.output, render_count_table(args.branches, args.order, args.length))
    return 0


def _alternating_seconds(fits, trials: int) -> list[list[float]]:
    """Seconds of each of the calls `fits`, one list per fit: one untimed
    warm-up call each, then every fit once per trial, in reverse order
    every other trial, so all see the same drift of the host and the same
    heap history. The garbage collector is off during each timed call."""
    for fit in fits:
        fit()  # warm-up, untimed
    samples = [[] for _ in fits]
    order = list(range(len(fits)))
    for trial in range(trials):
        for i in order if trial % 2 == 0 else order[::-1]:
            gc.disable()
            try:
                start = time.perf_counter()
                fits[i]()
                samples[i].append(time.perf_counter() - start)
            finally:
                gc.enable()
    return samples


def _cmd_bench(args) -> int:
    _, x = _dataset(args)
    # `fit_both`'s door, before a warm-up fit can fail on a series too
    # short for the other route.
    x, k = _check_both(x, args.order)
    ls_median, lic_median = map(statistics.median, _alternating_seconds(
        (lambda: rvar_to_svar(fit_rvar_ls(x, k)), lambda: fit_svar_lic(x, k)), args.trials))
    report = render_bench_report(
        m=args.branches, k=k, n=args.length,
        trials=args.trials, seed=args.seed,
        ls_median=ls_median, lic_median=lic_median,
    )
    _write_text(args.output, report)
    return 0


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse's "invalid int value" for non-integers
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _SingleLineParser(prog=PROG, description=__doc__,
                               formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SingleLineParser)
    # -m/-k/-n for every subcommand that takes a problem size; a dataset
    # adds the seed and radius it is drawn with (`_dataset`).
    size = argparse.ArgumentParser(add_help=False)
    size.add_argument("--branches", "-m", required=True, type=_int_at_least(1))
    size.add_argument("--order", "-k", required=True, type=_int_at_least(0))
    size.add_argument("--length", "-n", required=True, type=_int_at_least(1),
                      help="number of samples N")
    dataset = argparse.ArgumentParser(add_help=False, parents=[size])
    dataset.add_argument("--seed", type=_int_at_least(0), default=0)
    dataset.add_argument("--radius", type=float, default=0.8,
                         help="target companion spectral radius in (0, 1)")

    fit = sub.add_parser("fit", help="estimate SVAR coefficients from a CSV series")
    fit.add_argument("--input", "-i", required=True, help="CSV file, rows = samples")
    fit.add_argument("--order", "-k", required=True, type=_int_at_least(0),
                     help="autoregressive order K")
    fit.add_argument("--method", choices=("ls", "lic", "both"), default="both",
                     help="estimation route (default: both, reports the lic "
                          "coefficients plus the cross-method discrepancy)")
    fit.add_argument("--output", "-o", default=None, help="report file (default: stdout)")
    fit.add_argument("--header", action="store_true", help="skip one header line")
    fit.set_defaults(func=_cmd_fit)

    sim = sub.add_parser("simulate", parents=[dataset],
                         help="write a synthetic stable dataset + sidecar model")
    sim.add_argument("--output", "-o", required=True, help="CSV output path")
    sim.set_defaults(func=_cmd_simulate)

    count = sub.add_parser("count", parents=[size], help="print both multiply-count tables")
    count.add_argument("--output", "-o", default=None)
    count.set_defaults(func=_cmd_count)

    bench = sub.add_parser("bench", parents=[dataset],
                           help="time both estimators on one synthetic dataset")
    bench.add_argument("--trials", type=_int_at_least(1), default=20)
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
