"""Time the fit routes of two trees in one process, call against call, in
both tree orders, and count each fit's minor page faults and trace its
peak memory.

    python3 tools/ab_inprocess.py PARENT_TREE CHANGE_TREE M K N [--complex]
                                  [--rounds R] [--seed S]

The comparison runs twice, each time in a fresh spawned interpreter:
first with the trees in the order given, then swapped. In each, both
trees' ``src/svarlic`` are copied into one temporary directory under
their own package names and imported, so the two sides share one
interpreter, one heap and one BLAS. Both orders fit the change tree's
series: its model is drawn with seed S (default 1) and the series with
S + 1, as `svarlic simulate` does, complex with ``--complex``. Each
route, ``lic`` (`fit_svar_lic`), ``ls`` (`fit_rvar_ls` then
`rvar_to_svar`) and ``both`` (`fit_both`), is fitted by both trees, their
calls next to each other. The calls are timed in R rounds by `svarlic
bench`'s loop, taken from this tool's own tree: one untimed warm-up each,
every call once per round in reverse order every other round, the garbage
collector off during each call. So the first tree goes first in even
rounds and the second in odd ones. After the timed rounds, one untimed
fit per tree and route runs under `getrusage(RUSAGE_SELF)` and one more
under `tracemalloc`, as perfbench's peak-memory pass does. The BLAS pool
runs on one thread.

Prints one header and one row per route: each side's median seconds per
call over both orders; ``order_1`` and ``order_2``, the median of the
change-over-parent ratios of each order's R pairs; their geometric mean,
in which the bias of the order cancels (one order alone has read the same
tree passed twice up to 1.6% slower on its second side at (3,2,256), and
3% either way at complex (24,1,18433)); the pairs the change won out of
2R; and each side's minor faults in one fit and traced peak in MiB, from
the first order. Drift in the host's speed over seconds moves both sides
of a pair alike, so the paired ratio resolves edits of a few microseconds
that alternating subprocess runs cannot; `tools/bench_pairs.py` runs the
benchmark itself. Pass one tree twice to profile it alone: the ratios
then read the noise floor. The temporary directories are removed on exit.
"""

from __future__ import annotations

import argparse
import importlib
import math
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import tempfile
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from svarlic.cli import _alternating_seconds  # noqa: E402

ROUTES = ("lic", "ls", "both")


def routes(package) -> dict:
    """The three fit routes of an imported copy of the package, in
    perfbench's order."""
    return {"lic": package.fit_svar_lic,
            "ls": lambda x, k: package.rvar_to_svar(package.fit_rvar_ls(x, k)),
            "both": package.fit_both}


def seeded_series(package, m: int, k: int, n: int, complex_field: bool, seed: int):
    """The package's series of N samples from its model drawn with `seed`,
    simulated with `seed + 1`."""
    model = package.random_stable_svar(m, k, seed, complex_field=complex_field)
    return package.simulate_series(model, n, seed + 1)


def minor_faults(fit) -> int:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fit()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def peak_mib(fit) -> float:
    tracemalloc.start()
    try:
        fit()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def measure(trees: tuple[Path, Path], series_tree: Path, m: int, k: int, n: int,
            complex_field: bool, rounds: int, seed: int) -> list[dict]:
    """Import both `trees`' packages into this process, fit every route of
    each on `series_tree`'s series in `rounds` interleaved rounds, and
    return per tree a dict of route to the seconds of each timed call, the
    minor faults of one fit and its traced peak in MiB."""
    with tempfile.TemporaryDirectory(prefix="ab_inprocess_") as workdir:
        sys.path.insert(0, workdir)
        packages = []
        for i, tree in enumerate(trees):
            shutil.copytree(tree / "src" / "svarlic", Path(workdir) / f"svarlic_{i}",
                            ignore=shutil.ignore_patterns("__pycache__"))
            packages.append(importlib.import_module(f"svarlic_{i}"))
        x = seeded_series(packages[trees.index(series_tree)], m, k, n, complex_field, seed)
        fits = {(i, route): partial(routes(package)[route], x, k)
                for route in ROUTES for i, package in enumerate(packages)}
        times = _alternating_seconds(list(fits.values()), rounds)
        results = [{}, {}]
        for ((i, route), fit), seconds in zip(fits.items(), times):
            results[i][route] = (seconds, minor_faults(fit), peak_mib(fit))
        return results


def table(orders: list[list[dict]], rounds: int) -> list[str]:
    """Report rows of both orders' `measure` results, each order's as
    (parent, change)."""
    rows = [f"{'route':<6} {'parent_s':>12} {'change_s':>12} {'order_1':>7} {'order_2':>7} "
            f"{'geomean':>7} {'won':>11} {'parent_minflt':>13} {'change_minflt':>13} "
            f"{'parent_mib':>10} {'change_mib':>10}"]
    for route in ROUTES:
        seconds = [[side[route][0] for side in order] for order in orders]
        ratios = [statistics.median(b / a for a, b in zip(old, new)) for old, new in seconds]
        old, new = (seconds[0][side] + seconds[1][side] for side in (0, 1))
        won = sum(b < a for a, b in zip(old, new))
        (_, old_faults, old_peak), (_, new_faults, new_peak) = (side[route] for side in orders[0])
        geomean = math.sqrt(ratios[0] * ratios[1])
        rows.append(f"{route:<6} {statistics.median(old):>12.4e} {statistics.median(new):>12.4e} "
                    f"{ratios[0]:>7.3f} {ratios[1]:>7.3f} {geomean:>7.3f} "
                    f"{f'{won}/{2 * rounds}':>11} {old_faults:>13} {new_faults:>13} "
                    f"{old_peak:>10.4f} {new_peak:>10.4f}")
    return rows


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    for name in ("m", "k", "n"):
        parser.add_argument(name, type=int)
    parser.add_argument("--complex", action="store_true")
    parser.add_argument("--rounds", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    orders = []
    for trees in ((args.parent, args.change), (args.change, args.parent)):
        # One fresh interpreter, and so one fresh heap, per order.
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
            orders.append(pool.submit(measure, trees, args.change, args.m, args.k, args.n,
                                      args.complex, args.rounds, args.seed).result())
    print("\n".join(table([orders[0], orders[1][::-1]], args.rounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
