"""Time the fit routes of two trees in one process, call against call, and
count each fit's minor page faults and trace its peak memory.

    python3 tools/ab_inprocess.py PARENT_TREE CHANGE_TREE M K N [--complex]
                                  [--rounds R] [--seed S] [--both-orders]

Each tree's ``src/svarlic`` is copied into one temporary directory under
its own package name, and both copies are imported into this process, so
the two sides share one interpreter, one heap and one BLAS. The series is
the change tree's: its model is drawn with seed S (default 1) and the
series with S + 1, as `svarlic simulate` does, complex with ``--complex``.
Each route, ``lic`` (`fit_svar_lic`), ``ls`` (`fit_rvar_ls` then
`rvar_to_svar`) and ``both`` (`fit_both`), is fitted on both sides, the
parent's and the change's calls next to each other. The calls are timed
in R rounds by `svarlic bench`'s loop, taken from this tool's own tree:
one untimed warm-up each, every call once per round in reverse order every
other round, the garbage collector off during each call. So the parent
goes first in even rounds and the change in odd ones. After the timed
rounds, one untimed fit per side and route runs under
`getrusage(RUSAGE_SELF)` and one more under `tracemalloc`, as perfbench's
peak-memory pass does. The BLAS pool runs on one thread.

Prints one row per route: each side's median seconds per call, the median
of the change-over-parent ratios of the R pairs, the pairs the change won,
each side's minor faults in one fit and each side's traced peak in MiB.
Drift in the host's speed over seconds moves both sides of a pair alike,
so the paired ratio resolves edits of a few microseconds that alternating
subprocess runs cannot; `tools/bench_pairs.py` runs the benchmark itself.
Pass one tree twice to profile it alone: the ratio then reads the noise
floor. The temporary directory is removed on exit.

One order favours a side: the same tree passed twice has read the second
tree up to 1.6% slower at (3,2,256). With ``--both-orders`` the comparison
runs twice, in two child processes, first with the trees in the order
given and then swapped, and prints both runs' rows under an ``order 1``
and an ``order 2`` line (in order 2 the ``parent`` columns are the change
tree's), then one row per route: both runs' ratios as change over parent,
order 2's inverted, and their geometric mean, in which the bias of the
order cancels. Order 2 draws the series from the parent tree, the same
series unless the change moves `svarlic.synthetic`.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from functools import partial
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from svarlic.cli import _alternating_seconds  # noqa: E402

SIDES = ("parent", "change")


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


def compare(packages: dict, m: int, k: int, n: int, complex_field: bool,
            rounds: int, seed: int) -> list[str]:
    """Report rows for `rounds` interleaved rounds of both `packages`."""
    x = seeded_series(packages["change"], m, k, n, complex_field, seed)
    side_routes = {side: routes(package) for side, package in packages.items()}
    names = list(side_routes["change"])
    fits = {(side, route): partial(side_routes[side][route], x, k)
            for route in names for side in SIDES}
    times = dict(zip(fits, _alternating_seconds(list(fits.values()), rounds)))
    faults = {key: minor_faults(fit) for key, fit in fits.items()}
    peaks = {key: peak_mib(fit) for key, fit in fits.items()}
    rows = [f"{'route':<6} {'parent_s':>12} {'change_s':>12} {'ratio':>7} {'won':>11} "
            f"{'parent_minflt':>13} {'change_minflt':>13} {'parent_mib':>10} {'change_mib':>10}"]
    for route in names:
        old, new = times["parent", route], times["change", route]
        ratio = statistics.median(b / a for a, b in zip(old, new))
        won = sum(b < a for a, b in zip(old, new))
        rows.append(f"{route:<6} {statistics.median(old):>12.4e} "
                    f"{statistics.median(new):>12.4e} {ratio:>7.3f} {f'{won}/{rounds}':>11} "
                    + " ".join(f"{faults[side, route]:>13}" for side in SIDES) + " "
                    + " ".join(f"{peaks[side, route]:>10.4f}" for side in SIDES))
    return rows


def one_order(first: Path, second: Path, args: argparse.Namespace) -> list[str]:
    """The report rows of this tool run in a child process with `first`
    as the parent tree and `second` as the change tree."""
    command = [sys.executable, str(Path(__file__).resolve()), str(first), str(second),
               str(args.m), str(args.k), str(args.n), "--rounds", str(args.rounds),
               "--seed", str(args.seed), *(["--complex"] if args.complex else [])]
    return subprocess.run(command, capture_output=True, text=True,
                          check=True).stdout.strip().splitlines()


def both_orders(args: argparse.Namespace) -> list[str]:
    """Report rows of the comparison in both tree orders, and each route's
    change-over-parent ratio from each order and their geometric mean."""
    forward = one_order(args.parent, args.change, args)
    backward = one_order(args.change, args.parent, args)
    rows = ["order 1: parent, change", *forward, "order 2: change, parent", *backward,
            f"{'route':<6} {'order_1':>7} {'order_2':>7} {'geomean':>7}"]
    for one, two in zip(forward[1:], backward[1:]):
        route, ratio = one.split()[0], float(one.split()[3])
        swapped = 1 / float(two.split()[3])
        rows.append(f"{route:<6} {ratio:>7.3f} {swapped:>7.3f} "
                    f"{math.sqrt(ratio * swapped):>7.3f}")
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
    parser.add_argument("--both-orders", action="store_true")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.both_orders:
        print("\n".join(both_orders(args)))
        return 0
    workdir = tempfile.mkdtemp(prefix="ab_inprocess_")
    try:
        sys.path.insert(0, workdir)
        packages = {}
        for side in SIDES:
            name = f"svarlic_{side}"
            shutil.copytree(getattr(args, side) / "src" / "svarlic", Path(workdir) / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            packages[side] = importlib.import_module(name)
        print("\n".join(compare(packages, args.m, args.k, args.n, args.complex,
                                args.rounds, args.seed)))
    finally:
        sys.path.remove(workdir)
        shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
