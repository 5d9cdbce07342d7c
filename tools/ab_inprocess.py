"""Time the fit routes of two trees in one process, call against call.

    python3 tools/ab_inprocess.py PARENT_TREE CHANGE_TREE M K N [--complex]
                                  [--rounds R]

Each tree's ``src/svarlic`` is copied into one temporary directory under
its own package name, and both copies are imported into this process, so
the two sides share one interpreter, one heap and one BLAS. The series is
the change tree's, seeded as `tools/fit_faults.py` seeds it with its
default seed 1, complex with ``--complex``. Every round fits it once by
each of that tool's routes, ``lic``, ``ls`` and ``both``, on both sides,
the parent first in even rounds and the change first in odd ones, with the
garbage collector off during each call. The BLAS pool runs on one thread.

Prints one row per route: each side's median seconds per call, the median
of the change-over-parent ratios of the R pairs, and the pairs the change
won. Drift in the host's speed over seconds moves both sides of a pair
alike, so the paired ratio resolves edits of a few microseconds that
alternating subprocess runs cannot; `tools/bench_pairs.py` runs the
benchmark itself. The temporary directory is removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from fit_faults import routes, seeded_series  # noqa: E402

SIDES = ("parent", "change")


def seconds_per_call(fit, x, k) -> float:
    gc.disable()
    try:
        start = perf_counter()
        fit(x, k)
        return perf_counter() - start
    finally:
        gc.enable()


def compare(packages: dict, m: int, k: int, n: int, complex_field: bool,
            rounds: int) -> list[str]:
    """Report rows for `rounds` interleaved rounds of both `packages`."""
    x = seeded_series(packages["change"], m, k, n, complex_field, seed=1)
    fits = {side: routes(package) for side, package in packages.items()}
    names = list(fits["change"])
    for side in SIDES:  # warm caches and lazy set-up before timing
        for route in names:
            fits[side][route](x, k)
    times = {(side, route): [] for side in SIDES for route in names}
    for r in range(rounds):
        for route in names:
            for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                times[side, route].append(seconds_per_call(fits[side][route], x, k))
    rows = [f"{'route':<6} {'parent_s':>12} {'change_s':>12} {'ratio':>7} {'won':>11}"]
    for route in names:
        old, new = times["parent", route], times["change", route]
        ratio = statistics.median(b / a for a, b in zip(old, new))
        won = sum(b < a for a, b in zip(old, new))
        rows.append(f"{route:<6} {statistics.median(old):>12.4e} "
                    f"{statistics.median(new):>12.4e} {ratio:>7.3f} {f'{won}/{rounds}':>11}")
    return rows


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("m", type=int)
    parser.add_argument("k", type=int)
    parser.add_argument("n", type=int)
    parser.add_argument("--complex", action="store_true")
    parser.add_argument("--rounds", type=int, default=1000)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    workdir = tempfile.mkdtemp(prefix="ab_inprocess_")
    try:
        sys.path.insert(0, workdir)
        packages = {}
        for side in SIDES:
            name = f"svarlic_{side}"
            shutil.copytree(getattr(args, side) / "src" / "svarlic", Path(workdir) / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            packages[side] = importlib.import_module(name)
        print("\n".join(compare(packages, args.m, args.k, args.n, args.complex, args.rounds)))
    finally:
        sys.path.remove(workdir)
        shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
