"""Time the three fit routes on one seeded series, count the minor page
faults each fit takes, in this process only, and trace its peak memory.

    python3 tools/fit_faults.py M K N [--complex] [--rounds R] [--seed S]

The model is drawn with seed S and the series with S + 1, as `svarlic
simulate` does. Each round fits the series by every route in perfbench's
order, lic (`fit_svar_lic`), ls (`fit_rvar_ls` then `rvar_to_svar`) and
both (`fit_both`), with the BLAS pool on one thread. After the timed
rounds, one more fit per route runs under `tracemalloc`, as perfbench's
peak-memory pass does. Prints one
``route median_s minflt_per_fit peak_mib`` row per route: the median wall
time of a fit, the median of `getrusage(RUSAGE_SELF)`'s minor-fault count
across it, and the traced peak of the untimed fit in MiB.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import svarlic  # noqa: E402


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


ROUTES = routes(svarlic)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for name in ("m", "k", "n"):
        parser.add_argument(name, type=int)
    parser.add_argument("--complex", action="store_true")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    x = seeded_series(svarlic, args.m, args.k, args.n, args.complex, args.seed)
    seconds = {route: [] for route in ROUTES}
    faults = {route: [] for route in ROUTES}
    for _ in range(args.rounds):
        for route, fit in ROUTES.items():
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = perf_counter()
            fit(x, args.k)
            seconds[route].append(perf_counter() - t0)
            faults[route].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    peaks = {}
    for route, fit in ROUTES.items():
        tracemalloc.start()
        try:
            fit(x, args.k)
            peaks[route] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    print("route median_s minflt_per_fit peak_mib")
    for route in ROUTES:
        print(f"{route} {statistics.median(seconds[route]):.6f} "
              f"{statistics.median(faults[route]):g} {peaks[route]:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
