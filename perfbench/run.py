"""Fit benchmark for the two SVAR estimation routes.

Times `fit_svar_lic` (lic), `fit_rvar_ls` + `rvar_to_svar` (ls) and
`fit_both` (both) on seeded synthetic workloads, checks every fit, and
prints the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
separate traced run (``--trace 1``). Run from the repository root:

    python3 perfbench/run.py --workload tall_real --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5 --trace 1

The package is imported from ``src/`` next to this directory; the run stops
with exit code 2 if it is not there. One process, one caller: the BLAS pool
is pinned to one thread through this process's own environment. The last
line of output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it, ``record {...}``, holds the
environment, error classes, tail percentiles and raw wall times.

A latency sample is the median of a workload's `batch` consecutive fits of
a route (``fits_per_sample`` in the record): 32 on rolling_panel, 8 on
tall_real, one fit elsewhere. The median and tail are taken over these
samples, so on the first two the tail is that of the typical fit over
short stretches of the run, not of single fits: single fits of a few
milliseconds or less swing with every stall of a shared host.

The traced run also fits a scale probe, untimed: the workload's windows with
each branch rescaled by units drawn over 10^+-4. Its failures are reported as
``scale_probe.failure_ratio`` and in the record, and are not counted in
``attempted`` or ``failed``, which belong to the timed loop.

Fit and setup times are reference-normalised: each fit is divided by the
median time of `fitloop.reference_fit` in the rounds of its latency
sample, each setup repeat by the
reference times right before and after it, and both are multiplied by the
workload's `reference_s`, so they read as seconds on the machine the
benchmark was defined on and do not move with the host's speed. The raw
wall times are in the record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
SETUP_REPEATS = 3
#: Seconds of reference fits timed right before and right after each setup
#: repeat (at least 3 fits), which scale that repeat.
SETUP_REFERENCE_S = 0.25
#: Windows sampled, evenly spread, for the peak-memory pass.
MEMORY_WINDOWS = 16

#: Functions reported per route in the traced run: those each route calls.
ROUTE_FUNCTIONS = {
    "lic": ("estimators.fit_svar_lic", "model.as_signal", "model.build_regressor_t",
            "linalg.as_matrix", "linalg.gram_hermitian", "linalg.cholesky_lower",
            "linalg.invert_lower"),
    "ls": ("estimators.fit_rvar_ls", "estimators.rvar_to_svar", "model.as_signal",
           "model.build_regressor_s", "linalg.as_matrix", "linalg.gram_hermitian",
           "linalg.cholesky_lower", "linalg.invert_lower", "linalg.solve_hpd"),
    "both": ("estimators.fit_both", "estimators.fit_rvar_ls", "estimators.rvar_to_svar",
             "estimators.fit_svar_lic", "estimators.coefficient_discrepancy",
             "model.as_signal", "model.build_regressor_s", "model.build_regressor_t",
             "linalg.as_matrix", "linalg.gram_hermitian", "linalg.cholesky_lower",
             "linalg.invert_lower", "linalg.solve_hpd"),
}
LAYERS = ("estimators", "model", "linalg")


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _environment(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "git_commit": commit,
    }


def _setup(workload, seed: int):
    """Generate the inputs and warm every route up, SETUP_REPEATS times.

    Returns the inputs, the seconds of every repeat and the median reference
    time around every repeat: the mean of those timed right before and right
    after it.
    """
    from fitloop import ROUTES, median, reference_seconds
    from workloads import make_inputs, reference_input

    x = reference_input(workload)

    def reference() -> float:
        times, end = [], perf_counter() + SETUP_REFERENCE_S
        while len(times) < 3 or perf_counter() < end:
            times.append(reference_seconds(x, workload.k))
        return median(times)

    runs, times, references = [], [], []
    for _ in range(SETUP_REPEATS):
        before = reference()
        t0 = perf_counter()
        inputs = make_inputs(workload, seed)
        for fit in ROUTES.values():
            try:
                fit(inputs.windows[0], workload.k)
            except Exception:  # warm-up only; the timed loop counts failures
                pass
        times.append(perf_counter() - t0)
        references.append((before + reference()) / 2)
        runs.append(inputs)
    return runs, times, references


def _same_windows(a, b) -> bool:
    import numpy as np

    return len(a.windows) == len(b.windows) and all(
        x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a.windows, b.windows))


def _layer_metrics(tally, traced, untraced, workload, runs) -> dict:
    """Per-layer metrics of a traced run; values are medians over fits."""
    from svarlic import complexity

    from fitloop import median
    from tracing import STAGES, by_function, stage_seconds

    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    m, k, n = workload.m, workload.k, workload.n
    counts = {"lic": complexity.lic_multiply_count(m, k, n),
              "ls": complexity.ls_multiply_count(m, k, n)}
    for route, functions in ROUTE_FUNCTIONS.items():
        fits = [(spans, seconds) for spans, seconds, ok in traced[route] if ok]
        folded = [by_function(spans) for spans, _ in fits]
        for key in functions:
            put(f"{route}.{key}.self_s",
                median([f[key].self_s if key in f else 0.0 for f in folded]), "s")
            put(f"{route}.{key}.calls",
                median([f[key].calls if key in f else 0 for f in folded]), "calls/fit")
        for layer in LAYERS:
            put(f"{route}.{layer}.self_s", median(
                [sum(s.self_s for key, s in f.items() if key.startswith(layer + "."))
                 for f in folded]), "s")
        put(f"{route}.linalg.cholesky_lower.raised", sum(
            s.raised for spans, _, _ in traced[route]
            for (_, key), s in spans.items() if key == "linalg.cholesky_lower"), "count")
        put(f"{route}.trace.fit_s", median([sec for _, sec in fits]), "s")
        put(f"{route}.trace.accounted_ratio", median(
            [sum(s.self_s for s in spans.values()) / sec for spans, sec in fits]), "ratio")
        for item, (parts, cost_items) in STAGES.get(route, {}).items():
            seconds = median([stage_seconds(spans, parts) for spans, _ in fits])
            mult = sum(counts[route][label] for label in cost_items)
            put(f"{route}.stage.{item}.s", seconds, "s")
            put(f"{route}.stage.{item}.mult", mult, "mult")
            put(f"{route}.stage.{item}.gmult_per_s",
                mult / seconds / 1e9 if seconds > 0 else 0.0, "Gmult/s")

    itemsize = 16 if workload.complex_field else 8
    q = m * (k + 1) + 1
    put("lic.computed_bytes.T", q * (n - k) * itemsize, "B")
    put("lic.computed_bytes.TTH", q * q * itemsize, "B")
    put("estimators.lic_over_ls_ratio",
        median(untraced["lic"]) / median(untraced["ls"]), "ratio")
    put("complexity.savings_ratio", complexity.savings_ratio(m, k, n), "ratio")
    traced_s = sum(metrics[f"{r}.trace.fit_s"][0] for r in ROUTE_FUNCTIONS)
    put("trace.overhead_ratio", traced_s / sum(median(untraced[r]) for r in ROUTE_FUNCTIONS),
        "ratio")
    put("error_rate", tally.error_rate, "ratio")
    put("synthetic.random_stable_svar.s", median([r.generate_s for r in runs]), "s")
    put("synthetic.simulate_series.s", median([r.simulate_s for r in runs]), "s")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up and measure one workload; return (summary, record)."""
    from fitloop import (ROUTES, Tally, batch_medians, block_medians, fit_round, median,
                         peak_mib, tail, verify_round)
    from tracing import Tracer
    from workloads import PROBE_DECADES, WORKLOADS, probe_windows

    workload = WORKLOADS[name]
    runs, setup_times, setup_references = _setup(workload, seed)
    reproducible = all(_same_windows(runs[0], other) for other in runs[1:])
    windows, k = runs[-1].windows, workload.k

    tally = Tally()
    tracer = Tracer()
    traced = {route: [] for route in ROUTES}
    untraced = {route: [] for route in ROUTES}
    references = []
    rounds = 0
    start = perf_counter()
    while perf_counter() < start + seconds:
        x = windows[rounds % len(windows)]
        traced_round = trace and rounds % 2 == 1
        if traced_round:
            with tracer.installed():
                done, reference = fit_round(x, k, tally, tracer)
        else:
            done, reference = fit_round(x, k, tally)
        references.append(reference)
        passed = verify_round(done, rounds, x, tally)
        for route, (_, sec, spans) in done.items():
            if traced_round:
                traced[route].append((spans, sec, route in passed))
            elif route in passed:
                untraced[route].append(sec)
        rounds += 1

    record = {
        "workload": name,
        "shape": {"M": workload.m, "K": workload.k, "N": workload.n,
                  "complex": workload.complex_field, "windows": len(windows),
                  "unit_decades": workload.unit_decades},
        "why": workload.why,
        "seconds": seconds,
        "rounds": rounds,
        "reproducible_inputs": reproducible,
        "errors": dict(sorted(tally.errors.items())),
        "wrong_outputs": tally.wrong,
        "setup_wall_s": setup_times,
        "setup_reference_s": setup_references,
    }
    metrics = {}
    if trace:
        record["absent_functions"] = tracer.absent
        metrics = _layer_metrics(tally, traced, untraced, workload, runs)
        probe = Tally()
        for i, x in enumerate(probe_windows(workload, runs[-1], seed)):
            verify_round(fit_round(x, k, probe)[0], i, x, probe)
        record["scale_probe"] = {"unit_decades": PROBE_DECADES, "attempted": probe.attempted,
                                 "failed": probe.failed, "errors": dict(sorted(probe.errors.items()))}
        metrics["scale_probe.failure_ratio"] = (probe.error_rate, "ratio")
    else:
        scale = workload.reference_s
        # Each fit is divided by the median reference time of the rounds of
        # its latency sample, which follows the host's drift closely.
        smoothed = block_medians([i // workload.batch for i in range(rounds)], references)
        metrics["setup_s"] = (median([t / r for t, r in zip(setup_times, setup_references)])
                              * scale, "s")
        memory_windows = windows[::max(1, len(windows) // MEMORY_WINDOWS)]
        record["tail"], record["wall"] = {}, {}
        for route, fit in ROUTES.items():
            samples = batch_medians([sec / smoothed[i] * scale for sec, i in tally.latency[route]],
                                  workload.batch)
            wall = [sec for sec, _ in tally.latency[route]]
            value, pct = tail(samples)
            record["tail"][route] = {"percentile": round(pct, 2), "samples": len(samples),
                                     "fits_per_sample": workload.batch}
            record["wall"][route] = {"p50_s": median(wall), "tail_s": tail(wall)[0]}
            metrics[f"{route}_fit_p50_s"] = (median(samples), "s")
            metrics[f"{route}_fit_tail_s"] = (value, "s")
            metrics[f"{route}_peak_mib"] = (peak_mib(fit, memory_windows, k), "MiB")
        record["wall"]["reference_p50_s"] = median(references)
        metrics["success_ratio"] = (1.0 - tally.error_rate, "ratio")
    summary = {
        "correct": reproducible and tally.wrong == 0
                   and all(tally.latency[route] for route in ROUTES),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return summary, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="tall_real, wide_real, complex_mid, rolling_panel or all")
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=_positive_float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "svarlic" / "__init__.py").is_file():
        print(f"error: package source {src / 'svarlic'} not found", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    warnings.simplefilter("error", RuntimeWarning)

    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")

    environment = _environment(args.seed)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        summary, record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(f"== {name} (seed {args.seed}, trace {args.trace}) ==")
        for metric, (value, unit) in summary["metrics"].items():
            print(f"  {metric:<48} {value:>14.6g} {unit}")
        print("record " + json.dumps({**record, "environment": environment}))
        prefix = "" if len(names) == 1 else f"{name}."
        total["correct"] &= summary["correct"]
        total["attempted"] += summary["attempted"]
        total["failed"] += summary["failed"]
        total["metrics"].update({
            prefix + metric: {"value": value, "unit": unit}
            for metric, (value, unit) in summary["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
