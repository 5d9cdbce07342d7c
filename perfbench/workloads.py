"""Seeded benchmark workloads and the generation of their inputs.

Every workload is a list of equally shaped M x N windows fitted at order K.
Inputs come from the package's own generator, `svarlic.synthetic`, driven
only by the seed given on the command line, so one seed reproduces the same
windows bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from svarlic import synthetic


@dataclass(frozen=True)
class Workload:
    name: str
    m: int
    k: int
    n: int
    complex_field: bool
    why: str
    #: Median seconds of `fitloop.reference_fit` on this workload's windows
    #: on the machine the benchmark was defined on (2-core Xeon, OpenBLAS
    #: 0.3.31 on one thread): the scale of the reference-normalised times.
    reference_s: float
    #: Latency samples are medians over this many consecutive fits of a
    #: route: a fit of a few milliseconds or less swings with every stall.
    batch: int = 1
    #: Rolling panels only: number of seeded systems, the length of each
    #: system's series, the window stride and the log10 half-width of the
    #: per-branch unit draw.
    systems: int = 0
    series_length: int = 0
    stride: int = 0
    unit_decades: float = 0.0


WORKLOADS = {w.name: w for w in (
    Workload(
        "tall_real", m=4, k=2, n=65536, complex_field=False, reference_s=2.75e-3, batch=8,
        why="paper's headline regime: per-sample Gram and regressor products "
            "dominate, factorization is the control that should not move"),
    Workload(
        "wide_real", m=64, k=8, n=8192, complex_field=False, reference_s=75e-3,
        why="577x577 Gram: Cholesky, inversion and solve_hpd carry the "
            "weight, and LIC does not yet beat LS here"),
    Workload(
        "complex_mid", m=8, k=8, n=32768, complex_field=True, reference_s=59e-3,
        why="the only complex workload: Hermitian Gram with its conjugate "
            "copy takes most of the LIC time"),
    Workload(
        "rolling_panel", m=3, k=2, n=256, complex_field=False, reference_s=167e-6,
        batch=32, systems=512, series_length=384, stride=64, unit_decades=1.0,
        why="many small fits over mixed-unit systems: per-call Python cost "
            "dominates"),
)}


#: The scale probe rescales each probed window's branches by units drawn
#: log-uniform over 10^+-PROBE_DECADES, as when a panel mixes levels and
#: rates. The package's rank decision depends on the branch units, so fits
#: of full-rank windows raise RankDeficient there; the timed loop keeps to
#: units the package handles, so its fits measure time and the probe measures
#: that defect.
PROBE_DECADES = 4.0
#: Windows the probe fits: the workload's windows, evenly spread and cycled,
#: at most PROBE_MAX and at least PROBE_MIN of them.
PROBE_MIN = 4
PROBE_MAX = 256


@dataclass
class Inputs:
    windows: list[np.ndarray]
    #: Seconds spent in `random_stable_svar` and `simulate_series`.
    generate_s: float
    simulate_s: float


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate the workload's windows from `seed` alone."""
    rng = np.random.default_rng(seed)
    generate_s = simulate_s = 0.0

    def system(length: int) -> np.ndarray:
        nonlocal generate_s, simulate_s
        model_seed, series_seed = (int(s) for s in rng.integers(2**31, size=2))
        t0 = time.perf_counter()
        model = synthetic.random_stable_svar(
            workload.m, workload.k, model_seed, complex_field=workload.complex_field)
        t1 = time.perf_counter()
        x = synthetic.simulate_series(model, length, series_seed)
        simulate_s += time.perf_counter() - t1
        generate_s += t1 - t0
        return x

    if not workload.systems:
        return Inputs([system(workload.n)], generate_s, simulate_s)

    windows = []
    for _ in range(workload.systems):
        x = system(workload.series_length)
        units = 10.0 ** rng.uniform(-workload.unit_decades, workload.unit_decades,
                                    size=workload.m)
        x = x * units[:, None]
        for start in range(0, workload.series_length - workload.n + 1, workload.stride):
            windows.append(x[:, start:start + workload.n])
    return Inputs(windows, generate_s, simulate_s)


def probe_windows(workload: Workload, inputs: Inputs, seed: int) -> list[np.ndarray]:
    """The scale probe's windows: `inputs`' windows rescaled per branch by
    units drawn from `seed` over 10^+-PROBE_DECADES."""
    rng = np.random.default_rng([seed, 1])  # a stream apart from the inputs'
    windows = inputs.windows
    count = max(PROBE_MIN, min(len(windows), PROBE_MAX))
    return [windows[i * len(windows) // count]
            * 10.0 ** rng.uniform(-PROBE_DECADES, PROBE_DECADES, size=(workload.m, 1))
            for i in range(count)]


def reference_input(workload: Workload) -> np.ndarray:
    """A fixed standard-normal window of the workload's shape and field, on
    which setup times `fitloop.reference_fit`."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((workload.m, workload.n))
    if workload.complex_field:
        x = x + 1j * rng.standard_normal((workload.m, workload.n))
    return x
