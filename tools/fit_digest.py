"""Print one SHA-256 digest per fit route and output, so that two trees can
be checked for byte-identical fits.

    python3 tools/fit_digest.py [M,K,N[,c][,dup] ...]

Each shape is fitted on one seeded series: the model is drawn with
`random_stable_svar(M, K, seed=1)`, complex with ``,c``, and the series
with `simulate_series(model, N, seed=2)`; a trailing ``,dup`` copies
branch 0 into the last branch, so that every route raises `RankDeficient`
and its message, which carries the failing pivot, is what is digested.
Without arguments the shapes are those below, which cover dense,
one-chunk and cut Gram windows, shapes just either side of the rule that
stacks T whole for the Gram (`model._regressor_gram`), K = 0, complex
input, and least-squares solves below and above the LU block (p = M*K + 1
up to 64, and 65 and 513), and also a cut residual window at K = 0 and a
complex M = 1 model, whose mixing matrix has no entry below the diagonal
to draw. At M = 24, whose windows no chunk cuts, ``24,1,6145`` is the
widest window the residuals' per-lag pass takes as one block and
``24,1,6146`` the narrowest it cuts into two; their complex rows do the
same for the Gram products, which conjugate such a window one block at a
time. ``16,4,65536`` and ``2,3,300000`` are the real cut windows on
which the residuals' per-lag products measured slowest and fastest
against a stack of T's rows (CHANGES.md), and ``3,3,65536,c`` takes the
phase form (linalg's chunk rule) at its smallest M, as ``8,8,32768,c``
does at a larger one. ``16,8,65536`` and ``32,8,16384`` are real windows
inside the rule's region for a real Gram in the phase form, the first
cut into chunks and the second left uncut and walked in phase blocks, at
the high order and mid M where that form gains most over the per-lag
products. ``2,30,65536`` is a high-order structured Gram,
whose block rows hold 31 lag blocks each; ``1,200,65536`` (811 rows) is
one more, left to an argument for its length. The two ``3,1,400`` ``dup``
shapes, real and complex, fail at index 3. The BLAS pool runs on one
thread.

Prints one ``shape output sha256`` row per output: first the simulated
input's ``series``, so that a fit row that moves can be traced to a moved
input; then the least-squares route's ``ls.c``, ``ls.A_i`` and ``ls.V``,
then its whitened ``ls.L``, ``ls.R_i`` and ``ls.t``; the direct route's
``lic.L``, ``lic.R_i`` and ``lic.t``, and its residuals ``lic.W``
(`svar_residuals`, the one output whose residuals take a mixing matrix);
and `fit_both`'s own least-squares half, ``both.ls.L``, ``both.ls.R_i``
and ``both.ls.t``, and its ``both.discrepancy``. A ``dup`` shape prints
its ``series`` and then ``ls.error`` (`fit_rvar_ls` then `rvar_to_svar`),
``lic.error`` and ``both.error``, each the route's
``"<exception type>: <message>"``; a route that fits prints no row. An
array's digest covers its dtype, shape and bytes; the discrepancy's and a
message's cover their `repr`. Run it on both trees and compare the
output with `diff`.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from svarlic import estimators, model, synthetic  # noqa: E402
from svarlic.exceptions import SvarlicError  # noqa: E402

SHAPES = ("3,2,256", "4,2,65536", "8,8,32768,c", "64,8,8192", "2,0,300,c",
          "5,1,600", "16,4,2048", "4,2,4098", "4,2,4098,c", "2,6,4102,c", "16,4,166",
          "4,0,65536", "1,2,5000,c", "24,1,6145", "24,1,6146", "24,1,6145,c", "24,1,6146,c",
          "16,4,65536", "2,3,300000", "3,3,65536,c", "16,8,65536", "32,8,16384",
          "2,30,65536", "3,1,400,dup", "3,1,400,c,dup")


def digest(value: object) -> str:
    if isinstance(value, np.ndarray):
        head = f"{value.dtype.str} {value.shape} ".encode()
        return hashlib.sha256(head + np.ascontiguousarray(value).tobytes()).hexdigest()
    return hashlib.sha256(repr(value).encode()).hexdigest()


def outputs(x: np.ndarray, k: int):
    """(name, value) for every output of the three routes on `x`."""
    rvar = estimators.fit_rvar_ls(x, k)
    yield "ls.c", rvar.c
    yield from ((f"ls.A_{i}", a) for i, a in enumerate(rvar.A, 1))
    yield "ls.V", rvar.V
    both = estimators.fit_both(x, k)
    for route, svar in (("ls", estimators.rvar_to_svar(rvar)),
                        ("lic", estimators.fit_svar_lic(x, k)), ("both.ls", both.ls)):
        yield f"{route}.L", svar.L
        yield from ((f"{route}.R_{i}", r) for i, r in enumerate(svar.R, 1))
        yield f"{route}.t", svar.t
        if route == "lic":
            yield "lic.W", model.svar_residuals(svar, x)
    yield "both.discrepancy", both.discrepancy


def errors(x: np.ndarray, k: int):
    """(name, message) for each route's failure on `x`, a series that no
    route can fit; a route that fits it prints no row."""
    for route, fit in (("ls", lambda: estimators.rvar_to_svar(estimators.fit_rvar_ls(x, k))),
                       ("lic", lambda: estimators.fit_svar_lic(x, k)),
                       ("both", lambda: estimators.fit_both(x, k))):
        try:
            fit()
        except SvarlicError as exc:
            yield f"{route}.error", f"{type(exc).__name__}: {exc}"


def main(argv: list[str]) -> int:
    for shape in argv or SHAPES:
        m, k, n, *flags = shape.split(",")
        model = synthetic.random_stable_svar(int(m), int(k), 1, complex_field="c" in flags)
        x = synthetic.simulate_series(model, int(n), 2)
        if "dup" in flags:
            x[-1] = x[0]
        print(f"{shape} series {digest(x)}")
        for name, value in (errors if "dup" in flags else outputs)(x, int(k)):
            print(f"{shape} {name} {digest(value)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
