"""Span tracing of the fit path, installed from outside the package.

The tracer replaces each traced function with a timing wrapper on every
`svarlic` module attribute bound to it (the package imports its kernels by
name, so one function can be bound in several modules) and puts the
originals back when it is uninstalled. A function that is missing from its
home module is reported as absent instead of failing the run.

Each span records its self time: its duration minus the part of it covered
by traced child spans. The self times of the spans of one fit therefore add
up to the time spent inside the fit's top-level traced calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "svarlic"

#: Traced functions, keyed by the package module (layer) that defines them.
TRACED = {
    "estimators": ("fit_both", "fit_rvar_ls", "rvar_to_svar", "fit_svar_lic",
                   "coefficient_discrepancy"),
    "model": ("as_signal", "build_regressor_s", "build_regressor_t"),
    "linalg": ("as_matrix", "gram_hermitian", "cholesky_lower", "invert_lower",
               "solve_hpd"),
}

#: Stages of the fit named after the `svarlic.complexity` line items they
#: implement: (spans as (parent, function, "self" or "incl"), cost items).
#: A parent of None means a top-level call.
STAGES = {
    "lic": {
        "TTH": ([("estimators.fit_svar_lic", "linalg.gram_hermitian", "incl")],
                ("TT^H",)),
        "U_hat": ([("estimators.fit_svar_lic", "linalg.cholesky_lower", "incl"),
                   ("estimators.fit_svar_lic", "linalg.invert_lower", "incl")],
                  ("U_hat",)),
    },
    "ls": {
        "SSH": ([("estimators.fit_rvar_ls", "linalg.gram_hermitian", "incl")],
                ("SS^H",)),
        "SSH_solve": ([("estimators.fit_rvar_ls", "linalg.solve_hpd", "incl")],
                      ("(SS^H)^-1", "XS^H(SS^H)^-1")),
        "XSH_Vhat": ([(None, "estimators.fit_rvar_ls", "self")],
                     ("XS^H", "V_hat")),
        "VVH": ([("estimators.rvar_to_svar", "linalg.gram_hermitian", "incl")],
                ("V_hat V_hat^H",)),
        "L": ([("estimators.rvar_to_svar", "linalg.cholesky_lower", "incl"),
               ("estimators.rvar_to_svar", "linalg.invert_lower", "incl")],
              ("L",)),
        "R_t": ([(None, "estimators.rvar_to_svar", "self")],
                ("R_i", "t")),
    },
}


class Span:
    """Totals of one (parent, function) pair within one fit."""

    __slots__ = ("self_s", "incl_s", "calls", "raised")

    def __init__(self):
        self.self_s = self.incl_s = 0.0
        self.calls = self.raised = 0


class Tracer:
    """Installs the timing wrappers and collects the spans of one fit at a time."""

    def __init__(self):
        self.absent: list[str] = []
        self.spans: dict[tuple[str | None, str], Span] = defaultdict(Span)
        self._stack: list[list] = []

    def begin(self) -> dict[tuple[str | None, str], Span]:
        """Start collecting the spans of a new fit and return their table."""
        self.spans = defaultdict(Span)
        return self.spans

    @contextmanager
    def installed(self):
        originals = {}
        absent = []
        for layer, names in TRACED.items():
            home = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in names:
                fn = getattr(home, name, None)
                if fn is None:
                    absent.append(f"{layer}.{name}")
                elif id(fn) not in originals:
                    originals[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        self.absent = absent
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        patched = []
        try:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if id(value) in originals and originals[id(value)][0] is value:
                        setattr(mod, attr, originals[id(value)][1])
                        patched.append((mod, attr, value))
            yield self
        finally:
            for mod, attr, value in reversed(patched):
                setattr(mod, attr, value)

    def _wrap(self, key: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            raised = False
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                span = self.spans[(parent, key)]
                span.self_s += elapsed - frame[1]
                span.incl_s += elapsed
                span.calls += 1
                span.raised += raised

        return traced


def by_function(spans: dict) -> dict[str, Span]:
    """Fold one fit's spans over their parents, keyed by function."""
    out: dict[str, Span] = defaultdict(Span)
    for (_, key), span in spans.items():
        total = out[key]
        total.self_s += span.self_s
        total.incl_s += span.incl_s
        total.calls += span.calls
        total.raised += span.raised
    return out


def stage_seconds(spans: dict, parts) -> float:
    """Seconds one fit spent in the spans that make up a stage."""
    total = 0.0
    for parent, key, measure in parts:
        span = spans.get((parent, key))
        if span is not None:
            total += span.self_s if measure == "self" else span.incl_s
    return total
