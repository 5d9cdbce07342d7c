"""Tests of the fit benchmark itself: seeded inputs, tracing wrappers,
failure accounting and metric names.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import dataclasses
import json
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import fitloop  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from svarlic import estimators, linalg, model  # noqa: E402
from tracing import Tracer, by_function  # noqa: E402

TINY_PANEL = workloads.Workload(
    "tiny_panel", m=3, k=2, n=64, complex_field=False, why="test", reference_s=1e-5,
    systems=12, series_length=128, stride=32, unit_decades=4.0)


def _svarlic_bindings():
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if name == "svarlic" or name.startswith("svarlic.")
            for attr, value in vars(mod).items() if callable(value)}


@pytest.mark.parametrize("workload", [
    dataclasses.replace(workloads.WORKLOADS["tall_real"], n=512),
    dataclasses.replace(workloads.WORKLOADS["complex_mid"], n=512),
    TINY_PANEL,
])
def test_seeded_inputs_reproduce_bit_for_bit(workload):
    a = workloads.make_inputs(workload, 7)
    b = workloads.make_inputs(workload, 7)
    other = workloads.make_inputs(workload, 8)
    assert len(a.windows) == len(b.windows) > 0
    for x, y in zip(a.windows, b.windows):
        assert x.dtype == y.dtype and x.shape == (workload.m, workload.n)
        assert x.tobytes() == y.tobytes()
    assert not np.array_equal(a.windows[0], other.windows[0])
    assert run._same_windows(a, b) and not run._same_windows(a, other)


def test_scale_probe_rescales_each_branch_from_the_seed():
    inputs = workloads.make_inputs(TINY_PANEL, 5)
    probe = workloads.probe_windows(TINY_PANEL, inputs, 5)
    assert len(probe) == len(inputs.windows)
    assert all(x.tobytes() == y.tobytes()
               for x, y in zip(probe, workloads.probe_windows(TINY_PANEL, inputs, 5)))
    for x, y in zip(probe, inputs.windows):
        units = x[:, :1] / y[:, :1]
        np.testing.assert_allclose(x, units * y, rtol=1e-12)
        assert np.all(np.abs(np.log10(units)) <= workloads.PROBE_DECADES)

    single = dataclasses.replace(workloads.WORKLOADS["tall_real"], n=512)
    one = workloads.make_inputs(single, 5)
    assert len(workloads.probe_windows(single, one, 5)) == workloads.PROBE_MIN


def test_batch_medians_drop_a_short_last_batch():
    assert fitloop.batch_medians([1.0, 9.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3) == [2.0, 4.0]
    assert fitloop.batch_medians([1.0, 2.0], 1) == [1.0, 2.0]


def test_wrappers_are_installed_and_restored():
    before = _svarlic_bindings()
    x = workloads.make_inputs(dataclasses.replace(
        workloads.WORKLOADS["tall_real"], n=512), 1).windows[0]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert estimators.fit_svar_lic is not before[("svarlic.estimators", "fit_svar_lic")]
            assert estimators.cholesky_lower is not before[("svarlic.linalg", "cholesky_lower")]
            spans = tracer.begin()
            estimators.fit_both(x, 2)
            raise RuntimeError("leave the block early")
    assert _svarlic_bindings() == before
    assert tracer.absent == []

    folded = by_function(spans)
    assert folded["estimators.fit_both"].calls == 1
    assert folded["linalg.cholesky_lower"].calls == 3
    root = spans[(None, "estimators.fit_both")]
    assert sum(s.self_s for s in spans.values()) == pytest.approx(root.incl_s, rel=1e-9)


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(linalg, "invert_lower")
    before = _svarlic_bindings()
    x = workloads.make_inputs(dataclasses.replace(
        workloads.WORKLOADS["tall_real"], n=512), 1).windows[0]
    tracer = Tracer()
    with tracer.installed():
        spans = tracer.begin()
        estimators.fit_svar_lic(x, 2)
    assert tracer.absent == ["linalg.invert_lower"]
    assert "linalg.invert_lower" not in by_function(spans)
    assert _svarlic_bindings() == before


def test_failing_fits_are_counted_and_the_loop_goes_on():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 200))
    x[2] = x[0]  # duplicated branch: every route raises RankDeficient
    tally = fitloop.Tally()
    done, _ = fitloop.fit_round(x, 1, tally)
    assert fitloop.verify_round(done, 0, x, tally) == set()
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 3, 0)
    assert tally.errors == {"lic.RankDeficient": 1, "ls.RankDeficient": 1,
                            "both.RankDeficient": 1}

    good = rng.standard_normal((3, 200))
    done, _ = fitloop.fit_round(good, 1, tally)
    assert fitloop.verify_round(done, 0, good, tally) == {"lic", "ls", "both"}
    assert (tally.attempted, tally.failed) == (6, 3)
    assert tally.error_rate == 0.5


def test_wrong_output_and_escaped_warning_fail_the_fit(monkeypatch):
    x = np.random.default_rng(1).standard_normal((3, 200))
    tally = fitloop.Tally()
    done, _ = fitloop.fit_round(x, 1, tally)
    monkeypatch.setattr(model, "whitening_error", lambda coeffs, x: 1.0)
    assert fitloop.verify_round(done, 0, x, tally) == set()
    assert tally.wrong == 3 and tally.errors["lic.WhiteningCheck"] == 1

    def warning_fit(x, k):
        return np.log(np.zeros(1))

    monkeypatch.setitem(fitloop.ROUTES, "lic", warning_fit)
    with warnings.catch_warnings(), np.errstate(divide="warn"):
        warnings.simplefilter("error", RuntimeWarning)
        fitloop.fit_round(x, 1, tally)
    assert tally.errors["lic.RuntimeWarning"] == 1


@pytest.mark.parametrize("trace", [False, True])
def test_run_survives_failures_and_names_every_metric(monkeypatch, trace):
    monkeypatch.setitem(workloads.WORKLOADS, TINY_PANEL.name, TINY_PANEL)
    summary, record = run.run_workload(TINY_PANEL.name, 3, 0.3, trace)
    assert summary["correct"] is True
    assert summary["attempted"] >= 3 and summary["failed"] > 0
    assert sum(record["errors"].values()) == summary["failed"]

    if trace:
        probe = record["scale_probe"]
        assert probe["attempted"] == 3 * record["shape"]["windows"]
        assert summary["metrics"]["scale_probe.failure_ratio"][0] \
            == probe["failed"] / probe["attempted"]

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: unit for name, (_, unit) in summary["metrics"].items()}
    assert got == declared
    for name in got:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
