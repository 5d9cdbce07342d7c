"""Smoke tests of the scripts under tools/."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CODE_LINES_PACKAGE = {
    "__init__.py": "",
    "a.py": '''"""Module docstring,
over two lines."""

# A comment.
import os

TEXT = """A string literal
that is not a docstring."""


class Thing:
    """Class docstring."""

    size = 1  # a trailing comment leaves a code line

    def method(self):
        """Method docstring,

        with a blank line inside."""
        return os.sep
''',
    "sub/b.py": '''def f():
    """One-line function docstring."""
    # A comment in the body.
    "a bare string after the docstring"
    return 1


async def g():
    """Coroutine docstring."""
''',
}


def test_code_lines_counts_each_module(tmp_path):
    root = tmp_path / "pkg"
    for name, source in CODE_LINES_PACKAGE.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(source)
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(root)],
        capture_output=True, text=True, check=True).stdout
    rows = [line.split() for line in out.strip().splitlines()]
    assert rows == [["0", str(root / "__init__.py")],
                    ["7", str(root / "a.py")],
                    ["4", str(root / "sub" / "b.py")],
                    ["11", "total"]]


def test_fit_digest_prints_every_output_once_and_repeats():
    command = [sys.executable, str(ROOT / "tools" / "fit_digest.py"), "2,1,200", "2,0,60,c",
               "2,1,200,c,dup"]
    first = subprocess.run(command, capture_output=True, text=True, check=True).stdout
    second = subprocess.run(command, capture_output=True, text=True, check=True).stdout
    assert first == second
    rows = [line.split() for line in first.strip().splitlines()]
    assert [row[:2] for row in rows] == [
        ["2,1,200", name] for name in ("series", "ls.c", "ls.A_1", "ls.V", "ls.L", "ls.R_1",
                                       "ls.t", "lic.L", "lic.R_1", "lic.t", "lic.W",
                                       "both.ls.L", "both.ls.R_1", "both.ls.t",
                                       "both.discrepancy")
    ] + [
        ["2,0,60,c", name] for name in ("series", "ls.c", "ls.V", "ls.L", "ls.t", "lic.L",
                                        "lic.t", "lic.W", "both.ls.L", "both.ls.t",
                                        "both.discrepancy")
    ] + [
        ["2,1,200,c,dup", name] for name in ("series", "ls.error", "lic.error", "both.error")
    ]
    assert all(len(row) == 3 and len(row[2]) == 64 and int(row[2], 16) >= 0 for row in rows)


def test_ab_inprocess_times_every_route_in_both_tree_orders():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), str(ROOT), str(ROOT),
         "2", "1", "64", "--complex", "--rounds", "3"],
        capture_output=True, text=True, check=True).stdout
    header, *rows = out.strip().splitlines()
    assert header.split() == ["route", "parent_s", "change_s", "order_1", "order_2", "geomean",
                              "won", "parent_minflt", "change_minflt", "parent_mib",
                              "change_mib"]
    assert [row.split()[0] for row in rows] == ["lic", "ls", "both"]
    for row in rows:
        _, parent, change, order_1, order_2, geomean, won, *faults_and_peaks = row.split()
        assert float(parent) > 0 and float(change) > 0
        assert float(order_1) > 0 and float(order_2) > 0
        assert abs(float(geomean) - (float(order_1) * float(order_2)) ** 0.5) <= 1e-3
        wins, pairs = won.split("/")
        assert 0 <= int(wins) <= int(pairs) == 2 * 3
        assert all(int(faults) >= 0 for faults in faults_and_peaks[:2])
        # Every fit holds at least its Gram, (M(K+1)+1)^2 complex values.
        assert all(float(peak) >= 5 * 5 * 16 / 2**20 for peak in faults_and_peaks[2:])


def test_ab_inprocess_rejects_zero_rounds():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), str(ROOT), str(ROOT),
         "2", "1", "64", "--rounds", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.strip().splitlines()[-1].endswith("--rounds must be at least 1")


def summary_line(metrics, correct=True, attempted=100, failed=0):
    """A last line of `perfbench/run.py --workload all`, trimmed."""
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {name: {"value": value, "unit": "s"}
                                   for name, value in metrics.items()}})


def test_bench_pairs_summarizes_each_end_to_end_metric():
    bench_pairs = load_tool("bench_pairs")
    better = bench_pairs.end_to_end_directions()
    assert better["lic_fit_p50_s"] == "lower" and better["success_ratio"] == "higher"
    # Pairs 1-4: lic p50 won, tied, lost, won; success_ratio lost once.
    # A per-layer metric is not an end-to-end one and gets no row.
    parent = [summary_line({"w.lic_fit_p50_s": p50, "w.success_ratio": 1.0,
                            "w.lic.linalg.as_matrix.calls": 3.0})
              for p50 in (1.0, 2.0, 3.0, 4.0)]
    change = [summary_line({"w.lic_fit_p50_s": p50, "w.success_ratio": ratio,
                            "w.lic.linalg.as_matrix.calls": 0.0},
                           correct=ratio == 1.0, failed=2 if ratio < 1 else 0)
              for p50, ratio in ((0.5, 1.0), (2.0, 0.5), (3.5, 1.0), (1.0, 1.0))]
    rows, correct = bench_pairs.summarize(parent, change, better)
    assert [row.split() for row in rows[1:]] == [
        # Medians 2.5 and 1.5; the parent's quartiles are 1.25 and 3.75.
        ["w.lic_fit_p50_s", "2.5", "1.5", "-40.0", "2/4", "2.5", "unresolved"],
        ["w.success_ratio", "1", "1", "+0.0", "0/4", "0", "unresolved"],
        ["attempted", "parent", "400", "change", "400"],
        ["failed", "parent", "0", "change", "2"],
    ]
    assert not correct
    assert bench_pairs.summarize(parent, parent, better)[1]


@pytest.mark.parametrize("shifts, verdict", [
    ([-0.2] * 10, "gain"),  # every pair won, medians 0.2 apart
    ([-0.05] * 10, "unresolved"),  # every pair won, within the parent's spread
    ([0.2] * 10, "worse"),  # every pair lost, beyond the spread
    ([-0.2] * 8 + [0.01] * 2, "unresolved"),  # beyond the spread, 8/10 pairs won
])
def test_bench_pairs_verdict_needs_nine_tenths_and_the_parents_spread(shifts, verdict):
    bench_pairs = load_tool("bench_pairs")
    # Parent runs 1.00, 1.01, .. 1.09: statistics.quantiles puts their
    # quartiles at 1.0175 and 1.0725, an IQR of 0.055.
    old = [1.0 + 0.01 * i for i in range(10)]
    parent = [summary_line({"w.lic_fit_p50_s": a}) for a in old]
    change = [summary_line({"w.lic_fit_p50_s": a + d}) for a, d in zip(old, shifts)]
    rows, _ = bench_pairs.summarize(parent, change, bench_pairs.end_to_end_directions())
    assert rows[0].split()[-1] == "verdict"
    assert rows[1].split()[-2:] == ["0.055", verdict]


def test_bench_pairs_rejects_zero_pairs(capsys):
    with pytest.raises(SystemExit) as exc:
        load_tool("bench_pairs").main([str(ROOT), str(ROOT), "--workload", "all",
                                       "--pairs", "0"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.strip().splitlines()[-1].endswith(
        "--pairs must be at least 1")


def test_bench_pairs_runs_for_the_benchmarks_run_seconds(monkeypatch, capsys):
    bench_pairs = load_tool("bench_pairs")
    seconds = []

    def run(tree, workload, seed, run_seconds):
        seconds.append(run_seconds)
        return summary_line({"w.lic_fit_p50_s": 1.0})

    monkeypatch.setattr(bench_pairs, "run", run)
    assert bench_pairs.main([str(ROOT), str(ROOT), "--workload", "all", "--pairs", "1"]) == 0
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert seconds == [float(run_seconds)] * 2
    assert "w.lic_fit_p50_s" in capsys.readouterr().out
