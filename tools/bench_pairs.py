"""Run the benchmark on two trees in alternating pairs and compare them.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W --pairs N

Pair i (i = 1 .. N) runs ``python3 perfbench/run.py --workload W --seed i
--seconds S --trace 0`` once in each tree, with S the ``run_seconds`` of
this repository's ``BENCHMARK.json``, the parent first in odd pairs and
the change first in even ones. Each run's last line, its JSON summary, is
kept. Prints one row per end-to-end metric named in that file (with
``--workload all``, one per workload and metric):
the parent's and the change's medians, the change in %, the pairs the
change won by the metric's ``better`` direction (ties count for neither),
the interquartile range of the parent's runs, and a verdict: ``gain``
where the change won at least nine tenths of the pairs and its median is
better than the parent's by more than that range, ``worse`` where it lost
as many and its median is worse by as much, else ``unresolved``. Then the
attempted and failed fits of each side, summed over its runs.

Exits 1 if a run exits non-zero or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"


def end_to_end_directions(benchmark: Path = BENCHMARK) -> dict[str, str]:
    """``better`` ("lower" or "higher") of each end-to-end metric."""
    return {m["name"]: m["better"] for m in json.loads(benchmark.read_text())["end_to_end"]}


def run(tree: Path, workload: str, seed: int, seconds: float) -> str:
    """The last line of one benchmark run in `tree`; raises
    `subprocess.CalledProcessError` if the run exits non-zero."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    return proc.stdout.strip().splitlines()[-1]


def summarize(parent: list[str], change: list[str],
              better: dict[str, str]) -> tuple[list[str], bool]:
    """Report rows for the last lines of paired runs, `parent[i]` paired
    with `change[i]`, and whether every run reported ``correct: true``."""
    sides = {"parent": [json.loads(line) for line in parent],
             "change": [json.loads(line) for line in change]}
    rows = [f"{'metric':<36} {'parent_p50':>12} {'change_p50':>12} {'change%':>8} "
            f"{'won':>6} {'parent_iqr':>12} verdict"]
    for name in sides["parent"][0]["metrics"]:
        direction = better.get(name.rsplit(".", 1)[-1])
        if direction is None:
            continue
        old, new = ([result["metrics"][name]["value"] for result in sides[side]]
                    for side in ("parent", "change"))
        sign = 1 if direction == "higher" else -1
        won = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        lost = sum(sign * (b - a) < 0 for a, b in zip(old, new))
        quartiles = statistics.quantiles(old, n=4) if len(old) > 1 else [old[0]] * 3
        iqr = quartiles[2] - quartiles[0]
        base, median = statistics.median(old), statistics.median(new)
        gap = sign * (median - base)  # positive where the change is better
        verdict = ("gain" if won >= 0.9 * len(old) and gap > iqr else
                   "worse" if lost >= 0.9 * len(old) and -gap > iqr else "unresolved")
        percent = f"{100 * (median - base) / base:+.1f}" if base else "n/a"
        rows.append(f"{name:<36} {base:>12.6g} {median:>12.6g} {percent:>8} "
                    f"{won:>3}/{len(old):<2} {iqr:>12.3g} {verdict}")
    for key in ("attempted", "failed"):
        rows.append(f"{key:<9} " + " ".join(
            f"{side} {sum(result[key] for result in results)}"
            for side, results in sides.items()))
    return rows, all(result["correct"] for results in sides.values() for result in results)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seconds = float(json.loads(BENCHMARK.read_text())["run_seconds"])
    lines = {"parent": [], "change": []}
    for seed in range(1, args.pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            try:
                lines[side].append(run(getattr(args, side), args.workload, seed, seconds))
            except subprocess.CalledProcessError as exc:
                print(f"{side} run with seed {seed} exited {exc.returncode}:\n{exc.stderr}",
                      file=sys.stderr)
                return 1
            print(f"pair {seed} {side} done", file=sys.stderr)
    rows, correct = summarize(lines["parent"], lines["change"], end_to_end_directions())
    print("\n".join(rows))
    if not correct:
        print("a run reported correct: false", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
