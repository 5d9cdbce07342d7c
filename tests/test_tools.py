"""Smoke tests of the scripts under tools/."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_fit_faults_prints_every_route():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "fit_faults.py"), "2", "1", "200",
         "--complex", "--rounds", "3"],
        capture_output=True, text=True, check=True).stdout
    header, *rows = out.strip().splitlines()
    assert header == "route median_s minflt_per_fit"
    assert [row.split()[0] for row in rows] == ["lic", "ls", "both"]
    for row in rows:
        _, seconds, faults = row.split()
        assert float(seconds) > 0 and float(faults) >= 0
