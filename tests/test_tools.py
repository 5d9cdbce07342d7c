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
    assert header == "route median_s minflt_per_fit peak_mib"
    assert [row.split()[0] for row in rows] == ["lic", "ls", "both"]
    for row in rows:
        _, seconds, faults, peak = row.split()
        assert float(seconds) > 0 and float(faults) >= 0
        # Every fit holds at least its Gram, (M(K+1)+1)^2 complex values.
        assert float(peak) >= 5 * 5 * 16 / 2**20


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
    command = [sys.executable, str(ROOT / "tools" / "fit_digest.py"), "2,1,200", "2,0,60,c"]
    first = subprocess.run(command, capture_output=True, text=True, check=True).stdout
    second = subprocess.run(command, capture_output=True, text=True, check=True).stdout
    assert first == second
    rows = [line.split() for line in first.strip().splitlines()]
    assert [row[:2] for row in rows] == [
        ["2,1,200", name] for name in ("ls.c", "ls.A_1", "ls.V", "ls.L", "ls.R_1", "ls.t",
                                       "lic.L", "lic.R_1", "lic.t", "both.discrepancy")
    ] + [
        ["2,0,60,c", name] for name in ("ls.c", "ls.V", "ls.L", "ls.t",
                                        "lic.L", "lic.t", "both.discrepancy")
    ]
    assert all(len(row) == 3 and len(row[2]) == 64 and int(row[2], 16) >= 0 for row in rows)
