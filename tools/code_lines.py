"""Count code lines per Python module: lines that are not blank, not a
comment and not part of a docstring.

    python3 tools/code_lines.py [dir]    # default: src/svarlic

Docstrings are found with `ast`: the string that opens a module, class or
function body. Prints one ``lines path`` row per module, sorted by path,
then the total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    skip = docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if number not in skip and line.strip() and not line.strip().startswith("#"))


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/svarlic")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
