"""Count the code lines of a Python package, per module and in total.

A code line is a line that holds a token other than a comment, NL, NEWLINE,
INDENT, DEDENT or ENDMARKER; a token that spans lines (a triple-quoted
string) makes each of its lines a code line. Module, class and function
docstrings are left out. Blank lines and comment-only lines therefore count
for nothing, and a statement split over three lines counts three.

    python3 tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/milstab beside this script's parent directory.
The script prints one line per module, largest first, then the total. It
uses the standard library alone.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring in tree."""
    lines = set()
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, owners) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count_package(package: Path) -> dict[str, int]:
    """Code lines of each module under package, keyed by its path relative to package."""
    return {
        path.relative_to(package).as_posix(): code_lines(path.read_text())
        for path in sorted(package.rglob("*.py"))
    }


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parent.parent / "src" / "milstab"
    package = Path(argv[0]) if argv else default
    counts = count_package(package)
    for name, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
