"""Count code lines per Python module: lines that hold a token of code, so
no blank line, comment or docstring (the leading string of a module, class
or function) counts.  A ledger of the package's size, not a gate.

    python tools/count_lines.py [DIR_OR_FILE ...]   # default: src/htfoliation

prints one row per module, code lines then total lines, and the sums.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of the docstrings of a module and its classes and
    functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(ast.parse(source)))


def modules(paths: list[Path]) -> list[Path]:
    return [m for p in paths
            for m in (sorted(p.glob("*.py")) if p.is_dir() else [p])]


def main(argv: list[str]) -> None:
    paths = [Path(a) for a in argv] or [ROOT / "src" / "htfoliation"]
    code = total = 0
    for path in modules(paths):
        source = path.read_text()
        c, t = code_lines(source), len(source.splitlines())
        code, total = code + c, total + t
        print(f"{path.name:<24} {c:>6} {t:>6}")
    print(f"{'total':<24} {code:>6} {total:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
