#!/usr/bin/env python3
"""Print the size of the package source: its lines as ``wc -l`` counts
them, and its lines of code.

Usage, from anywhere:

    python3 scripts/code_lines.py [DIR]

DIR defaults to src/coupledchains of this checkout.  A line of code is a
line that holds a token which is not a comment and does not lie in a
docstring (counted with `tokenize` and `ast`); blank lines, comments and
docstrings are not code.  One row per file, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """Lines of `text` that hold a token outside comments and docstrings."""
    docs = docstring_lines(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(line for line in range(tok.start[0], tok.end[0] + 1)
                         if line not in docs)
    return len(lines)


def main() -> int:
    top = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "src" / "coupledchains"
    total_wc = total_code = 0
    for path in sorted(top.rglob("*.py")):
        text = path.read_text()
        wc, code = text.count("\n"), code_lines(text)
        total_wc += wc
        total_code += code
        print(f"{wc:6d} {code:6d}  {path.relative_to(top)}")
    print(f"{total_wc:6d} {total_code:6d}  total (wc -l, lines of code)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
