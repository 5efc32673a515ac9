#!/usr/bin/env python3
"""Line counts of a package's modules: all lines, and code lines.

A code line holds a token other than a comment and lies outside every
module, class and function docstring; blank lines, comment lines and
docstrings count only as lines.  Prints one row per module, then the
totals.

Example:
  python3 scripts/src_lines.py            # src/chgsets
  python3 scripts/src_lines.py tests
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER, tokenize.ENCODING}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(text: str) -> tuple:
    """(lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default="src/chgsets", help="package directory")
    root = Path(parser.parse_args(argv).dir)
    rows = [(str(path.relative_to(root)), *count(path.read_text(encoding="utf-8")))
            for path in sorted(root.rglob("*.py"))]
    width = max((len(name) for name, _, _ in rows), default=0) + 2
    print(f"{'module':<{width}}{'lines':>7}{'code':>7}")
    for name, lines, code in rows:
        print(f"{name:<{width}}{lines:>7}{code:>7}")
    print(f"{'total':<{width}}{sum(r[1] for r in rows):>7}{sum(r[2] for r in rows):>7}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
