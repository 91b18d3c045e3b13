#!/usr/bin/env python3
"""Count each Python file's code lines: lines with a token other than a comment,
with docstrings and blank lines left out.  A statement spanning lines counts each.
A docstring is a string that opens a module, class or function body; a string
statement anywhere else is code.

Usage: python scripts/count_code_lines.py src/bayesgame/*.py
       python scripts/count_code_lines.py src tests

A directory stands for the ``.py`` files under it, in sorted order.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER, tokenize.ENCODING}
# the bodies a docstring may open
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path) -> int:
    with open(path, "rb") as fh:
        source = fh.read()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        first = node.body[0] if isinstance(node, DOCUMENTED) and node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    tokens = tokenize.tokenize(io.BytesIO(source).readline)
    lines = {row for token in tokens if token.type not in NOT_CODE
             for row in range(token.start[0], token.end[0] + 1)}
    return len(lines - docstrings)


def python_files(args) -> list:
    """Each argument, with a directory replaced by the ``.py`` files under it, sorted."""
    return [file for path in map(Path, args)
            for file in (sorted(path.rglob("*.py")) if path.is_dir() else [path])]


if __name__ == "__main__":
    paths = python_files(sys.argv[1:])
    counts = [code_lines(path) for path in paths]
    for count, path in zip(counts, paths):
        print(f"{count:6d} {path}")
    print(f"{sum(counts):6d} total")
