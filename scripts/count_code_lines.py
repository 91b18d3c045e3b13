#!/usr/bin/env python3
"""Count each Python file's code lines: lines with a token other than a comment,
with docstrings and blank lines left out.  A statement spanning lines counts each.
A docstring is a string that opens a module, class or function body; a string
statement anywhere else is code.

Usage: python scripts/count_code_lines.py src/bayesgame/*.py
"""

import ast
import io
import sys
import tokenize

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


if __name__ == "__main__":
    counts = [code_lines(path) for path in sys.argv[1:]]
    for count, path in zip(counts, sys.argv[1:]):
        print(f"{count:6d} {path}")
    print(f"{sum(counts):6d} total")
