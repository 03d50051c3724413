#!/usr/bin/env python3
"""Count the code lines of each module of a package directory.

    python3 tools/code_lines.py [DIRECTORY]

DIRECTORY defaults to the repository's `src/mrcner`. A code line is a line
that holds some of a module's code: blank lines, lines that hold only a
comment, and the lines of docstrings (the string that opens a module,
class or function body) are not counted, so deleting a comment or
rewording a docstring leaves the count as it is. Every line of a statement
that spans several lines counts, a string literal's too.

It prints one JSON line: `modules`, each `*.py` file's code lines by file
name, and `total`, their sum.
"""

from __future__ import annotations

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Tokens that hold no code of their own.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold code."""
    docstrings = set()  # where each docstring starts
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add((first.lineno, first.col_offset))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count(directory: Path) -> dict:
    modules = {path.name: code_lines(path.read_text(encoding="utf-8"))
               for path in sorted(directory.glob("*.py"))}
    return {"modules": modules, "total": sum(modules.values())}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    directory = Path(args[0]) if args else ROOT / "src" / "mrcner"
    print(json.dumps(count(directory)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
