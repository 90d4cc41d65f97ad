"""Count the code lines of each module of the edwards1d package.

    python3 bench/code_lines.py [SRC_DIR]

A code line is a line of src/edwards1d/*.py (or SRC_DIR/*.py) that is
neither blank, nor only a comment, nor part of the docstring of a module,
class or function.  Lines are found with the tokenizer, so a multi-line
string or bracketed expression counts every line it spans, and docstrings
are located with the ast.  Prints the per-module counts and the total.
"""

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path):
    with open(path, "rb") as fh:
        source = fh.read()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source, path)))


def main():
    src = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "edwards1d")
    total = 0
    for name in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        n = code_lines(os.path.join(src, name))
        total += n
        print(f"{name:16s} {n:6d}")
    print(f"{'total':16s} {total:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
