"""Count code lines: non-blank lines that are neither comments nor docstrings.

    python tools/count_code_lines.py [FILE ...]

With no arguments it counts ``src/lrtvar/*.py`` (relative to the repository
root) and prints one line per file and a total.  A line counts when a token
other than a comment or a line break lies on it, and it is not part of a
module, class or function docstring.
"""

import ast
import os
import pathlib
import sys
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
          tokenize.ENCODING}


def code_lines(path) -> int:
    """The number of code lines of the Python file ``path``."""
    text = pathlib.Path(path).read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in LAYOUT:
                code.update(range(tok.start[0], tok.end[0] + 1))
    lines = text.splitlines()
    return sum(1 for n in code - docstrings if lines[n - 1].strip())


def main(argv) -> int:
    paths = argv or sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "lrtvar").glob("*.py"))
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n:6d} {os.path.relpath(path)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
