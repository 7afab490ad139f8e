"""Count the code lines of Python sources.

A line counts when it holds a token that is not a comment and lies outside
every module, class and function docstring; blank lines, comment lines and
docstring lines do not count.  A string token that spans lines counts on
each of its lines.  Uses the standard library only.

Usage: python3 tools/code_lines.py PATH [PATH ...]

Each PATH is a ``.py`` file or a directory, searched recursively.  Prints
one count per file and then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that mark layout, not code.
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Number of code lines in the Python source file ``path``."""
    source = path.read_bytes()
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source, str(path))))


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 tools/code_lines.py PATH [PATH ...]", file=sys.stderr)
        return 2
    files = []
    for arg in map(Path, argv):
        files += sorted(arg.rglob("*.py")) if arg.is_dir() else [arg]
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:7,d}  {path}")
    print(f"{total:7,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
