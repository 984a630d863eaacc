"""Count code lines per Python module and in total.

A code line holds at least one token other than a comment or whitespace.
Module, class and function docstrings are not code, so their lines are left
out; a string token spanning several lines counts on every line it covers.

Usage: python tools/code_lines.py [--base DIR] [PATH ...]   (default: src/slv)

Each PATH is a .py file or a directory searched recursively. Prints one
`lines  module` row per file, then the total. With --base, PATH is also
counted under DIR (say, an unpacked base commit) and each row gives
`base  head  diff  module`, a module missing on one side counting 0.
Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in one module's source."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _modules(paths: list[str]) -> list[Path]:
    found: list[Path] = []
    for path in map(Path, paths):
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def _counts(root: Path, paths: list[str]) -> dict[str, int]:
    """Code lines per module found under root for paths, keyed by the
    module's path relative to root."""
    return {
        str(module.relative_to(root)): code_lines(module.read_text(encoding="utf-8"))
        for module in _modules([str(root / path) for path in paths])
        if module.is_file()
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["--base"]:
        base, paths = Path(argv[1]), argv[2:] or ["src/slv"]
        old, new = _counts(base, paths), _counts(Path("."), paths)
        print(f"{'base':>6}  {'head':>6}  {'diff':>6}  module")
        for module in sorted(old.keys() | new.keys()):
            before, after = old.get(module, 0), new.get(module, 0)
            print(f"{before:6d}  {after:6d}  {after - before:+6d}  {module}")
        before, after = sum(old.values()), sum(new.values())
        print(f"{before:6d}  {after:6d}  {after - before:+6d}  total")
        return 0
    total = 0
    for module in _modules(argv or ["src/slv"]):
        count = code_lines(module.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {module}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
