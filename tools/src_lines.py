"""Line counts of the package's modules, by kind: code, docstring, comment, blank.

Usage (from the repository root):

    python3 tools/src_lines.py [DIRECTORY]

DIRECTORY defaults to ``src/mhd2tor``.  Every ``*.py`` file in it gets one
row, then a ``total`` row.  A line is a docstring line when it lies in the
docstring of a module, class or function (its blank lines included), a
comment line when it holds a comment and nothing else, a blank line when
it is empty or whitespace, and a code line otherwise.  The four counts of
a file add up to its ``wc -l``.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import tokenize

KINDS = ("code", "docstring", "comment", "blank")
DEFAULT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "mhd2tor")


def count_lines(source: str) -> dict[str, int]:
    """The number of lines of each kind in one module's source."""
    lines = source.splitlines()
    kind = ["blank" if not line.strip() else "code" for line in lines]
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT and tok.line.lstrip().startswith("#"):
            kind[tok.start[0] - 1] = "comment"
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                kind[first.lineno - 1 : first.end_lineno] = ["docstring"] * (
                    first.end_lineno - first.lineno + 1
                )
    return {k: kind.count(k) for k in KINDS}


def count_directory(path: str) -> dict[str, dict[str, int]]:
    """``count_lines`` of every ``*.py`` file in ``path``, by file name, and
    their sums under ``total``."""
    rows = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".py"):
            with open(os.path.join(path, name), encoding="utf-8") as fh:
                rows[name] = count_lines(fh.read())
    rows["total"] = {k: sum(row[k] for row in rows.values()) for k in KINDS}
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", default=DEFAULT)
    args = parser.parse_args(argv)
    rows = count_directory(args.directory)
    width = max(len(name) for name in rows)
    print(f"{'module':<{width}}" + "".join(f"{k:>11}" for k in KINDS) + f"{'lines':>8}")
    for name, row in rows.items():
        print(f"{name:<{width}}" + "".join(f"{row[k]:>11}" for k in KINDS) + f"{sum(row.values()):>8}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
