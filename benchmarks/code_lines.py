#!/usr/bin/env python
"""Count the code lines of ``src/repro/`` per package, and the delta to a base.

Usage::

    python benchmarks/code_lines.py .                 # this tree
    git archive "$BASE_SHA" | tar -x -C ../base
    python benchmarks/code_lines.py . ../base         # head, base and delta

A line counts when it holds a token other than a comment, a newline, an
indent or a dedent, and it is not inside a module, class or function
docstring; a multi-line token (a string) counts every line it spans.  So
blank lines, comment lines and docstrings are left out, and every other
line counts once.  Packages are the directories under ``src/repro/``; the
modules directly in it count as ``repro``.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Dict, Optional, Set

#: Token types that make no line a code line on their own.
NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> Set[int]:
    """The lines of every module, class and function docstring."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_source(source: str) -> int:
    """Code lines of one module's source text."""
    code: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NON_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstring_lines(ast.parse(source)))


def count_tree(tree: Path) -> Dict[str, int]:
    """Code lines per package of ``tree/src/repro``, in name order."""
    root = tree / "src" / "repro"
    if not root.is_dir():
        raise SystemExit(f"{tree}: no src/repro directory")
    counts: Dict[str, int] = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        package = parts[0] if len(parts) > 1 else "repro"
        counts[package] = counts.get(package, 0) + count_source(
            path.read_text(encoding="utf-8")
        )
    return dict(sorted(counts.items()))


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="source tree to count")
    parser.add_argument("base", type=Path, nargs="?", help="base tree to compare with")
    args = parser.parse_args(argv)
    head = count_tree(args.tree)
    if args.base is None:
        for package, count in head.items():
            print(f"{package:<16} {count:>6}")
        print(f"{'total':<16} {sum(head.values()):>6}")
        return 0
    base = count_tree(args.base)
    print(f"{'package':<16} {'base':>6} {'head':>6} {'delta':>6}")
    for package in sorted(set(base) | set(head)):
        old, new = base.get(package, 0), head.get(package, 0)
        print(f"{package:<16} {old:>6} {new:>6} {new - old:>+6}")
    old, new = sum(base.values()), sum(head.values())
    print(f"{'total':<16} {old:>6} {new:>6} {new - old:>+6}")
    print(f"src/ code lines: {old:,} -> {new:,} ({new - old:+,})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
