"""List the statements of ``src/continua`` that an in-process test run never executes.

Usage, from anywhere (extra arguments go to pytest)::

    python tools/untraced_lines.py
    python tools/untraced_lines.py -k "not criterion_7 and not criterion_8"

The script runs ``pytest.main`` in its own interpreter under a line tracer
(``sys.settrace``, and ``threading.settrace`` for threads started later)
that records only frames whose code lives in ``src/continua``.  It then
prints ``file:line: statement`` for each statement of the package's
syntax tree that never ran, and stays silent about the statements nested
inside it.  Docstrings and ``global`` and ``nonlocal`` declarations emit
no line event, so they are skipped.

Tests that run the CLI in a fresh interpreter (``subprocess``) are not
traced: a line that only they reach is listed.  Line tracing makes the
suite several times slower.  Standard library and pytest only.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "continua"


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _untraced(parent: ast.AST, ran: set[int]):
    """Outermost statements (and ``except`` clauses) under ``parent`` none
    of whose lines ran.

    A statement counts as run when any line it spans, decorators
    included, had a line event: an ``if`` whose test ran or a ``def``
    whose body ran was itself executed.
    """
    for field in ("body", "orelse", "finalbody", "handlers"):
        for node in getattr(parent, field, ()):
            if _is_docstring(node, parent) or isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            if ran.isdisjoint(range(first, node.end_lineno + 1)):
                yield node
            else:
                yield from _untraced(node, ran)


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}
    skipped: set[str] = set()

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name in ran:
            return local
        if name in skipped or not os.path.realpath(name).startswith(prefix):
            skipped.add(name)
            return None
        ran[name] = set()
        return local

    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    lines: dict[Path, set[int]] = {}
    for name, hit in ran.items():
        lines.setdefault(Path(os.path.realpath(name)), set()).update(hit)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        for node in _untraced(ast.parse(source, str(path)), lines.get(path, set())):
            print(f"{path.relative_to(ROOT)}:{node.lineno}: {text[node.lineno - 1].strip()}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
