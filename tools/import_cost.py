"""Time a cold ``import continua.cli`` against a bare interpreter.

Usage, from anywhere::

    python tools/import_cost.py            # 25 rounds
    python tools/import_cost.py -n 50

Before timing, it byte-compiles ``src/continua`` with ``python -m
compileall`` under the timed interpreter, as ``perfbench/run.py`` does, so
no fresh interpreter compiles the package from source, even with
``PYTHONDONTWRITEBYTECODE`` set.  Each round starts one fresh interpreter
for each of three programs, in an order that rotates from round to round:

- ``pass``: interpreter start alone;
- ``stdlib``: the standard-library modules the package imports at module
  level, read from the syntax tree of ``src/continua``;
- ``continua.cli``: ``import continua.cli``, which loads every module.

It prints the median wall time of each program, then the median self time
of each package module under ``-X importtime`` over the same number of
runs.  The gap between ``stdlib`` and ``continua.cli`` is what the
package's own module bodies cost.  Standard library only; the timings
include whatever the interpreter's ``site`` hook imports.
"""

from __future__ import annotations

import argparse
import ast
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "continua"


def stdlib_imports() -> list[str]:
    """The absolute module-level imports of the package, sorted."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
    names.discard("__future__")
    return sorted(names)


def run(python: str, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [python, *args], env=env, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
    )


def module_self_us(stderr: bytes) -> dict[str, int]:
    """Self time in microseconds of each ``continua`` module in an
    ``-X importtime`` report."""
    out = {}
    for line in stderr.decode().splitlines():
        if not line.startswith("import time:"):
            continue
        fields = [f.strip() for f in line[len("import time:") :].split("|")]
        name = fields[2]
        if name.startswith("continua") and fields[0].isdigit():
            out[name] = int(fields[0])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "-n", "--rounds", type=int, default=25, help="fresh interpreters per program"
    )
    parser.add_argument("--python", default=sys.executable, help="interpreter to time")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    programs = {
        "pass": "pass",
        "stdlib": "import " + ", ".join(stdlib_imports()),
        "continua.cli": "import continua.cli",
    }
    run(args.python, ["-m", "compileall", "-q", str(PACKAGE)])
    for code in programs.values():  # warm the page cache
        run(args.python, ["-c", code])
    times: dict[str, list[float]] = defaultdict(list)
    selfs: dict[str, list[int]] = defaultdict(list)
    names = list(programs)
    for r in range(args.rounds):
        for name in names[r % 3 :] + names[: r % 3]:
            start = time.perf_counter()
            run(args.python, ["-c", programs[name]])
            times[name].append(time.perf_counter() - start)
        report = run(args.python, ["-X", "importtime", "-c", programs["continua.cli"]])
        for module, us in module_self_us(report.stderr).items():
            selfs[module].append(us)

    print(f"{args.python}, {args.rounds} rounds; median wall time of a fresh interpreter:")
    for name in names:
        print(f"  {name:<14} {statistics.median(times[name]) * 1000:7.1f} ms")
    print("median self time under -X importtime:")
    for module in sorted(selfs, key=lambda m: -statistics.median(selfs[m])):
        print(f"  {module:<20} {statistics.median(selfs[module]) / 1000:7.2f} ms")
    total = sum(statistics.median(v) for v in selfs.values())
    print(f"  {'(package total)':<20} {total / 1000:7.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
