"""Time each stage of the benchmark's ``deep`` operation, in-process, in
this tree or against a second checkout.

Usage, from anywhere::

    python tools/deep_stages.py                 # this tree alone
    python tools/deep_stages.py OTHER_CHECKOUT  # this tree against another

The operation list is ``perfbench/run.py``'s ``op_specs("deep", seed, OPS)``
for seeds 1 to SEEDS, imported and not edited.  For each operation the
stages of ``perfbench/worker.py``'s ``deep_op`` run in its order, each
timed with ``time.perf_counter``:

- conjugate: g = A∘f₉∘A⁻¹, two compositions;
- round trip: g∘g⁻¹;
- c0: ``c0_distance(g, f₉)``;
- walk: ``wandering_intervals(g)``, whose first call runs g's fixed-set walk;
- list table: ``best_chain_quality`` on that list, which builds g's chain
  table;
- chain at q and chain above q: the two ``check_chain_property`` calls,
  which only scan that table; the first keeps it on g;
- conjugacy: ``build_conjugacy(g, 4)``, its residual distance included.

While checking the operations, the script counts the chain tables that
each operation builds, by wrapping ``cantor._chain_sweep``, which runs
once per table, and prints the count per operation for each tree.

Each repeat builds g afresh, so no cache on g carries over; f₉ is built
once, as the worker builds it once.  An operation's stage time is its best
over REPEAT runs, and the script prints the median over the operations of
each stage and of their sum, in milliseconds, with each stage's share.
Before timing, every operation's results are checked against one call of
``deep_op``.  Times are wall times of this process on whatever machine runs
it.

Given the path of a second checkout, the script loads that checkout's
``src/continua`` under the package name ``continua_other`` (with
``tools/compose_shapes.py``'s loader), checks that its operations write the
same artifact bytes, and times the two trees in turn on each operation and
repeat, the first tree alternating (``compose_shapes.best_stages``).  It then prints, per stage and for the sum, both medians and the
median and range over the operations of this tree's best time divided by
the other's.  One process is the point: on a shared machine the medians of
one tree can move by 2× between processes.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]

from compose_shapes import best_stages, load_other, report_stages  # noqa: E402
from continua import cantor, plmap  # noqa: E402
from run import op_specs  # noqa: E402
from worker import DEEP_LEVELS, deep_facts, deep_op  # noqa: E402

SEEDS, OPS, REPEAT = 5, 4, 3
STAGES = ("conjugate", "round trip", "c0", "walk", "list table",
          "chain at q", "chain above q", "conjugacy")


def timed_op(plmap, cantor, f9, A) -> tuple[list[float], tuple]:
    """The stages of ``deep_op`` on fresh maps, with this tree's or the
    other's ``plmap`` and ``cantor``: (seconds per stage, results)."""
    marks = [time.perf_counter()]
    g = plmap.compose(A, plmap.compose(f9, plmap.invert(A)))
    marks.append(time.perf_counter())
    round_trip = plmap.compose(g, plmap.invert(g))
    marks.append(time.perf_counter())
    distance = plmap.c0_distance(g, f9)
    marks.append(time.perf_counter())
    ivs = plmap.wandering_intervals(g)
    marks.append(time.perf_counter())
    q = cantor.best_chain_quality(ivs)
    above = q + q / 1000
    marks.append(time.perf_counter())
    at_q = cantor.check_chain_property(g, q)
    marks.append(time.perf_counter())
    witness = cantor.check_chain_property(g, above)
    marks.append(time.perf_counter())
    report = cantor.build_conjugacy(g, 4)
    marks.append(time.perf_counter())
    seconds = [b - a for a, b in zip(marks, marks[1:])]
    return seconds, (g, round_trip, distance, ivs, q, above, at_q, witness, report)


@contextlib.contextmanager
def counting_tables(cantor):
    """A list that gains one item per chain table that this tree's or the
    other's ``cantor`` builds: its ``_chain_sweep`` runs once per table."""
    built = []
    sweep = cantor._chain_sweep
    cantor._chain_sweep = lambda a, *rest: built.append(len(a)) or sweep(a, *rest)
    try:
        yield built
    finally:
        cantor._chain_sweep = sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", nargs="?", type=Path,
                        help="a second checkout, timed against this tree in this process")
    args = parser.parse_args()
    trees = [(plmap, cantor)]
    if args.other is not None:
        trees.append((load_other(args.other.resolve()),
                      importlib.import_module("continua_other.cantor")))
    specs = [spec["A"] for seed in range(1, SEEDS + 1) for spec in op_specs("deep", seed, OPS)]
    # per tree: f₉ and the coordinate changes
    inputs = [(cantor.build_ternary_map(DEEP_LEVELS), [plmap.PLHomeo.from_json(A) for A in specs])
              for plmap, cantor in trees]
    f9, maps = inputs[0]
    tables: list[list[int]] = [[] for _ in trees]
    for i, A in enumerate(maps):
        expected = deep_op(f9, A)
        results = []
        for t, tree in enumerate(trees):
            with counting_tables(tree[1]) as built:
                results.append(timed_op(*tree, inputs[t][0], inputs[t][1][i])[1])
            tables[t].append(len(built))
        if results[0] != expected:
            sys.exit("the timed stages disagree with worker.deep_op")
        if len(trees) > 1 and deep_facts(results[1])[1] != deep_facts(expected)[1]:
            sys.exit(f"the other tree writes other artifact bytes on op {i}")

    def timed(t: int, i: int) -> list[float]:
        f9, maps = inputs[t]
        return timed_op(*trees[t], f9, maps[i])[0]

    print(f"{len(maps)} ops, best of {REPEAT}, median ms per op")
    if len(trees) > 1:
        print(f"this tree: {ROOT}\nother:     {args.other.resolve()}")
    counts = [f"{min(n)}" if min(n) == max(n) else f"{min(n)}–{max(n)}" for n in tables]
    print("chain tables built per op: " + ", ".join(
        f"{name} {count}" for name, count in zip(("this tree", "other"), counts)))
    report_stages(STAGES, best_stages(len(trees), len(maps), REPEAT, timed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
