"""Time each stage of the benchmark's ``deep`` operation, in-process.

Run it from anywhere, with no arguments: ``python tools/deep_stages.py``.

The operation list is ``perfbench/run.py``'s ``op_specs("deep", seed, OPS)``
for seeds 1 to SEEDS, imported and not edited.  For each operation the
stages of ``perfbench/worker.py``'s ``deep_op`` run in its order, each
timed with ``time.perf_counter``:

- conjugate: g = A∘f₉∘A⁻¹, two compositions;
- round trip: g∘g⁻¹;
- c0: ``c0_distance(g, f₉)``;
- walk: ``wandering_intervals(g)``, whose first call runs g's fixed-set walk;
- list table: ``best_chain_quality`` on that list;
- chain at q and chain above q: the two ``check_chain_property`` calls; the
  first builds the chain table kept on g;
- conjugacy: ``build_conjugacy(g, 4)``, its residual distance included.

Each repeat builds g afresh, so no cache on g carries over; f₉ is built
once, as the worker builds it once.  An operation's stage time is its best
over REPEAT runs, and the script prints the median over the operations of
each stage and of their sum, in milliseconds, with each stage's share.
Before timing, every operation's results are checked against one call of
``deep_op``.  Times are wall times of this process on whatever machine runs
it; compare two trees by running the script in each, alternately.
Standard library only.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from continua import cantor, plmap  # noqa: E402
from run import op_specs  # noqa: E402
from worker import DEEP_LEVELS, deep_op  # noqa: E402

SEEDS, OPS, REPEAT = 5, 4, 3
STAGES = ("conjugate", "round trip", "c0", "walk", "list table",
          "chain at q", "chain above q", "conjugacy")


def timed_op(f9: plmap.PLHomeo, A: plmap.PLHomeo) -> tuple[list[float], tuple]:
    """The stages of ``deep_op`` on fresh maps: (seconds per stage, results)."""
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


def main() -> int:
    f9 = cantor.build_ternary_map(DEEP_LEVELS)
    maps = [plmap.PLHomeo.from_json(spec["A"])
            for seed in range(1, SEEDS + 1) for spec in op_specs("deep", seed, OPS)]
    for A in maps:
        if timed_op(f9, A)[1] != deep_op(f9, A):
            sys.exit("the timed stages disagree with worker.deep_op")

    best = []
    for A in maps:
        runs = [timed_op(f9, A)[0] for _ in range(REPEAT)]
        best.append([min(column) for column in zip(*runs)])
    medians = [statistics.median(column) for column in zip(*best)]
    total = statistics.median(sum(op) for op in best)
    print(f"{len(maps)} ops, best of {REPEAT}, median ms per op")
    for name, s in zip(STAGES, medians):
        print(f"  {name:<14} {s * 1e3:8.2f}  {s / total:6.1%}")
    print(f"  {'total':<14} {total * 1e3:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
