"""Time ``plmap.compose`` and the uniform distance on the shapes of the
``deep`` operation and on interleaved worst cases, in-process, in this tree
or against a second checkout.

Usage, from anywhere::

    python tools/compose_shapes.py                 # this tree alone
    python tools/compose_shapes.py OTHER_CHECKOUT  # this tree against another

Each row is marked ``deep`` or ``synthetic``.  A ``deep`` row times a call
that ``perfbench/worker.py``'s ``deep_op`` makes, on its inputs; a
``synthetic`` row times a shape that no workload and no subcommand
produces, a worst case for the run walks.  Synthetic rows are reported,
and a change is judged on the ``deep`` rows.

The ``deep`` inputs are built from ``perfbench/run.py``'s
``op_specs("deep", seed, OPS)`` for seeds 1 to SEEDS, imported and not
edited, with f₉ the depth-9 ternary map (3071 breakpoints).  Per coordinate
change A (6 breakpoints), with g = A∘f₉∘A⁻¹, h the coordinate change of
``build_conjugacy(g, 4)`` and t the depth-3 ternary map, the ``deep`` rows
are:

- ``compose`` f₉∘A⁻¹: long runs of f₉'s breakpoints inside one piece of A⁻¹;
- ``compose`` A∘inner, with inner = f₉∘A⁻¹: long runs of inner's values
  inside one piece of A;
- ``compose`` g∘g⁻¹: every point coincident, and pruned;
- ``compose`` t∘h: ``build_conjugacy``'s own composition;
- ``c0_distance`` (g, f₉);
- ``_composite_c0_distance`` (h, g, t∘h): ``build_conjugacy``'s residual,
  the distance of h∘g from t∘h without building h∘g.

The synthetic rows have one- and two-point runs:

- ``compose`` f₉∘f₉, and f₉∘g for each g above;
- ``c0_distance`` (f₉, f₉), where no block is skipped;
- ``compose`` and ``c0_distance`` on pairs of random maps of RANDOM_POINTS
  breakpoints with denominators 10⁶ + 3 and 2²⁰, one pair per seed 1 to
  RANDOM_SEEDS, each taken both ways round.

Each input is timed REPEAT times and keeps its best; the script prints,
per shape, the median over its inputs in milliseconds.  Given the path of a
second checkout, it loads that checkout's ``src/continua`` under the
package name ``continua_other``.  It rebuilds every input map once from
its JSON, hands both trees maps that wrap the same integer form (by each
tree's ``_trusted``), and times the two trees in turn on each input, the
first alternating per repeat.  It then prints both medians and, over the
inputs, the median and range of this tree's best time divided by the
other's.  One process is the point: on a shared machine the medians of
one tree can move by 2× between processes, so a small ratio cannot be
read from two separate runs.  Two trees holding the same ``plmap.py``
read every row at 0.98–1.02, and the one-input (f₉, f₉) row at up to
1.03.  Handing each tree its own copy of the
integers is not neutral: the rows with f₉ as the outer map read
1.02–1.04 with a JSON copy per tree, and 0.97–0.98 with the script's own
maps against JSON copies, from the integers' layout in memory alone.
Standard library only.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from continua import cantor, plmap  # noqa: E402
from run import op_specs  # noqa: E402
from worker import DEEP_LEVELS  # noqa: E402

SEEDS, OPS, REPEAT = 5, 4, 15
RANDOM_POINTS, RANDOM_SEEDS = 3000, 10


def random_map(rng: random.Random, n: int, den: int) -> plmap.PLHomeo:
    """A map of [0, 1] through n points whose coordinates are multiples of 1/den."""
    xs = sorted(rng.sample(range(1, den), n - 2))
    ys = sorted(rng.sample(range(1, den), n - 2))
    return plmap.PLHomeo(tuple(Fraction(x, den) for x in [0, *xs, den]),
                         tuple(Fraction(y, den) for y in [0, *ys, den]))


def shapes() -> dict[tuple[str, str, str], list[tuple[plmap.PLHomeo, ...]]]:
    """The argument tuples of each (kind, function, shape), for
    ``plmap.<function>(*args)``; kind is ``deep`` or ``synthetic``."""
    f9 = cantor.build_ternary_map(DEEP_LEVELS)
    t = cantor.build_ternary_map(3)
    rows = [("deep", "compose", name) for name in ("f9∘A⁻¹", "A∘inner", "g∘g⁻¹", "t∘h")]
    rows += [("deep", "c0_distance", "g, f9"), ("deep", "_composite_c0_distance", "h, g, t∘h")]
    rows += [("synthetic", "compose", name) for name in ("f9∘f9", "f9∘g", "random")]
    rows += [("synthetic", "c0_distance", name) for name in ("f9, f9", "random")]
    args: dict[str, list] = {name: [] for _, _, name in rows}
    for seed in range(1, SEEDS + 1):
        for spec in op_specs("deep", seed, OPS):
            A = plmap.PLHomeo.from_json(spec["A"])
            A_inv = plmap.invert(A)
            inner = plmap.compose(f9, A_inv)
            g = plmap.compose(A, inner)
            h = cantor.build_conjugacy(g, 4).h
            args["f9∘A⁻¹"].append((f9, A_inv))
            args["A∘inner"].append((A, inner))
            args["g∘g⁻¹"].append((g, plmap.invert(g)))
            args["t∘h"].append((t, h))
            args["g, f9"].append((g, f9))
            args["h, g, t∘h"].append((h, g, plmap.compose(t, h)))
            args["f9∘g"].append((f9, g))
    args["f9∘f9"].append((f9, f9))
    args["f9, f9"].append((f9, f9))
    for seed in range(1, RANDOM_SEEDS + 1):
        rng = random.Random(seed)
        a = random_map(rng, RANDOM_POINTS, 10**6 + 3)
        b = random_map(rng, RANDOM_POINTS, 2**20)
        args["random"] += [(a, b), (b, a)]
    return {row: args[row[2]] for row in rows}


def load_other(checkout: Path):
    """The ``plmap`` module of ``checkout``'s ``src/continua``, imported as
    the package ``continua_other``."""
    package = checkout / "src" / "continua"
    spec = importlib.util.spec_from_file_location(
        "continua_other", package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules["continua_other"] = module
    spec.loader.exec_module(module)
    return importlib.import_module("continua_other.plmap")


def best_stages(trees: int, ops: int, repeat: int, timed) -> list[list[list[float]]]:
    """best[t][i]: the best seconds per stage of tree t on operation i over
    ``repeat`` runs of ``timed(t, i)``, which gives the seconds per stage.
    On each operation and repeat the trees take turns, the first alternating."""
    best: list[list[list[float]]] = [[] for _ in range(trees)]
    for i in range(ops):
        runs: list[list[list[float]]] = [[] for _ in range(trees)]
        for r in range(repeat):
            for t in (range(trees) if r % 2 == 0 else reversed(range(trees))):
                runs[t].append(timed(t, i))
        for t in range(trees):
            best[t].append([min(column) for column in zip(*runs[t])])
    return best


def report_stages(names: tuple[str, ...], best: list[list[list[float]]]) -> None:
    """Print, for ``best`` as ``best_stages`` gives it, the median over the
    operations of each stage and of their sum, in milliseconds.  For one
    tree each stage's share follows; for two, the other tree's median and
    the median and range over the operations of the first tree's time
    divided by the other's (a stage that no operation reaches has none)."""
    width = max(len(name) for name in (*names, "total")) + 2
    if len(best) == 1:
        total = statistics.median(sum(op) for op in best[0])
        for k, name in enumerate(names):
            s = statistics.median(op[k] for op in best[0])
            print(f"  {name:<{width}} {s * 1e3:8.2f}  {s / total:6.1%}")
        print(f"  {'total':<{width}} {total * 1e3:8.2f}")
        return
    print(f"  {'':<{width}} {'this':>8} {'other':>8}  this/other (range)")
    ours, theirs = ([op + [sum(op)] for op in tree] for tree in best)
    for k, name in enumerate((*names, "total")):
        mine, others = [op[k] for op in ours], [op[k] for op in theirs]
        ratios = [a / b for a, b in zip(mine, others) if b]
        spread = (f"{statistics.median(ratios):.2f} ({min(ratios):.2f}–{max(ratios):.2f})"
                  if ratios else "-")
        print(f"  {name:<{width}} {statistics.median(mine) * 1e3:8.2f} "
              f"{statistics.median(others) * 1e3:8.2f}  {spread}")


def best_ms(*calls) -> list[float]:
    """The best of REPEAT times of each (fn, args) call ``fn(*args)``, the
    calls taking turns, the first alternating."""
    runs: list[list[float]] = [[] for _ in calls]
    turns = list(zip(calls, runs))
    for r in range(REPEAT):
        for (fn, args), times in (turns if r % 2 == 0 else reversed(turns)):
            start = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - start)
    return [min(times) * 1e3 for times in runs]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", nargs="?", type=Path,
                        help="a second checkout, timed against this tree in this process")
    args = parser.parse_args()
    rows = shapes()
    print(f"best of {REPEAT} per input, median ms over the inputs")
    if args.other is None:
        for (kind, fn, name), inputs in rows.items():
            times = [best_ms((getattr(plmap, fn), maps))[0] for maps in inputs]
            print(f"  {kind:<9} {fn:<22} {name:<9} {statistics.median(times):8.2f}"
                  f"  n = {len(inputs)}")
        return 0
    other = load_other(args.other.resolve())
    copies: dict[int, tuple] = {}

    def rebuilt(maps: tuple[plmap.PLHomeo, ...], tree: int) -> tuple:
        # each map rebuilt once from its JSON, and both trees wrap the same
        # integer form: neither times the objects that shapes() built, and
        # neither reads integers laid out in memory differently
        for f in maps:
            if id(f) not in copies:
                mine = plmap.PLHomeo.from_json(f.to_json())
                copies[id(f)] = mine, other._trusted(mine._ints, mine.domain)
        return tuple(copies[id(f)][tree] for f in maps)

    print(f"this tree: {ROOT}\nother:     {args.other.resolve()}")
    print(f"  {'':<42} {'this':>8} {'other':>8}  this/other (range)")
    for (kind, fn, name), inputs in rows.items():
        times = [best_ms((getattr(plmap, fn), rebuilt(maps, 0)),
                         (getattr(other, fn), rebuilt(maps, 1)))
                 for maps in inputs]
        ratios = [ours / theirs for ours, theirs in times]
        print(f"  {kind:<9} {fn:<22} {name:<9} {statistics.median(t[0] for t in times):8.2f} "
              f"{statistics.median(t[1] for t in times):8.2f}  {statistics.median(ratios):.2f} "
              f"({min(ratios):.2f}–{max(ratios):.2f})  n = {len(inputs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
