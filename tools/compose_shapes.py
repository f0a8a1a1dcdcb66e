"""Time ``plmap.compose`` and ``plmap.c0_distance`` on the shapes of the
``deep`` operation and on interleaved worst cases, in-process, in this tree
or against a second checkout.

Usage, from anywhere::

    python tools/compose_shapes.py                 # this tree alone
    python tools/compose_shapes.py OTHER_CHECKOUT  # this tree against another

The ``deep`` inputs are built from ``perfbench/run.py``'s
``op_specs("deep", seed, OPS)`` for seeds 1 to SEEDS, imported and not
edited, with f₉ the depth-9 ternary map (3071 breakpoints).  Per coordinate
change A (6 breakpoints) the script times the four compositions of
``perfbench/worker.py``'s ``deep_op``:

- f₉∘A⁻¹: long runs of f₉'s breakpoints inside one piece of A⁻¹;
- A∘inner, with inner = f₉∘A⁻¹: long runs of inner's values inside one
  piece of A;
- g∘g⁻¹, with g = A∘inner: every point coincident, and pruned;
- h∘g, with h the coordinate change of ``build_conjugacy(g, 4)``.

The interleaved worst cases have one- and two-point runs:

- f₉∘f₉;
- f₉∘g, for each g above;
- two random maps of RANDOM_POINTS breakpoints with denominators
  10⁶ + 3 and 2²⁰, seeded by RANDOM_SEED, composed both ways round.

``c0_distance`` is timed on the ``deep`` operation's pair (g, f₉), on the
residual pair (h∘g, t∘h) of ``build_conjugacy(g, 4)`` with t the depth-3
ternary map, on (f₉, f₉), where no block is skipped, and on the random pair
both ways round.

Each input pair is timed REPEAT times and keeps its best; the script
prints, per shape, the median over its pairs in milliseconds.  Given the
path of a second checkout, it loads that checkout's ``src/continua`` under
the package name ``continua_other``, hands it the same maps (rebuilt from
their JSON), and times the two trees alternately on each pair.  It then
prints both medians and, over the pairs, the median and range of this
tree's best time divided by the other's.  One process is the point: on a
shared machine the medians of one tree can move by 2× between processes,
so a small ratio cannot be read from two separate runs.  Standard library
only.
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
RANDOM_POINTS, RANDOM_SEED = 3000, 1


def random_map(rng: random.Random, n: int, den: int) -> plmap.PLHomeo:
    """A map of [0, 1] through n points whose coordinates are multiples of 1/den."""
    xs = sorted(rng.sample(range(1, den), n - 2))
    ys = sorted(rng.sample(range(1, den), n - 2))
    return plmap.PLHomeo(tuple(Fraction(x, den) for x in [0, *xs, den]),
                         tuple(Fraction(y, den) for y in [0, *ys, den]))


def shapes() -> dict[tuple[str, str], list[tuple[plmap.PLHomeo, plmap.PLHomeo]]]:
    """The (f, g) pairs of each (function, shape), for ``compose(f, g)`` or
    ``c0_distance(f, g)``."""
    f9 = cantor.build_ternary_map(DEEP_LEVELS)
    t = cantor.build_ternary_map(3)
    pairs: dict[tuple[str, str], list] = {("compose", name): [] for name in (
        "f9∘A⁻¹", "A∘inner", "g∘g⁻¹", "h∘g", "f9∘f9", "f9∘g", "random")}
    pairs.update({("c0_distance", name): [] for name in ("g, f9", "h∘g, t∘h", "f9, f9", "random")})
    for seed in range(1, SEEDS + 1):
        for spec in op_specs("deep", seed, OPS):
            A = plmap.PLHomeo.from_json(spec["A"])
            A_inv = plmap.invert(A)
            inner = plmap.compose(f9, A_inv)
            g = plmap.compose(A, inner)
            h = cantor.build_conjugacy(g, 4).h
            pairs["compose", "f9∘A⁻¹"].append((f9, A_inv))
            pairs["compose", "A∘inner"].append((A, inner))
            pairs["compose", "g∘g⁻¹"].append((g, plmap.invert(g)))
            pairs["compose", "h∘g"].append((h, g))
            pairs["compose", "f9∘g"].append((f9, g))
            pairs["c0_distance", "g, f9"].append((g, f9))
            pairs["c0_distance", "h∘g, t∘h"].append((plmap.compose(h, g), plmap.compose(t, h)))
    pairs["compose", "f9∘f9"].append((f9, f9))
    pairs["c0_distance", "f9, f9"].append((f9, f9))
    rng = random.Random(RANDOM_SEED)
    a = random_map(rng, RANDOM_POINTS, 10**6 + 3)
    b = random_map(rng, RANDOM_POINTS, 2**20)
    pairs["compose", "random"] += [(a, b), (b, a)]
    pairs["c0_distance", "random"] += [(a, b), (b, a)]
    return pairs


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
    """The best of REPEAT times of each (fn, f, g) call ``fn(f, g)``, the
    calls taking turns."""
    runs: list[list[float]] = [[] for _ in calls]
    for _ in range(REPEAT):
        for (fn, f, g), times in zip(calls, runs):
            start = time.perf_counter()
            fn(f, g)
            times.append(time.perf_counter() - start)
    return [min(times) * 1e3 for times in runs]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", nargs="?", type=Path,
                        help="a second checkout, timed against this tree in this process")
    args = parser.parse_args()
    pairs = shapes()
    print(f"best of {REPEAT} per pair, median ms over the pairs")
    if args.other is None:
        for (fn, name), shape in pairs.items():
            times = [best_ms((getattr(plmap, fn), f, g))[0] for f, g in shape]
            print(f"  {fn:<11} {name:<9} {statistics.median(times):8.2f}  n = {len(shape)}")
        return 0
    other = load_other(args.other.resolve())
    copies: dict[int, object] = {}

    def copy(f: plmap.PLHomeo):
        if id(f) not in copies:
            copies[id(f)] = other.PLHomeo.from_json(f.to_json())
        return copies[id(f)]

    print(f"this tree: {ROOT}\nother:     {args.other.resolve()}")
    print(f"  {'':<21} {'this':>8} {'other':>8}  this/other (range)")
    for (fn, name), shape in pairs.items():
        times = [best_ms((getattr(plmap, fn), f, g), (getattr(other, fn), copy(f), copy(g)))
                 for f, g in shape]
        ratios = [ours / theirs for ours, theirs in times]
        print(f"  {fn:<11} {name:<9} {statistics.median(t[0] for t in times):8.2f} "
              f"{statistics.median(t[1] for t in times):8.2f}  {statistics.median(ratios):.2f} "
              f"({min(ratios):.2f}–{max(ratios):.2f})  n = {len(shape)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
