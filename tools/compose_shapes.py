"""Time ``plmap.compose`` on the shapes of the ``deep`` operation and on
interleaved worst cases, in-process.

Run it from anywhere, with no arguments: ``python tools/compose_shapes.py``.

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

Each input pair is timed REPEAT times and keeps its best; the script
prints, per shape, the median over its pairs in milliseconds.  Times are
wall times of this process on whatever machine runs it; compare two trees
by running the script in each, alternately.  Standard library only.
"""

from __future__ import annotations

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

SEEDS, OPS, REPEAT = 5, 4, 5
RANDOM_POINTS, RANDOM_SEED = 3000, 1


def random_map(rng: random.Random, n: int, den: int) -> plmap.PLHomeo:
    """A map of [0, 1] through n points whose coordinates are multiples of 1/den."""
    xs = sorted(rng.sample(range(1, den), n - 2))
    ys = sorted(rng.sample(range(1, den), n - 2))
    return plmap.PLHomeo(tuple(Fraction(x, den) for x in [0, *xs, den]),
                         tuple(Fraction(y, den) for y in [0, *ys, den]))


def shapes() -> dict[str, list[tuple[plmap.PLHomeo, plmap.PLHomeo]]]:
    """The (f, g) pairs of each shape, for ``compose(f, g)``."""
    f9 = cantor.build_ternary_map(DEEP_LEVELS)
    pairs: dict[str, list] = {name: [] for name in (
        "f9∘A⁻¹", "A∘inner", "g∘g⁻¹", "h∘g", "f9∘f9", "f9∘g", "random")}
    for seed in range(1, SEEDS + 1):
        for spec in op_specs("deep", seed, OPS):
            A = plmap.PLHomeo.from_json(spec["A"])
            A_inv = plmap.invert(A)
            inner = plmap.compose(f9, A_inv)
            g = plmap.compose(A, inner)
            h = cantor.build_conjugacy(g, 4).h
            pairs["f9∘A⁻¹"].append((f9, A_inv))
            pairs["A∘inner"].append((A, inner))
            pairs["g∘g⁻¹"].append((g, plmap.invert(g)))
            pairs["h∘g"].append((h, g))
            pairs["f9∘g"].append((f9, g))
    pairs["f9∘f9"].append((f9, f9))
    rng = random.Random(RANDOM_SEED)
    a = random_map(rng, RANDOM_POINTS, 10**6 + 3)
    b = random_map(rng, RANDOM_POINTS, 2**20)
    pairs["random"] += [(a, b), (b, a)]
    return pairs


def best_ms(f: plmap.PLHomeo, g: plmap.PLHomeo) -> float:
    runs = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        plmap.compose(f, g)
        runs.append(time.perf_counter() - start)
    return min(runs) * 1e3


def main() -> int:
    print(f"compose, best of {REPEAT} per pair, median ms over the pairs")
    for name, pairs in shapes().items():
        times = [best_ms(f, g) for f, g in pairs]
        print(f"  {name:<8} {statistics.median(times):8.2f}  n = {len(pairs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
