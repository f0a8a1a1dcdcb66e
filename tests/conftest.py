"""Shared seeded generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from continua.cantor import minimal_indices
from continua.plmap import (
    Orientation,
    OrientedInterval,
    PLHomeo,
    canonical_generator,
    evaluate,
    invert,
)
from continua.shadowing import PseudoOrbit


def frac(rng: random.Random, den: int = 64) -> Fraction:
    return Fraction(rng.randrange(0, den + 1), den)


def random_plhomeo(rng: random.Random, max_interior: int = 4) -> PLHomeo:
    """Generic random increasing PL self-map of [0, 1] fixing the endpoints."""
    k = rng.randrange(0, max_interior + 1)
    grid = 32
    xs = sorted(rng.sample(range(1, grid), k)) if k else []
    ys = sorted(rng.sample(range(1, grid), k)) if k else []
    bps = (Fraction(0), *(Fraction(x, grid) for x in xs), Fraction(1))
    vals = (Fraction(0), *(Fraction(y, grid) for y in ys), Fraction(1))
    return PLHomeo(bps, vals)


def random_fat_map(rng: random.Random, max_plants: int = 3) -> PLHomeo:
    """Identity with canonical generators planted on disjoint interior slots.

    The fixed set is a union of fat intervals, so every gap between
    wandering intervals has room for further planting.
    """
    n = rng.randrange(1, max_plants + 1)
    grid = 24
    cuts = sorted(rng.sample(range(1, grid), 2 * n))
    xs: list[Fraction] = [Fraction(0)]
    ys: list[Fraction] = [Fraction(0)]
    for i in range(n):
        a = Fraction(cuts[2 * i], grid)
        b = Fraction(cuts[2 * i + 1], grid)
        orient = Orientation.R if rng.randrange(2) == 0 else Orientation.L
        gen = canonical_generator(a, b, orient)
        for x, y in zip(gen.breakpoints, gen.values):
            if x > xs[-1]:
                xs.append(x)
                ys.append(y)
    if xs[-1] != 1:
        xs.append(Fraction(1))
        ys.append(Fraction(1))
    return PLHomeo(tuple(xs), tuple(ys))


def random_touching_map(rng: random.Random, max_intervals: int = 8) -> PLHomeo:
    """Canonical generators planted on consecutive grid slots.

    Neighbouring planted slots share an endpoint, which is then an isolated
    fixed point where two wandering intervals touch (b_i == a_{i+1}); an
    unplanted slot stays a stretch of fixed points.  ``random_fat_map``
    never produces touching intervals.
    """
    grid = 32
    cuts = sorted(rng.sample(range(grid + 1), rng.randrange(2, max_intervals + 2)))
    xs: list[Fraction] = [Fraction(0)]
    ys: list[Fraction] = [Fraction(0)]
    for a, b in zip(cuts, cuts[1:]):
        if rng.randrange(4) == 0:
            continue
        orient = Orientation.R if rng.randrange(2) == 0 else Orientation.L
        gen = canonical_generator(Fraction(a, grid), Fraction(b, grid), orient)
        for x, y in zip(gen.breakpoints, gen.values):
            if x > xs[-1]:
                xs.append(x)
                ys.append(y)
    if xs[-1] != 1:
        xs.append(Fraction(1))
        ys.append(Fraction(1))
    return PLHomeo(tuple(xs), tuple(ys))


def ternary_endpoint_pool(max_level: int = 3) -> list[Fraction]:
    """Endpoints of the non-nested middle thirds down to max_level."""
    pts: set[Fraction] = set()
    for idx in minimal_indices(max_level):
        a, b = idx.interval()
        pts.add(a)
        pts.add(b)
    return sorted(pts)


def random_coordinate_change(rng: random.Random, max_breaks: int = 4) -> PLHomeo:
    """Random PL change of coordinates with slopes in [1/2, 2].

    Breakpoints sit on endpoints of non-nested middle thirds, so the map is
    affine across each such interval down to level 3.
    """
    pool = ternary_endpoint_pool(3)
    m = rng.randrange(1, max_breaks + 1)
    xs = sorted(rng.sample(pool, m))
    ys: list[Fraction] = []
    prev_x, prev_y = Fraction(0), Fraction(0)
    for x in xs:
        dx = x - prev_x
        lo = max(prev_y + dx / 2, 1 - 2 * (1 - x))
        hi = min(prev_y + 2 * dx, 1 - (1 - x) / 2)
        assert lo <= hi
        y = lo + (hi - lo) * frac(rng, 64)
        ys.append(y)
        prev_x, prev_y = x, y
    return PLHomeo((Fraction(0), *xs, Fraction(1)), (Fraction(0), *ys, Fraction(1)))


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def literal_chain_quality(
    ivs: list[OrientedInterval], lo: Fraction = Fraction(0), hi: Fraction = Fraction(1)
) -> Fraction | None:
    """Minimum chain quality by full enumeration of subsequences.

    Exponential in len(ivs); intended for families of at most ~16
    intervals as the ground truth against the production scan.
    """
    best: Fraction | None = None
    n = len(ivs)
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            sel = [ivs[i] for i in combo]
            if any(
                sel[i].orientation
                is not (Orientation.R if i % 2 == 0 else Orientation.L)
                for i in range(size)
            ):
                continue
            if any(sel[i].b >= sel[i + 1].a for i in range(size - 1)):
                continue
            q = max(
                sel[0].a - lo,
                hi - sel[-1].b,
                *(sel[i + 1].a - sel[i].b for i in range(size - 1)),
            )
            if best is None or q < best:
                best = q
    return best


def quadratic_suffix_best(ivs: list[OrientedInterval], hi: Fraction) -> list[Fraction]:
    """fwd[i] of the chain DP by trying every later interval: O(n^2)."""
    n = len(ivs)
    fwd = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        best = hi - ivs[i].b
        want = ivs[i].orientation.flipped()
        for j in range(i + 1, n):
            if ivs[j].orientation is want and ivs[j].a > ivs[i].b:
                cand = max(ivs[j].a - ivs[i].b, fwd[j])
                if cand < best:
                    best = cand
        fwd[i] = best
    return fwd


def grid_compose(f: PLHomeo, g: PLHomeo) -> PLHomeo:
    """f∘g evaluated pointwise on g's breakpoints and g⁻¹(f's breakpoints)."""
    g_inv = invert(g)
    xs = set(g.breakpoints)
    xs.update(evaluate(g_inv, b) for b in f.breakpoints)
    xs = sorted(xs)
    ys = [evaluate(f, evaluate(g, x)) for x in xs]
    return PLHomeo(tuple(xs), tuple(ys))


def grid_c0_distance(f: PLHomeo, g: PLHomeo) -> Fraction:
    """max(sup|f-g|, sup|f⁻¹-g⁻¹|) by evaluating on the merged breakpoints."""

    def branch(u: PLHomeo, v: PLHomeo) -> Fraction:
        grid = sorted(set(u.breakpoints) | set(v.breakpoints))
        return max(abs(evaluate(u, x) - evaluate(v, x)) for x in grid)

    return max(branch(f, g), branch(invert(f), invert(g)))


def orbit_membership_oracle(
    f: PLHomeo, f_inv: PLHomeo, orbit: PseudoOrbit, epsilon: Fraction, y: Fraction
) -> bool:
    """Direct |f^i(y) - x_i| <= epsilon check over the whole window."""
    if abs(y - orbit.point(0)) > epsilon:
        return False
    z = y
    for i in range(1, orbit.window[1] + 1):
        z = evaluate(f, z)
        if abs(z - orbit.point(i)) > epsilon:
            return False
    z = y
    for i in range(1, orbit.offset + 1):
        z = evaluate(f_inv, z)
        if abs(z - orbit.point(-i)) > epsilon:
            return False
    return True
