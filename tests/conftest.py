"""Shared seeded generators and independent oracles for the test suite."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import random
from bisect import bisect_right
from fractions import Fraction

import pytest

from continua import shadowing
from continua.cantor import (
    ChainWitness,
    ConjugacyReport,
    ExplosionSiteError,
    InsufficientIntervals,
    TernaryIndex,
    build_ternary_map,
    check_chain_property,
    explode_fixed_point,
    minimal_indices,
)
from continua.continuum import Arc, YHomeo, YModel, YPoint
from continua.geometry import Point, segments_intersect
from continua.plmap import (
    DomainError,
    Orientation,
    OrientedInterval,
    PLHomeo,
    c0_distance,
    canonical_generator,
    compose,
    evaluate,
    identity,
    invert,
    iterate,
    wandering_intervals,
)
from continua.rational import _decimal, exact_sqrt, positive, sqrt_enclosure
from continua.shadowing import (
    _INWARD,
    GRID_LEVELS,
    NOISE_GRID,
    ORBIT_LENGTH,
    CertificateError,
    InwardNeighborhood,
    NoInwardStub,
    PseudoOrbit,
    ShadowingSet,
    Stub,
    _clamp,
    _from_end,
    generate_pseudo_orbit,
    shadowing_set,
)


# Helpers that only tests call.  src/ holds what a subcommand, the benchmark or
# an acceptance criterion runs, so these live here.


def all_indices(max_level: int) -> list[TernaryIndex]:
    """Every (n, k) with n <= max_level, nested ones included."""
    return [TernaryIndex(n, k) for n in range(max_level + 1) for k in range(3**n)]


def canonical_l(a: Fraction, b: Fraction) -> PLHomeo:
    return canonical_generator(a, b, Orientation.L)


def rescale(f: PLHomeo, target: tuple[Fraction, Fraction]) -> PLHomeo:
    """Affine conjugation A∘f∘A⁻¹ onto [a, b], A the increasing affine map."""
    a, b = Fraction(target[0]), Fraction(target[1])
    if not a < b:
        raise ValueError("need a < b")
    lo, hi = f.domain
    s = (b - a) / (hi - lo)

    def aff(x: Fraction) -> Fraction:
        return a + (x - lo) * s

    return PLHomeo(tuple(aff(x) for x in f.breakpoints), tuple(aff(y) for y in f.values))


def apply_map(g: YHomeo, p: YPoint) -> YPoint:
    return YPoint(p.arc, evaluate(g.map_for(p.arc), p.t))


def embed_point(model: YModel, p: YPoint) -> Point:
    """The plane point of a model point."""
    return model.arc(p.arc).embed(p.t)


def orbit_window(orbit: PseudoOrbit) -> tuple[int, int]:
    """The index window [-offset, len(points) - 1 - offset] of an orbit."""
    return (-orbit.offset, len(orbit.points) - 1 - orbit.offset)


def format_rational(x: Fraction) -> str:
    """Render as "num/den" (or "num" when integral)."""
    if x.denominator == 1:
        return _decimal(x.numerator)
    return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"


def orbit_to_csv(orbit: PseudoOrbit, stream) -> None:
    """CSV rows with exact "num/den" coordinates (interval or model points)."""
    import csv

    w = csv.writer(stream)
    first = orbit.points[0]
    if isinstance(first, YPoint):
        w.writerow(["index", "arc", "t"])
        for i, p in enumerate(orbit.points):
            w.writerow([i - orbit.offset, p.arc, format_rational(p.t)])
    else:
        w.writerow(["index", "point"])
        for i, p in enumerate(orbit.points):
            w.writerow([i - orbit.offset, format_rational(p)])


def verify_pseudo_orbit(f: PLHomeo, orbit: PseudoOrbit) -> Fraction:
    """Exact max over consecutive pairs of |f(x_i) - x_{i+1}|."""
    pts = orbit.points
    return max((abs(evaluate(f, a) - b) for a, b in zip(pts, pts[1:])), default=Fraction(0))


def verify_pseudo_orbit_y_sq(model: YModel, g: YHomeo, orbit: PseudoOrbit) -> Fraction:
    """Exact max squared ambient distance d(g(x_i), x_{i+1})^2."""
    pts = orbit.points
    return max(
        (
            dist2_pp(embed_point(model, apply_map(g, a)), embed_point(model, b))
            for a, b in zip(pts, pts[1:])
        ),
        default=Fraction(0),
    )


def identity_homeo(model: YModel) -> YHomeo:
    return YHomeo({a.id: identity() for a in model.arcs})


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


def fraction_suffix_best(ivs: list[OrientedInterval], hi: Fraction) -> list[Fraction]:
    """fwd[i] of the chain DP by the staircase sweep on ``Fraction``
    endpoints: the same right-to-left sweep as ``cantor._chain_sweep``, on
    the intervals' ``Fraction`` ends rather than ``cantor._chain_table``'s
    integer keys.

    ``ivs`` must be sorted and pairwise disjoint.  Per orientation it keeps
    a staircase of candidates j, nearest last, with a_j increasing and
    fwd[j] strictly decreasing in j; one bisection on a_j - fwd[j] finds the
    crossing of max(a_j - b_i, fwd[j]), and its two neighbours hold the
    minimum.  j = i + 1 is tested directly and pushed after fwd[i] is known.
    """
    n = len(ivs)
    fwd = [Fraction(0)] * n
    # per orientation: candidate indices, and fwd[j] - a_j, which increases
    # along the list
    stairs = {Orientation.R: ([], []), Orientation.L: ([], [])}
    for i in range(n - 1, -1, -1):
        if i + 2 < n:
            j = i + 2
            js, keys = stairs[ivs[j].orientation]
            while js and fwd[js[-1]] >= fwd[j]:
                js.pop()
                keys.pop()
            js.append(j)
            keys.append(fwd[j] - ivs[j].a)
        b = ivs[i].b
        want = ivs[i].orientation.flipped()
        best = hi - b
        js, keys = stairs[want]
        p = bisect_right(keys, -b)
        if p > 0:
            best = min(best, ivs[js[p - 1]].a - b)
        if p < len(js):
            best = min(best, fwd[js[p]])
        if i + 1 < n and ivs[i + 1].orientation is want and ivs[i + 1].a > b:
            best = min(best, max(ivs[i + 1].a - b, fwd[i + 1]))
        fwd[i] = best
    return fwd


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


def two_loop_chain_property(f: PLHomeo, epsilon: Fraction) -> ChainWitness | None:
    """The fine-chain witness by a start loop, then index-by-index
    extension: the earliest feasible R interval from ``lo``, then, while
    one exists, the earliest feasible interval of the other orientation
    strictly right of the chain's last link."""
    lo, hi = f.domain
    ivs = wandering_intervals(f)
    if not ivs:
        return None
    fwd = fraction_suffix_best(ivs, hi)

    start = None
    for i, iv in enumerate(ivs):
        if iv.orientation is Orientation.R and max(iv.a - lo, fwd[i]) < epsilon:
            start = i
            break
    if start is None:
        return None

    chain = [start]
    while True:
        cur = ivs[chain[-1]]
        want = cur.orientation.flipped()
        step = None
        for j in range(chain[-1] + 1, len(ivs)):
            iv = ivs[j]
            if iv.orientation is want and iv.a > cur.b and max(iv.a - cur.b, fwd[j]) < epsilon:
                step = j
                break
        if step is None:
            break
        chain.append(step)
    return ChainWitness(tuple(ivs[i] for i in chain), epsilon)


def interpolate(f: PLHomeo, x: Fraction) -> Fraction:
    """f(x) by the two-point interpolation formula, with no cached slope."""
    xs, ys = f.breakpoints, f.values
    i = bisect_right(xs, x) - 1
    if i >= len(xs) - 1:
        return ys[-1]
    x0, x1 = xs[i], xs[i + 1]
    y0, y1 = ys[i], ys[i + 1]
    return y0 + (x - x0) * (y1 - y0) / (x1 - x0)


def merged_fixed_set(f: PLHomeo) -> list[tuple[Fraction, Fraction]]:
    """The fixed set from one zero-set piece per affine piece, sorted and
    merged where pieces overlap or touch."""
    xs, ys = f.breakpoints, f.values
    pieces: list[tuple[Fraction, Fraction]] = []
    for i in range(len(xs) - 1):
        d0 = ys[i] - xs[i]
        d1 = ys[i + 1] - xs[i + 1]
        if d0 == 0 and d1 == 0:
            pieces.append((xs[i], xs[i + 1]))
        elif d0 == 0:
            pieces.append((xs[i], xs[i]))
        elif d1 == 0:
            pieces.append((xs[i + 1], xs[i + 1]))
        elif (d0 < 0) != (d1 < 0):
            # transversal crossing strictly inside the piece
            t = d0 / (d0 - d1)
            root = xs[i] + t * (xs[i + 1] - xs[i])
            pieces.append((root, root))
    merged: list[tuple[Fraction, Fraction]] = []
    for a, b in sorted(pieces):
        if merged and a <= merged[-1][1]:
            la, lb = merged[-1]
            merged[-1] = (la, max(lb, b))
        else:
            merged.append((a, b))
    return merged


def midpoint_wandering_intervals(f: PLHomeo) -> list[OrientedInterval]:
    """Fixed-set gaps oriented by the displacement at each gap's midpoint."""
    fixed = merged_fixed_set(f)
    out: list[OrientedInterval] = []
    for (_, b_prev), (a_next, _) in zip(fixed, fixed[1:]):
        mid = (b_prev + a_next) / 2
        disp = interpolate(f, mid) - mid
        tag = Orientation.R if disp > 0 else Orientation.L
        out.append(OrientedInterval(b_prev, a_next, tag))
    return out


def bisected_sqrt_enclosure(x: Fraction) -> tuple[Fraction, Fraction]:
    """[lo, hi] around sqrt(x) by halving an integer bracket until it is
    narrower than 10^-6; (r, r) when the root r is rational."""
    if x == 0:
        return Fraction(0), Fraction(0)
    r = exact_sqrt(x)
    if r is not None:
        return r, r
    lo = Fraction(math.isqrt(x.numerator // x.denominator) if x >= 1 else 0)
    hi = lo + 1
    while hi * hi < x:
        hi += 1
    while hi - lo >= Fraction(1, 10**6):
        mid = (lo + hi) / 2
        if mid * mid <= x:
            lo = mid
        else:
            hi = mid
    return lo, hi


def validated_inverse(f: PLHomeo) -> PLHomeo:
    """f⁻¹ built and checked by the public constructor, never cached."""
    return PLHomeo(f.values, f.breakpoints)


def grid_compose(f: PLHomeo, g: PLHomeo) -> PLHomeo:
    """f∘g evaluated pointwise on g's breakpoints and g⁻¹(f's breakpoints)."""
    g_inv = validated_inverse(g)
    xs = set(g.breakpoints)
    xs.update(interpolate(g_inv, b) for b in f.breakpoints)
    xs = sorted(xs)
    ys = [interpolate(f, interpolate(g, x)) for x in xs]
    return PLHomeo(tuple(xs), tuple(ys))


def grid_c0_distance(f: PLHomeo, g: PLHomeo) -> Fraction:
    """max(sup|f-g|, sup|f⁻¹-g⁻¹|) by evaluating on the merged breakpoints."""

    def branch(u: PLHomeo, v: PLHomeo) -> Fraction:
        grid = sorted(set(u.breakpoints) | set(v.breakpoints))
        return max(abs(interpolate(u, x) - interpolate(v, x)) for x in grid)

    return max(branch(f, g), branch(validated_inverse(f), validated_inverse(g)))


def _fraction_merge_walk(ax, ay, bx, by):
    """(a(t), b(t)) for two PL graphs at every t of ax ∪ bx, in order, in
    Fraction arithmetic: a stored value at a graph's own abscissa, else
    interpolation on a slope computed from the piece's ends."""
    i = j = 0
    a_slope = b_slope = None
    last = len(ax) - 1
    while True:
        s, t = ax[i], bx[j]
        if s == t:
            yield ay[i], by[j]
            if i == last:
                return
            i += 1
            j += 1
            a_slope = b_slope = None
        elif s < t:
            if b_slope is None:
                b_slope = (by[j] - by[j - 1]) / (t - bx[j - 1])
            yield ay[i], by[j - 1] + (s - bx[j - 1]) * b_slope
            i += 1
            a_slope = None
        else:
            if a_slope is None:
                a_slope = (ay[i] - ay[i - 1]) / (s - ax[i - 1])
            yield ay[i - 1] + (t - ax[i - 1]) * a_slope, by[j]
            j += 1
            b_slope = None


def fraction_prune_collinear(xs, ys) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Drop every point collinear with the last kept point and the next."""
    keep_x = [xs[0]]
    keep_y = [ys[0]]
    for i in range(1, len(xs) - 1):
        x0, y0 = keep_x[-1], keep_y[-1]
        x1, y1 = xs[i], ys[i]
        x2, y2 = xs[i + 1], ys[i + 1]
        if (y1 - y0) * (x2 - x1) == (y2 - y1) * (x1 - x0):
            continue
        keep_x.append(x1)
        keep_y.append(y1)
    keep_x.append(xs[-1])
    keep_y.append(ys[-1])
    return tuple(keep_x), tuple(keep_y)


def fraction_walk_compose(f: PLHomeo, g: PLHomeo) -> PLHomeo:
    """f∘g by a Fraction merge walk of g⁻¹ against f, pruned collinearly;
    validated by the public constructor."""
    xs, ys = zip(*_fraction_merge_walk(g.values, g.breakpoints, f.breakpoints, f.values))
    return PLHomeo(*fraction_prune_collinear(xs, ys))


def fraction_walk_c0_distance(f: PLHomeo, g: PLHomeo) -> Fraction:
    """max(sup|f-g|, sup|f⁻¹-g⁻¹|) by Fraction merge walks of the lists and
    of the swapped lists."""
    walks = itertools.chain(
        _fraction_merge_walk(f.breakpoints, f.values, g.breakpoints, g.values),
        _fraction_merge_walk(f.values, f.breakpoints, g.values, g.breakpoints),
    )
    return max(abs(p - q) for p, q in walks)


def exact_orbit(f: PLHomeo, window: tuple[int, int], x0: Fraction) -> PseudoOrbit:
    """The exact orbit of x0 over ``window``, each point from ``iterate``."""
    lo, hi = window
    return PseudoOrbit(tuple(iterate(f, x0, i) for i in range(lo, hi + 1)), -lo)


def steady_drift_orbit(
    f: PLHomeo, x0: Fraction, step: Fraction, length: int, down: bool
) -> PseudoOrbit:
    """x_{i+1} = f(x_i) - step (or + step), clamped to the domain: every
    jump is at most ``step``, all in one direction."""
    lo, hi = f.domain
    pts = [x0]
    for _ in range(length):
        y = evaluate(f, pts[-1])
        pts.append(max(lo, y - step) if down else min(hi, y + step))
    return PseudoOrbit(tuple(pts), 0)


def materialized_modulus(f: PLHomeo, epsilon: Fraction, trials: int, seed: int) -> Fraction:
    """The sampled modulus on ``Fraction``s, with every orbit built in full
    by ``generate_pseudo_orbit`` before its shadowing set is decided: the
    same grid, starts and seeds as ``estimate_shadowing_modulus``, whose
    integer trial and integer fold it checks."""
    lo, hi = f.domain
    for j in range(GRID_LEVELS):
        delta = epsilon / 2**j
        for t in range(trials):
            start_rng = random.Random(seed * 1_000_003 + 2 * t)
            x0 = lo + (hi - lo) * Fraction(start_rng.randrange(0, NOISE_GRID + 1), NOISE_GRID)
            orbit = generate_pseudo_orbit(
                f, delta, (0, ORBIT_LENGTH), x0, seed * 1_000_003 + 2 * t + 1
            )
            if shadowing_set(f, orbit, epsilon).is_empty:
                break
        else:
            return delta
    return Fraction(0)


def fraction_pseudo_orbit_y(
    model: YModel, g: YHomeo, delta: Fraction, length: int, x0: YPoint, seed: int
) -> PseudoOrbit:
    """``generate_pseudo_orbit_y`` on ``Fraction``s: each step maps the point
    with ``apply_map``, then hops or jitters with the same draws in the same
    order, so the integer stepper must give the same points.  Every draw is
    a ``randrange`` call, so the stepper's ``_below`` draws are checked too."""
    rng = random.Random(seed)
    bound = delta / 2
    pts = [x0]
    for _ in range(length):
        img = apply_map(g, pts[-1])
        arc = model.arc(img.arc)
        # hop across the first vertex within bound/2 of the image, if any
        # other arc meets there
        neighbors = rng.randrange(4) == 0 and next(
            (
                model.across(arc, end)
                for end in (0, 1)
                if arc.stretch_hi * _from_end(end, img.t) < bound / 2
            ),
            [],
        )
        if neighbors:
            other, oend = neighbors[rng.randrange(len(neighbors))]
            u = Fraction(rng.randrange(0, NOISE_GRID), NOISE_GRID)
            depth = min(bound / 2 / other.stretch_hi * u, Fraction(1))
            pts.append(YPoint(other.id, _from_end(oend, depth)))
        else:
            u = Fraction(rng.randrange(-(NOISE_GRID - 1), NOISE_GRID), NOISE_GRID)
            jitter = u * (bound / arc.stretch_hi)
            pts.append(YPoint(img.arc, _clamp(img.t + jitter, Fraction(0), Fraction(1))))
    return PseudoOrbit(tuple(pts), 0)


def fraction_forward_fold(
    g: PLHomeo, points, epsilon: Fraction
) -> tuple[Fraction, Fraction] | None:
    """``shadowing._forward_fold`` on ``Fraction``s, stepped by ``evaluate``."""
    a, b = g.domain
    for x in points:
        a, b = max(evaluate(g, a), x - epsilon), min(evaluate(g, b), x + epsilon)
        if a > b:
            return None
    return a, b


def fraction_shadow_on_arcs(
    model: YModel, g: YHomeo, orbit: PseudoOrbit, epsilon: Fraction, arcs
) -> YPoint | None:
    """``shadow_on_arcs`` on ``Fraction``s: the same ranking, projections,
    fold and check, with every orbit point, fold end and checked point a
    ``Fraction`` and the fold and check stepped by ``evaluate``."""
    eps_sq = epsilon * epsilon
    points = orbit.points
    target = functools.cache(lambda i: embed_point(model, points[i]))

    def project(arc: Arc, i: int) -> tuple[Fraction, Fraction]:
        p = points[i]
        return (p.t, Fraction(0)) if p.arc == arc.id else nearest_point(arc, target(i))

    def verified(arc: Arc, fa: PLHomeo, y: Fraction) -> bool:
        z = y
        for i, p in enumerate(points):
            if p.arc == arc.id:
                d2 = dist2_pp(arc.embed(z), arc.embed(p.t))
            else:
                d2 = dist2_pp(arc.embed(z), target(i))
            if d2 > eps_sq:
                return False
            z = evaluate(fa, z)
        return True

    ranked = sorted(((project(a, 0), a) for a in arcs), key=lambda r: (r[0][1], r[1].id))
    for first, arc in ranked:
        fa = g.map_for(arc.id)
        proj: list[Fraction] = []
        worst_d2 = Fraction(0)
        for i in range(len(points)):
            t, d2 = project(arc, i) if i else first
            if d2 >= eps_sq:
                break
            proj.append(t)
            worst_d2 = max(worst_d2, d2)
        else:
            y = proj[0]
            eps_rem = epsilon - sqrt_enclosure(worst_d2)[1]
            if eps_rem > 0:
                s = fraction_forward_fold(invert(fa), reversed(proj), eps_rem / arc.stretch_hi)
                if s is not None:
                    y = (s[0] + s[1]) / 2
            if verified(arc, fa, y):
                return YPoint(arc.id, y)
    return None


def pullback_shadowing_set(f: PLHomeo, orbit: PseudoOrbit, epsilon: Fraction) -> ShadowingSet:
    """``shadowing_set`` by folding the domain-clamped tubes forward to the
    window's last index, then pulling both endpoints back to index 0."""
    lo, hi = f.domain

    def tube(x: Fraction) -> tuple[Fraction, Fraction] | None:
        a, b = max(lo, x - epsilon), min(hi, x + epsilon)
        return (a, b) if a <= b else None

    def fold() -> tuple[Fraction, Fraction] | None:
        cur = tube(orbit.points[0])
        if cur is None:
            return None
        for x in orbit.points[1:]:
            img = (evaluate(f, cur[0]), evaluate(f, cur[1]))
            t = tube(x)
            if t is None:
                return None
            nxt = (max(img[0], t[0]), min(img[1], t[1]))
            if nxt[0] > nxt[1]:
                return None
            cur = nxt
        return cur

    cur = fold()
    if cur is None:
        return ShadowingSet(None, epsilon)
    n = orbit_window(orbit)[1]
    return ShadowingSet((iterate(f, cur[0], -n), iterate(f, cur[1], -n)), epsilon)


def orbit_membership_oracle(
    f: PLHomeo, f_inv: PLHomeo, orbit: PseudoOrbit, epsilon: Fraction, y: Fraction
) -> bool:
    """Direct |f^i(y) - x_i| <= epsilon check over the whole window."""
    if abs(y - orbit.point(0)) > epsilon:
        return False
    z = y
    for i in range(1, orbit_window(orbit)[1] + 1):
        z = evaluate(f, z)
        if abs(z - orbit.point(i)) > epsilon:
            return False
    z = y
    for i in range(1, orbit.offset + 1):
        z = evaluate(f_inv, z)
        if abs(z - orbit.point(-i)) > epsilon:
            return False
    return True


# ---------------------------------------------------------------------------
# Planting oracles: each builds its map point by point, with no merge
# ---------------------------------------------------------------------------


def edge_enriched_map(levels: int, eta: Fraction) -> PLHomeo:
    """Ternary map with extra generators hugging both endpoints.

    Plants an L interval at [eta, 2 eta] and an R interval at
    [1 - 2 eta, 1 - eta], giving inward-flowing intervals arbitrarily close
    to the boundary, which the truncated map lacks below its last level.
    """
    f = build_ternary_map(levels)
    f = explode_fixed_point(f, Fraction(3, 2) * eta, eta / 2, Orientation.L)
    f = explode_fixed_point(f, 1 - Fraction(3, 2) * eta, eta / 2, Orientation.R)
    return f


def semi_stable_map() -> PLHomeo:
    """A map whose fixed point 7/16 attracts from the right and repels to
    the left: a pseudo-orbit that jumps across it drifts toward 0, away
    from every true orbit that starts right of 7/16."""
    return PLHomeo(
        tuple(map(Fraction, ("0", "9/32", "7/16", "17/32", "1"))),
        tuple(map(Fraction, ("0", "1/32", "7/16", "15/32", "1"))),
    )


def appended_ternary_map(levels: int) -> PLHomeo:
    """The depth-``levels`` alternating map, appending each generator's
    breakpoints to the identity's in interval order."""
    plan = sorted((idx.interval(), idx.orientation) for idx in minimal_indices(levels))
    xs: list[Fraction] = [Fraction(0)]
    ys: list[Fraction] = [Fraction(0)]
    for (a, b), orient in plan:
        gen = canonical_generator(a, b, orient)
        for x, y in zip(gen.breakpoints, gen.values):
            if x > xs[-1]:
                xs.append(x)
                ys.append(y)
    if xs[-1] != 1:
        xs.append(Fraction(1))
        ys.append(Fraction(1))
    return PLHomeo(tuple(xs), tuple(ys))


def interpolated_explosion(
    f: PLHomeo, p: Fraction, delta: Fraction, orient: Orientation
) -> PLHomeo:
    """``explode_fixed_point`` by interpolating f or the generator at every
    breakpoint of the result."""
    lov, hiv = p - delta, p + delta
    if not any(a <= lov and hiv <= b for a, b in merged_fixed_set(f)):
        raise ExplosionSiteError(f"[{lov}, {hiv}] not inside fixed set")
    gen = canonical_generator(lov, hiv, orient)
    xs = sorted(set(x for x in f.breakpoints if not lov < x < hiv) | set(gen.breakpoints))
    ys = [interpolate(gen, x) if lov <= x <= hiv else interpolate(f, x) for x in xs]
    return PLHomeo(tuple(xs), tuple(ys))


def interpolated_densify(f: PLHomeo, epsilon: Fraction) -> PLHomeo:
    """``densify_chain_property`` by looking up, for every breakpoint of
    the result, the generator or the input map it lies on."""
    if check_chain_property(f, epsilon) is not None:
        return f
    slots: list[tuple[Fraction, Fraction, Orientation]] = []
    for u, v in merged_fixed_set(f):
        if u == v:
            continue
        w = min(epsilon / 8, (v - u) / 8)
        s = u + w / 2
        while s + 3 * w <= v:
            slots.append((s, s + w, Orientation.L))
            slots.append((s + 3 * w / 2, s + 5 * w / 2, Orientation.R))
            s += 4 * w
    windows = [(a, b) for a, b, _ in slots]
    xs = sorted(
        set(x for x in f.breakpoints if not any(a < x < b for a, b in windows))
        | {p for a, b, o in slots for p in canonical_generator(a, b, o).breakpoints}
    )
    gens = {(a, b): canonical_generator(a, b, o) for a, b, o in slots}

    def value(x: Fraction) -> Fraction:
        for (a, b), gen in gens.items():
            if a <= x <= b:
                return interpolate(gen, x)
        return interpolate(f, x)

    result = PLHomeo(tuple(xs), tuple(value(x) for x in xs))
    if check_chain_property(result, epsilon) is None:
        raise ValueError(
            "cannot densify: isolated fixed points leave no room to restore alternation"
        )
    return result


def composite_residual(h: PLHomeo, g: PLHomeo, t: PLHomeo) -> Fraction:
    """The conjugacy residual as written before: h∘g and t∘h composed in
    full, then their uniform distance."""
    return c0_distance(compose(h, g), compose(t, h))


def template_lookup_conjugacy(g: PLHomeo, depth: int) -> ConjugacyReport:
    """``build_conjugacy`` rebuilding both gap lists every round and looking
    each template interval up among the level's minimal indices; the
    wandering intervals come from ``midpoint_wandering_intervals``, and the
    residual from ``grid_compose`` and ``grid_c0_distance``."""
    if depth < 1:
        raise ValueError("depth must be positive")
    if g.domain != (Fraction(0), Fraction(1)):
        raise DomainError(f"conjugacy building expects maps on [0, 1], got [{g.lo}, {g.hi}]")
    ivs = midpoint_wandering_intervals(g)
    by_level = {n: [idx for idx in minimal_indices(depth - 1) if idx.n == n] for n in range(depth)}

    matched: list[tuple[OrientedInterval, TernaryIndex]] = []
    for rnd in range(1, depth + 1):
        level = rnd - 1
        want = Orientation.R if level % 2 == 0 else Orientation.L
        bounds = [Fraction(0)]
        for iv, _ in matched:
            bounds.extend((iv.a, iv.b))
        bounds.append(Fraction(1))
        gaps = [(bounds[i], bounds[i + 1]) for i in range(0, len(bounds), 2)]

        t_bounds = [Fraction(0)]
        for _, idx in matched:
            a, b = idx.interval()
            t_bounds.extend((a, b))
        t_bounds.append(Fraction(1))
        t_gaps = [(t_bounds[i], t_bounds[i + 1]) for i in range(0, len(t_bounds), 2)]

        new_pairs: list[tuple[OrientedInterval, TernaryIndex]] = []
        for (glo, ghi), (tlo, thi) in zip(gaps, t_gaps):
            targets = [
                idx for idx in by_level[level] if tlo < idx.interval()[0] and idx.interval()[1] < thi
            ]
            assert len(targets) == 1, "template gap must contain exactly one interval of its level"
            cands = [
                iv for iv in ivs if iv.orientation is want and glo < iv.a and iv.b < ghi
            ]
            if not cands:
                raise InsufficientIntervals(
                    f"insufficient intervals: round {rnd}: "
                    f"no {want.value} interval inside gap ({glo}, {ghi})"
                )
            pick = max(cands, key=lambda iv: (iv.b - iv.a, -iv.a))
            new_pairs.append((pick, targets[0]))
        matched.extend(new_pairs)
        matched.sort(key=lambda pair: pair[0].a)

    xs: list[Fraction] = [Fraction(0)]
    ys: list[Fraction] = [Fraction(0)]
    for iv, idx in matched:
        a, b = idx.interval()
        xs.extend((iv.a, iv.b))
        ys.extend((a, b))
    xs.append(Fraction(1))
    ys.append(Fraction(1))
    h = PLHomeo(tuple(xs), tuple(ys))

    template = build_ternary_map(depth - 1)
    residual = grid_c0_distance(grid_compose(h, g), grid_compose(template, h))
    return ConjugacyReport(h, depth, tuple(matched), residual)


# The plane's Fraction distance chain: the oracle of geometry's integer
# kernels and of the separation.


def dist2_pp(p: Point, q: Point) -> Fraction:
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return dx * dx + dy * dy


def lerp(a: Point, b: Point, t: Fraction) -> Point:
    return (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)


def project_point_segment(p: Point, a: Point, b: Point) -> tuple[Fraction, Fraction]:
    """(clamped parameter t in [0,1], squared distance) of the nearest point."""
    ab = (b[0] - a[0], b[1] - a[1])
    ap = (p[0] - a[0], p[1] - a[1])
    denom = ab[0] * ab[0] + ab[1] * ab[1]
    if denom == 0:
        return Fraction(0), dist2_pp(p, a)
    t = (ap[0] * ab[0] + ap[1] * ab[1]) / denom
    if t <= 0:
        return Fraction(0), dist2_pp(p, a)
    if t >= 1:
        return Fraction(1), dist2_pp(p, b)
    return t, dist2_pp(p, lerp(a, b, t))


def dist2_point_segment(p: Point, a: Point, b: Point) -> Fraction:
    """Squared distance from p to the closed segment [a, b]."""
    return project_point_segment(p, a, b)[1]


def dist2_segment_segment(a: Point, b: Point, c: Point, d: Point) -> Fraction:
    """Squared distance between closed segments [a,b] and [c,d]; 0 on overlap."""
    if segments_intersect(a, b, c, d):
        return Fraction(0)
    return min(
        dist2_point_segment(a, c, d),
        dist2_point_segment(b, c, d),
        dist2_point_segment(c, a, b),
        dist2_point_segment(d, a, b),
    )


def count_fractions(fn, *args):
    """fn(*args) and the number of Fractions it constructed."""
    made = [0]
    original = vars(Fraction)["__new__"]

    def counting(cls, *a, **k):
        made[0] += 1
        return original.__func__(cls, *a, **k)

    Fraction.__new__ = staticmethod(counting)
    try:
        result = fn(*args)
    finally:
        Fraction.__new__ = original
    return result, made[0]


def point_triple(point: Point) -> tuple[int, int, int]:
    """A plane point (x, y) as integers (X, Y, W) with x = X/W, y = Y/W."""
    x, y = point
    w = math.lcm(x.denominator, y.denominator)
    return x.numerator * (w // x.denominator), y.numerator * (w // y.denominator), w


def triple_point(X: int, Y: int, P: int) -> Point:
    """The plane point (X/P, Y/P) of an integer triple."""
    return Fraction(X, P), Fraction(Y, P)


def nearest_point(arc: Arc, point: Point) -> tuple[Fraction, Fraction]:
    """``Arc.nearest`` on a Fraction point: the point as integers
    (``point_triple``), and the result as (parameter, squared distance)."""
    tn, td, dn, dd = arc.nearest(*point_triple(point))
    return Fraction(tn, td), Fraction(dn, dd)


def tan_half_angle_circle(segments: int) -> tuple[Point, ...]:
    """``continuum._circle_polyline`` in Fractions: the points
    (2u, u² − 1)/(1 + u²) at u = −1 + 2k/segments, k = 0..segments."""
    pts = []
    for k in range(segments + 1):
        u = Fraction(-1) + Fraction(2 * k, segments)
        den = 1 + u * u
        pts.append((2 * u / den, (u * u - 1) / den))
    return tuple(pts)


def scan_nearest(arc: Arc, point: Point) -> tuple[Fraction, Fraction]:
    """Arc.nearest by projecting onto every segment; the first strict
    improvement over the start vertex wins."""
    n = arc.segments
    best_t, best_d2 = Fraction(0), dist2_pp(point, arc.polyline[0])
    for k in range(n):
        t_seg, d2 = project_point_segment(point, arc.polyline[k], arc.polyline[k + 1])
        if d2 < best_d2:
            best_t, best_d2 = (k + t_seg) / n, d2
    return best_t, best_d2


def polyline_point(arc: Arc, t: Fraction) -> Point:
    """Arc.embed by interpolating in Fractions on the segment
    k = min(floor(t·n), n - 1)."""
    n = arc.segments
    k = min(int(t * n), n - 1)
    (ax, ay), (bx, by) = arc.polyline[k], arc.polyline[k + 1]
    f = t * n - k
    return ax + f * (bx - ax), ay + f * (by - ay)


def fraction_arc_check(
    arc: Arc, fa: PLHomeo, y: Fraction, targets: list[Point], epsilon: Fraction
) -> bool:
    """``shadowing._verified_arc_shadow`` on ``Fraction``s: the orbit of y,
    stepped by ``evaluate``, has its i-th point within epsilon of targets[i]."""
    z = y
    for p in targets:
        if dist2_pp(polyline_point(arc, z), p) > epsilon * epsilon:
            return False
        z = evaluate(fa, z)
    return True


def scan_sub_polyline(arc: Arc, t0: Fraction, t1: Fraction) -> tuple[Point, ...]:
    """Arc.sub_polyline by testing t0 < k/n < t1 for every inner vertex k."""
    n = arc.segments
    pts = [arc.embed(t0)]
    for k in range(1, n):
        if t0 < Fraction(k, n) < t1:
            pts.append(arc.polyline[k])
    if t1 > t0:
        pts.append(arc.embed(t1))
    return tuple(pts)


def scan_arcs_at(model: YModel, vertex_id: str) -> list[tuple[Arc, int]]:
    """The arcs at a vertex, each with the end (0 or 1) that touches it, by a
    linear scan of the arcs (end 0 before end 1)."""
    out = []
    for a in model.arcs:
        if a.p == vertex_id:
            out.append((a, 0))
        if a.q == vertex_id:
            out.append((a, 1))
    return out


def scan_inward_neighborhood(
    model: YModel, g: YHomeo, arc_id: str, alpha: Fraction
) -> InwardNeighborhood:
    """find_inward_neighborhood taking, for each stub, the min over every
    inward interval of the neighbour's map of its sorted (near, far)
    depths from the shared vertex."""
    alpha = positive(alpha, "alpha")
    arc = model.arc(arc_id)
    stubs: list[Stub] = []
    for end in (0, 1):
        for other, oend in model.across(arc, end):
            depth_bound = min(alpha / other.stretch_hi, Fraction(1))
            nearest = min(
                (
                    sorted((_from_end(oend, iv.a), _from_end(oend, iv.b)))
                    for iv in wandering_intervals(g.map_for(other.id))
                    if iv.orientation is _INWARD[oend]
                ),
                default=None,
            )
            if nearest is None or nearest[0] >= depth_bound:
                raise NoInwardStub(
                    f"no inward stub: arc {other.id!r} has no "
                    f"{_INWARD[oend].value}-flowing interval within {alpha} "
                    f"of vertex {model.vertex_of(arc, end)!r}"
                )
            near, far = nearest
            stubs.append(Stub(other.id, oend, _from_end(oend, (near + min(far, depth_bound)) / 2)))
    nb = InwardNeighborhood(arc_id, tuple(stubs))
    for aid, (lo, hi) in nb.kept.items():
        if not lo < hi:
            raise CertificateError(f"stubs on arc {aid!r} overlap")
    return nb


def scan_min_separation_sq(
    image_pieces: list[tuple], complement_pieces: list[tuple]
) -> Fraction | None:
    """Min squared distance over every pair of segments of the two piece
    families; None when the complement is empty."""
    best: Fraction | None = None
    for poly_a in image_pieces:
        for i in range(len(poly_a) - 1):
            sa, sb = poly_a[i], poly_a[i + 1]
            for poly_b in complement_pieces:
                for j in range(len(poly_b) - 1):
                    d2 = dist2_segment_segment(sa, sb, poly_b[j], poly_b[j + 1])
                    if best is None or d2 < best:
                        best = d2
    return best


@pytest.fixture(autouse=True)
def separation_checked_against_scan(monkeypatch):
    """Every neighbourhood separation a test computes, in any certificate it
    builds in-process, must equal the full pairwise scan."""
    pruned = shadowing._min_separation_sq

    def checked(image_pieces, complement_pieces):
        best = pruned(image_pieces, complement_pieces)
        assert best == scan_min_separation_sq(image_pieces, complement_pieces)
        return best

    monkeypatch.setattr(shadowing, "_min_separation_sq", checked)


def dataclass_twin(cls: type) -> type:
    """A ``@dataclass(frozen=True)`` with ``cls``'s name, its fields
    (``cls._fields``) in order and its own ``__post_init__``: the oracle for
    the ``__init__`` checks, ``__eq__``, ``__hash__`` and ``__repr__`` of a
    value class of the package."""
    namespace = {k: v for k, v in vars(cls).items() if k == "__post_init__"}
    return dataclasses.make_dataclass(cls.__name__, cls._fields, namespace=namespace, frozen=True)
