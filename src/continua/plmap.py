"""Piecewise-linear increasing self-homeomorphisms of a closed interval.

A ``PLHomeo`` is stored as matched breakpoint/value lists over exact
rationals, with both endpoints fixed (orientation preserving).  The
representation is canonical: a breakpoint whose two adjacent slopes are
equal is pruned, so structural equality is semantic equality and identity
laws hold bit-exactly.

The validating constructor ``PLHomeo(breakpoints, values)`` is the only
public way to build a map; ``from_json`` and every other module go through
it.  Inside this module, results that are canonical by construction (an
inverse, a pruned composition) are wrapped by ``_trusted`` without being
checked again.  Every map carries its per-piece slopes (read by
``max_slope``, ``compose``, ``c0_distance`` and the kernel): the
constructor computes them, ``compose`` gets them from its walk, and
``invert`` takes the reciprocals.  Slopes built from the same integer
pair share one Fraction, so a map's few distinct slopes take little
memory.  Each map also caches, on first use, its integer evaluation
kernel (read by ``evaluate`` and by the integer passes of ``shadowing``:
the sampled modulus's trials, the model-orbit stepper, and the search's
fold and check), its inverse (returned by ``invert``), and
its fixed set and wandering intervals, found together in one walk over
the breakpoints (copied out by ``fixed_set`` and
``wandering_intervals``).  The kernel
scales the breakpoints by d, the lcm of their denominators, to integer
keys, and writes each piece as f(p/q) = (α·p + β·q)/(γ·q) with integers
α, β, γ, so one evaluation locates its piece by integer comparisons and
builds one Fraction.  The inverse holds no reference back to its map, so
the cache forms no reference cycle.

The module provides the algebra (evaluate, compose, invert, iterate),
the uniform metric on maps and their inverses, fixed-set and
wandering-interval analysis, the one-breakpoint canonical generators
(whose three points ``cantor`` plants without building a map per slot),
affine rescaling, and an exact Lipschitz constant (``max_slope``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import lcm

from .rational import rational_from_json, rational_to_json


class DomainError(ValueError):
    """Argument outside a map's domain, or mismatched domains."""


class Orientation(str, Enum):
    R = "R"
    L = "L"

    def flipped(self) -> "Orientation":
        return Orientation.L if self is Orientation.R else Orientation.R


@dataclass(frozen=True)
class OrientedInterval:
    """A wandering interval (a, b) tagged by where its points flow.

    R: the map exceeds the identity on (a, b), so forward orbits converge
    to b.  L: the map is below the identity, orbits converge to a.
    """

    a: Fraction
    b: Fraction
    orientation: Orientation

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"empty interval ({self.a}, {self.b})")

    @property
    def width(self) -> Fraction:
        return self.b - self.a

    def to_json(self) -> dict:
        return {
            "a": rational_to_json(self.a),
            "b": rational_to_json(self.b),
            "orientation": self.orientation.value,
        }


@dataclass(frozen=True)
class PLHomeo:
    """Increasing PL bijection of [lo, hi] fixing both endpoints.

    breakpoints: strictly increasing, first = lo, last = hi.
    values: strictly increasing, values[0] = lo, values[-1] = hi.
    Evaluation linearly interpolates between consecutive breakpoints.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        xs = [Fraction(x) for x in self.breakpoints]
        ys = [Fraction(y) for y in self.values]
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("breakpoint and value lists must match and have length >= 2")
        for i in range(len(xs) - 1):
            if not xs[i] < xs[i + 1]:
                raise ValueError("breakpoints must be strictly increasing")
            if not ys[i] < ys[i + 1]:
                raise ValueError("values must be strictly increasing")
        if ys[0] != xs[0] or ys[-1] != xs[-1]:
            raise ValueError("endpoints must be fixed: values[0]=lo, values[-1]=hi")
        # a breakpoint whose two adjacent slopes are equal is dropped; the
        # piece it splits keeps that slope
        keep_x, keep_y, slopes = [], [], []
        made: dict[tuple[int, int], Fraction] = {}
        for i in range(len(xs) - 1):
            s = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
            if not slopes or s != slopes[-1]:
                keep_x.append(xs[i])
                keep_y.append(ys[i])
                slopes.append(made.setdefault((s.numerator, s.denominator), s))
        keep_x.append(xs[-1])
        keep_y.append(ys[-1])
        object.__setattr__(self, "breakpoints", tuple(keep_x))
        object.__setattr__(self, "values", tuple(keep_y))
        object.__setattr__(self, "_slopes", tuple(slopes))

    # -- basic geometry ----------------------------------------------------

    @property
    def lo(self) -> Fraction:
        return self.breakpoints[0]

    @property
    def hi(self) -> Fraction:
        return self.breakpoints[-1]

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return (self.lo, self.hi)

    @cached_property
    def _kernel(self) -> tuple[int, tuple[int, ...], tuple[tuple[int, int, int], ...]]:
        # (d, keys, pieces): keys[i] = breakpoints[i]·d, and on piece i,
        # f(x) = s·x + c = (α·p + β·q)/(γ·q) at x = p/q, with γ = lcm of the
        # denominators of s and c.
        xs, ys = self.breakpoints, self.values
        d = lcm(*(x.denominator for x in xs))
        pieces = []
        for x, y, s in zip(xs, ys, self._slopes):
            c = y - s * x
            g = lcm(s.denominator, c.denominator)
            pieces.append(
                (s.numerator * (g // s.denominator), c.numerator * (g // c.denominator), g)
            )
        return d, tuple(x.numerator * (d // x.denominator) for x in xs), tuple(pieces)

    @cached_property
    def _inverse(self) -> "PLHomeo":
        # Swapping the lists keeps them canonical: two adjacent slopes are
        # equal exactly where their reciprocals are.  The inverse does not
        # point back at self.
        made: dict[tuple[int, int], Fraction] = {}
        slopes = tuple(_shared(made, s.denominator, s.numerator) for s in self._slopes)
        return _trusted(self.values, self.breakpoints, slopes)

    @cached_property
    def _structure(
        self,
    ) -> tuple[tuple[tuple[Fraction, Fraction], ...], tuple[OrientedInterval, ...]]:
        return _fixed_and_wandering(self)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "domain": [rational_to_json(self.lo), rational_to_json(self.hi)],
            "breakpoints": [rational_to_json(x) for x in self.breakpoints],
            "values": [rational_to_json(y) for y in self.values],
        }

    @staticmethod
    def from_json(obj: dict) -> "PLHomeo":
        try:
            xs = [rational_from_json(p) for p in obj["breakpoints"]]
            ys = [rational_from_json(p) for p in obj["values"]]
            dom = [rational_from_json(p) for p in obj["domain"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed PL map object: {exc}") from exc
        f = PLHomeo(tuple(xs), tuple(ys))
        if dom != [f.lo, f.hi]:
            raise ValueError("domain field disagrees with breakpoint endpoints")
        return f


def _shared(made: dict[tuple[int, int], Fraction], n: int, d: int) -> Fraction:
    """n/d, built once per distinct pair recorded in ``made``: a map's
    slopes take few distinct values, so its pieces share the objects."""
    s = made.get((n, d))
    if s is None:
        s = made[n, d] = Fraction(n, d)
    return s


def _trusted(
    breakpoints: tuple[Fraction, ...],
    values: tuple[Fraction, ...],
    slopes: tuple[Fraction, ...],
) -> PLHomeo:
    """Wrap canonical tuples of Fractions and the per-piece slopes as a
    map, skipping validation."""
    f = object.__new__(PLHomeo)
    object.__setattr__(f, "breakpoints", breakpoints)
    object.__setattr__(f, "values", values)
    object.__setattr__(f, "_slopes", slopes)
    return f


def identity(lo: Fraction = Fraction(0), hi: Fraction = Fraction(1)) -> PLHomeo:
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    return PLHomeo((lo, hi), (lo, hi))


def evaluate(f: PLHomeo, x: Fraction) -> Fraction:
    """Exact value of f at x by linear interpolation.

    Runs on f's integer kernel, built on first call: with x = p/q in lowest
    terms, x lies in the domain iff keys[0]·q <= p·d <= keys[-1]·q, and
    because the keys are integers, bisecting them for floor(p·d/q) finds
    the same piece as bisecting the breakpoints for x.  The value is then
    one Fraction (α·p + β·q)/(γ·q).  The right end is read on the last
    piece, where the formula gives f(hi) = hi.
    """
    if type(x) is not Fraction:
        x = Fraction(x)
    d, keys, pieces = f._kernel
    p, q = x.numerator, x.denominator
    pd = p * d
    if pd < keys[0] * q or pd > keys[-1] * q:
        raise DomainError(f"{x} outside domain [{f.lo}, {f.hi}]")
    a, b, c = pieces[bisect_right(keys, pd // q, 0, len(pieces)) - 1]
    return Fraction(a * p + b * q, c * q)


def invert(f: PLHomeo) -> PLHomeo:
    """The inverse homeomorphism (breakpoint and value lists swapped),
    built once per map."""
    return f._inverse


def _walk(ax, bx):
    """(i, j, side) for each t of ax ∪ bx, in increasing order.

    Both abscissa lists hold Fractions, strictly increasing with common
    ends.  side 0: t = ax[i] = bx[j].  side 1: t = ax[i] lies strictly
    inside b's piece j - 1.  side 2: t = bx[j] lies strictly inside a's
    piece i - 1.  So the piece left of t is (i - 1, j - 1) in both lists.
    Abscissae are ordered by cross-multiplying their integer numerators
    and denominators; no Fraction is built.
    """
    i = j = 0
    last = len(ax) - 1
    an, ad = ax[0].numerator, ax[0].denominator
    bn, bd = bx[0].numerator, bx[0].denominator
    while True:
        left, right = an * bd, bn * ad
        if left == right:
            yield i, j, 0
            if i == last:
                return
            i += 1
            j += 1
            an, ad = ax[i].numerator, ax[i].denominator
            bn, bd = bx[j].numerator, bx[j].denominator
        elif left < right:
            yield i, j, 1
            i += 1
            an, ad = ax[i].numerator, ax[i].denominator
        else:
            yield i, j, 2
            j += 1
            bn, bd = bx[j].numerator, bx[j].denominator


def _lerp(x0: Fraction, y0: Fraction, s: Fraction, t: Fraction, flip: bool) -> tuple[int, int]:
    """y0 + (t − x0)·s, or y0 + (t − x0)/s when flip, as an integer
    numerator and positive denominator, not reduced."""
    sn, sd = (s.denominator, s.numerator) if flip else (s.numerator, s.denominator)
    xn, xd = x0.numerator, x0.denominator
    yn, yd = y0.numerator, y0.denominator
    tn, td = t.numerator, t.denominator
    m = xd * td * sd
    return yn * m + yd * (tn * xd - xn * td) * sn, yd * m


def compose(f: PLHomeo, g: PLHomeo) -> PLHomeo:
    """Exact composition f∘g (first g, then f).

    One merge walk in g's value space, of g⁻¹ (g's lists swapped) against
    f: each value u of g or breakpoint of f yields the breakpoint g⁻¹(u)
    with value f(u).  So the result has g's breakpoints and the
    g-preimages of f's breakpoints, and every merged piece is affine with
    slope f'·g', the product of two cached slopes.  A point is dropped
    when the products on its two sides are equal, compared as integers
    before any coordinate is interpolated.  A kept point's interpolated
    coordinate is one integer numerator over one integer denominator, so
    the walk builds one Fraction per interpolated coordinate and at most
    one per output slope; it leaves the slopes cached on the result.
    O(len(f) + len(g)) operations; no inverse is built.
    """
    if f.domain != g.domain:
        raise DomainError(f"domain mismatch: [{f.lo}, {f.hi}] vs [{g.lo}, {g.hi}]")
    gx, gu, gs = g.breakpoints, g.values, g._slopes
    fu, fy, fs = f.breakpoints, f.values, f._slopes
    xs, ys, slopes = [gx[0]], [fy[0]], []
    made: dict[tuple[int, int], Fraction] = {}
    last = len(gu) - 1
    steps = _walk(gu, fu)
    next(steps)
    # slope of the output piece that ends at the next kept point
    cn = fs[0].numerator * gs[0].numerator
    cd = fs[0].denominator * gs[0].denominator
    for i, j, side in steps:
        if i == last and side == 0:
            break
        # the piece right of this point, in g's and in f's lists
        gi = i - 1 if side == 2 else i
        fj = j - 1 if side == 1 else j
        sf, sg = fs[fj], gs[gi]
        rn, rd = sf.numerator * sg.numerator, sf.denominator * sg.denominator
        if rn * cd == cn * rd:
            continue
        if side == 2:
            xs.append(Fraction(*_lerp(gu[i - 1], gx[i - 1], gs[i - 1], fu[j], True)))
        else:
            xs.append(gx[i])
        if side == 1:
            ys.append(Fraction(*_lerp(fu[j - 1], fy[j - 1], fs[j - 1], gu[i], False)))
        else:
            ys.append(fy[j])
        slopes.append(_shared(made, cn, cd))
        cn, cd = rn, rd
    xs.append(gx[-1])
    ys.append(fy[-1])
    slopes.append(_shared(made, cn, cd))
    return _trusted(tuple(xs), tuple(ys), tuple(slopes))


def iterate(f: PLHomeo, x: Fraction, n: int) -> Fraction:
    """n-fold application of f (negative n applies the inverse)."""
    g = f if n >= 0 else invert(f)
    y = Fraction(x)
    for _ in range(abs(n)):
        y = evaluate(g, y)
    return y


def c0_distance(f: PLHomeo, g: PLHomeo) -> Fraction:
    """sup |f-g| and |f⁻¹-g⁻¹|, exact.

    The difference of two PL maps is PL, so each sup is attained on the
    merged breakpoint lists: one merge walk of f against g, and one of the
    swapped (values, breakpoints) lists with reciprocal slopes, so neither
    inverse is built.  At each merged point one map gives a stored value
    and the other a stored or interpolated one; their difference and the
    running maximum are kept as integer numerator/denominator pairs, and
    the one Fraction is built at the end.  O(len(f) + len(g)) operations.
    """
    if f.domain != g.domain:
        raise DomainError(f"domain mismatch: [{f.lo}, {f.hi}] vs [{g.lo}, {g.hi}]")
    fs, gs = f._slopes, g._slopes
    top_n, top_d = 0, 1
    for ax, ay, bx, by, flip in (
        (f.breakpoints, f.values, g.breakpoints, g.values, False),
        (f.values, f.breakpoints, g.values, g.breakpoints, True),
    ):
        for i, j, side in _walk(ax, bx):
            if side == 2:
                pn, pd = _lerp(ax[i - 1], ay[i - 1], fs[i - 1], bx[j], flip)
            else:
                pn, pd = ay[i].numerator, ay[i].denominator
            if side == 1:
                qn, qd = _lerp(bx[j - 1], by[j - 1], gs[j - 1], ax[i], flip)
            else:
                qn, qd = by[j].numerator, by[j].denominator
            n, d = abs(pn * qd - qn * pd), pd * qd
            if n * top_d > top_n * d:
                top_n, top_d = n, d
    return Fraction(top_n, top_d)


def _fixed_and_wandering(
    f: PLHomeo,
) -> tuple[tuple[tuple[Fraction, Fraction], ...], tuple[OrientedInterval, ...]]:
    """f's fixed set and wandering intervals, in one walk over its pieces.

    On each affine piece the displacement d = f(x) - x is affine, so its
    zero set is empty, a point, or the whole piece; exact arithmetic
    decides which.  A piece with d = 0 at both ends extends the current
    fixed component.  Otherwise a root at the piece's right end, or
    strictly inside it where d changes sign, closes the wandering interval
    from the current component to the root and opens a new component
    there.  d keeps one sign between consecutive roots, so the piece's
    left end lies in that interval and its d gives the orientation.
    """
    xs, ys = f.breakpoints, f.values
    fixed = [(xs[0], xs[0])]
    wandering: list[OrientedInterval] = []
    d1 = ys[0] - xs[0]
    for i in range(1, len(xs)):
        d0, d1 = d1, ys[i] - xs[i]
        if d1 == 0:
            if d0 == 0:
                fixed[-1] = (fixed[-1][0], xs[i])
                continue
            root = xs[i]
        elif d0 != 0 and (d0 < 0) != (d1 < 0):
            root = xs[i - 1] + d0 / (d0 - d1) * (xs[i] - xs[i - 1])
        else:
            continue
        tag = Orientation.R if d0 > 0 else Orientation.L
        wandering.append(OrientedInterval(fixed[-1][1], root, tag))
        fixed.append((root, root))
    return tuple(fixed), tuple(wandering)


def fixed_set(f: PLHomeo) -> list[tuple[Fraction, Fraction]]:
    """Maximal closed intervals (possibly degenerate) where f = id, sorted.

    Always contains the two domain endpoints.  A fresh list, read from the
    walk cached on f.
    """
    return list(f._structure[0])


def wandering_intervals(f: PLHomeo) -> list[OrientedInterval]:
    """Complement components of the fixed set, tagged R (f > id) or L (f < id).

    A fresh list, read from the walk cached on f.
    """
    return list(f._structure[1])


def _generator_points(a: Fraction, b: Fraction, orientation: Orientation) -> tuple[tuple, tuple]:
    """(breakpoints, values) of the canonical generator on [a, b]: for R the
    midpoint goes to (a+3b)/4, with slopes 3/2 then 1/2, so it fixes
    exactly {a, b}; L is its inverse, the same lists swapped."""
    if not a < b:
        raise ValueError("need a < b")
    xs, ys = (a, (a + b) / 2, b), (a, (a + 3 * b) / 4, b)
    return (xs, ys) if orientation is Orientation.R else (ys, xs)


def canonical_generator(a: Fraction, b: Fraction, orientation: Orientation) -> PLHomeo:
    """The fixed representative with (a, b) a wandering interval of that orientation."""
    return PLHomeo(*_generator_points(Fraction(a), Fraction(b), orientation))


def canonical_r(a: Fraction, b: Fraction) -> PLHomeo:
    return canonical_generator(a, b, Orientation.R)


def max_slope(f: PLHomeo) -> Fraction:
    """Largest segment slope: an exact Lipschitz constant for f."""
    return max(f._slopes)
