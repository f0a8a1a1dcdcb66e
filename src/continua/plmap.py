"""Piecewise-linear increasing self-homeomorphisms of a closed interval.

A ``PLHomeo`` is stored as matched breakpoint/value lists over exact
rationals, with both endpoints fixed (orientation preserving).  The
representation is canonical: breakpoints collinear with their neighbors are
pruned, so structural equality is semantic equality and identity laws hold
bit-exactly.

The validating constructor ``PLHomeo(breakpoints, values)`` is the only
public way to build a map; ``from_json`` and every other module go through
it.  Inside this module, results that are canonical by construction (an
inverse, a pruned composition) are wrapped by ``_trusted`` without being
checked again.  Each map caches, on first use, its per-piece slopes (read
by ``max_slope``), its integer evaluation kernel (read by ``evaluate``),
its inverse (returned by ``invert``), and its fixed set and wandering
intervals, found together in one walk over the breakpoints (copied out by
``fixed_set`` and ``wandering_intervals``).  The kernel scales the
breakpoints by d, the lcm of their denominators, to integer keys, and
writes each piece as f(p/q) = (α·p + β·q)/(γ·q) with integers α, β, γ, so
one evaluation locates its piece by integer comparisons and builds one
Fraction.  The inverse holds no reference back to its map, so the cache
forms no reference cycle.

The module provides the algebra (evaluate, compose, invert, iterate),
the uniform metric on maps and their inverses, fixed-set and
wandering-interval analysis, the one-breakpoint canonical generators used
everywhere else in the package, affine rescaling, and Lipschitz moduli.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain

from .rational import positive, rational_from_json, rational_to_json


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


def _prune_collinear(xs: list[Fraction], ys: list[Fraction]) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
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
        xs2, ys2 = _prune_collinear(xs, ys)
        object.__setattr__(self, "breakpoints", xs2)
        object.__setattr__(self, "values", ys2)

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
    def _slopes(self) -> tuple[Fraction, ...]:
        xs, ys = self.breakpoints, self.values
        return tuple((ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1))

    @cached_property
    def _kernel(self) -> tuple[int, tuple[int, ...], tuple[tuple[int, int, int], ...]]:
        # (d, keys, pieces): keys[i] = breakpoints[i]·d, and on piece i,
        # f(x) = s·x + c = (α·p + β·q)/(γ·q) at x = p/q, with γ = lcm of the
        # denominators of s and c.
        xs, ys = self.breakpoints, self.values
        d = 1
        for x in xs:
            d = _lcm(d, x.denominator)
        pieces = []
        for x, y, s in zip(xs, ys, self._slopes):
            c = y - s * x
            g = _lcm(s.denominator, c.denominator)
            pieces.append(
                (s.numerator * (g // s.denominator), c.numerator * (g // c.denominator), g)
            )
        return d, tuple(x.numerator * (d // x.denominator) for x in xs), tuple(pieces)

    @cached_property
    def _inverse(self) -> "PLHomeo":
        # Swapping the lists keeps them canonical: the collinearity test is
        # symmetric in x and y.  The inverse does not point back at self.
        return _trusted(self.values, self.breakpoints)

    @cached_property
    def _structure(
        self,
    ) -> tuple[tuple[tuple[Fraction, Fraction], ...], tuple[OrientedInterval, ...]]:
        return _fixed_and_wandering(self)

    def __repr__(self) -> str:
        pts = ", ".join(f"({x},{y})" for x, y in zip(self.breakpoints, self.values))
        return f"PLHomeo[{pts}]"

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


def _lcm(a: int, b: int) -> int:
    """Least common multiple of two positive integers: Fraction(a, b) is in
    lowest terms, so its numerator is a / gcd(a, b)."""
    return b * Fraction(a, b).numerator


def _trusted(breakpoints: tuple[Fraction, ...], values: tuple[Fraction, ...]) -> PLHomeo:
    """Wrap canonical tuples of Fractions as a map, skipping validation."""
    f = object.__new__(PLHomeo)
    object.__setattr__(f, "breakpoints", breakpoints)
    object.__setattr__(f, "values", values)
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


def _merge_walk(ax, ay, bx, by):
    """(a(t), b(t)) for two PL graphs at every t of ax ∪ bx, in order.

    Both abscissa lists are strictly increasing with common ends.  At one
    of its own abscissae a graph gives its stored value; elsewhere it
    interpolates the piece the walk is in, whose slope is computed on first
    use and dropped when the walk leaves the piece.  O(len(ax) + len(bx))
    exact operations.
    """
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


def compose(f: PLHomeo, g: PLHomeo) -> PLHomeo:
    """Exact composition f∘g (first g, then f).

    One merge walk in g's value space, of g⁻¹ (g's lists swapped) against
    f: each value u of g or breakpoint of f yields the breakpoint g⁻¹(u)
    with value f(u).  So the result has exactly g's breakpoints and the
    g-preimages of f's breakpoints, and every piece is genuinely affine.
    Both lists come out strictly increasing with the shared endpoints
    fixed, so pruning is the only canonicalization they need.
    O(len(f) + len(g)) exact operations; no inverse is built.
    """
    if f.domain != g.domain:
        raise DomainError(f"domain mismatch: {f.domain} vs {g.domain}")
    xs, ys = zip(*_merge_walk(g.values, g.breakpoints, f.breakpoints, f.values))
    return _trusted(*_prune_collinear(xs, ys))


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
    swapped (values, breakpoints) lists, so neither inverse is built.
    O(len(f) + len(g)) exact operations.
    """
    if f.domain != g.domain:
        raise DomainError(f"domain mismatch: {f.domain} vs {g.domain}")
    walks = chain(
        _merge_walk(f.breakpoints, f.values, g.breakpoints, g.values),
        _merge_walk(f.values, f.breakpoints, g.values, g.breakpoints),
    )
    return max(abs(p - q) for p, q in walks)


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


def canonical_r(a: Fraction, b: Fraction) -> PLHomeo:
    """The fixed representative with (a, b) an r-interval.

    One interior breakpoint at the midpoint, sent to (a+3b)/4; slopes 3/2
    then 1/2; fixes exactly {a, b}.
    """
    a, b = Fraction(a), Fraction(b)
    if not a < b:
        raise ValueError("need a < b")
    return PLHomeo((a, (a + b) / 2, b), (a, (a + 3 * b) / 4, b))


def canonical_l(a: Fraction, b: Fraction) -> PLHomeo:
    """The fixed representative with (a, b) an l-interval: invert(canonical_r)."""
    return invert(canonical_r(a, b))


def canonical_generator(a: Fraction, b: Fraction, orientation: Orientation) -> PLHomeo:
    return canonical_r(a, b) if orientation is Orientation.R else canonical_l(a, b)


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


def max_slope(f: PLHomeo) -> Fraction:
    """Largest segment slope: an exact Lipschitz constant for f."""
    return max(f._slopes)


def modulus_of_continuity(f: PLHomeo, alpha: Fraction) -> Fraction:
    """Certified oscillation bound of f over any alpha-ball: max_slope * alpha."""
    alpha = positive(alpha, "alpha")
    return max_slope(f) * alpha
