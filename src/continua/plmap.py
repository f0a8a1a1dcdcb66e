"""Piecewise-linear increasing self-homeomorphisms of a closed interval.

A ``PLHomeo`` is stored as matched breakpoint/value lists over exact
rationals, with both endpoints fixed (orientation preserving).  The
representation is canonical: breakpoints collinear with their neighbors are
pruned, so structural equality is semantic equality and identity laws hold
bit-exactly.

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
from itertools import chain

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

    @staticmethod
    def from_json(obj: dict) -> "OrientedInterval":
        return OrientedInterval(
            rational_from_json(obj["a"]),
            rational_from_json(obj["b"]),
            Orientation(obj["orientation"]),
        )


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

    def segment_slopes(self) -> list[Fraction]:
        xs, ys = self.breakpoints, self.values
        return [(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]

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
        if (f.lo, f.hi) != (dom[0], dom[1]):
            raise ValueError("domain field disagrees with breakpoint endpoints")
        return f


def identity(lo: Fraction = Fraction(0), hi: Fraction = Fraction(1)) -> PLHomeo:
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    return PLHomeo((lo, hi), (lo, hi))


def evaluate(f: PLHomeo, x: Fraction) -> Fraction:
    """Exact value of f at x by linear interpolation."""
    x = Fraction(x)
    if x < f.lo or x > f.hi:
        raise DomainError(f"{x} outside domain [{f.lo}, {f.hi}]")
    xs, ys = f.breakpoints, f.values
    i = bisect_right(xs, x) - 1
    if i >= len(xs) - 1:
        return ys[-1]
    x0, x1 = xs[i], xs[i + 1]
    y0, y1 = ys[i], ys[i + 1]
    return y0 + (x - x0) * (y1 - y0) / (x1 - x0)


def invert(f: PLHomeo) -> PLHomeo:
    """The inverse homeomorphism: swap breakpoint and value lists."""
    return PLHomeo(f.values, f.breakpoints)


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
    O(len(f) + len(g)) exact operations; no inverse is built.
    """
    if f.domain != g.domain:
        raise DomainError(f"domain mismatch: {f.domain} vs {g.domain}")
    xs, ys = zip(*_merge_walk(g.values, g.breakpoints, f.breakpoints, f.values))
    return PLHomeo(xs, ys)


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


def fixed_set(f: PLHomeo) -> list[tuple[Fraction, Fraction]]:
    """Maximal closed intervals (possibly degenerate) where f = id, sorted.

    Always contains the two domain endpoints.  On each affine piece the
    displacement f(x) - x is affine, so its zero set is empty, a point, or
    the whole piece; exact arithmetic decides which.
    """
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


def wandering_intervals(f: PLHomeo) -> list[OrientedInterval]:
    """Complement components of the fixed set, tagged R (f > id) or L (f < id).

    The displacement sign is constant on each component; the midpoint
    decides it exactly.
    """
    fixed = fixed_set(f)
    out: list[OrientedInterval] = []
    for (_, b_prev), (a_next, _) in zip(fixed, fixed[1:]):
        mid = (b_prev + a_next) / 2
        disp = evaluate(f, mid) - mid
        tag = Orientation.R if disp > 0 else Orientation.L
        out.append(OrientedInterval(b_prev, a_next, tag))
    return out


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
    return max(f.segment_slopes())


def modulus_of_continuity(f: PLHomeo, alpha: Fraction) -> Fraction:
    """Certified oscillation bound of f over any alpha-ball: max_slope * alpha."""
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return max_slope(f) * alpha
