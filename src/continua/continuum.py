"""Exact truncated model of the comb-and-arc plane continuum.

The space is the union of the lower half of the unit circle, the
horizontal segment [-1, 1] x {0}, and vertical teeth {-1 + 2/n} x [0, 1/n];
the model keeps the first M teeth and splits the horizontal at the retained
branch points.  Arcs carry an exact embedded polyline: straight arcs are
their own geometry and the circle arc is a fixed inscribed 64-segment
polyline through rational points of the circle (tan-half-angle
parameterization), giving a position error below 10^-3.  The polyline, not
the true circle, is the model's geometry; all distances are ambient
Euclidean, compared through exact squared values.  ``build_arc_model`` is
the only source of models; its arcs are simple and meet only at their
labelled end vertices, which the tests prove for every M the CLI accepts.

Self-maps of the model fix every arc setwise and every shared vertex, so
they are given by one orientation-preserving PL homeomorphism of [0, 1]
per arc.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from math import lcm

from .cantor import build_ternary_map
from .geometry import Point, _project_segment, _segment_record
from .plmap import PLHomeo, _Frozen
from .rational import rational_to_json

CIRCLE_SEGMENTS = 64

BASE_VERTEX = "p~"


class ModelError(ValueError):
    """Malformed arc model."""


def _circle_polyline() -> tuple[Point, ...]:
    # Rational points (2mh, m^2 - h^2)/(m^2 + h^2) of x^2 + y^2 = 1, y <= 0, at
    # u = m/h = -1..1 (tan half-angle); 64 chords keep the sagitta under 1/2048.
    h = CIRCLE_SEGMENTS // 2
    return tuple(
        (Fraction(2 * m * h, m * m + h * h), Fraction(m * m - h * h, m * m + h * h))
        for m in range(-h, h + 1)
    )


class Arc(_Frozen):
    """One arc of the model, of ``kind`` "segment" or "circle", with its polyline.

    The parameter t in [0, 1] is uniform across the polyline's segments
    (affine arc length for straight arcs).  stretch_lo/stretch_hi bound the
    ratio of ambient distance to parameter distance from below and above.
    Vertex x-coordinates never decrease along the polyline (every model arc
    is a graph over x or a vertical segment), which ``nearest`` relies on.
    """

    _fields = ("id", "p", "q", "kind", "polyline", "stretch_lo", "stretch_hi")

    def __post_init__(self):
        lo, hi = self.stretch_lo, self.stretch_hi
        if not 0 < lo <= hi:
            raise ModelError(f"arc {self.id!r}: need 0 < stretch_lo <= stretch_hi, got {lo}, {hi}")
        if any(a[0] > b[0] for a, b in zip(self.polyline, self.polyline[1:])):
            raise ModelError(f"arc {self.id!r}: polyline x-coordinates decrease")

    @property
    def segments(self) -> int:
        return len(self.polyline) - 1

    @cached_property
    def _vertex_xs(self) -> tuple[int, tuple[int, ...]]:
        # (L, keys): keys[k] = L times vertex k's x, L the lcm of their denominators
        xs = [v[0] for v in self.polyline]
        L = lcm(*(x.denominator for x in xs))
        return L, tuple(x.numerator * (L // x.denominator) for x in xs)

    @cached_property
    def _segment_ints(self) -> tuple[tuple[int, ...], ...]:
        # per segment (a, b): its ``geometry`` record, with q the lcm of its
        # four coordinates' denominators
        out = []
        for a, b in zip(self.polyline, self.polyline[1:]):
            q = lcm(*(c.denominator for c in (*a, *b)))
            ax, ay, bx, by = (c.numerator * (q // c.denominator) for c in (*a, *b))
            out.append(_segment_record(q, (ax, ay), (bx, by)))
        return tuple(out)

    def _at(self, p: int, den: int) -> tuple[int, int, int]:
        """The point at parameter p/den (den > 0, p/den in [0, 1]) as
        integers (x, y, w): the point (x/w, y/w).  On segment k it lies
        f/den of the way from a to b, with f = p·n − k·den."""
        n = self.segments
        k = min(p * n // den, n - 1)
        q, ax, ay, _, _, abx, aby, _ = self._segment_ints[k]
        f = p * n - k * den
        return ax * den + f * abx, ay * den + f * aby, q * den

    def embed(self, t: Fraction) -> Point:
        """The point at parameter t, from its integers (``_at``)."""
        if not 0 <= t <= 1:
            raise ValueError(f"parameter {t} outside [0, 1]")
        x, y, w = self._at(t.numerator, t.denominator)
        return Fraction(x, w), Fraction(y, w)

    def nearest(self, X: int, Y: int, P: int) -> tuple[int, int, int, int]:
        """(tn, td, dn, dd), not reduced: parameter tn/td and squared distance
        dn/dd of an exact nearest polyline point to (X/P, Y/P), P > 0.

        Among nearest points the one on the lowest-index segment wins.  The
        search starts at the segment spanning the point's x and walks out
        both ways; the squared x-gap to a segment bounds its distance from
        below and grows along each walk, so a side stops once its gap
        cannot beat the best (on the lower side: cannot tie it either).
        Each segment is projected on its integer data
        (``_project_segment``), and squared distances are compared by
        cross-multiplying.
        """
        n, segs = self.segments, self._segment_ints
        # keys[start] <= L·X/P < keys[start + 1] unless the point lies beyond
        # an end, so the gaps below are nonnegative
        L, keys = self._vertex_xs
        start = min(max(bisect_right(keys, X * L // P) - 1, 0), n - 1)
        best_k = start
        tn, td, dn, dd = _project_segment(segs[start], X, Y, P)
        for k in range(start + 1, n):
            q, ax = segs[k][0], segs[k][1]
            gap = ax * P - X * q  # over q·P
            if gap * gap * dd >= dn * (q * P) ** 2:
                break
            cand = _project_segment(segs[k], X, Y, P)
            if cand[2] * dd < dn * cand[3]:
                best_k, (tn, td, dn, dd) = k, cand
        for k in range(start - 1, -1, -1):
            q, bx = segs[k][0], segs[k][3]
            gap = X * q - bx * P  # over q·P
            if gap * gap * dd > dn * (q * P) ** 2:
                break
            cand = _project_segment(segs[k], X, Y, P)
            if cand[2] * dd <= dn * cand[3]:
                best_k, (tn, td, dn, dd) = k, cand
        return best_k * td + tn, n * td, dn, dd

    def sub_polyline(self, t0: Fraction, t1: Fraction) -> tuple[Point, ...]:
        """Embedded polyline of [t0, t1]; [0, 1] gives the arc's ``polyline``."""
        if not 0 <= t0 <= t1 <= 1:
            raise ValueError("need 0 <= t0 <= t1 <= 1")
        if t0 == 0 and t1 == 1:
            return self.polyline
        # the inner vertices k/n with t0 < k/n < t1
        n = self.segments
        pts = [self.embed(t0), *self.polyline[int(t0 * n) + 1 : -(-t1 * n // 1)]]
        if t1 > t0:
            pts.append(self.embed(t1))
        return tuple(pts)


class YPoint(_Frozen):
    """A point of the model: arc id plus parameter in [0, 1]."""

    _fields = ("arc", "t")

    def __post_init__(self):
        object.__setattr__(self, "t", Fraction(self.t))
        if not 0 <= self.t <= 1:
            raise ValueError(f"parameter {self.t} outside [0, 1]")


class YModel(_Frozen):
    """Arcs, labeled vertices, and adjacency of the truncated continuum."""

    _fields = ("M", "vertices", "arcs")

    @cached_property
    def _arcs_by_id(self) -> dict[str, Arc]:
        return {a.id: a for a in self.arcs}

    def arc(self, arc_id: str) -> Arc:
        try:
            return self._arcs_by_id[arc_id]
        except KeyError:
            raise ModelError(f"no arc {arc_id!r}") from None

    def arc_ids(self) -> list[str]:
        return [a.id for a in self.arcs]

    def vertex_of(self, arc: Arc, end: int) -> str:
        return arc.p if end == 0 else arc.q

    @cached_property
    def _incident(self) -> dict[str, list[tuple[Arc, int]]]:
        out: dict[str, list[tuple[Arc, int]]] = {}
        for a in self.arcs:
            out.setdefault(a.p, []).append((a, 0))
            out.setdefault(a.q, []).append((a, 1))
        return out

    def across(self, arc: Arc, end: int) -> list[tuple[Arc, int]]:
        """The other arcs at ``arc``'s given end, each with the end (0 or 1)
        that touches it, in the order of ``arcs`` (end 0 before end 1)."""
        return [(a, e) for a, e in self._incident[self.vertex_of(arc, end)] if a.id != arc.id]

    def to_json(self) -> dict:
        return {
            "M": self.M,
            "vertices": {
                vid: [rational_to_json(x), rational_to_json(y)]
                for vid, (x, y) in sorted(self.vertices.items())
            },
            "arcs": [
                {"id": a.id, "p": a.p, "q": a.q, "kind": a.kind} for a in self.arcs
            ],
        }


def _segment_arc(arc_id: str, p: str, q: str, a: Point, b: Point, length: Fraction) -> Arc:
    return Arc(arc_id, p, q, "segment", (a, b), length, length)


def build_arc_model(M: int) -> YModel:
    """The truncated model with M vertical teeth.

    Vertices: the left anchor (-1, 0); branch points (-1 + 2/n, 0) for
    n = 1..M; tips (-1 + 2/n, 1/n).  Arcs: the circle polyline from the
    anchor to (1, 0); M horizontal pieces between consecutive branch
    points; M vertical teeth.  Arc parameters run away from the anchor.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    vertices: dict[str, Point] = {BASE_VERTEX: (Fraction(-1), Fraction(0))}
    for n in range(1, M + 1):
        x = Fraction(-1) + Fraction(2, n)
        vertices[f"b{n}"] = (x, Fraction(0))
        vertices[f"t{n}"] = (x, Fraction(1, n))

    arcs: list[Arc] = []
    circle_pts = _circle_polyline()
    arcs.append(
        Arc("circle", BASE_VERTEX, "b1", "circle", circle_pts, Fraction(3, 2), Fraction(4))
    )

    # horizontal pieces, left to right: anchor -> bM -> ... -> b1
    chain = [BASE_VERTEX] + [f"b{n}" for n in range(M, 0, -1)]
    for i in range(len(chain) - 1):
        pv, qv = chain[i], chain[i + 1]
        a, b = vertices[pv], vertices[qv]
        arcs.append(_segment_arc(f"h{i + 1}", pv, qv, a, b, b[0] - a[0]))

    for n in range(1, M + 1):
        base, tip = vertices[f"b{n}"], vertices[f"t{n}"]
        arcs.append(_segment_arc(f"v{n}", f"b{n}", f"t{n}", base, tip, Fraction(1, n)))

    return YModel(M, vertices, tuple(arcs))


# ---------------------------------------------------------------------------
# Self-maps
# ---------------------------------------------------------------------------


class YHomeo(_Frozen):
    """A self-homeomorphism of the model: one PL map of [0, 1] per arc.

    Every arc is invariant with both endpoints fixed, which the PLHomeo
    representation enforces; vertices are therefore fixed automatically.
    """

    _fields = ("arc_maps",)

    def map_for(self, arc_id: str) -> PLHomeo:
        return self.arc_maps[arc_id]

    def to_json(self) -> dict:
        return {"arc_maps": {aid: f.to_json() for aid, f in sorted(self.arc_maps.items())}}

    @staticmethod
    def from_json(obj: dict) -> "YHomeo":
        maps = obj.get("arc_maps") if isinstance(obj, dict) else None
        if not isinstance(maps, dict):
            raise ModelError("homeomorphism JSON must be an object with an arc_maps object")
        # equal map objects (a file may repeat one map on many arcs) share one
        # PLHomeo; repr tells 1 from 1.0 and true, which compare equal
        shared: dict[str, PLHomeo] = {}
        arc_maps = {}
        for aid, fo in maps.items():
            key = repr(fo)
            if key not in shared:
                shared[key] = PLHomeo.from_json(fo)
            arc_maps[aid] = shared[key]
        return YHomeo(arc_maps)


def validate_homeo(model: YModel, g: YHomeo) -> None:
    ids = set(model.arc_ids())
    for arc_id in g.arc_maps:
        if arc_id not in ids:
            raise ModelError(f"arc map for {arc_id!r}, which is not an arc of the model")
    for a in model.arcs:
        if a.id not in g.arc_maps:
            raise ModelError(f"missing arc map for {a.id!r}")
        f = g.arc_maps[a.id]
        if f.domain != (0, 1):
            raise ModelError(f"arc map for {a.id!r} must live on [0, 1]")


def build_arcwise_map(model: YModel, levels: int) -> YHomeo:
    """The model self-map acting on every arc as the depth-``levels``
    alternating ternary map in that arc's own parameter."""
    f = build_ternary_map(levels)
    return YHomeo({a.id: f for a in model.arcs})
