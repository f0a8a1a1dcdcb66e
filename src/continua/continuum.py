"""Exact truncated model of the comb-and-arc plane continuum.

The space is the union of the lower half of the unit circle, the
horizontal segment [-1, 1] x {0}, and vertical teeth {-1 + 2/n} x [0, 1/n];
the model keeps the first M teeth and splits the horizontal at the retained
branch points.  Arcs carry an exact embedded polyline: straight arcs are
their own geometry and the circle arc is a fixed inscribed 64-segment
polyline through rational points of the circle (tan-half-angle
parameterization), giving a position error below 10^-3.  The polyline, not
the true circle, is the model's geometry; all distances are ambient
Euclidean, compared through exact squared values.

Self-maps of the model fix every arc setwise and every shared vertex, so
they are given by one orientation-preserving PL homeomorphism of [0, 1]
per arc.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import (
    Point,
    dist2_pp,
    lerp,
    project_point_segment,
    segments_intersect,
)
from .plmap import PLHomeo, evaluate, invert
from .rational import (
    rational_from_json,
    rational_to_json,
    sqrt_approx,
)

CIRCLE_SEGMENTS = 64

BASE_VERTEX = "p~"


class ModelError(ValueError):
    """Malformed arc model."""


def _circle_polyline() -> tuple[Point, ...]:
    # Rational points on x^2 + y^2 = 1, y <= 0, via u -> (2u, u^2-1)/(1+u^2),
    # u uniform on [-1, 1]; 64 chords keep the sagitta under 1/2048.
    pts: list[Point] = []
    for k in range(CIRCLE_SEGMENTS + 1):
        u = Fraction(-1) + Fraction(2 * k, CIRCLE_SEGMENTS)
        den = 1 + u * u
        pts.append((2 * u / den, (u * u - 1) / den))
    return tuple(pts)


@dataclass(frozen=True)
class Arc:
    """One arc of the model with its embedded polyline.

    The parameter t in [0, 1] is uniform across the polyline's segments
    (affine arc length for straight arcs).  stretch_lo/stretch_hi bound the
    ratio of ambient distance to parameter distance from below and above.
    """

    id: str
    p: str
    q: str
    kind: str  # "segment" | "circle"
    polyline: tuple[Point, ...]
    stretch_lo: Fraction
    stretch_hi: Fraction

    @property
    def segments(self) -> int:
        return len(self.polyline) - 1

    def embed(self, t: Fraction) -> Point:
        if not 0 <= t <= 1:
            raise ValueError(f"parameter {t} outside [0, 1]")
        n = self.segments
        scaled = t * n
        k = min(int(scaled), n - 1)
        frac = scaled - k
        return lerp(self.polyline[k], self.polyline[k + 1], frac)

    def nearest(self, point: Point) -> tuple[Fraction, Fraction]:
        """(parameter, squared distance) of an exact nearest polyline point."""
        n = self.segments
        best_t, best_d2 = Fraction(0), dist2_pp(point, self.polyline[0])
        for k in range(n):
            t_seg, d2 = project_point_segment(point, self.polyline[k], self.polyline[k + 1])
            if d2 < best_d2:
                best_t, best_d2 = (k + t_seg) / n, d2
        return best_t, best_d2

    def sub_polyline(self, t0: Fraction, t1: Fraction) -> tuple[Point, ...]:
        """Embedded polyline of the parameter range [t0, t1]."""
        if not 0 <= t0 <= t1 <= 1:
            raise ValueError("need 0 <= t0 <= t1 <= 1")
        n = self.segments
        pts = [self.embed(t0)]
        for k in range(1, n):
            t = Fraction(k, n)
            if t0 < t < t1:
                pts.append(self.polyline[k])
        if t1 > t0:
            pts.append(self.embed(t1))
        return tuple(pts)


@dataclass(frozen=True)
class YPoint:
    """A point of the model: arc id plus parameter in [0, 1]."""

    arc: str
    t: Fraction

    def __post_init__(self):
        object.__setattr__(self, "t", Fraction(self.t))
        if not 0 <= self.t <= 1:
            raise ValueError(f"parameter {self.t} outside [0, 1]")

    def to_json(self) -> dict:
        return {"arc": self.arc, "t": rational_to_json(self.t)}

    @staticmethod
    def from_json(obj: dict) -> "YPoint":
        return YPoint(obj["arc"], rational_from_json(obj["t"]))


@dataclass(frozen=True)
class YModel:
    """Arcs, labeled vertices, and adjacency of the truncated continuum."""

    M: int
    vertices: dict[str, Point]
    arcs: tuple[Arc, ...]

    def arc(self, arc_id: str) -> Arc:
        for a in self.arcs:
            if a.id == arc_id:
                return a
        raise KeyError(f"no arc {arc_id!r}")

    def arc_ids(self) -> list[str]:
        return [a.id for a in self.arcs]

    def vertex_of(self, arc: Arc, end: int) -> str:
        return arc.p if end == 0 else arc.q

    def arcs_at(self, vertex_id: str) -> list[tuple[Arc, int]]:
        """Arcs incident to a vertex, with the end (0 or 1) that touches it."""
        out = []
        for a in self.arcs:
            if a.p == vertex_id:
                out.append((a, 0))
            if a.q == vertex_id:
                out.append((a, 1))
        return out

    def embed(self, p: YPoint) -> Point:
        return self.arc(p.arc).embed(p.t)

    def resolve_vertex(self, p: YPoint) -> str | None:
        """Vertex id when p sits at an arc endpoint, else None."""
        if p.t == 0:
            return self.arc(p.arc).p
        if p.t == 1:
            return self.arc(p.arc).q
        return None

    def same_point(self, p: YPoint, q: YPoint) -> bool:
        if p.arc == q.arc and p.t == q.t:
            return True
        vp, vq = self.resolve_vertex(p), self.resolve_vertex(q)
        return vp is not None and vp == vq

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

    @staticmethod
    def from_json(obj: dict) -> "YModel":
        model = build_arc_model(int(obj["M"]))
        if model.to_json() != obj:
            raise ModelError("model JSON does not describe a standard truncated model")
        return model


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


def embed(model: YModel, p: YPoint) -> Point:
    """Exact plane coordinates of a model point (polyline geometry)."""
    return model.embed(p)


def y_distance_sq(model: YModel, p: YPoint, q: YPoint) -> Fraction:
    """Exact squared ambient Euclidean distance between embedded points."""
    return dist2_pp(model.embed(p), model.embed(q))


def y_distance(model: YModel, p: YPoint, q: YPoint) -> Fraction:
    """Ambient distance: exact when rational, else within 10^-6."""
    return sqrt_approx(y_distance_sq(model, p, q))


# ---------------------------------------------------------------------------
# Self-maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class YHomeo:
    """A self-homeomorphism of the model: one PL map of [0, 1] per arc.

    Every arc is invariant with both endpoints fixed, which the PLHomeo
    representation enforces; vertices are therefore fixed automatically.
    """

    arc_maps: dict[str, PLHomeo]

    def map_for(self, arc_id: str) -> PLHomeo:
        return self.arc_maps[arc_id]

    def to_json(self) -> dict:
        return {"arc_maps": {aid: f.to_json() for aid, f in sorted(self.arc_maps.items())}}

    @staticmethod
    def from_json(obj: dict) -> "YHomeo":
        return YHomeo({aid: PLHomeo.from_json(fo) for aid, fo in obj["arc_maps"].items()})


def validate_homeo(model: YModel, g: YHomeo) -> None:
    for a in model.arcs:
        if a.id not in g.arc_maps:
            raise ModelError(f"missing arc map for {a.id!r}")
        f = g.arc_maps[a.id]
        if f.domain != (Fraction(0), Fraction(1)):
            raise ModelError(f"arc map for {a.id!r} must live on [0, 1]")


def identity_homeo(model: YModel) -> YHomeo:
    from .plmap import identity

    return YHomeo({a.id: identity() for a in model.arcs})


def build_arcwise_map(model: YModel, levels: int) -> YHomeo:
    """The model self-map acting on every arc as the depth-``levels``
    alternating ternary map in that arc's own parameter."""
    from .cantor import build_ternary_map

    f = build_ternary_map(levels)
    return YHomeo({a.id: f for a in model.arcs})


def apply_map(model: YModel, g: YHomeo, p: YPoint) -> YPoint:
    return YPoint(p.arc, evaluate(g.map_for(p.arc), p.t))


def apply_map_inverse(model: YModel, g: YHomeo, p: YPoint) -> YPoint:
    return YPoint(p.arc, evaluate(invert(g.map_for(p.arc)), p.t))


# ---------------------------------------------------------------------------
# Structure report
# ---------------------------------------------------------------------------


def _arcs_share_only_vertices(model: YModel, a: Arc, b: Arc) -> bool:
    shared = {model.vertices[v] for v in {a.p, a.q} & {b.p, b.q}}
    for i in range(a.segments):
        sa, sb = a.polyline[i], a.polyline[i + 1]
        for j in range(b.segments):
            ua, ub = b.polyline[j], b.polyline[j + 1]
            if not segments_intersect(sa, sb, ua, ub):
                continue
            # Any contact must be an endpoint equal to a shared vertex.
            touches = [p for p in (sa, sb) if p in (ua, ub) or _between(ua, ub, p)]
            touches += [p for p in (ua, ub) if _between(sa, sb, p)]
            if not touches:
                return False  # proper crossing
            if any(p not in shared for p in touches):
                return False
    return True


def _between(a: Point, b: Point, p: Point) -> bool:
    from .geometry import _on_segment

    return _on_segment(a, b, p)


def _cascade_order(model: YModel) -> list[str]:
    """Vertex discovery order walking the arc graph from the anchor."""
    order = [BASE_VERTEX]
    seen = {BASE_VERTEX}
    frontier = [BASE_VERTEX]
    while frontier:
        nxt: list[str] = []
        for vid in frontier:
            for arc, end in sorted(model.arcs_at(vid), key=lambda ae: ae[0].id):
                other = arc.q if end == 0 else arc.p
                if other not in seen:
                    seen.add(other)
                    order.append(other)
                    nxt.append(other)
        frontier = nxt
    return order


def check_arc_decomposition(model: YModel) -> dict:
    """Verify the model's arc-decomposition conditions.

    Checks, exactly on the embedded polylines: the arcs cover the vertex
    structure and form a connected union; arc interiors meet nothing (every
    pairwise contact happens at a shared labeled vertex); each arc's
    polyline is simple.  Endpoint fixing under all model self-maps is a
    property of the representation (per-arc maps of [0, 1] fixing 0 and 1)
    and is reported as such rather than re-derived.
    """
    problems: list[str] = []

    arc_vertices = set()
    for a in model.arcs:
        arc_vertices.update((a.p, a.q))
        for v in (a.p, a.q):
            if v not in model.vertices:
                problems.append(f"arc {a.id!r} references unknown vertex {v!r}")
    for vid in model.vertices:
        if vid not in arc_vertices:
            problems.append(f"vertex {vid!r} not on any arc")

    # connectivity over the arc/vertex incidence graph
    cascade = _cascade_order(model)
    if set(cascade) != set(model.vertices):
        problems.append("arc union is not connected")

    for a in model.arcs:
        for i in range(a.segments):
            for j in range(i + 2, a.segments):
                if segments_intersect(
                    a.polyline[i], a.polyline[i + 1], a.polyline[j], a.polyline[j + 1]
                ):
                    problems.append(f"arc {a.id!r} polyline is not simple")
    for i, a in enumerate(model.arcs):
        for b in model.arcs[i + 1 :]:
            if not _arcs_share_only_vertices(model, a, b):
                problems.append(f"arcs {a.id!r} and {b.id!r} meet off shared vertices")

    return {
        "ok": not problems,
        "problems": problems,
        "arc_count": len(model.arcs),
        "vertex_count": len(model.vertices),
        "fixed_vertex_cascade": cascade,
        "endpoint_fixing": "structural: every arc map fixes parameters 0 and 1",
    }
