"""Exact rational predicates for points and segments in the plane.

All inputs are pairs of Fractions; every comparison is exact.  Distances
are returned squared so no square roots are ever needed for decisions.
"""

from __future__ import annotations

from fractions import Fraction

Point = tuple[Fraction, Fraction]
Box = tuple[Fraction, Fraction, Fraction, Fraction]  # x_lo, x_hi, y_lo, y_hi


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


def _orient(a: Point, b: Point, c: Point) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _on_segment(a: Point, b: Point, p: Point) -> bool:
    return (
        _orient(a, b, p) == 0
        and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def segments_intersect(a: Point, b: Point, c: Point, d: Point) -> bool:
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    return (
        (o1 == 0 and _on_segment(a, b, c))
        or (o2 == 0 and _on_segment(a, b, d))
        or (o3 == 0 and _on_segment(c, d, a))
        or (o4 == 0 and _on_segment(c, d, b))
    )


def _box(a: Point, b: Point) -> Box:
    """Bounding box of the segment [a, b].  With ``_box_gap_sq`` it also
    takes integer coordinates, the points scaled by one common denominator."""
    return (min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]), max(a[1], b[1]))


def _box_gap_sq(p: Box, q: Box) -> Fraction:
    """Squared distance between two boxes: a lower bound on the squared
    distance between anything inside them."""
    gx = max(q[0] - p[1], p[0] - q[1], 0)
    gy = max(q[2] - p[3], p[2] - q[3], 0)
    return gx * gx + gy * gy


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
