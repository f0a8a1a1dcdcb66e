"""Exact predicates for points and segments in the plane.

Every comparison is exact.  The orientation and intersection tests take
points with ``Fraction`` or integer coordinates.  The distance kernels take
integers only: a segment from a/q to b/q, with a and b integer points, is
the record (q, ax, ay, bx, by, abx, aby, ab2), where ab = b - a and
ab2 = |ab|², and each squared distance is a (numerator, denominator) pair
compared by cross-multiplying.  ``continuum.Arc.nearest`` projects points on
such records; the neighbourhood separation (``shadowing._min_separation_sq``)
decides each segment distance on its box integers, records with q = 1.
"""

from __future__ import annotations

from numbers import Rational

Point = tuple[Rational, Rational]  # Fractions, or integers over one scale
Box = tuple[int, int, int, int]  # x_lo, x_hi, y_lo, y_hi


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


def _segment_record(q: int, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, ...]:
    """The record of the segment from a/q to b/q."""
    (ax, ay), (bx, by) = a, b
    abx, aby = bx - ax, by - ay
    return q, ax, ay, bx, by, abx, aby, abx * abx + aby * aby


def _project_segment(seg: tuple[int, ...], X: int, Y: int, P: int) -> tuple[int, int, int, int]:
    """The nearest point of the segment record ``seg`` to (X/P, Y/P), as
    integers (tn, td, dn, dd): its clamped parameter tn/td along the
    segment, and the squared distance dn/dd."""
    q, ax, ay, bx, by, abx, aby, ab2 = seg
    apx, apy = X * q - ax * P, Y * q - ay * P  # p - a, over q·P
    dot = apx * abx + apy * aby  # the parameter is dot/(P·ab2)
    if ab2 == 0 or dot <= 0:
        return 0, 1, apx * apx + apy * apy, (q * P) ** 2
    if dot >= P * ab2:
        bpx, bpy = X * q - bx * P, Y * q - by * P
        return 1, 1, bpx * bpx + bpy * bpy, (q * P) ** 2
    # the squared distance to the line: cross(b - a, p - a)² / |b - a|²
    cross = abx * apy - aby * apx
    return dot, P * ab2, cross * cross, (q * P) ** 2 * ab2


def _segment_dist2(s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, int]:
    """Squared distance (n, d), n/d, between the closed segments of two
    records with q = 1; (0, 1) when they meet.  Otherwise the nearest pair
    of points has an endpoint in it, so it is the least of the four
    endpoint projections."""
    a, b, c, d = s[1:3], s[3:5], t[1:3], t[3:5]
    if segments_intersect(a, b, c, d):
        return 0, 1
    best = None
    for seg, (X, Y) in ((t, a), (t, b), (s, c), (s, d)):
        _, _, n, dd = _project_segment(seg, X, Y, 1)
        if best is None or n * best[1] < best[0] * dd:
            best = n, dd
    return best


def _box(a: tuple[int, int], b: tuple[int, int]) -> Box:
    """Bounding box of the segment [a, b], a and b integer points."""
    return (min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]), max(a[1], b[1]))


def _box_gap_sq(p: Box, q: Box) -> int:
    """Squared distance between two boxes: a lower bound on the squared
    distance between anything inside them."""
    gx = max(q[0] - p[1], p[0] - q[1], 0)
    gy = max(q[2] - p[3], p[2] - q[3], 0)
    return gx * gx + gy * gy
