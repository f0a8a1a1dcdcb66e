"""Exact point and segment predicates, and the integer distance kernels
against the Fraction chain of conftest."""

from fractions import Fraction as F
from math import lcm

from hypothesis import given, settings, strategies as st

from continua.geometry import (
    _box,
    _box_gap_sq,
    _project_segment,
    _segment_dist2,
    _segment_record,
    segments_intersect,
)

from conftest import dist2_point_segment, dist2_pp, dist2_segment_segment, lerp


def P(x, y):
    return (F(x), F(y))


def scaled(*points):
    """The points times the lcm L of their coordinates' denominators, and L."""
    L = lcm(*(c.denominator for p in points for c in p))
    return [(int(p[0] * L), int(p[1] * L)) for p in points], L


def project(p, a, b):
    """(parameter, squared distance) of p on [a, b] by ``_project_segment``,
    on the three points scaled to integers."""
    ((X, Y), a, b), L = scaled(p, a, b)
    tn, td, dn, dd = _project_segment(_segment_record(1, a, b), X, Y, 1)
    return F(tn, td), F(dn, dd * L * L)


def dist2(a, b, c, d):
    """``_segment_dist2`` of [a, b] and [c, d], on the points scaled to integers."""
    (a, b, c, d), L = scaled(a, b, c, d)
    n, den = _segment_dist2(_segment_record(1, a, b), _segment_record(1, c, d))
    return F(n, den * L * L)


def intersect(a, b, c, d):
    return segments_intersect(*scaled(a, b, c, d)[0])


class TestProjectPointSegment:
    def test_degenerate_segment(self):
        a = P(1, 2)
        assert project(P(4, 6), a, a) == (F(0), F(25))

    def test_clamp_before_start(self):
        assert project(P(-3, 4), P(0, 0), P(2, 0)) == (F(0), F(25))

    def test_clamp_past_end(self):
        assert project(P(5, -4), P(0, 0), P(2, 0)) == (F(1), F(25))

    def test_interior_projection(self):
        # onto the diagonal y = x at (1/2, 1/2) from (0, 1)
        t, d2 = project(P(0, 1), P(0, 0), P(1, 1))
        assert (t, d2) == (F(1, 2), F(1, 2))

    def test_interior_rational_parameter(self):
        a, b, p = P(1, 1), P(4, 5), P(3, 1)
        t, d2 = project(p, a, b)
        assert (t, d2) == (F(6, 25), F(64, 25))
        assert d2 == dist2_pp(p, (a[0] + 3 * t, a[1] + 4 * t))
        assert dist2_point_segment(p, a, b) == d2


class TestSegmentsIntersect:
    def test_proper_crossing(self):
        assert intersect(P(0, 0), P(2, 2), P(0, 2), P(2, 0))

    def test_endpoint_touch(self):
        assert intersect(P(0, 0), P(1, 1), P(1, 1), P(2, 0))

    def test_t_touch(self):
        assert intersect(P(0, 0), P(2, 0), P(1, 0), P(1, 3))

    def test_collinear_overlap(self):
        assert intersect(P(0, 0), P(2, 0), P(1, 0), P(3, 0))

    def test_collinear_disjoint(self):
        assert not intersect(P(0, 0), P(1, 0), P(2, 0), P(3, 0))

    def test_parallel(self):
        assert not intersect(P(0, 0), P(2, 1), P(0, 1), P(2, 2))

    def test_near_miss(self):
        assert not intersect(P(0, 0), P(1, 1), P(F(1, 2), F(3, 5)), P(0, 1))


class TestSegmentDistance:
    def test_crossing_is_zero(self):
        assert dist2(P(0, 0), P(2, 2), P(0, 2), P(2, 0)) == 0

    def test_parallel_offset(self):
        assert dist2(P(0, 0), P(4, 0), P(1, 3), P(2, 3)) == 9

    def test_collinear_gap(self):
        assert dist2(P(0, 0), P(1, 0), P(F(5, 2), 0), P(3, 0)) == F(9, 4)

    def test_endpoint_to_interior(self):
        # (1, 1) to the segment x + y = 0 lies at squared distance 2
        assert dist2(P(1, 1), P(5, 7), P(-2, 2), P(2, -2)) == 2

    def test_symmetric(self):
        a, b, c, d = P(0, 0), P(3, 1), P(F(1, 2), 2), P(4, F(7, 3))
        assert dist2(a, b, c, d) == dist2(c, d, b, a)


coords = st.fractions(min_value=-3, max_value=3, max_denominator=24)
points = st.tuples(coords, coords)
params = st.fractions(min_value=-2, max_value=2, max_denominator=6)


@st.composite
def segment_pairs(draw):
    """[a, b] and [c, d]: free, touching, crossing, collinear (overlapping or
    not) or zero-length."""
    a, b, c, d = (draw(points) for _ in range(4))
    kind = draw(st.sampled_from(["free", "touching", "crossing", "collinear", "zero-length"]))
    if kind == "touching":  # c on [a, b]
        c = lerp(a, b, draw(st.fractions(0, 1, max_denominator=6)))
    elif kind == "crossing":  # [c, d] through a point of [a, b], across its line
        m = lerp(a, b, draw(st.fractions(0, 1, max_denominator=6)))
        r, s = (draw(st.fractions(F(1, 8), 2, max_denominator=8)) for _ in range(2))
        c = (m[0] - r * (b[1] - a[1]), m[1] + r * (b[0] - a[0]))
        d = (m[0] + s * (b[1] - a[1]), m[1] - s * (b[0] - a[0]))
    elif kind == "collinear":  # c and d on the line through a and b
        c, d = lerp(a, b, draw(params)), lerp(a, b, draw(params))
    elif kind == "zero-length":
        b = a
        if draw(st.booleans()):
            d = c
    return a, b, c, d


class TestIntegerSegmentDistance:
    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(segment_pairs())
    def test_equals_fraction_oracle(self, segs):
        assert dist2(*segs) == dist2_segment_segment(*segs)


class TestBoxGap:
    def test_boxes(self):
        assert _box((3, -1), (1, 2)) == (1, 3, -1, 2)

    def test_overlapping_boxes_have_zero_gap(self):
        assert _box_gap_sq(_box((0, 0), (2, 2)), _box((1, 3), (3, 1))) == 0

    def test_diagonal_gap(self):
        assert _box_gap_sq(_box((0, 0), (1, 1)), _box((4, 5), (6, 9))) == 25

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(*[st.tuples(st.integers(-72, 72), st.integers(-72, 72))] * 4)
    def test_gap_never_exceeds_segment_distance(self, a, b, c, d):
        gap = _box_gap_sq(_box(a, b), _box(c, d))
        assert gap == _box_gap_sq(_box(c, d), _box(a, b))
        n, den = _segment_dist2(_segment_record(1, a, b), _segment_record(1, c, d))
        assert 0 <= gap * den <= n
