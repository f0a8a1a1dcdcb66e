"""Exact point and segment predicates."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from continua.geometry import (
    _box,
    _box_gap_sq,
    dist2_point_segment,
    dist2_pp,
    dist2_segment_segment,
    project_point_segment,
    segments_intersect,
)


def P(x, y):
    return (F(x), F(y))


class TestProjectPointSegment:
    def test_degenerate_segment(self):
        a = P(1, 2)
        assert project_point_segment(P(4, 6), a, a) == (F(0), F(25))

    def test_clamp_before_start(self):
        assert project_point_segment(P(-3, 4), P(0, 0), P(2, 0)) == (F(0), F(25))

    def test_clamp_past_end(self):
        assert project_point_segment(P(5, -4), P(0, 0), P(2, 0)) == (F(1), F(25))

    def test_interior_projection(self):
        # onto the diagonal y = x at (1/2, 1/2) from (0, 1)
        t, d2 = project_point_segment(P(0, 1), P(0, 0), P(1, 1))
        assert (t, d2) == (F(1, 2), F(1, 2))

    def test_interior_rational_parameter(self):
        a, b, p = P(1, 1), P(4, 5), P(3, 1)
        t, d2 = project_point_segment(p, a, b)
        assert (t, d2) == (F(6, 25), F(64, 25))
        assert d2 == dist2_pp(p, (a[0] + 3 * t, a[1] + 4 * t))
        assert dist2_point_segment(p, a, b) == d2


class TestSegmentsIntersect:
    def test_proper_crossing(self):
        assert segments_intersect(P(0, 0), P(2, 2), P(0, 2), P(2, 0))

    def test_endpoint_touch(self):
        assert segments_intersect(P(0, 0), P(1, 1), P(1, 1), P(2, 0))

    def test_t_touch(self):
        assert segments_intersect(P(0, 0), P(2, 0), P(1, 0), P(1, 3))

    def test_collinear_overlap(self):
        assert segments_intersect(P(0, 0), P(2, 0), P(1, 0), P(3, 0))

    def test_collinear_disjoint(self):
        assert not segments_intersect(P(0, 0), P(1, 0), P(2, 0), P(3, 0))

    def test_parallel(self):
        assert not segments_intersect(P(0, 0), P(2, 1), P(0, 1), P(2, 2))

    def test_near_miss(self):
        assert not segments_intersect(P(0, 0), P(1, 1), P(F(1, 2), F(3, 5)), P(0, 1))


class TestSegmentDistance:
    def test_crossing_is_zero(self):
        assert dist2_segment_segment(P(0, 0), P(2, 2), P(0, 2), P(2, 0)) == 0

    def test_parallel_offset(self):
        assert dist2_segment_segment(P(0, 0), P(4, 0), P(1, 3), P(2, 3)) == 9

    def test_collinear_gap(self):
        assert dist2_segment_segment(P(0, 0), P(1, 0), P(F(5, 2), 0), P(3, 0)) == F(9, 4)

    def test_endpoint_to_interior(self):
        # (1, 1) to the segment x + y = 0 lies at squared distance 2
        assert dist2_segment_segment(P(1, 1), P(5, 7), P(-2, 2), P(2, -2)) == 2

    def test_symmetric(self):
        a, b, c, d = P(0, 0), P(3, 1), P(F(1, 2), 2), P(4, F(7, 3))
        assert dist2_segment_segment(a, b, c, d) == dist2_segment_segment(c, d, b, a)


coords = st.fractions(min_value=-3, max_value=3, max_denominator=24)
points = st.tuples(coords, coords)


class TestBoxGap:
    def test_boxes(self):
        assert _box(P(3, -1), P(1, 2)) == (1, 3, -1, 2)

    def test_overlapping_boxes_have_zero_gap(self):
        assert _box_gap_sq(_box(P(0, 0), P(2, 2)), _box(P(1, 3), P(3, 1))) == 0

    def test_diagonal_gap(self):
        assert _box_gap_sq(_box(P(0, 0), P(1, 1)), _box(P(4, 5), P(6, 9))) == 25

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(points, points, points, points)
    def test_gap_never_exceeds_segment_distance(self, a, b, c, d):
        gap = _box_gap_sq(_box(a, b), _box(c, d))
        assert gap == _box_gap_sq(_box(c, d), _box(a, b))
        assert 0 <= gap <= dist2_segment_segment(a, b, c, d)
