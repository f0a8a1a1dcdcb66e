"""Arc model geometry and its arc decomposition, embeddings, self-maps."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import continua.continuum as continuum
from continua.cantor import chain_property_threshold, check_chain_property
from continua.cli import MAX_SEGMENTS
from continua.continuum import (
    BASE_VERTEX,
    Arc,
    CIRCLE_SEGMENTS,
    ModelError,
    YHomeo,
    YPoint,
    build_arc_model,
    build_arcwise_map,
    validate_homeo,
)
from continua.plmap import identity
from continua.svg import render_model, render_phase_diagram

from conftest import (
    apply_map,
    dist2_point_segment,
    dist2_pp,
    embed_point,
    identity_homeo,
    nearest_point,
    polyline_point,
    scan_arcs_at,
    scan_nearest,
    scan_sub_polyline,
    tan_half_angle_circle,
)


class TestBuild:
    def test_minimal_model(self):
        m = build_arc_model(1)
        assert m.arc_ids() == ["circle", "h1", "v1"]
        assert m.vertices["p~"] == (F(-1), F(0))
        assert m.vertices["b1"] == (F(1), F(0))
        assert m.vertices["t1"] == (F(1), F(1))

    def test_three_teeth(self):
        m = build_arc_model(3)
        assert len(m.arcs) == 7
        assert m.vertices["b2"] == (F(0), F(0))
        assert m.vertices["b3"] == (F(-1, 3), F(0))
        # horizontal pieces split at the branch points, left to right
        assert m.arc("h1").p == "p~" and m.arc("h1").q == "b3"
        assert m.arc("h3").p == "b2" and m.arc("h3").q == "b1"

    def test_arc_count_formula(self):
        for M in (1, 2, 4, 8):
            assert len(build_arc_model(M).arcs) == 2 * M + 1

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            build_arc_model(0)

    def test_branch_points_have_three_incident_arc_ends(self):
        m = build_arc_model(4)
        degree = {vid: len(scan_arcs_at(m, vid)) for vid in m.vertices}
        for n in range(1, 5):
            assert degree[f"b{n}"] == 3
            assert degree[f"t{n}"] == 1
        assert degree["p~"] == 2

    @pytest.mark.parametrize("M", range(1, 9))
    def test_adjacency_index_equals_scan(self, M):
        m = build_arc_model(M)
        for arc in m.arcs:
            for end in (0, 1):
                scan = scan_arcs_at(m, m.vertex_of(arc, end))
                assert m.across(arc, end) == [(a, e) for a, e in scan if a.id != arc.id]


class TestEmbedding:
    def test_branch_point_exact(self):
        m = build_arc_model(3)
        assert embed_point(m, YPoint("h3", F(0))) == (F(0), F(0))

    def test_tooth_tip(self):
        m = build_arc_model(2)
        assert embed_point(m, YPoint("v2", F(1))) == (F(0), F(1, 2))

    def test_circle_midpoint_near_bottom(self):
        m = build_arc_model(1)
        p = embed_point(m, YPoint("circle", F(1, 2)))
        assert dist2_pp(p, (F(0), F(-1))) < F(1, 10**6)

    def test_circle_polyline_points_on_circle(self):
        arc = build_arc_model(1).arc("circle")
        assert arc.segments == CIRCLE_SEGMENTS
        for x, y in arc.polyline:
            assert x * x + y * y == 1
            assert y <= 0

    def test_circle_polyline_is_the_tan_half_angle_points(self):
        assert continuum._circle_polyline() == tan_half_angle_circle(CIRCLE_SEGMENTS)

    def test_circle_position_error_within_tolerance(self):
        # every polyline point lies within 1e-3 of the true circle
        arc = build_arc_model(1).arc("circle")
        lo = (1 - F(1, 1000)) ** 2
        for k in range(2 * CIRCLE_SEGMENTS):
            p = arc.embed(F(k, 2 * CIRCLE_SEGMENTS))
            r2 = p[0] * p[0] + p[1] * p[1]
            assert lo < r2 <= 1

    def test_circle_stretch_bounds_hold_on_samples(self):
        arc = build_arc_model(1).arc("circle")
        lo2, hi2 = arc.stretch_lo**2, arc.stretch_hi**2
        # segmentwise speeds
        n = arc.segments
        for k in range(n):
            d2 = dist2_pp(arc.polyline[k], arc.polyline[k + 1])
            dt = F(1, n)
            assert lo2 * dt * dt <= d2 <= hi2 * dt * dt
        # vertex pairs across segments
        for i in range(0, n + 1, 3):
            for j in range(i + 1, n + 1, 5):
                d2 = dist2_pp(arc.polyline[i], arc.polyline[j])
                dt = F(j - i, n)
                assert d2 >= lo2 * dt * dt
                assert d2 <= hi2 * dt * dt

    def test_circle_stretch_bounds_proved(self):
        """The circle's stretch_lo and stretch_hi, decided exactly.  With n
        chords, P(t) runs along chord k at speed n·|chord k|.  Upper: every
        chord has n·|chord| <= stretch_hi, so by the triangle inequality
        along the polyline |P(s) − P(t)| <= stretch_hi·|s − t|.  Lower: on a
        pair of chords i <= j, with s = (i + σ)/n and t = (j + τ)/n,
        |P(t) − P(s)|² − stretch_lo²·(t − s)² is a quadratic on the unit box
        of (σ, τ), and its least value, at a corner, an edge's critical
        point or the interior one, is not negative."""
        arc = build_arc_model(1).arc("circle")
        n, pts = arc.segments, arc.polyline
        lo2, hi2 = arc.stretch_lo**2, arc.stretch_hi**2
        chords = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(pts, pts[1:])]
        assert all(dx * dx + dy * dy <= hi2 / n**2 for dx, dy in chords)
        w = lo2 / n**2  # stretch_lo² per unit of σ or τ, squared
        for i in range(n):
            for j in range(i, n):
                (di0, di1), (dj0, dj1) = chords[i], chords[j]
                e0, e1 = pts[j][0] - pts[i][0], pts[j][1] - pts[i][1]
                m = j - i
                # Q = a·σ² + b·τ² + c·στ + d·σ + e·τ + f
                a = di0 * di0 + di1 * di1 - w
                b = dj0 * dj0 + dj1 * dj1 - w
                c = 2 * w - 2 * (di0 * dj0 + di1 * dj1)
                d = 2 * m * w - 2 * (e0 * di0 + e1 * di1)
                e = 2 * (e0 * dj0 + e1 * dj1) - 2 * m * w
                f = e0 * e0 + e1 * e1 - m * m * w
                points = [(F(x), F(y)) for x in (0, 1) for y in (0, 1)]
                for fixed in (0, 1):
                    if b:
                        points.append((F(fixed), -(c * fixed + e) / (2 * b)))
                    if a:
                        points.append((-(c * fixed + d) / (2 * a), F(fixed)))
                det = 4 * a * b - c * c
                if det:
                    points.append(((c * e - 2 * b * d) / det, (c * d - 2 * a * e) / det))
                least = min(
                    a * x * x + b * y * y + c * x * y + d * x + e * y + f
                    for x, y in points if 0 <= x <= 1 and 0 <= y <= 1
                )
                assert least >= 0, (i, j)

    def test_circle_sagitta_and_straight_stretches_proved(self):
        # a chord c of the unit circle has sagitta 1 − sqrt(1 − c²/4), which
        # is under 1/2048 exactly when c² < 4·(1 − (2047/2048)²)
        arc = build_arc_model(1).arc("circle")
        bound = 4 * (1 - F(2047, 2048) ** 2)
        for a, b in zip(arc.polyline, arc.polyline[1:]):
            assert a[0] ** 2 + a[1] ** 2 == 1
            assert dist2_pp(a, b) < bound
        # a straight arc is its one segment, run at the speed of its length
        for M in range(1, 9):
            for s in build_arc_model(M).arcs:
                if s.kind == "segment":
                    assert len(s.polyline) == 2 and s.stretch_lo == s.stretch_hi
                    assert s.stretch_lo**2 == dist2_pp(*s.polyline)

    def test_straight_arcs_exact_lengths(self):
        m = build_arc_model(4)
        assert m.arc("v4").stretch_lo == F(1, 4)
        assert m.arc("h4").stretch_lo == m.arc("h4").stretch_hi == F(1)

    def test_parameter_out_of_range(self):
        with pytest.raises(ValueError):
            YPoint("h1", F(3, 2))


class TestSubPolylineAgainstScan:
    def test_every_arc_and_parameter_pair(self):
        # every model shares one circle polyline: each distinct arc once
        arcs = {a.polyline: a for M in (1, 2, 3, 8) for a in build_arc_model(M).arcs}
        for arc in arcs.values():
            n = arc.segments
            ts = {F(0), F(1), F(1, 3), F(2, 3)}
            for k in range(n + 1):
                ts.update((F(k, n), F(k, n) - F(1, 7 * n), F(k, n) + F(1, 7 * n)))
            ts = sorted(t for t in ts if 0 <= t <= 1)
            for i, t0 in enumerate(ts):
                for t1 in ts[i:]:
                    assert arc.sub_polyline(t0, t1) == scan_sub_polyline(arc, t0, t1), (
                        arc.id, t0, t1
                    )

    @pytest.mark.parametrize("M", [1, 3, 8])
    def test_whole_range_is_the_arcs_own_polyline(self, M):
        for arc in build_arc_model(M).arcs:
            assert arc.sub_polyline(F(0), F(1)) is arc.polyline, arc.id


class TestDistances:
    def test_same_point_zero(self):
        m = build_arc_model(2)
        p = YPoint("h1", F(1, 3))
        assert dist2_pp(embed_point(m, p), embed_point(m, p)) == 0

    def test_tooth_height(self):
        m = build_arc_model(2)
        d2 = dist2_pp(embed_point(m, YPoint("v2", F(0))), embed_point(m, YPoint("v2", F(1))))
        assert d2 == F(1, 2**2)

    def test_tip_to_base_is_reciprocal(self):
        m = build_arc_model(8)
        for n in range(1, 9):
            tip, base = YPoint(f"v{n}", F(1)), YPoint(f"v{n}", F(0))
            d2 = dist2_pp(embed_point(m, tip), embed_point(m, base))
            assert d2 == F(1, n**2)

    def test_straight_arc_distance_is_euclidean(self):
        m = build_arc_model(2)
        rng = random.Random(41)
        arc = m.arc("h2")
        for _ in range(20):
            s = F(rng.randrange(0, 65), 64)
            t = F(rng.randrange(0, 65), 64)
            d2 = dist2_pp(embed_point(m, YPoint("h2", s)), embed_point(m, YPoint("h2", t)))
            # a straight arc's stretch is its length
            assert d2 == (arc.stretch_lo * (t - s)) ** 2

    def test_extra_tooth_within_reciprocal_of_horizontal(self):
        # dropping tooth M+1 loses points no farther than 1/(M+1) from the
        # kept horizontal segment
        for M in (2, 4, 7):
            m2 = build_arc_model(M + 1)
            tooth = m2.arc(f"v{M + 1}")
            a, b = tooth.polyline[0], tooth.polyline[1]
            for k in range(9):
                p = tooth.embed(F(k, 8))
                d2 = dist2_point_segment(p, (F(-1), F(0)), (F(1), F(0)))
                assert d2 <= F(1, (M + 1) ** 2)


def _offsets(rng: random.Random, radius: F) -> tuple[F, F]:
    return tuple(radius * F(rng.randrange(-512, 513), 512) for _ in range(2))


def _query_points(arc: Arc, rng: random.Random) -> list:
    """Vertices, chord midpoints, random points at several distances from
    the arc, points beyond x = +-1, and the mirror-tie points (0, y)."""
    pts = list(arc.polyline)
    pts += [
        ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2) for a, b in zip(arc.polyline, arc.polyline[1:])
    ]
    for radius in (F(1, 1000), F(1, 100), F(1, 10), F(1, 2), F(2)):
        for _ in range(40):
            x, y = arc.embed(F(rng.randrange(0, 4097), 4096))
            dx, dy = _offsets(rng, radius)
            pts.append((x + dx, y + dy))
    pts += [(F(x, 4), F(y, 4)) for x in (-9, -5, 5, 9) for y in (-5, -1, 0, 3)]
    pts += [(F(0), F(y, 8)) for y in range(-12, 9)]
    return pts


class TestNearestAgainstScan:
    """The pruned walk returns the full scan's (t, d2) exactly."""

    @pytest.mark.parametrize("arc_id", ["circle", "h1", "h3", "v1", "v3"])
    def test_query_points(self, arc_id):
        arc = build_arc_model(3).arc(arc_id)
        for p in _query_points(arc, random.Random(arc_id)):
            assert nearest_point(arc, p) == scan_nearest(arc, p), p

    def test_mirror_ties_go_to_the_lower_segment(self):
        # (0, 0) is equidistant from chords 31 and 32, the widest ones
        arc = build_arc_model(1).arc("circle")
        t, d2 = nearest_point(arc, (F(0), F(0)))
        assert F(31, 64) < t < F(1, 2)
        assert (t, d2) == scan_nearest(arc, (F(0), F(0)))
        # above the chord ends the two endpoints tie; t = 0 wins
        assert nearest_point(arc, (F(0), F(3))) == (F(0), F(10))

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        st.sampled_from(["circle", "h1", "h2", "v1", "v2"]),
        st.fractions(min_value=0, max_value=1, max_denominator=256),
        st.fractions(min_value=-2, max_value=2, max_denominator=1000),
        st.fractions(min_value=-2, max_value=2, max_denominator=1000),
    )
    def test_property(self, arc_id, t, dx, dy):
        arc = build_arc_model(2).arc(arc_id)
        x, y = arc.embed(t)
        p = (x + dx, y + dy)
        assert nearest_point(arc, p) == scan_nearest(arc, p)

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=6),
        st.lists(st.integers(-3, 3), min_size=7, max_size=7),
        st.integers(-2, 12),
        st.integers(-4, 4),
    )
    def test_property_on_monotone_polylines(self, steps, heights, px, py):
        # small integer grids make exact ties between segments common
        xs = [0]
        for step in steps:
            xs.append(xs[-1] + step)
        poly = tuple((F(x), F(y)) for x, y in zip(xs, heights))
        arc = Arc("a", "p", "q", "segment", poly, F(1), F(1))
        p = (F(px), F(py))
        assert nearest_point(arc, p) == scan_nearest(arc, p)

    def test_projection_count_near_the_circle(self, monkeypatch):
        calls = []
        project = continuum._project_segment

        def counted(*args):
            calls.append(args)
            return project(*args)

        monkeypatch.setattr(continuum, "_project_segment", counted)
        arc = build_arc_model(2).arc("circle")
        rng = random.Random(7)
        worst = 0
        for _ in range(400):
            x, y = arc.embed(F(rng.randrange(0, 4097), 4096))
            dx, dy = _offsets(rng, F(1, 100))
            calls.clear()
            nearest_point(arc, (x + dx, y + dy))
            worst = max(worst, len(calls))
        assert 1 <= worst <= 16

    def test_decreasing_polyline_rejected(self):
        with pytest.raises(ModelError):
            Arc("a", "p", "q", "segment", ((F(1), F(0)), (F(0), F(0))), F(1), F(1))

    def test_unknown_arc_id(self):
        m = build_arc_model(2)
        assert m.arc("v2") is m.arcs[-1]
        with pytest.raises(ModelError, match="no arc 'zz'"):
            m.arc("zz")


MODELS = {M: build_arc_model(M) for M in range(1, 5)}
MODEL_ARCS = [(M, arc.id) for M, m in MODELS.items() for arc in m.arcs]


def _vertex_params(arc: Arc) -> list[F]:
    """t = 0, t = 1 and every vertex k/n of the arc's polyline."""
    n = arc.segments
    return [F(k, n) for k in range(n + 1)]


def _triple_dist2(arc: Arc, s: F, t: F) -> F:
    """The squared distance of the points at s and t from their ``Arc._at``
    triples, as the model search's check measures it; s is passed with
    both parts tripled, as an orbit pair need not be in lowest terms."""
    x1, y1, w1 = arc._at(3 * s.numerator, 3 * s.denominator)
    x2, y2, w2 = arc._at(t.numerator, t.denominator)
    return F((x1 * w2 - x2 * w1) ** 2 + (y1 * w2 - y2 * w1) ** 2, (w1 * w2) ** 2)


class TestOwnPoints:
    """The premises of the model search: a point of an arc is its own
    nearest point, and the squared distance of two ``Arc._at`` triples is
    the ambient squared distance between the two polyline points."""

    @pytest.mark.parametrize("M, arc_id", MODEL_ARCS)
    def test_point_is_its_own_nearest_at_vertices(self, M, arc_id):
        arc = MODELS[M].arc(arc_id)
        for t in _vertex_params(arc):
            assert nearest_point(arc, arc.embed(t)) == (t, 0), t

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from(MODEL_ARCS), st.fractions(0, 1, max_denominator=10**6))
    def test_point_is_its_own_nearest(self, case, t):
        M, arc_id = case
        arc = MODELS[M].arc(arc_id)
        assert nearest_point(arc, arc.embed(t)) == (t, 0)

    @pytest.mark.parametrize("M, arc_id", MODEL_ARCS)
    def test_dist2_at_vertices_and_midpoints(self, M, arc_id):
        # k/n boundaries, where a parameter ends one segment and starts the
        # next, and segment midpoints: same-segment and cross-segment pairs
        arc = MODELS[M].arc(arc_id)
        vs = _vertex_params(arc)
        ts = sorted(vs + [(a + b) / 2 for a, b in zip(vs, vs[1:])])
        for i, s in enumerate(ts):
            for t in ts[max(i - 3, 0) : i + 4] + [ts[0], ts[-1]]:
                d2 = dist2_pp(polyline_point(arc, s), polyline_point(arc, t))
                assert _triple_dist2(arc, s, t) == d2, (s, t)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        st.sampled_from(MODEL_ARCS),
        st.fractions(0, 1, max_denominator=10**6),
        st.fractions(-F(1, 32), F(1, 32), max_denominator=10**6),
    )
    def test_dist2(self, case, s, step):
        # steps below a circle segment's 1/64 give many same-segment pairs
        M, arc_id = case
        arc = MODELS[M].arc(arc_id)
        t = min(max(s + step, F(0)), F(1))
        assert _triple_dist2(arc, s, t) == dist2_pp(polyline_point(arc, s), polyline_point(arc, t))


class TestSelfMaps:
    def test_identity_fixes_everything(self):
        m = build_arc_model(2)
        g = identity_homeo(m)
        rng = random.Random(42)
        for _ in range(20):
            p = YPoint(m.arc_ids()[rng.randrange(len(m.arcs))], F(rng.randrange(0, 65), 64))
            assert apply_map(g, p) == p

    def test_arcwise_map_on_circle_midpoint(self):
        m = build_arc_model(2)
        g = build_arcwise_map(m, 1)
        assert apply_map(g, YPoint("circle", F(1, 2))) == YPoint("circle", F(7, 12))

    def test_vertices_fixed(self):
        m = build_arc_model(3)
        g = build_arcwise_map(m, 2)
        for a in m.arcs:
            assert apply_map(g, YPoint(a.id, F(0))) == YPoint(a.id, F(0))
            assert apply_map(g, YPoint(a.id, F(1))) == YPoint(a.id, F(1))

    def test_arc_maps_satisfy_chain_property_above_threshold(self):
        m = build_arc_model(2)
        levels = 3
        g = build_arcwise_map(m, levels)
        eps = chain_property_threshold(levels) + F(1, 1000)
        for a in m.arcs:
            assert check_chain_property(g.map_for(a.id), eps) is not None

    def test_per_arc_interval_count(self):
        m = build_arc_model(2)
        from continua.plmap import wandering_intervals

        for levels in (0, 1, 2, 3):
            g = build_arcwise_map(m, levels)
            for a in m.arcs:
                assert len(wandering_intervals(g.map_for(a.id))) == 2 ** (levels + 1) - 1

    def test_homeo_validation(self):
        m = build_arc_model(2)
        with pytest.raises(ModelError):
            validate_homeo(m, YHomeo({"circle": identity()}))
        bad = YHomeo({a.id: identity(F(0), F(2)) for a in m.arcs})
        with pytest.raises(ModelError):
            validate_homeo(m, bad)
        extra = YHomeo({**{a.id: identity() for a in m.arcs}, "zz": identity()})
        refusal = "^arc map for 'zz', which is not an arc of the model$"
        with pytest.raises(ModelError, match=refusal):
            validate_homeo(m, extra)

    def test_homeo_json_round_trip(self):
        m = build_arc_model(2)
        g = build_arcwise_map(m, 2)
        assert YHomeo.from_json(g.to_json()).arc_maps == g.arc_maps

    def test_homeo_json_builds_each_distinct_map_once(self):
        m = build_arc_model(3)
        obj = build_arcwise_map(m, 2).to_json()
        obj["arc_maps"]["v3"] = identity().to_json()
        maps = YHomeo.from_json(obj).arc_maps
        assert maps["v3"] == identity()
        assert len({id(f) for f in maps.values()}) == 2

    def test_equal_but_malformed_map_not_shared(self):
        # JSON 0.0 equals 0 in Python, but a float is no pair component
        good = {"domain": [[0, 1], [1, 1]], "breakpoints": [[0, 1], [1, 1]],
                "values": [[0, 1], [1, 1]]}
        bad = {**good, "domain": [[0.0, 1], [1, 1]]}
        assert bad == good
        with pytest.raises(ValueError, match="malformed PL map object"):
            YHomeo.from_json({"arc_maps": {"circle": good, "h1": bad}})


class TestArcDecomposition:
    def test_every_model_is_an_arc_decomposition(self):
        """For every M that the CLI accepts, the arcs of ``build_arc_model(M)``
        are simple and meet only at shared labelled end vertices, and their
        union is connected.  The assertions are properties, not coordinates;
        these facts make them a proof:

        - every polyline is strictly x-monotone or one vertical segment, so
          it is simple;
        - the circle's interior lies strictly below y = 0 (its inner
          vertices do, and its ends lie on y = 0), while every other arc
          lies in y >= 0, so the circle meets the rest only at its ends,
          the ends of the chain of horizontal arcs;
        - the horizontal arcs tile [-1, 1] x {0} in order, so two of them
          meet only at a shared end, and the interior of each avoids every
          tooth's x, since the teeth stand at the chain's vertices;
        - a tooth meets y = 0 only at its base, its branch vertex, and the
          teeth stand at distinct x, so no two of them meet;
        - the vertices are distinct points, so a contact at a vertex's
          point is a contact at that vertex;
        - the chain of horizontal arcs connects the anchor to every branch
          vertex, the circle closes it, and each tip hangs from its
          branch vertex, so the union is connected.
        """
        for M in range(1, MAX_SEGMENTS + 1):
            m = build_arc_model(M)
            arcs, vertices = m.arcs, m.vertices
            assert len(arcs) == 2 * M + 1
            assert len(set(vertices.values())) == len(vertices)
            assert {v for a in arcs for v in (a.p, a.q)} == set(vertices)
            for a in arcs:
                assert a.polyline[0] == vertices[a.p] and a.polyline[-1] == vertices[a.q], a.id

            hs = [m.arc(f"h{i}") for i in range(1, M + 1)]
            chain = [hs[0].p] + [h.q for h in hs]
            assert [h.p for h in hs] == chain[:-1]
            assert set(chain) == {BASE_VERTEX} | {f"b{n}" for n in range(1, M + 1)}
            for h in hs:
                assert len(h.polyline) == 2 and h.polyline[0][1] == h.polyline[1][1] == 0, h.id
            xs = [vertices[v][0] for v in chain]
            assert xs[0] == -1 and xs[-1] == 1
            assert all(x0 < x1 for x0, x1 in zip(xs, xs[1:]))

            circle = m.arc("circle")
            assert (circle.p, circle.q) == (chain[0], chain[-1])
            pts = circle.polyline
            assert all(a[0] < b[0] for a, b in zip(pts, pts[1:]))
            assert len(pts) > 2 and all(y < 0 for _, y in pts[1:-1])
            assert pts[0][1] == pts[-1][1] == 0

            tooth_xs = set()
            for n in range(1, M + 1):
                v = m.arc(f"v{n}")
                assert v.p == f"b{n}" and len(v.polyline) == 2, v.id
                (bx, by), (tx, ty) = v.polyline
                assert by == 0 and tx == bx and ty > 0, v.id
                tooth_xs.add(bx)
            assert len(tooth_xs) == M
            assert tooth_xs <= set(xs)


class TestRendering:
    def test_phase_diagram_marks_orientations(self):
        from continua.cantor import build_ternary_map

        svg = render_phase_diagram(build_ternary_map(1))
        assert svg.startswith("<svg")
        assert "#c0392b" in svg  # right-moving interval marks
        assert "#2e6da4" in svg  # left-moving interval marks

    def test_model_rendering_deterministic(self):
        m = build_arc_model(3)
        g = build_arcwise_map(m, 2)
        assert render_model(m, g) == render_model(m, g)
        assert render_model(m, g).startswith("<svg")
