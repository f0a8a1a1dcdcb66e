"""Exact algebra of PL interval homeomorphisms."""

import gc
import math
import random
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from continua import plmap
from continua.plmap import (
    DomainError,
    Orientation,
    OrientedInterval,
    PLHomeo,
    c0_distance,
    canonical_r,
    compose,
    evaluate,
    fixed_set,
    identity,
    invert,
    iterate,
    max_slope,
    wandering_intervals,
)
from continua.rational import rational_to_json
from continua.cantor import (
    best_chain_quality,
    build_conjugacy,
    build_ternary_map,
    check_chain_property,
    densify_chain_property,
    explode_fixed_point,
)
from conftest import (
    canonical_l,
    composite_residual,
    count_fractions,
    edge_enriched_map,
    fraction_prune_collinear,
    fraction_walk_c0_distance,
    fraction_walk_compose,
    grid_c0_distance,
    grid_compose,
    interpolate,
    merged_fixed_set,
    midpoint_wandering_intervals,
    random_coordinate_change,
    random_fat_map,
    random_plhomeo,
    random_touching_map,
    rescale,
    validated_inverse,
)


def oracle_maps(seed: int) -> list[PLHomeo]:
    """Random, fat, touching and ternary maps, and conjugates of the latter."""
    rng = random.Random(seed)
    maps = [identity(), canonical_r(F(1, 3), F(2, 3)), canonical_l(0, 1)]
    for _ in range(15):
        maps += [random_plhomeo(rng, 6), random_fat_map(rng, 5), random_touching_map(rng)]
    for n in range(7):
        f = build_ternary_map(n)
        A = random_coordinate_change(rng)
        maps += [f, compose(A, compose(f, invert(A)))]
    return maps


class TestRepresentation:
    def test_collinear_breakpoints_pruned(self):
        f = PLHomeo((F(0), F(1, 2), F(1)), (F(0), F(1, 2), F(1)))
        assert f == identity()
        assert len(f.breakpoints) == 2

    def test_invalid_monotonicity_rejected(self):
        with pytest.raises(ValueError):
            PLHomeo((F(0), F(1, 2), F(1)), (F(0), F(3, 4), F(1, 2)))

    def test_endpoints_must_be_fixed(self):
        with pytest.raises(ValueError):
            PLHomeo((F(0), F(1)), (F(0), F(2)))

    def test_json_round_trip(self):
        f = canonical_r(F(1, 3), F(2, 3))
        assert PLHomeo.from_json(f.to_json()) == f


class TestEvaluate:
    def test_identity_midpoint(self):
        assert evaluate(identity(), F(1, 2)) == F(1, 2)

    def test_canonical_r_midpoint(self):
        assert evaluate(canonical_r(0, 1), F(1, 2)) == F(3, 4)

    def test_canonical_r_rescaled_midpoint(self):
        assert evaluate(canonical_r(F(1, 3), F(2, 3)), F(1, 2)) == F(7, 12)

    def test_non_fraction_point(self):
        y = evaluate(canonical_r(0, 1), 1)
        assert type(y) is F and y == 1

    def test_outside_domain(self):
        with pytest.raises(DomainError, match=r"^2 outside domain \[0, 1\]$"):
            evaluate(identity(), F(2))
        with pytest.raises(DomainError, match=r"^-1/3 outside domain \[0, 1\]$"):
            evaluate(canonical_r(0, 1), F(-1, 3))


class TestComposeInvert:
    def test_inverse_law_exact(self):
        rng = random.Random(101)
        for make in (random_plhomeo, random_fat_map, random_touching_map):
            for _ in range(60):
                f = make(rng)
                assert compose(f, invert(f)) == identity()
                assert compose(invert(f), f) == identity()

    def test_identity_neutral(self):
        rng = random.Random(102)
        for _ in range(20):
            g = random_plhomeo(rng)
            assert compose(identity(), g) == g
            assert compose(g, identity()) == g

    def test_double_composition_value(self):
        r = canonical_r(0, 1)
        assert evaluate(compose(r, r), F(1, 2)) == F(7, 8)

    def test_domain_mismatch(self):
        with pytest.raises(DomainError, match=r"^domain mismatch: \[0, 1\] vs \[0, 2\]$"):
            compose(identity(), identity(F(0), F(2)))

    def test_invert_identity(self):
        assert invert(identity()) == identity()

    def test_invert_canonical_value(self):
        assert evaluate(invert(canonical_r(0, 1)), F(3, 4)) == F(1, 2)

    def test_invert_involution(self):
        rng = random.Random(103)
        for _ in range(100):
            f = random_plhomeo(rng)
            assert invert(invert(f)) == f


class TestIterate:
    def test_zero_iterations(self):
        rng = random.Random(104)
        f = random_plhomeo(rng)
        assert iterate(f, F(1, 3), 0) == F(1, 3)

    def test_two_iterations(self):
        assert iterate(canonical_r(0, 1), F(1, 2), 2) == F(7, 8)

    def test_negative_iteration(self):
        assert iterate(canonical_r(0, 1), F(3, 4), -1) == F(1, 2)

    def test_monotone_in_start(self):
        rng = random.Random(105)
        for _ in range(30):
            f = random_plhomeo(rng)
            n = rng.randrange(-3, 4)
            x = F(rng.randrange(0, 31), 32)
            y = x + F(1, 32)
            assert iterate(f, x, n) < iterate(f, y, n)


class TestC0Distance:
    def test_self_distance_zero(self):
        rng = random.Random(106)
        f = random_plhomeo(rng)
        assert c0_distance(f, f) == 0

    def test_identity_to_canonical(self):
        assert c0_distance(identity(), canonical_r(0, 1)) == F(1, 4)

    def test_domain_mismatch(self):
        with pytest.raises(DomainError, match=r"^domain mismatch: \[1/2, 2\] vs \[0, 1\]$"):
            c0_distance(identity(F(1, 2), F(2)), identity())

    def test_metric_axioms(self):
        rng = random.Random(107)
        for make in (random_plhomeo, random_fat_map, random_touching_map):
            for _ in range(40):
                f, g, h = (make(rng) for _ in range(3))
                dfg = c0_distance(f, g)
                assert dfg == c0_distance(g, f)
                assert (dfg == 0) == (f == g)
                assert dfg <= c0_distance(f, h) + c0_distance(h, g)


class TestMergeWalkAgainstGridOracles:
    """compose and c0_distance equal pointwise evaluation on the same grids."""

    def test_random_maps(self):
        rng = random.Random(108)
        for _ in range(30):
            maps = [
                identity(),
                random_plhomeo(rng, 6),
                random_fat_map(rng, 5),
                random_touching_map(rng),
            ]
            for f in maps:
                for g in maps:
                    assert compose(f, g) == grid_compose(f, g)
                    assert c0_distance(f, g) == grid_c0_distance(f, g)

    def test_ternary_conjugates(self):
        rng = random.Random(109)
        for n in range(7):
            f = build_ternary_map(n)
            for _ in range(2):
                A = random_coordinate_change(rng)
                A_inv = invert(A)
                inner = compose(f, A_inv)
                assert inner == grid_compose(f, A_inv)
                g = compose(A, inner)
                assert g == grid_compose(A, inner)
                assert compose(g, invert(g)) == grid_compose(g, invert(g))
                assert c0_distance(g, f) == grid_c0_distance(g, f)
                assert c0_distance(A, g) == grid_c0_distance(A, g)


class TestFixedSets:
    def test_identity_whole_interval(self):
        assert fixed_set(identity()) == [(F(0), F(1))]

    def test_canonical_r_endpoints_only(self):
        assert fixed_set(canonical_r(0, 1)) == [(F(0), F(0)), (F(1), F(1))]

    def test_depth_one_blocks(self):
        from continua.cantor import build_ternary_map

        assert fixed_set(build_ternary_map(1)) == [
            (F(0), F(1, 9)),
            (F(2, 9), F(1, 3)),
            (F(2, 3), F(7, 9)),
            (F(8, 9), F(1)),
        ]

    def test_transversal_crossing_found(self):
        # below the diagonal then above: a single interior fixed point
        f = PLHomeo((F(0), F(1, 4), F(3, 4), F(1)), (F(0), F(1, 8), F(7, 8), F(1)))
        assert (F(1, 2), F(1, 2)) in fixed_set(f)

    def test_partition_of_domain(self):
        rng = random.Random(108)
        for _ in range(40):
            f = random_plhomeo(rng)
            blocks = fixed_set(f)
            intervals = wandering_intervals(f)
            # closures tile [0, 1] in alternating order
            cursor = F(0)
            assert blocks[0][0] == F(0) and blocks[-1][1] == F(1)
            for (a, b), iv in zip(blocks, intervals):
                assert a >= cursor
                assert b == iv.a
                cursor = iv.b
            assert blocks[-1][0] == cursor


class TestWanderingIntervals:
    def test_identity_has_none(self):
        assert wandering_intervals(identity()) == []

    def test_canonical_l_single(self):
        ivs = wandering_intervals(canonical_l(0, 1))
        assert [(iv.a, iv.b, iv.orientation) for iv in ivs] == [
            (F(0), F(1), Orientation.L)
        ]

    def test_depth_one_pattern(self):
        from continua.cantor import build_ternary_map

        ivs = wandering_intervals(build_ternary_map(1))
        assert [(iv.a, iv.b, iv.orientation) for iv in ivs] == [
            (F(1, 9), F(2, 9), Orientation.L),
            (F(1, 3), F(2, 3), Orientation.R),
            (F(7, 9), F(8, 9), Orientation.L),
        ]

    def test_orientation_matches_breakpoint_displacement(self):
        rng = random.Random(109)
        for _ in range(40):
            f = random_fat_map(rng)
            for iv in wandering_intervals(f):
                for x in f.breakpoints:
                    if iv.a < x < iv.b:
                        disp = evaluate(f, x) - x
                        if iv.orientation is Orientation.R:
                            assert disp > 0
                        else:
                            assert disp < 0


class TestCanonicalGenerators:
    def test_canonical_r_value(self):
        assert evaluate(canonical_r(0, 1), F(1, 2)) == F(3, 4)

    def test_canonical_l_is_inverse_of_canonical_r(self):
        assert canonical_l(0, 1) == invert(canonical_r(0, 1))
        assert evaluate(canonical_l(0, 1), F(3, 4)) == F(1, 2)

    def test_canonical_l_rescaled_value(self):
        # midpoint image of the inverse generator on [1/9, 2/9]
        assert evaluate(canonical_l(F(1, 9), F(2, 9)), F(1, 6)) == F(4, 27)

    def test_fixes_exactly_endpoints(self):
        for gen in (canonical_r(F(1, 4), F(3, 4)), canonical_l(F(1, 4), F(3, 4))):
            assert fixed_set(gen) == [(F(1, 4), F(1, 4)), (F(3, 4), F(3, 4))]

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            canonical_r(F(1, 2), F(1, 2))


class TestRescale:
    def test_identity_rescaled(self):
        assert rescale(identity(), (F(1, 3), F(2, 3))) == identity(F(1, 3), F(2, 3))

    def test_affine_equivariance_of_generator(self):
        assert rescale(canonical_r(0, 1), (F(1, 3), F(2, 3))) == canonical_r(
            F(1, 3), F(2, 3)
        )

    def test_preserves_orientation_tags(self):
        rng = random.Random(110)
        for _ in range(30):
            f = random_fat_map(rng)
            target = (F(1, 5), F(4, 5))
            tags = [iv.orientation for iv in wandering_intervals(f)]
            tags2 = [iv.orientation for iv in wandering_intervals(rescale(f, target))]
            assert tags == tags2

    def test_bad_target(self):
        with pytest.raises(ValueError):
            rescale(identity(), (F(1), F(0)))


class TestSlopes:
    def test_identity_slope(self):
        assert max_slope(identity()) == 1

    def test_canonical_slope(self):
        assert max_slope(canonical_r(0, 1)) == F(3, 2)

    def test_lipschitz_bound(self):
        rng = random.Random(111)
        for _ in range(100):
            f = random_plhomeo(rng)
            alpha = F(rng.randrange(1, 8), 16)
            bound = max_slope(f) * alpha
            x = F(rng.randrange(0, 33), 32)
            y = min(x + F(rng.randrange(1, 16 * int(1 / alpha) + 1), 64), F(1))
            if abs(x - y) < alpha:
                assert abs(evaluate(f, x) - evaluate(f, y)) <= bound


class TestCachedPathsAgainstOracles:
    """invert, evaluate and wandering_intervals read per-map caches; each
    must equal its uncached formula structurally."""

    def test_invert_equals_validated_inverse(self):
        for f in oracle_maps(112):
            inv = invert(f)
            ref = validated_inverse(f)
            assert (inv.breakpoints, inv.values) == (ref.breakpoints, ref.values)
            back = invert(inv)
            assert (back.breakpoints, back.values) == (f.breakpoints, f.values)

    def test_inverse_built_once_without_back_reference(self):
        f = build_ternary_map(3)
        inv = invert(f)
        assert invert(f) is inv
        assert invert(inv) is not f
        evaluate(f, F(1, 2))
        evaluate(inv, F(1, 2))
        assert "_kernel" in f.__dict__ and "_kernel" in inv.__dict__
        # no reference cycle: dropping the map frees it and its inverse
        # at once, without the cycle collector
        refs = [weakref.ref(f), weakref.ref(inv)]
        gc.disable()
        try:
            del f, inv
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_evaluate_equals_interpolation(self):
        for f in oracle_maps(113):
            xs = f.breakpoints
            points = list(xs)
            for x0, x1 in zip(xs, xs[1:]):
                points += [(x0 + x1) / 2, x0 + (x1 - x0) / 7, x1 - (x1 - x0) / 1000]
            for x in points:
                assert evaluate(f, x) == interpolate(f, x)
            assert evaluate(f, f.lo) == f.lo and evaluate(f, f.hi) == f.hi

    def test_max_slope_equals_uncached_slopes(self):
        for f in oracle_maps(114):
            slopes = uncached_slopes(f)
            assert max_slope(f) == max(slopes)
            assert max_slope(invert(f)) == max(1 / s for s in slopes)

    def test_max_slope_kept_on_the_map(self):
        # an arcwise model's arcs share one map, and each certificate reads it
        f = build_ternary_map(3)
        assert "_max_slope" not in f.__dict__
        first = max_slope(f)
        assert f.__dict__["_max_slope"] is first and max_slope(f) is first

    def test_wandering_intervals_equal_midpoint_oracle(self):
        for f in oracle_maps(115):
            assert wandering_intervals(f) == midpoint_wandering_intervals(f)

    def test_walk_equals_merged_and_midpoint_oracles_on_deep_maps(self):
        rng = random.Random(117)
        maps = oracle_maps(117)
        for n in range(7, 11):
            f = build_ternary_map(n)
            A = random_coordinate_change(rng)
            maps += [f, compose(A, compose(f, invert(A)))]
        for f in maps:
            assert fixed_set(f) == merged_fixed_set(f)
            assert wandering_intervals(f) == midpoint_wandering_intervals(f)

    def test_returned_lists_do_not_alias_the_cache(self):
        f = build_ternary_map(2)
        blocks, ivs = fixed_set(f), wandering_intervals(f)
        expected = (list(blocks), list(ivs))
        blocks.clear()
        ivs.reverse()
        ivs.pop()
        assert (fixed_set(f), wandering_intervals(f)) == expected

    def test_walk_runs_once_per_map(self, monkeypatch):
        walked = []
        walk = plmap._fixed_and_wandering

        def counting(f):
            walked.append(f)
            return walk(f)

        monkeypatch.setattr(plmap, "_fixed_and_wandering", counting)
        A = random_coordinate_change(random.Random(118))
        g = compose(A, compose(build_ternary_map(4), invert(A)))
        fixed_set(g)
        wandering_intervals(g)
        check_chain_property(g, F(1, 10))
        check_chain_property(g, F(1, 100))
        build_conjugacy(g, 3)
        assert sum(f is g for f in walked) == 1

    def test_compose_result_is_canonical(self):
        unit = [f for f in oracle_maps(116) if f.domain == (0, 1)]
        for f in unit[::3]:
            for g in unit[1::3]:
                h = compose(f, g)
                ref = PLHomeo(h.breakpoints, h.values)
                assert (h.breakpoints, h.values) == (ref.breakpoints, ref.values)


@st.composite
def walk_maps(draw) -> PLHomeo:
    """Random, fat or touching maps, some conjugated by a coordinate change."""
    make = draw(st.sampled_from([random_plhomeo, random_fat_map, random_touching_map]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    f = make(rng)
    if draw(st.booleans()):
        A = random_coordinate_change(rng)
        f = compose(A, compose(f, invert(A)))
    return f


walk_settings = settings(derandomize=True, database=None, deadline=None, max_examples=150)


class TestWalkProperties:
    @walk_settings
    @given(walk_maps())
    def test_walk_equals_oracles(self, f):
        assert fixed_set(f) == merged_fixed_set(f)
        assert wandering_intervals(f) == midpoint_wandering_intervals(f)

    @walk_settings
    @given(walk_maps())
    def test_inverse_flips_orientations(self, f):
        flipped = [(iv.a, iv.b, iv.orientation.flipped()) for iv in wandering_intervals(f)]
        assert [(iv.a, iv.b, iv.orientation) for iv in wandering_intervals(invert(f))] == flipped

    @walk_settings
    @given(walk_maps())
    def test_wandering_intervals_are_the_fixed_set_gaps(self, f):
        blocks = fixed_set(f)
        gaps = [(b, a) for (_, b), (a, _) in zip(blocks, blocks[1:])]
        assert [(iv.a, iv.b) for iv in wandering_intervals(f)] == gaps
        assert blocks[0][0] == f.lo and blocks[-1][1] == f.hi
        assert all(a <= b for a, b in blocks)


algebra_settings = settings(walk_settings, max_examples=300)


class TestAlgebraProperties:
    """Group laws of composition on random, fat, touching and conjugated maps."""

    @algebra_settings
    @given(walk_maps(), walk_maps(), walk_maps())
    def test_compose_is_associative(self, f, g, h):
        assert compose(f, compose(g, h)) == compose(compose(f, g), h)

    @algebra_settings
    @given(walk_maps(), walk_maps())
    def test_inverse_of_composition(self, f, g):
        assert invert(compose(f, g)) == compose(invert(g), invert(f))

    @algebra_settings
    @given(walk_maps(), walk_maps())
    def test_compose_stays_canonical(self, f, g):
        h = compose(f, g)
        assert PLHomeo(h.breakpoints, h.values) == h


def uncached_slopes(f: PLHomeo) -> tuple[F, ...]:
    xs, ys = f.breakpoints, f.values
    return tuple((ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1))


def check_walks(f: PLHomeo, g: PLHomeo) -> None:
    """compose and c0_distance on (f, g) equal the Fraction merge walks, and
    the slopes left on the composite equal its uncached slopes."""
    h = compose(f, g)
    ref = fraction_walk_compose(f, g)
    assert (h.breakpoints, h.values) == (ref.breakpoints, ref.values)
    assert h._slopes == uncached_slopes(h)
    assert c0_distance(f, g) == fraction_walk_c0_distance(f, g)


@st.composite
def sharing_pairs(draw) -> tuple[PLHomeo, PLHomeo]:
    """f and the map through f's breakpoints with values r(f(x)): the
    second keeps every breakpoint of f that stays a corner, so the two
    maps share breakpoints."""
    f, r = draw(walk_maps()), draw(walk_maps())
    return f, PLHomeo(f.breakpoints, tuple(evaluate(r, y) for y in f.values))


class TestIntegerWalk:
    """compose and c0_distance against the Fraction merge walks."""

    @algebra_settings
    @given(walk_maps(), walk_maps())
    def test_random_pairs(self, f, g):
        check_walks(f, g)
        check_walks(g, f)

    @algebra_settings
    @given(walk_maps())
    def test_inverse_identity_and_self(self, f):
        for g in (invert(f), identity(), f):
            check_walks(f, g)
            check_walks(g, f)
        assert compose(f, invert(f)) == identity()

    @algebra_settings
    @given(sharing_pairs())
    def test_shared_breakpoints(self, pair):
        f, g = pair
        check_walks(f, g)
        check_walks(g, invert(f))
        check_walks(invert(g), invert(f))

    @walk_settings
    @given(st.integers(0, 2**32))
    def test_touching_maps(self, seed):
        rng = random.Random(seed)
        f, g = random_touching_map(rng, 12), random_touching_map(rng, 12)
        check_walks(f, g)
        check_walks(f, invert(g))

    @pytest.mark.parametrize("levels", [7, 8, 9, 10])
    def test_deep_conjugates(self, levels):
        f = build_ternary_map(levels)
        A = random_coordinate_change(random.Random(levels))
        inner = compose(f, invert(A))
        assert inner == fraction_walk_compose(f, invert(A))
        g = compose(A, inner)
        assert g == fraction_walk_compose(A, inner)
        check_walks(g, invert(g))
        check_walks(g, f)
        check_walks(f, g)

    def test_shared_domain_off_the_unit_interval(self):
        f = rescale(canonical_r(0, 1), (F(-3, 2), F(5, 7)))
        g = rescale(build_ternary_map(2), (F(-3, 2), F(5, 7)))
        for a, b in ((f, g), (g, f), (f, invert(g)), (g, identity(F(-3, 2), F(5, 7)))):
            check_walks(a, b)


BLOCK = plmap._BLOCK


@st.composite
def sized_maps(draw, n: int) -> PLHomeo:
    """A map of [0, 1] with exactly n breakpoints: positive integer run
    lengths, and integer slope factors that differ between neighbouring
    pieces, so that no breakpoint is pruned."""
    runs = draw(st.lists(st.integers(1, 9), min_size=n - 1, max_size=n - 1))
    factors = draw(st.lists(st.integers(1, 5), min_size=n - 1, max_size=n - 1))
    for i in range(1, n - 1):
        if factors[i] == factors[i - 1]:
            factors[i] = factors[i] % 5 + 1
    xs, ys = [0], [0]
    for run, factor in zip(runs, factors):
        xs.append(xs[-1] + run)
        ys.append(ys[-1] + run * factor)
    f = PLHomeo(tuple(F(x, xs[-1]) for x in xs), tuple(F(y, ys[-1]) for y in ys))
    assert len(f.breakpoints) == n
    return f


def check_distance(f: PLHomeo, g: PLHomeo) -> F:
    """c0_distance(f, g) after checking it, both ways round, against the
    Fraction merge walk and pointwise evaluation."""
    distance = c0_distance(f, g)
    assert distance == c0_distance(g, f) == fraction_walk_c0_distance(f, g)
    assert distance == grid_c0_distance(f, g)
    return distance


# around one and two blocks of pieces
BLOCK_SIZES = (BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1, 2 * BLOCK + 2)


class TestBlockBounds:
    """c0_distance skips the blocks whose monotone bound cannot beat the
    running maximum; it must equal the Fraction merge walk and pointwise
    evaluation whatever the blocks hold."""

    @walk_settings
    @given(st.sampled_from(BLOCK_SIZES), st.sampled_from(BLOCK_SIZES), st.data())
    def test_sizes_around_the_block(self, n, m, data):
        f, g = data.draw(sized_maps(n)), data.draw(sized_maps(m))
        check_distance(f, g)
        check_distance(f, invert(g))

    @walk_settings
    @given(st.sampled_from(BLOCK_SIZES), walk_maps(), st.data())
    def test_against_short_maps(self, n, g, data):
        f = data.draw(sized_maps(n))
        check_distance(f, g)
        check_distance(invert(f), g)

    def test_far_shorter_list(self):
        """The residual pair of a depth-9 conjugacy: 3071 breakpoints
        against 47."""
        f9 = build_ternary_map(9)
        A = random_coordinate_change(random.Random(11))
        g = compose(A, compose(f9, invert(A)))
        report = build_conjugacy(g, 4)
        a, b = compose(report.h, g), compose(build_ternary_map(3), report.h)
        assert (len(a.breakpoints), len(b.breakpoints)) == (3071, 47)
        assert check_distance(a, b) == report.residual > 0

    @walk_settings
    @given(st.sampled_from(BLOCK_SIZES), st.data())
    def test_identical_maps(self, n, data):
        f = data.draw(sized_maps(n))
        assert c0_distance(f, f) == c0_distance(f, PLHomeo(f.breakpoints, f.values)) == 0

    @pytest.mark.parametrize("levels", [6, 9])
    def test_identical_deep_maps(self, levels):
        f = build_ternary_map(levels)
        A = random_coordinate_change(random.Random(levels))
        g = compose(A, compose(f, invert(A)))
        for h in (f, g):
            assert c0_distance(h, h) == c0_distance(h, PLHomeo(h.breakpoints, h.values)) == 0

    @pytest.mark.parametrize("levels", [5, 7])
    def test_explosion_moves_by_half_its_radius(self, levels):
        """An explosion of radius delta moves one window, so every block
        but one or two is skipped; the generator moves its midpoint by
        delta/2."""
        f = build_ternary_map(levels)
        stretches = [(u, v) for u, v in fixed_set(f) if u < v]
        for u, v in (stretches[0], stretches[len(stretches) // 2], stretches[-1]):
            delta = (v - u) / 5
            for orient in Orientation:
                g = explode_fixed_point(f, (u + v) / 2, delta, orient)
                assert check_distance(f, g) == delta / 2

    @pytest.mark.parametrize("eps", [F(1, 10), F(1, 200)])
    def test_densified_map(self, eps):
        f = random_fat_map(random.Random(3), max_plants=3)
        g = densify_chain_property(f, eps)
        assert len(g.breakpoints) > 2 * BLOCK
        assert 0 < check_distance(f, g) <= eps / 32

    @walk_settings
    @given(st.sampled_from((2 * BLOCK + 1, 3 * BLOCK + 1)), st.booleans(), st.data())
    def test_block_ends_on_shared_breakpoints(self, n, same_values, data):
        """g's breakpoints are f's block ends and one point inside each
        block; at the ends g takes f's values, or evenly spaced ones."""
        f = data.draw(sized_maps(n))
        xs, ys = [f.lo], [f.lo]
        ends = range(0, n, BLOCK)
        for e0, e1 in zip(ends, ends[1:]):
            (x0, x1), (y0, y1) = f.breakpoints[e0 : e1 + 1 : BLOCK], f.values[e0 : e1 + 1 : BLOCK]
            xs += [x0 + (x1 - x0) * F(data.draw(st.integers(1, 7)), 8), x1]
            ys += [y0 + (y1 - y0) * F(data.draw(st.integers(1, 7)), 8), y1]
        if not same_values:
            ys = [F(k, len(xs) - 1) for k in range(len(xs))]
        g = PLHomeo(tuple(xs), tuple(ys))
        check_distance(f, g)
        check_distance(invert(f), invert(g))

    def test_walks_under_a_third_of_the_merged_points(self, monkeypatch):
        """On TestFractionBudget's conjugate, the blocks that c0_distance(g,
        f9) walks hold fewer than a third of the merged points; a walk of
        every block would hold them all."""
        f9 = build_ternary_map(9)
        A = random_coordinate_change(random.Random(11))
        g = compose(A, compose(f9, invert(A)))
        # both lists are in lowest terms, so equal pairs are equal points
        merged = sum(
            len(set(zip(*a._ints[:2])) | set(zip(*b._ints[:2])))
            for a, b in ((g, f9), (invert(g), invert(f9)))
        )
        taken = 0
        walk = plmap._walk_block

        def counting(a, b, i, j, end, jend, *top):
            # the merged points strictly inside the walked (a[i − 1], a[end])
            nonlocal taken
            inside = set(zip(a[0][i:end], a[1][i:end])) | set(zip(b[0][j:jend], b[1][j:jend]))
            taken += len(inside - {(a[0][end], a[1][end])})
            return walk(a, b, i, j, end, jend, *top)

        monkeypatch.setattr(plmap, "_walk_block", counting)
        distance = c0_distance(g, f9)
        monkeypatch.undo()
        assert distance == fraction_walk_c0_distance(g, f9)
        assert merged > 12000
        assert 0 < taken < merged / 3


def fraction_ints(f: PLHomeo) -> tuple[tuple[int, ...], ...]:
    """f's integer form read from its Fractions."""
    slopes = uncached_slopes(f)
    return tuple(
        tuple(getattr(q, part) for q in qs)
        for qs in (f.breakpoints, f.values, slopes)
        for part in ("numerator", "denominator")
    )


def check_ints(*maps: PLHomeo) -> None:
    """Each map, its inverse and the inverse of that carry the integer
    form of their Fractions; the inverses get it from the swap."""
    for f in maps:
        assert f._ints == fraction_ints(f)
        for g in (invert(f), invert(invert(f))):
            assert "_ints" in g.__dict__
            assert g._ints == fraction_ints(g)


# the run lengths of the walk tests are multiples and neighbours of this
LINEAR = 8


def check_compose(f: PLHomeo, g: PLHomeo) -> PLHomeo:
    """compose(f, g) after checking it against the Fraction merge walk and
    pointwise evaluation, with the slopes it leaves on the result."""
    h = compose(f, g)
    ref = fraction_walk_compose(f, g)
    assert (h.breakpoints, h.values) == (ref.breakpoints, ref.values)
    assert h == grid_compose(f, g)
    assert h._slopes == uncached_slopes(h)
    return h


def walk_runs(f: PLHomeo, g: PLHomeo) -> list[tuple[str, int]]:
    """The runs of compose(f, g)'s walk over g's values and f's breakpoints
    strictly inside the domain, in Fractions: ("g", n) for n consecutive
    values of g inside one piece of f, ("f", n) for n consecutive
    breakpoints of f inside one piece of g, ("=", 1) for a point in both."""
    us, ts = set(g.values[1:-1]), set(f.breakpoints[1:-1])
    runs: list[list] = []
    for u in sorted(us | ts):
        kind = "=" if u in us and u in ts else "g" if u in us else "f"
        if runs and runs[-1][0] == kind != "=":
            runs[-1][1] += 1
        else:
            runs.append([kind, 1])
    return [(kind, n) for kind, n in runs]


def slope_map(rises: list[F], slopes: list[F]) -> PLHomeo:
    """The map of [0, 1] whose value rises by rises[i] on its piece i, of
    slope proportional to slopes[i]; the rises sum to 1."""
    xs, ys = [F(0)], [F(0)]
    for rise, slope in zip(rises, slopes):
        xs.append(xs[-1] + rise / slope)
        ys.append(ys[-1] + rise)
    return PLHomeo(tuple(x / xs[-1] for x in xs), tuple(ys))


def lattice_map(rng: random.Random, n: int, den: int) -> PLHomeo:
    """A map of [0, 1] through n random points on the lattice of step 1/den."""
    xs = sorted(rng.sample(range(1, den), n - 2))
    ys = sorted(rng.sample(range(1, den), n - 2))
    return PLHomeo(tuple(F(x, den) for x in [0, *xs, den]),
                   tuple(F(y, den) for y in [0, *ys, den]))


# across the gallop's first doublings: its probes end runs of 1, 3, 7 and
# 15 points, and its bisections the lengths between
RUN_SIZES = (1, 2, LINEAR - 1, LINEAR, LINEAR + 1, LINEAR + 2, 2 * LINEAR + 1, 5 * LINEAR)


@st.composite
def run_pairs(draw) -> tuple[PLHomeo, PLHomeo, list[int]]:
    """(f, g, sizes): f has the breakpoints k/m and distinct neighbouring
    slopes, and g has sizes[k]
    values spread inside f's piece k, then, unless it is the last, one at
    f's breakpoint; g's slopes alternate 1 and 2, so g keeps every point."""
    m = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.sampled_from(RUN_SIZES), min_size=m, max_size=m))
    f_slopes = draw(st.lists(st.integers(1, 5), min_size=m, max_size=m))
    for k in range(1, m):
        if f_slopes[k] == f_slopes[k - 1]:
            f_slopes[k] = f_slopes[k] % 5 + 1
    f = invert(slope_map([F(1, m)] * m, [F(s) for s in f_slopes]))
    assert f.breakpoints == tuple(F(k, m) for k in range(m + 1))
    us = [F(0)]
    for k, n in enumerate(sizes):
        us += [F(k, m) + F(i, m * (n + 1)) for i in range(1, n + 2)]
    g = slope_map([b - a for a, b in zip(us, us[1:])], [F(1 + i % 2) for i in range(len(us) - 1)])
    assert len(g.breakpoints) == len(us)
    return f, g, sizes


def coincident_pair(left: int, right: int) -> tuple[PLHomeo, PLHomeo]:
    """f with slopes 1/2 then 3/2 about its breakpoint 1/2, and g with
    2·LINEAR values inside (0, 1/2) before its value 1/2, where g's slope
    is ``left`` on the left and ``right`` on the right."""
    f = PLHomeo((F(0), F(1, 2), F(1)), (F(0), F(1, 4), F(1)))
    n = 2 * LINEAR + 1
    rises = [F(1, 2 * n)] * n + [F(1, 4), F(1, 4)]
    slopes = [F(1 + i % 2) for i in range(n - 1)] + [F(left), F(right), F(4)]
    return f, slope_map(rises, slopes)


class TestComposeRuns:
    """compose walks runs of g's values inside one piece of f, and of f's
    breakpoints inside one piece of g, and prunes only coincident points;
    on every run shape it equals the Fraction merge walk and pointwise
    evaluation, and (f∘g)⁻¹ = g⁻¹∘f⁻¹ walks the same runs with the roles
    swapped.  c0_distance, whose blocks are walked by the same runs, equals
    its oracles on the run shapes."""

    @pytest.mark.parametrize("levels", [7, 9])
    def test_long_runs_of_either_list(self, levels):
        f = build_ternary_map(levels)
        A = random_coordinate_change(random.Random(levels))
        # f's breakpoints run inside A⁻¹'s pieces, then inner's values inside A's
        inner = check_compose(f, invert(A))
        assert max(n for kind, n in walk_runs(f, invert(A)) if kind == "f") > 100
        g = check_compose(A, inner)
        assert max(n for kind, n in walk_runs(A, inner) if kind == "g") > 100
        assert check_compose(invert(inner), invert(A)) == invert(g)

    def test_one_and_two_point_runs(self):
        rng = random.Random(35)
        f, g = lattice_map(rng, 3000, 10**6 + 3), lattice_map(rng, 3000, 2**20)
        for a, b in ((f, g), (g, f)):
            runs = walk_runs(a, b)
            for kind in "fg":
                assert (kind, 1) in runs and (kind, 2) in runs
            check_compose(a, b)

    @pytest.mark.parametrize("left, right, pruned", [(3, 1, True), (5, 1, False)])
    def test_run_ending_on_a_coincident_point(self, left, right, pruned):
        # left of 1/2 the composite's slope is (1/2)·left, right of it (3/2)·right
        f, g = coincident_pair(left, right)
        assert walk_runs(f, g)[:2] == [("g", 2 * LINEAR), ("=", 1)]
        h = check_compose(f, g)
        x = g.breakpoints[2 * LINEAR + 1]
        assert (x not in h.breakpoints) == pruned
        assert walk_runs(invert(g), invert(f))[:2] == [("f", 2 * LINEAR), ("=", 1)]
        assert check_compose(invert(g), invert(f)) == invert(h)

    @pytest.mark.parametrize("levels", [2, 7])
    def test_runs_reaching_the_domain_end(self, levels):
        short = PLHomeo((F(0), F(1, 100), F(1)), (F(0), F(1, 50), F(1)))
        long = build_ternary_map(levels)
        # every value of long past 1/50 lies in short's last piece
        assert walk_runs(short, long)[-1][0] == "g"
        assert walk_runs(long, invert(short))[-1][0] == "f"
        for f, g in ((short, long), (long, short), (long, invert(short)), (invert(long), short)):
            check_compose(f, g)

    @walk_settings
    @given(run_pairs())
    def test_runs_around_the_linear_steps(self, pair):
        f, g, sizes = pair
        runs = walk_runs(f, g)
        assert [n for kind, n in runs if kind == "g"] == sizes
        assert all(kind == "g" or kind == "=" for kind, _ in runs)
        h = check_compose(f, g)
        assert check_compose(invert(g), invert(f)) == invert(h)
        check_compose(g, f)
        # c0_distance walks the same runs, a run of g clamped at a block end
        check_distance(f, g)
        check_distance(invert(f), invert(g))

    @pytest.mark.parametrize("levels", [0, 5])
    def test_two_hundred_digit_denominators(self, levels):
        tiny = F(1, 10**200)
        e = explode_fixed_point(identity(), F(1, 2), F(1, 2) - tiny, Orientation.R)
        assert e.breakpoints[1] == tiny
        f = build_ternary_map(levels)
        for a, b in ((f, e), (e, f), (e, invert(e)), (invert(f), e), (e, e)):
            check_compose(a, b)

    @algebra_settings
    @given(walk_maps(), walk_maps())
    def test_random_pairs_both_ways(self, f, g):
        check_compose(f, g)
        check_compose(g, f)
        check_compose(invert(g), f)


def off_unit_maps() -> list[PLHomeo]:
    """Maps on (−3/2, 5/7), where breakpoints have negative numerators."""
    dom = (F(-3, 2), F(5, 7))
    rng = random.Random(121)
    maps = [canonical_r(*dom), canonical_l(*dom), rescale(build_ternary_map(3), dom)]
    maps += [rescale(random_touching_map(rng, 12), dom) for _ in range(4)]
    maps += [rescale(random_fat_map(rng, 5), dom) for _ in range(4)]
    return maps + [compose(f, g) for f in maps[:4] for g in maps[4:]]


def ternary_conjugates(levels: int) -> list[PLHomeo]:
    """The depth-``levels`` ternary map, A⁻¹, f∘A⁻¹, A∘f∘A⁻¹ and the
    round trip through its inverse."""
    f = build_ternary_map(levels)
    A = random_coordinate_change(random.Random(levels))
    inner = compose(f, invert(A))
    g = compose(A, inner)
    return [f, invert(A), inner, g, compose(g, invert(g))]


class TestIntegerForm:
    """The integer form of every map equals the pairs read from its
    Fractions, whoever filled it."""

    @algebra_settings
    @given(walk_maps())
    def test_constructor_fills_it(self, f):
        g = PLHomeo(f.breakpoints, f.values)
        assert "_ints" in g.__dict__
        check_ints(g)

    @algebra_settings
    @given(walk_maps(), walk_maps())
    def test_compose_fills_its_result(self, f, g):
        for h in (compose(f, g), compose(g, invert(f)), compose(f, invert(f))):
            assert "_ints" in h.__dict__
            check_ints(h)

    @algebra_settings
    @given(sharing_pairs())
    def test_shared_breakpoints(self, pair):
        f, g = pair
        check_ints(f, g, compose(f, g), compose(g, invert(f)), compose(invert(g), invert(f)))

    @walk_settings
    @given(st.integers(0, 2**32))
    def test_touching_maps(self, seed):
        rng = random.Random(seed)
        f, g = random_touching_map(rng, 12), random_touching_map(rng, 12)
        check_ints(f, g, compose(f, g), compose(f, invert(g)))

    @pytest.mark.parametrize("levels", [7, 8, 9, 10])
    def test_deep_conjugates(self, levels):
        check_ints(*ternary_conjugates(levels))

    def test_negative_numerators(self):
        maps = off_unit_maps()
        assert any(x.numerator < 0 for f in maps for x in f.breakpoints[1:-1])
        check_ints(*maps)


def fraction_kernel(f: PLHomeo) -> tuple:
    """f's evaluation kernel computed in Fractions: (d, keys, pieces) with
    d the lcm of the breakpoint denominators, keys the breakpoints times d,
    and on each piece f(x) = s·x + c written as (α, β, γ) over γ, the lcm
    of the denominators of s and c."""
    xs, ys = f.breakpoints, f.values
    d = math.lcm(*(x.denominator for x in xs))
    pieces = []
    for x, y, s in zip(xs, ys, uncached_slopes(f)):
        c = y - s * x
        g = math.lcm(s.denominator, c.denominator)
        pieces.append((s.numerator * (g // s.denominator), c.numerator * (g // c.denominator), g))
    return d, tuple(int(x * d) for x in xs), tuple(pieces)


class TestLazyTuples:
    """A composite holds only its integer form; its Fraction tuples are
    built when first read and then equal the Fraction merge walk's."""

    def test_compose_builds_tuples_on_read(self):
        f, g = build_ternary_map(3), random_coordinate_change(random.Random(131))
        h = compose(f, invert(g))
        assert not {"breakpoints", "values", "_slopes"} & h.__dict__.keys()
        xs = h.breakpoints
        assert "breakpoints" in h.__dict__ and "values" not in h.__dict__
        assert h.breakpoints is xs
        # the inverse wraps the swapped integer form and builds its own tuples
        inv = invert(h)
        assert not {"breakpoints", "values"} & inv.__dict__.keys()
        assert inv.values == xs

    @algebra_settings
    @given(walk_maps(), walk_maps())
    def test_tuples_equal_fraction_walk(self, f, g):
        for h, ref in ((compose(f, g), fraction_walk_compose(f, g)),
                       (compose(g, invert(f)), fraction_walk_compose(g, invert(f)))):
            assert (h.breakpoints, h.values) == (ref.breakpoints, ref.values)
            assert (h.lo, h.hi) == h.domain == (ref.breakpoints[0], ref.breakpoints[-1])

    @pytest.mark.parametrize("levels", [7, 9])
    def test_deep_tuples_equal_fraction_walk(self, levels):
        f = build_ternary_map(levels)
        A = random_coordinate_change(random.Random(levels))
        inner = compose(f, invert(A))
        g = compose(A, inner)
        for h, ref in ((inner, fraction_walk_compose(f, invert(A))),
                       (g, fraction_walk_compose(A, inner))):
            assert (h.breakpoints, h.values) == (ref.breakpoints, ref.values)

    @algebra_settings
    @given(walk_maps(), walk_maps())
    def test_composite_equals_constructed(self, f, g):
        h = compose(f, g)
        built = PLHomeo(h.breakpoints, h.values)
        fresh = compose(f, g)
        assert fresh == built and built == fresh
        assert hash(fresh) == hash(built)
        assert len({fresh, built, h}) == 1
        other = compose(g, f)
        assert (fresh == other) == ((h.breakpoints, h.values) == (other.breakpoints, other.values))

    @algebra_settings
    @given(walk_maps(), walk_maps(), st.sampled_from([(F(0), F(1)), (F(-3, 2), F(5, 7))]))
    def test_to_json_writes_the_form(self, f, g, dom):
        # a composite is written without building its tuples, as the tuples
        # would be written, also on a domain whose ends have denominators
        h = compose(rescale(f, dom), rescale(g, dom))
        obj = h.to_json()
        assert not {"breakpoints", "values"} & h.__dict__.keys()
        assert obj == {
            "domain": [rational_to_json(h.lo), rational_to_json(h.hi)],
            "breakpoints": [rational_to_json(x) for x in h.breakpoints],
            "values": [rational_to_json(y) for y in h.values],
        }
        assert PLHomeo.from_json(obj) == h

    def test_equal_exactly_when_both_tuples_are(self):
        xs = (F(0), F(1, 2), F(1))
        maps = [PLHomeo(xs, (F(0), y, F(1))) for y in (F(1, 4), F(3, 4), F(3, 8))]
        maps += [PLHomeo((F(0), x, F(1)), (F(0), F(1, 4), F(1))) for x in (F(1, 3), F(3, 4))]
        maps += [compose(m, identity()) for m in maps]
        for f in maps:
            for g in maps:
                same = (f.breakpoints, f.values) == (g.breakpoints, g.values)
                assert (f == g) is same and (f != g) is not same
        assert maps[0] != (maps[0].breakpoints, maps[0].values)

    @algebra_settings
    @given(walk_maps(), walk_maps())
    def test_kernel_is_the_same_from_either_path(self, f, g):
        h = compose(f, g)
        built = PLHomeo(h.breakpoints, h.values)
        assert compose(f, g)._kernel == built._kernel == fraction_kernel(h)
        assert invert(compose(f, g))._kernel == invert(built)._kernel == fraction_kernel(invert(h))

    def test_repr_reads_back(self):
        h = compose(canonical_r(0, 1), canonical_l(0, 1))
        assert eval(repr(h), {"PLHomeo": PLHomeo, "Fraction": F}) == h

    def test_attributes_cannot_be_set_or_deleted(self):
        f = canonical_r(0, 1)
        h = compose(f, f)
        for m in (f, h, invert(h)):
            for name in ("breakpoints", "values", "domain", "_ints", "_kernel", "other"):
                with pytest.raises(AttributeError, match=f"cannot assign a int to '{name}'"):
                    setattr(m, name, 0)
                with pytest.raises(AttributeError, match=f"cannot delete '{name}'"):
                    delattr(m, name)
        assert f == canonical_r(0, 1) and h == compose(f, f)


def check_fixed_set_walk(*maps: PLHomeo) -> None:
    """The fixed-set walk on each map and on its inverse equals the
    merged-zero-set and midpoint oracles."""
    for f in maps:
        for g in (f, invert(f)):
            assert fixed_set(g) == merged_fixed_set(g)
            assert wandering_intervals(g) == midpoint_wandering_intervals(g)


def check_unchecked_intervals(*maps: PLHomeo) -> None:
    """The walk builds its intervals without the constructor's check; on
    each map and its inverse they must equal, field for field and in hash,
    the midpoint oracle's, which go through the checked constructor, with
    a < b, and refuse assignment as those do."""
    for f in maps:
        for g in (f, invert(f)):
            ivs, checked = wandering_intervals(g), midpoint_wandering_intervals(g)
            assert len(ivs) == len(checked)
            for iv, ref in zip(ivs, checked):
                assert type(iv) is OrientedInterval and iv.a < iv.b
                assert vars(iv) == vars(ref) and hash(iv) == hash(ref)
                with pytest.raises(AttributeError):
                    iv.a = ref.a


class TestUncheckedWalkIntervals:
    @pytest.mark.parametrize("levels", range(10))
    def test_ternary_maps(self, levels):
        check_unchecked_intervals(build_ternary_map(levels))

    @pytest.mark.parametrize("levels", [3, 7, 9])
    def test_conjugated_maps(self, levels):
        check_unchecked_intervals(*ternary_conjugates(levels))

    @walk_settings
    @given(walk_maps())
    def test_random_maps(self, f):
        check_unchecked_intervals(f)


class TestIntegerFixedSetWalk:
    """The fixed-set walk on the integer form against the Fraction oracles."""

    @algebra_settings
    @given(sharing_pairs())
    def test_shared_breakpoints(self, pair):
        f, g = pair
        check_fixed_set_walk(f, g, compose(f, g), compose(g, invert(f)))

    def test_touching_maps(self):
        rng = random.Random(122)
        maps = [random_touching_map(rng, 12) for _ in range(60)]
        touching = sum(
            any(u.b == v.a for u, v in zip(ivs, ivs[1:]))
            for ivs in map(wandering_intervals, maps)
        )
        assert touching >= 20
        check_fixed_set_walk(*maps, *(compose(f, g) for f, g in zip(maps, maps[1:])))

    @pytest.mark.parametrize("levels", [7, 8, 9, 10])
    def test_deep_conjugates(self, levels):
        check_fixed_set_walk(*ternary_conjugates(levels))

    def test_negative_numerators(self):
        check_fixed_set_walk(*off_unit_maps())

    def test_isolated_touching_fixed_points(self):
        R, L = Orientation.R, Orientation.L
        half = F(1, 2)
        for o1, o2 in ((R, R), (R, L), (L, R), (L, L)):
            # generators on [0, 1/2] and [1/2, 1], touching at 1/2
            x1, y1 = plmap._generator_points(F(0), half, o1)
            x2, y2 = plmap._generator_points(half, F(1), o2)
            f = PLHomeo(x1 + x2[1:], y1 + y2[1:])
            assert fixed_set(f) == [(0, 0), (half, half), (1, 1)]
            assert [(iv.a, iv.b, iv.orientation) for iv in wandering_intervals(f)] == [
                (0, half, o1), (half, 1, o2)]
            check_fixed_set_walk(f, rescale(f, (F(-3, 2), F(5, 7))))

    def test_interior_sign_changes(self):
        # d = f(x) − x is 1/4 at 1/4 and −1/8 at 3/4: the piece between,
        # of slope 1/4, crosses the diagonal at (1/4·1/4 − 1/2)/(1/4 − 1) = 7/12
        f = PLHomeo((F(0), F(1, 4), F(3, 4), F(1)), (F(0), F(1, 2), F(5, 8), F(1)))
        assert fixed_set(f) == [(0, 0), (F(7, 12), F(7, 12)), (1, 1)]
        assert [(iv.a, iv.b, iv.orientation) for iv in wandering_intervals(f)] == [
            (0, F(7, 12), Orientation.R), (F(7, 12), 1, Orientation.L)]
        # upward across the diagonal on a piece of slope 5/2, downward on
        # one of slope 1/4
        g = PLHomeo(
            (F(0), F(1, 5), F(2, 5), F(3, 5), F(4, 5), F(1)),
            (F(0), F(1, 10), F(3, 5), F(13, 20), F(7, 10), F(1)),
        )
        assert [(iv.a, iv.b, iv.orientation) for iv in wandering_intervals(g)] == [
            (0, F(4, 15), Orientation.L),
            (F(4, 15), F(2, 3), Orientation.R),
            (F(2, 3), 1, Orientation.L),
        ]
        dom = (F(-3, 2), F(5, 7))
        check_fixed_set_walk(f, g, rescale(f, dom), rescale(g, dom))


def seven_digit_primes(count: int) -> list[int]:
    """The first ``count`` primes above 10^6, by a sieve of that segment."""
    lo, width = 10**6, 20 * count
    sieve = bytearray([1]) * width
    for p in range(2, math.isqrt(lo + width) + 1):
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            sieve[-lo % p::p] = bytes(len(range(-lo % p, width, p)))
    primes = [lo + k for k in range(width) if sieve[k]]
    assert len(primes) >= count
    return primes[:count]


def prime_denominator_map(xp: list[int], yp: list[int], shift: int) -> PLHomeo:
    """A map on [0, 1] whose interior breakpoints and values have the
    distinct prime denominators ``xp`` and ``yp``: x_i just below i/n and
    y_i just below (i + e_i/3)/n, with e_i in {−1, 0, 1} changing every
    few points, so f − id changes sign often."""
    n = len(xp) + 1
    xs = [F(p * i // n, p) for i, p in enumerate(xp, 1)]
    ys = [F(q * (3 * i + (i // (7 + shift) + shift) % 3 - 1) // (3 * n), q) for i, q in enumerate(yp, 1)]
    assert all(x.denominator == p for x, p in zip(xs, xp))
    assert all(y.denominator == q for y, q in zip(ys, yp))
    return PLHomeo((F(0), *xs, F(1)), (F(0), *ys, F(1)))


class TestNoGlobalScale:
    """On maps whose 2000 breakpoints and values have distinct 7-digit
    prime denominators, so that one common scale of either list would have
    about 12000 digits, the walks equal the Fraction oracles and build no
    evaluation kernel."""

    def test_prime_denominator_maps(self):
        primes = seven_digit_primes(4 * 1998)
        f = prime_denominator_map(primes[0:1998], primes[1998:3996], 0)
        g = prime_denominator_map(primes[3996:5994], primes[5994:7992], 1)
        assert len(f.breakpoints) == len(g.breakpoints) == 2000
        h = compose(f, g)
        ref = fraction_walk_compose(f, g)
        assert (h.breakpoints, h.values) == (ref.breakpoints, ref.values)
        assert h._ints == fraction_ints(h)
        assert c0_distance(f, g) == fraction_walk_c0_distance(f, g)
        for m in (f, g):
            ivs = wandering_intervals(m)
            assert len(ivs) > 100
            assert ivs == midpoint_wandering_intervals(m)
        assert "_kernel" not in f.__dict__ and "_kernel" not in g.__dict__


class TestSlopeCaches:
    """The slopes the constructor, compose and invert leave on a map equal
    its uncached slopes."""

    @algebra_settings
    @given(walk_maps())
    def test_constructor_and_inverse(self, f):
        g = PLHomeo(f.breakpoints, f.values)
        assert g._slopes == uncached_slopes(g)
        inv = invert(g)
        assert inv._slopes == uncached_slopes(inv)

    @algebra_settings
    @given(walk_maps(), st.integers(0, 2**32))
    def test_constructor_prunes_like_collinearity(self, f, seed):
        """Points inserted on the pieces of f are pruned as the
        three-point collinearity test prunes them."""
        rng = random.Random(seed)
        xs, ys = list(f.breakpoints), list(f.values)
        for _ in range(rng.randrange(1, 6)):
            k = rng.randrange(len(xs) - 1)
            t = F(rng.randrange(1, 8), 8)
            xs.insert(k + 1, xs[k] + t * (xs[k + 1] - xs[k]))
            ys.insert(k + 1, ys[k] + t * (ys[k + 1] - ys[k]))
        h = PLHomeo(tuple(xs), tuple(ys))
        assert (h.breakpoints, h.values) == fraction_prune_collinear(xs, ys)
        assert (h.breakpoints, h.values) == (f.breakpoints, f.values)


class TestFractionBudget:
    """compose builds at most one Fraction per distinct output slope (it
    builds none: its result holds integers), and c0_distance one in all."""

    def setup_method(self):
        self.f9 = build_ternary_map(9)
        self.A = random_coordinate_change(random.Random(11))
        self.A_inv = invert(self.A)

    def test_compose(self):
        inner, made = count_fractions(compose, self.f9, self.A_inv)
        assert made <= len(set(inner._slopes))
        g, made = count_fractions(compose, self.A, inner)
        assert made <= len(set(g._slopes))
        assert len(g.breakpoints) > 3000
        g_inv = invert(g)
        identity_map, made = count_fractions(compose, g, g_inv)
        assert identity_map == identity() and made <= 1

    def test_c0_distance(self):
        g = compose(self.A, compose(self.f9, self.A_inv))
        distance, made = count_fractions(c0_distance, g, self.f9)
        assert distance == fraction_walk_c0_distance(g, self.f9)
        assert made == 1


def check_kernel(f: PLHomeo) -> None:
    """evaluate on f and its inverse equals the cache-free interpolation at
    every breakpoint, inside every piece and near both ends, and raises
    the domain message just outside."""
    for g in (f, invert(f)):
        lo, hi = g.domain
        xs = g.breakpoints
        points = list(xs)
        for x0, x1 in zip(xs, xs[1:]):
            points += [(x0 + x1) / 2, x0 + (x1 - x0) / 7]
        for k in range(1, 7):
            points += [lo + (hi - lo) / 10**k, hi - (hi - lo) / 10**k]
        for x in points:
            assert evaluate(g, x) == interpolate(g, x)
        for x in (lo - (hi - lo) / 10**12, hi + (hi - lo) / 10**12):
            with pytest.raises(DomainError) as exc:
                evaluate(g, x)
            assert str(exc.value) == f"{x} outside domain [{lo}, {hi}]"


class TestEvaluateKernel:
    """evaluate's integer kernel against the cache-free oracle."""

    @algebra_settings
    @given(walk_maps())
    def test_random_maps(self, f):
        check_kernel(f)

    @pytest.mark.parametrize("levels", range(11))
    def test_ternary_maps(self, levels):
        check_kernel(build_ternary_map(levels))

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_edge_enriched_maps(self, levels):
        check_kernel(edge_enriched_map(levels, F(1, 2**17)))

    def test_deep_calls_build_no_kernel(self):
        f9 = build_ternary_map(9)
        A = random_coordinate_change(random.Random(9))
        g = compose(A, compose(f9, invert(A)))
        compose(g, invert(g))
        c0_distance(g, f9)
        q = best_chain_quality(wandering_intervals(g))
        check_chain_property(g, q)
        check_chain_property(g, q + q / 1000)
        build_conjugacy(g, 4)
        for h in (f9, A, invert(A), g, invert(g)):
            assert "_kernel" not in h.__dict__


def check_composite_distance(h: PLHomeo, g: PLHomeo, f: PLHomeo) -> None:
    """The distance of h∘g from f, and the residual against t = f, without
    the composite, against the composed expressions."""
    assert plmap._composite_c0_distance(h, g, f) == c0_distance(compose(h, g), f)
    assert plmap._composite_c0_distance(h, g, compose(f, h)) == composite_residual(h, g, f)


class TestCompositeDistance:
    """_composite_c0_distance(h, g, f) takes c0_distance(h∘g, f) piece by
    piece over h, from slices of g's lists; it must equal the distance of
    the composed map whatever h's pieces cut from g and f."""

    @walk_settings
    @given(walk_maps(), walk_maps(), walk_maps())
    def test_random_maps(self, h, g, f):
        check_composite_distance(h, g, f)

    @walk_settings
    @given(st.sampled_from(BLOCK_SIZES), walk_maps(), walk_maps(), st.data())
    def test_many_pieces_of_h(self, n, g, f, data):
        """h with one to two blocks of pieces, so most pieces of h hold a
        few points of g and f or none."""
        check_composite_distance(data.draw(sized_maps(n)), g, f)

    def test_deep_maps(self):
        rng = random.Random(123)
        f9 = build_ternary_map(9)
        A = random_coordinate_change(rng)
        g = compose(A, compose(f9, invert(A)))
        for h in (A, invert(A), random_coordinate_change(rng), compose(A, A)):
            for f in (build_ternary_map(3), f9, g):
                check_composite_distance(h, g, f)
                check_composite_distance(h, invert(g), f)

    def test_values_of_g_on_breakpoints_of_h(self):
        """h breaks at some of g's values and at a point that g skips."""
        rng = random.Random(124)
        tried = 0
        for _ in range(40):
            g = random_plhomeo(rng, 6)
            inner = set(g.values[1:-1]) | {F(1, 2)}
            if len(inner) < 2:
                continue
            xs = sorted(rng.sample(sorted(inner), 2))
            ys = sorted(F(k, 64) for k in rng.sample(range(1, 64), 2))
            h = PLHomeo((F(0), *xs, F(1)), (F(0), *ys, F(1)))
            assert set(h.breakpoints[1:-1]) & set(g.values)
            for f in (g, random_plhomeo(rng, 6), identity()):
                check_composite_distance(h, g, f)
            tried += 1
        assert tried >= 20

    def test_off_unit_domain(self):
        maps = off_unit_maps()
        for h in maps[:4]:
            for g in maps[4:8]:
                check_composite_distance(h, g, maps[-1])


class TestWalkOnIntegerEnds:
    """The fixed-set walk keeps every end as a reduced integer pair and
    builds no Fraction; an interval builds a and b when they are read."""

    def test_walk_builds_no_fraction(self):
        f9 = build_ternary_map(9)
        A = random_coordinate_change(random.Random(9))
        g = compose(A, compose(f9, invert(A)))
        ivs, made = count_fractions(wandering_intervals, g)
        assert len(ivs) == 1023 and made == 0
        assert all("a" not in vars(iv) and "b" not in vars(iv) for iv in ivs)
        blocks, made = count_fractions(fixed_set, g)
        assert made == 2 * len(blocks) == 2 * (len(ivs) + 1)

    @pytest.mark.parametrize("levels", range(10))
    def test_ternary_maps_equal_oracles(self, levels):
        for f in ternary_conjugates(levels):
            for g in (f, invert(f)):
                assert fixed_set(g) == merged_fixed_set(g)
                assert wandering_intervals(g) == midpoint_wandering_intervals(g)

    @walk_settings
    @given(walk_maps())
    def test_json_and_ends_equal_checked_intervals(self, f):
        for iv in wandering_intervals(invert(f)) + wandering_intervals(f):
            json = iv.to_json()
            ref = OrientedInterval(iv.a, iv.b, iv.orientation)
            assert iv._ends == ref._ends and iv._ends[1] > 0 and iv._ends[3] > 0
            assert json == ref.to_json()
            assert json["a"] == rational_to_json(iv.a) and json["b"] == rational_to_json(iv.b)
