"""Exact algebra of PL interval homeomorphisms."""

import random
from fractions import Fraction as F

import pytest

from continua.plmap import (
    DomainError,
    Orientation,
    PLHomeo,
    c0_distance,
    canonical_l,
    canonical_r,
    compose,
    evaluate,
    fixed_set,
    identity,
    invert,
    iterate,
    max_slope,
    modulus_of_continuity,
    rescale,
    wandering_intervals,
)
from continua.cantor import build_ternary_map
from conftest import (
    grid_c0_distance,
    grid_compose,
    random_coordinate_change,
    random_fat_map,
    random_plhomeo,
    random_touching_map,
)


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

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            evaluate(identity(), F(2))


class TestComposeInvert:
    def test_inverse_law_exact(self):
        rng = random.Random(101)
        for _ in range(60):
            f = random_plhomeo(rng)
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
        with pytest.raises(DomainError):
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

    def test_metric_axioms(self):
        rng = random.Random(107)
        for _ in range(40):
            f, g, h = (random_plhomeo(rng) for _ in range(3))
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
        assert modulus_of_continuity(identity(), F(1, 10)) == F(1, 10)

    def test_canonical_slope(self):
        assert max_slope(canonical_r(0, 1)) == F(3, 2)

    def test_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            modulus_of_continuity(identity(), F(0))

    def test_lipschitz_bound(self):
        rng = random.Random(111)
        for _ in range(100):
            f = random_plhomeo(rng)
            alpha = F(rng.randrange(1, 8), 16)
            bound = modulus_of_continuity(f, alpha)
            x = F(rng.randrange(0, 33), 32)
            y = min(x + F(rng.randrange(1, 16 * int(1 / alpha) + 1), 64), F(1))
            if abs(x - y) < alpha:
                assert abs(evaluate(f, x) - evaluate(f, y)) <= bound
