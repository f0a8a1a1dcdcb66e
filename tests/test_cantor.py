"""Ternary combinatorics, chain property, conjugacies, explosions."""

import random
from fractions import Fraction as F

import pytest

from continua.cantor import (
    ChainWitness,
    _suffix_best,
    ExplosionSiteError,
    InsufficientIntervals,
    TernaryIndex,
    all_indices,
    best_chain_quality,
    build_conjugacy,
    build_ternary_map,
    chain_property_threshold,
    check_chain_property,
    densify_chain_property,
    explode_fixed_point,
    minimal_indices,
    ternary_interval,
)
from continua.plmap import (
    Orientation,
    PLHomeo,
    c0_distance,
    canonical_r,
    compose,
    evaluate,
    identity,
    invert,
    rescale,
    wandering_intervals,
)
from conftest import (
    literal_chain_quality,
    quadratic_suffix_best,
    random_coordinate_change,
    random_fat_map,
    random_touching_map,
)


class TestTernaryIndex:
    def test_level_zero(self):
        assert ternary_interval(TernaryIndex(0, 0)) == (F(1, 3), F(2, 3))

    def test_level_one_right(self):
        assert ternary_interval(TernaryIndex(1, 2)) == (F(7, 9), F(8, 9))

    def test_level_two_left(self):
        assert ternary_interval(TernaryIndex(2, 0)) == (F(1, 27), F(2, 27))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            TernaryIndex(1, 3)

    def test_orientation_by_parity(self):
        assert TernaryIndex(0, 0).orientation is Orientation.R
        assert TernaryIndex(1, 0).orientation is Orientation.L
        assert TernaryIndex(2, 4).orientation is Orientation.R

    def test_all_indices_count(self):
        for n in range(6):
            assert len(all_indices(n)) == (3 ** (n + 1) - 1) // 2

    def test_minimal_count(self):
        for n in range(6):
            assert len(minimal_indices(n)) == 2 ** (n + 1) - 1

    def test_minimality_matches_geometric_nesting(self):
        # ground truth: an index is minimal iff its open interval meets no
        # shallower index's open interval
        for idx in all_indices(4):
            a, b = idx.interval()
            nested = any(
                c < b and a < d
                for m in range(idx.n)
                for c, d in (j.interval() for j in all_indices(m) if j.n == m)
            )
            assert idx.is_minimal() == (not nested)

    def test_minimal_intervals_pairwise_disjoint(self):
        ivs = [idx.interval() for idx in minimal_indices(5)]
        ivs.sort()
        for (a, b), (c, d) in zip(ivs, ivs[1:]):
            assert b < c


class TestBuildTernaryMap:
    def test_depth_zero(self):
        ivs = wandering_intervals(build_ternary_map(0))
        assert [(iv.a, iv.b, iv.orientation) for iv in ivs] == [
            (F(1, 3), F(2, 3), Orientation.R)
        ]

    def test_depth_one(self):
        ivs = wandering_intervals(build_ternary_map(1))
        assert [(iv.a, iv.b, iv.orientation) for iv in ivs] == [
            (F(1, 9), F(2, 9), Orientation.L),
            (F(1, 3), F(2, 3), Orientation.R),
            (F(7, 9), F(8, 9), Orientation.L),
        ]

    def test_realized_interval_count(self):
        # one wandering interval per non-nested index: 2^(N+1) - 1 of them
        # (nested indices are shadowed by the shallowest covering level)
        for n in range(5):
            assert len(wandering_intervals(build_ternary_map(n))) == 2 ** (n + 1) - 1

    def test_intervals_match_minimal_family_with_parity(self):
        for n in range(5):
            got = {
                (iv.a, iv.b, iv.orientation)
                for iv in wandering_intervals(build_ternary_map(n))
            }
            want = {
                (*idx.interval(), idx.orientation) for idx in minimal_indices(n)
            }
            assert got == want

    def test_self_similarity_on_each_interval(self):
        f = build_ternary_map(3)
        rng = random.Random(11)
        for idx in minimal_indices(3):
            a, b = idx.interval()
            gen = rescale(
                canonical_r(0, 1) if idx.orientation is Orientation.R else invert(canonical_r(0, 1)),
                (a, b),
            )
            for _ in range(4):
                x = a + (b - a) * F(rng.randrange(0, 65), 64)
                assert evaluate(f, x) == evaluate(gen, x)

    def test_identity_outside_intervals(self):
        f = build_ternary_map(2)
        for x in (F(0), F(1, 27) - F(1, 100), F(2, 27) + F(1, 1000), F(1)):
            assert evaluate(f, x) == x


class TestChainProperty:
    def test_witness_at_half(self):
        w = check_chain_property(build_ternary_map(1), F(1, 2))
        assert w is not None
        assert [(iv.a, iv.b, iv.orientation) for iv in w.intervals] == [
            (F(1, 3), F(2, 3), Orientation.R),
            (F(7, 9), F(8, 9), Orientation.L),
        ]

    def test_no_witness_at_quarter(self):
        assert check_chain_property(build_ternary_map(1), F(1, 4)) is None

    def test_identity_never_satisfies(self):
        assert check_chain_property(identity(), F(1, 2)) is None

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            check_chain_property(identity(), F(0))

    def test_witness_json_round_trip(self):
        w = check_chain_property(build_ternary_map(2), F(1, 8))
        assert w is not None
        assert ChainWitness.from_json(w.to_json()) == w

    def test_witness_conditions_validated(self):
        from continua.plmap import OrientedInterval

        with pytest.raises(ValueError):
            ChainWitness((OrientedInterval(F(1, 3), F(2, 3), Orientation.L),), F(1, 2))
        with pytest.raises(ValueError):
            ChainWitness(
                (
                    OrientedInterval(F(1, 3), F(2, 3), Orientation.R),
                    OrientedInterval(F(1, 2), F(3, 4), Orientation.L),
                ),
                F(1, 2),
            )

    def test_thresholds_frozen(self):
        assert chain_property_threshold(1) == F(1, 3)
        assert chain_property_threshold(2) == F(1, 9)
        assert chain_property_threshold(3) == F(1, 27)
        assert chain_property_threshold(4) == F(1, 81)

    def test_threshold_level_bound(self):
        with pytest.raises(ValueError):
            chain_property_threshold(9)

    def test_thresholds_match_literal_enumeration(self):
        for n in (0, 1, 2, 3):
            ivs = wandering_intervals(build_ternary_map(n))
            assert chain_property_threshold(n) == literal_chain_quality(ivs)

    def test_scan_complete_against_literal_oracle(self):
        rng = random.Random(12)
        maps = [random_fat_map(rng, max_plants=5) for _ in range(60)]
        # Isolated fixed points make neighbours touch (b_i == a_{i+1}), and
        # such a pair can never be consecutive in a chain; random_fat_map
        # never yields them.
        rng = random.Random(15)
        touching = [random_touching_map(rng, max_intervals=12) for _ in range(60)]
        assert sum(
            any(p.b == q.a for p, q in zip(ivs, ivs[1:]))
            for ivs in map(wandering_intervals, touching)
        ) >= 30
        for f in maps + touching:
            ivs = wandering_intervals(f)
            truth = literal_chain_quality(ivs)
            got = best_chain_quality(ivs)
            assert got == truth
            for eps in (F(1, 16), F(1, 8), F(1, 4), F(1, 2), F(9, 10)):
                found = check_chain_property(f, eps)
                if truth is not None and truth < eps:
                    assert found is not None
                    assert found.quality() < eps
                else:
                    assert found is None

    def test_suffix_best_matches_quadratic_oracle(self):
        rng = random.Random(14)
        families = [wandering_intervals(random_fat_map(rng, max_plants=5)) for _ in range(40)]
        families += [wandering_intervals(random_touching_map(rng, 12)) for _ in range(80)]
        for n in range(7):
            A = random_coordinate_change(rng)
            g = compose(A, compose(build_ternary_map(n), invert(A)))
            families.append(wandering_intervals(g))
        for ivs in families:
            assert _suffix_best(ivs, F(1)) == quadratic_suffix_best(ivs, F(1))

    def test_unsorted_intervals_rejected(self):
        ivs = wandering_intervals(build_ternary_map(1))
        with pytest.raises(ValueError):
            best_chain_quality(ivs[::-1])

    def test_deep_thresholds(self):
        for n in range(5, 11):
            ivs = wandering_intervals(build_ternary_map(n))
            assert best_chain_quality(ivs) == F(1, 3**n)

    def test_boundary_at_depth_nine(self):
        f = build_ternary_map(9)
        q = F(1, 3**9)
        assert check_chain_property(f, q) is None
        witness = check_chain_property(f, q + q / 1000)
        assert witness is not None
        assert q <= witness.quality() < q + q / 1000

    def test_monotone_in_epsilon(self):
        rng = random.Random(13)
        for _ in range(30):
            f = random_fat_map(rng, max_plants=4)
            for eps in (F(1, 8), F(1, 4), F(1, 2)):
                if check_chain_property(f, eps) is not None:
                    assert check_chain_property(f, 2 * eps) is not None

    def test_boundary_behavior_at_threshold(self):
        for n in (1, 2, 3, 4):
            f = build_ternary_map(n)
            tau = chain_property_threshold(n)
            assert check_chain_property(f, tau) is None
            assert check_chain_property(f, tau + F(1, 10**4)) is not None

    def test_fixed_stretch_tilt_breaks_property_at_tiny_distance(self):
        # Chain feasibility is not robust under perturbations that unpin a
        # stretch of fixed points: an arbitrarily small tilt leaves a single
        # fixed point between the two neighbor intervals, they touch, and
        # the strict ordering of the chain conditions fails.  Robustness
        # statements therefore only hold for perturbations that keep fixed
        # stretches on the diagonal (see the acceptance sampler).
        from continua.plmap import canonical_generator

        xs = [F(0)]
        ys = [F(0)]
        for a, b, orient in (
            (F(1, 8), F(3, 8), Orientation.R),
            (F(5, 8), F(7, 8), Orientation.L),
        ):
            gen = canonical_generator(a, b, orient)
            for x, y in zip(gen.breakpoints, gen.values):
                if x > xs[-1]:
                    xs.append(x)
                    ys.append(y)
        xs.append(F(1))
        ys.append(F(1))
        f = PLHomeo(tuple(xs), tuple(ys))
        assert check_chain_property(f, F(1, 2)) is not None

        eta = F(1, 1000)
        tilted = list(zip(xs, ys))
        tilted = [
            (x, x + eta if x == F(3, 8) else x - eta if x == F(5, 8) else y)
            for x, y in tilted
        ]
        g = PLHomeo(tuple(x for x, _ in tilted), tuple(y for _, y in tilted))
        assert c0_distance(f, g) < F(1, 100)
        ivs = wandering_intervals(g)
        touching = any(u.b == v.a for u, v in zip(ivs, ivs[1:]))
        assert touching
        assert check_chain_property(g, F(1, 2)) is None


class TestBuildConjugacy:
    def test_template_input_depth_one(self):
        g = build_ternary_map(2)
        report = build_conjugacy(g, 1)
        assert len(report.matched) == 1
        iv, idx = report.matched[0]
        assert (iv.a, iv.b) == (F(1, 3), F(2, 3))
        assert (idx.n, idx.k) == (0, 0)
        # residual vanishes pointwise on the matched interval
        t0 = build_ternary_map(0)
        for x in (F(3, 8), F(1, 2), F(5, 8)):
            assert evaluate(report.h, evaluate(g, x)) == evaluate(t0, evaluate(report.h, x))
        # globally the unmatched depth-2 structure remains: displacement 1/36
        assert report.residual == F(1, 36)

    def test_distorted_input_round_one(self):
        A = PLHomeo((F(0), F(1, 2), F(1)), (F(0), F(1, 4), F(1)))
        g = compose(A, compose(build_ternary_map(2), invert(A)))
        report = build_conjugacy(g, 1)
        iv, idx = report.matched[0]
        assert (iv.a, iv.b) == (F(1, 6), F(1, 2))
        assert (idx.n, idx.k) == (0, 0)

    def test_identity_insufficient(self):
        with pytest.raises(InsufficientIntervals):
            build_conjugacy(identity(), 1)

    def test_matched_lists_template_isomorphic(self):
        rng = random.Random(14)
        for _ in range(10):
            A = random_coordinate_change(rng)
            g = compose(A, compose(build_ternary_map(3), invert(A)))
            report = build_conjugacy(g, 4)
            pairs = sorted(report.matched, key=lambda p: p[0].a)
            # source order must equal template spatial order, orientations equal
            template_sorted = sorted(pairs, key=lambda p: p[1].interval()[0])
            assert pairs == template_sorted
            for iv, idx in pairs:
                assert iv.orientation is idx.orientation

    def test_residual_nonincreasing_in_depth(self):
        rng = random.Random(15)
        for _ in range(6):
            A = random_coordinate_change(rng)
            g = compose(A, compose(build_ternary_map(3), invert(A)))
            residuals = [build_conjugacy(g, d).residual for d in (1, 2, 3, 4)]
            assert all(r1 >= r2 for r1, r2 in zip(residuals, residuals[1:]))
            assert residuals[0] > 0
            assert residuals[3] == 0  # coordinate changes affine across all intervals

    def test_h_is_exact_conjugacy_for_affine_inputs(self):
        A = PLHomeo((F(0), F(1, 3), F(1)), (F(0), F(1, 6), F(1)))
        g = compose(A, compose(build_ternary_map(1), invert(A)))
        report = build_conjugacy(g, 2)
        assert report.residual == 0


class TestExplosions:
    def test_identity_explosion(self):
        g = explode_fixed_point(identity(), F(1, 2), F(1, 4), Orientation.R)
        ivs = wandering_intervals(g)
        assert [(iv.a, iv.b, iv.orientation) for iv in ivs] == [
            (F(1, 4), F(3, 4), Orientation.R)
        ]
        assert c0_distance(identity(), g) == F(1, 8)

    def test_explosion_inside_fixed_block(self):
        f = build_ternary_map(1)
        g = explode_fixed_point(f, F(1, 18), F(1, 54), Orientation.L)
        new = set(wandering_intervals(g)) - set(wandering_intervals(f))
        assert len(new) == 1
        iv = new.pop()
        assert iv.orientation is Orientation.L
        assert F(0) < iv.a and iv.b < F(1, 9)

    def test_rejects_non_fixed_site(self):
        with pytest.raises(ExplosionSiteError):
            explode_fixed_point(canonical_r(0, 1), F(1, 2), F(1, 4), Orientation.R)

    def test_bit_exact_outside_window(self):
        f = build_ternary_map(1)
        g = explode_fixed_point(f, F(1, 18), F(1, 54), Orientation.L)
        lo, hi = F(1, 18) - F(1, 54), F(1, 18) + F(1, 54)
        assert [x for x in f.breakpoints if not lo <= x <= hi] == [
            x for x in g.breakpoints if not lo <= x <= hi
        ]
        for x in (F(0), F(1, 54), hi, F(1, 9), F(1, 2), F(4, 5), F(1)):
            assert evaluate(f, x) == evaluate(g, x)


class TestDensify:
    def test_identity_densified(self):
        out = densify_chain_property(identity(), F(1, 3))
        assert check_chain_property(out, F(1, 3)) is not None
        assert c0_distance(identity(), out) < F(1, 3)

    def test_already_satisfying_unchanged(self):
        f = build_ternary_map(2)
        assert densify_chain_property(f, F(1, 9) + F(1, 100)) is f

    def test_random_inputs_densify(self):
        rng = random.Random(16)
        for _ in range(50):
            f = random_fat_map(rng)
            eps = (F(1, 4), F(1, 8), F(1, 16))[rng.randrange(3)]
            out = densify_chain_property(f, eps)
            assert check_chain_property(out, eps) is not None
            assert c0_distance(f, out) < eps

    def test_blocked_input_raises(self):
        # two fat same-oriented intervals meeting at an isolated fixed point
        # leave no planting room between them
        f = PLHomeo(
            (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)),
            (F(0), F(3, 8), F(1, 2), F(7, 8), F(1)),
        )
        with pytest.raises(ValueError):
            densify_chain_property(f, F(1, 8))
