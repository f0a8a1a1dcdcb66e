"""Ternary combinatorics, chain property, conjugacies, explosions."""

import operator
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from continua import cantor
from continua.cantor import (
    ChainWitness,
    ConjugacyReport,
    ExplosionSiteError,
    InsufficientIntervals,
    TernaryIndex,
    _chain_table,
    best_chain_quality,
    build_conjugacy,
    build_ternary_map,
    chain_property_threshold,
    check_chain_property,
    densify_chain_property,
    explode_fixed_point,
    minimal_indices,
)
from continua.plmap import (
    DomainError,
    Orientation,
    PLHomeo,
    c0_distance,
    canonical_r,
    compose,
    evaluate,
    fixed_set,
    identity,
    invert,
    wandering_intervals,
)
from conftest import (
    all_indices,
    appended_ternary_map,
    composite_residual,
    fraction_suffix_best,
    interpolated_densify,
    interpolated_explosion,
    literal_chain_quality,
    quadratic_suffix_best,
    random_coordinate_change,
    random_fat_map,
    random_plhomeo,
    random_touching_map,
    rescale,
    template_lookup_conjugacy,
    two_loop_chain_property,
)


class TestTernaryIndex:
    def test_level_zero(self):
        assert TernaryIndex(0, 0).interval() == (F(1, 3), F(2, 3))

    def test_level_one_right(self):
        assert TernaryIndex(1, 2).interval() == (F(7, 9), F(8, 9))

    def test_level_two_left(self):
        assert TernaryIndex(2, 0).interval() == (F(1, 27), F(2, 27))

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
        minimal = set(minimal_indices(4))
        for idx in all_indices(4):
            a, b = idx.interval()
            nested = any(
                c < b and a < d
                for m in range(idx.n)
                for c, d in (j.interval() for j in all_indices(m) if j.n == m)
            )
            assert (idx in minimal) == (not nested)

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

    def test_threshold_at_depth_ten(self):
        assert chain_property_threshold(10) == F(1, 3**10)

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
        maps = [random_fat_map(rng, max_plants=5) for _ in range(40)]
        maps += [random_touching_map(rng, 12) for _ in range(80)]
        for n in range(7):
            A = random_coordinate_change(rng)
            maps.append(compose(A, compose(build_ternary_map(n), invert(A))))
        # and the maps of TestOneScanAgainstTwoLoops
        rng = random.Random(16)
        for make in (random_plhomeo, random_fat_map, random_touching_map):
            maps += [make(rng) for _ in range(20)]
        maps += [f for domain in DOMAINS for f in canonical_maps(domain)]
        maps += [build_ternary_map(n) for n in range(11)]
        maps += [ternary_conjugate(n) for n in (7, 8, 9, 10)]
        for f in maps:
            lo, hi = f.domain
            ivs = wandering_intervals(f)
            d, *_, fwd = _chain_table(ivs, lo.as_integer_ratio(), hi.as_integer_ratio())
            table = [F(x, d) for x in fwd]
            assert table == fraction_suffix_best(ivs, hi)
            # the O(n^2) oracle stops at depth 8: 511 intervals
            if len(ivs) < 1000:
                assert table == quadratic_suffix_best(ivs, hi)
        for f in canonical_maps(DOMAINS[1]):
            ivs = wandering_intervals(f)
            assert best_chain_quality(ivs, *f.domain) == literal_chain_quality(ivs, *f.domain)

    def test_optimum_off_the_unit_interval(self):
        # on (−3/2, 5/7) the table's lo key is negative, and a wide leading
        # fixed stretch can set the optimum
        rng = random.Random(17)
        maps = [rescale(random_fat_map(rng, max_plants=4), DOMAINS[1]) for _ in range(40)]
        maps += [rescale(random_touching_map(rng, 8), DOMAINS[1]) for _ in range(20)]
        for f in maps:
            ivs = wandering_intervals(f)
            assert best_chain_quality(ivs, *f.domain) == literal_chain_quality(ivs, *f.domain)

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

    def test_scan_subtracts_no_fraction_per_interval(self, monkeypatch):
        f = build_ternary_map(9)
        q = F(1, 3**9)
        eps = q + q / 1000
        ivs = wandering_intervals(f)  # cached on f: its walk is not counted
        count = 0
        sub = F.__sub__

        def counted(x, y):
            nonlocal count
            count += 1
            return sub(x, y)

        monkeypatch.setattr(F, "__sub__", counted)
        witness = check_chain_property(f, eps)
        monkeypatch.undo()
        # the final quality check alone: two margins and the gaps
        assert len(witness.intervals) == 682
        assert count <= len(witness.intervals) + 1
        d, start, top, a, b, _, fwd = _chain_table(ivs, *(x.as_integer_ratio() for x in f.domain))
        assert all(type(x) is int for x in (d, start, top, *a, *b, *fwd))

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


DOMAINS = [(F(0), F(1)), (F(-3, 2), F(5, 7))]


def canonical_maps(domain: tuple[F, F]) -> tuple[PLHomeo, ...]:
    return (
        canonical_r(*domain),
        invert(canonical_r(*domain)),
        rescale(build_ternary_map(3), domain),
    )


def ternary_conjugate(levels: int) -> PLHomeo:
    A = random_coordinate_change(random.Random(levels))
    return compose(A, compose(build_ternary_map(levels), invert(A)))


def oracle_epsilons(f: PLHomeo) -> list[F]:
    """A dyadic grid, and the exact threshold q with q + q/1000 and 2q."""
    eps = [F(1, 2**k) for k in range(1, 12)]
    q = best_chain_quality(wandering_intervals(f), *f.domain)
    if q:
        eps += [q, q + q / 1000, 2 * q]
    return eps


def assert_same_witnesses(f: PLHomeo) -> None:
    for eps in oracle_epsilons(f):
        assert check_chain_property(f, eps) == two_loop_chain_property(f, eps)


@st.composite
def chain_maps(draw) -> PLHomeo:
    make = draw(st.sampled_from([random_plhomeo, random_fat_map, random_touching_map]))
    return make(random.Random(draw(st.integers(0, 2**32))))


class TestOneScanAgainstTwoLoops:
    """check_chain_property's single scan gives the same witness, or the
    same None, as the start loop and extension loop it replaced."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(chain_maps())
    def test_random_fat_and_touching_maps(self, f):
        assert_same_witnesses(f)

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_canonical_maps(self, domain):
        for f in canonical_maps(domain):
            assert_same_witnesses(f)

    @pytest.mark.parametrize("levels", range(11))
    def test_ternary_maps(self, levels):
        assert_same_witnesses(build_ternary_map(levels))

    @pytest.mark.parametrize("levels", [7, 8, 9, 10])
    def test_conjugates(self, levels):
        assert_same_witnesses(ternary_conjugate(levels))


def count_tables(monkeypatch) -> list[int]:
    """Wrap ``cantor._chain_sweep``, which runs once per table built: the
    returned list gains each built table's interval count."""
    built = []
    sweep = cantor._chain_sweep

    def counting(an, *rest):
        built.append(len(an))
        return sweep(an, *rest)

    monkeypatch.setattr(cantor, "_chain_sweep", counting)
    return built


def fresh_optimum(ivs, lo=F(0), hi=F(1)) -> F | None:
    """The optimum of a table built afresh, past any map's kept table."""
    return cantor._table_optimum(_chain_table(ivs, lo.as_integer_ratio(), hi.as_integer_ratio()))


class TestChainTableCache:
    """One table per map: the map keeps it, and the list of a map's
    intervals reads it while the list holds the map's own interval objects,
    in order, on the map's domain ends.  Any other list builds its own
    table.  Each test that counts builds starts from maps it builds itself,
    so no table kept by another test's map can serve it."""

    def test_two_decisions_build_one_table(self, monkeypatch):
        # the calls of one benchmark op: the list optimum, both decisions
        # and the conjugacy read one table
        g = ternary_conjugate(7)
        built = count_tables(monkeypatch)
        q = best_chain_quality(wandering_intervals(g))
        assert check_chain_property(g, q) is None
        witness = check_chain_property(g, q + q / 1000)
        build_conjugacy(g, 4)
        assert built == [len(wandering_intervals(g))]
        assert witness == two_loop_chain_property(g, q + q / 1000)
        assert witness.quality() == q

    def test_equal_but_distinct_intervals_build_afresh(self, monkeypatch):
        f, g = ternary_conjugate(2), ternary_conjugate(2)
        fs, gs = wandering_intervals(f), wandering_intervals(g)
        assert fs == gs and not any(map(operator.is_, fs, gs))
        expected = [fresh_optimum(fs), _chain_table(gs, (0, 1), (1, 1))]
        built = count_tables(monkeypatch)
        assert best_chain_quality(fs) == expected[0] == literal_chain_quality(fs)
        assert cantor._map_chain_table(g) == expected[1]
        assert built == [len(fs), len(gs)]
        # f's list holding g's intervals is not f's list, though it is equal
        mixed = wandering_intervals(f)
        mixed[:] = gs
        assert best_chain_quality(mixed) == expected[0]
        assert built == [len(fs), len(gs), len(gs)]

    def test_other_domain_ends_build_afresh(self, monkeypatch):
        ivs = wandering_intervals(build_ternary_map(2))
        domains = [(F(0), F(1)), (F(-1), F(1)), (F(-1), F(2)), (F(0), F(2))]
        expected = [fresh_optimum(ivs, *dom) for dom in domains]
        built = count_tables(monkeypatch)
        got = [best_chain_quality(ivs, *dom) for dom in domains]
        assert got == expected == [literal_chain_quality(ivs, *dom) for dom in domains]
        assert built == [len(ivs)] * len(domains)

    def test_changing_the_callers_list_builds_afresh(self, monkeypatch):
        # R, L, R: the last interval closes the only fine chain
        R, L = Orientation.R, Orientation.L
        f = cantor._plant(identity(), [(F(1, 10), F(1, 5), R), (F(3, 10), F(2, 5), L),
                                        (F(1, 2), F(19, 20), R)])
        g = ternary_conjugate(2)
        ivs = wandering_intervals(f)
        assert best_chain_quality(ivs) == F(1, 10)
        ivs.pop()
        assert best_chain_quality(ivs) == fresh_optimum(ivs) == F(3, 5)
        assert literal_chain_quality(ivs) == F(3, 5)
        # same length, one object swapped for another map's
        ivs[0] = wandering_intervals(g)[0]
        expected = fresh_optimum(ivs)
        built = count_tables(monkeypatch)
        assert best_chain_quality(ivs) == expected == literal_chain_quality(ivs)
        assert built == [len(ivs)]

    def test_reversed_list_raises_after_a_hit(self, monkeypatch):
        ivs = wandering_intervals(build_ternary_map(2))
        built = count_tables(monkeypatch)
        q = best_chain_quality(ivs)
        assert best_chain_quality(ivs) == q == literal_chain_quality(ivs)
        assert built == [len(ivs)]
        with pytest.raises(ValueError, match="sorted and pairwise disjoint"):
            best_chain_quality(ivs[::-1])
        assert best_chain_quality(ivs) == q

    def test_interleaved_maps_get_their_own_tables(self, monkeypatch):
        f, g = ternary_conjugate(3), ternary_conjugate(4)
        fs, gs = wandering_intervals(f), wandering_intervals(g)
        ft, gt = (_chain_table(ivs, (0, 1), (1, 1)) for ivs in (fs, gs))
        built = count_tables(monkeypatch)
        for ivs, table in ((fs, ft), (gs, gt), (fs, ft)):
            assert best_chain_quality(ivs) == cantor._table_optimum(table)
        # each list read its own map's kept table, built once
        assert cantor._map_chain_table(f) == ft
        assert cantor._map_chain_table(g) == gt
        assert cantor._map_chain_table(f) == ft
        assert built == [len(fs), len(gs)]

    def test_a_slice_of_the_map_list_builds_its_own_table(self, monkeypatch):
        f = ternary_conjugate(3)
        ivs = wandering_intervals(f)
        assert isinstance(ivs, list) and ivs == list(f._structure)
        part = ivs[1:]
        expected = fresh_optimum(part)
        built = count_tables(monkeypatch)
        assert best_chain_quality(part) == expected == literal_chain_quality(part)
        assert "_chain_table" not in vars(f)
        assert best_chain_quality(ivs) == cantor._table_optimum(cantor._map_chain_table(f))
        assert built == [len(part), len(ivs)]

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_witness_reads_integer_ends(self, domain):
        """The witness checks its order and takes its quality on its links'
        integer ends, so no link builds a or b; the quality equals the
        largest margin or gap taken on Fractions."""
        f = rescale(ternary_conjugate(7), domain)
        q = best_chain_quality(wandering_intervals(f), *domain)
        witness = check_chain_property(f, q + q / 1000)
        quality = witness.quality(*domain)
        ivs = witness.intervals
        assert all("a" not in vars(iv) and "b" not in vars(iv) for iv in ivs)
        gaps = [ivs[0].a - domain[0], domain[1] - ivs[-1].b]
        gaps += [nxt.a - prev.b for prev, nxt in zip(ivs, ivs[1:])]
        assert quality == max(gaps) and q <= quality < q + q / 1000

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_cached_table_equals_a_fresh_one(self, domain):
        for f in (*canonical_maps(domain), rescale(ternary_conjugate(7), domain)):
            for eps in oracle_epsilons(f):
                assert check_chain_property(f, eps) == two_loop_chain_property(f, eps)
            ends = [x.as_integer_ratio() for x in f.domain]
            assert f.__dict__["_chain_table"] == _chain_table(wandering_intervals(f), *ends)

    def test_map_table_reads_no_fraction_parts(self, monkeypatch):
        """A map's table is built from the integer ends that its cached
        wandering intervals hold: it equals the table of its interval list,
        and reads no numerator or denominator.  Generic maps cross the
        identity inside pieces, upward and downward, so their roots are
        reduced by the walk."""
        rng = random.Random(19)
        maps = [random_plhomeo(rng, max_interior=8) for _ in range(40)]
        maps += [random_touching_map(rng, 12) for _ in range(10)]
        maps += [rescale(random_plhomeo(rng), DOMAINS[1]) for _ in range(10)]
        maps += [ternary_conjugate(7), rescale(ternary_conjugate(5), DOMAINS[1])]
        for f in maps:
            ivs = wandering_intervals(f)
            reads = []
            for part in ("numerator", "denominator"):
                fetch = getattr(F, part).fget
                monkeypatch.setattr(
                    F, part, property(lambda q, fetch=fetch: reads.append(q) or fetch(q))
                )
            table = cantor._map_chain_table(f)
            monkeypatch.undo()
            assert reads == []
            assert table == _chain_table(ivs, *(x.as_integer_ratio() for x in f.domain))

    def test_intervals_are_the_one_store_of_their_ends(self):
        """A map keeps its wandering intervals as one tuple, and its fixed
        set and chain table read their ends from it alone: given another
        map's intervals on the same domain, both follow them."""
        f, g = build_ternary_map(2), ternary_conjugate(3)
        assert type(f._structure) is tuple and list(f._structure) == wandering_intervals(f)
        object.__setattr__(f, "_structure", g._structure)
        assert wandering_intervals(f) == wandering_intervals(g)
        assert fixed_set(f) == fixed_set(g)
        assert cantor._map_chain_table(f) == cantor._map_chain_table(g)

    def test_each_map_keeps_its_own_table(self):
        f, g = build_ternary_map(3), build_ternary_map(4)
        eps = F(1, 30)
        assert check_chain_property(f, eps) is None
        assert check_chain_property(g, eps) is not None
        assert check_chain_property(f, eps) is None


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

    def test_domain_message(self):
        g = canonical_r(0, 2)
        for build in (build_conjugacy, template_lookup_conjugacy):
            with pytest.raises(
                DomainError, match=r"^conjugacy building expects maps on \[0, 1\], got \[0, 2\]$"
            ):
                build(g, 1)

    def test_equal_widths_pick_leftmost(self):
        # R intervals of width 1/4 at both ends of a gap, a narrower one between
        xs, ys = [F(0)], [F(0)]
        for a, b in ((F(1, 16), F(5, 16)), (F(3, 8), F(1, 2)), (F(5, 8), F(7, 8))):
            gen = canonical_r(a, b)
            xs += gen.breakpoints
            ys += gen.values
        g = PLHomeo(tuple(xs + [F(1)]), tuple(ys + [F(1)]))
        report = build_conjugacy(g, 1)
        assert [(iv.a, iv.b) for iv, _ in report.matched] == [(F(1, 16), F(5, 16))]
        assert report == template_lookup_conjugacy(g, 1)

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

    def test_equals_template_lookup_oracle(self):
        """Same report, or the same InsufficientIntervals message, as the
        oracle that rebuilds the gap lists and looks each target up."""

        def outcome(build, g, depth):
            try:
                return build(g, depth)
            except InsufficientIntervals as exc:
                return str(exc)

        rng = random.Random(16)
        maps = [identity()]
        for _ in range(40):
            maps += [random_plhomeo(rng, 6), random_fat_map(rng, 5), random_touching_map(rng, 12)]
        for n in range(6):
            A = random_coordinate_change(rng)
            maps += [build_ternary_map(n), compose(A, compose(build_ternary_map(n), invert(A)))]
        kinds = set()
        for g in maps:
            for depth in (1, 2, 3, 4):
                got = outcome(build_conjugacy, g, depth)
                assert got == outcome(template_lookup_conjugacy, g, depth)
                kinds.add(type(got))
        assert kinds == {str, ConjugacyReport}


class TestResidualWithoutComposite:
    """build_conjugacy takes its residual piece by piece over h, from g's
    lists and the short t∘h, and builds its template once per depth; the
    residual must equal the distance of the composed maps."""

    @pytest.mark.parametrize("levels", range(1, 10))
    def test_ternary_conjugates(self, levels):
        g = ternary_conjugate(levels)
        for depth in range(1, min(levels + 1, 5) + 1):
            report = build_conjugacy(g, depth)
            # every matched end is a breakpoint of g fixed by it, so g's
            # values fall on h's breakpoints
            assert set(report.h.breakpoints) <= set(g.values)
            t = build_ternary_map(depth - 1)
            assert report.residual == composite_residual(report.h, g, t)

    @pytest.mark.parametrize("levels, eps, depth", [(1, F(1, 40), 4), (2, F(1, 200), 4),
                                                    (3, F(1, 40), 5)])
    def test_densified_maps_with_many_pieces_of_h(self, levels, eps, depth):
        """A shallow ternary map densified below its threshold offers every
        gap both orientations, so h matches 2^depth − 1 intervals."""
        g = densify_chain_property(build_ternary_map(levels), eps)
        A = random_coordinate_change(random.Random(levels))
        for g in (g, compose(A, compose(g, invert(A)))):
            report = build_conjugacy(g, depth)
            assert len(report.h.breakpoints) - 1 >= 16
            t = build_ternary_map(depth - 1)
            assert report.residual == composite_residual(report.h, g, t) > 0

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(st.integers(0, 2**32), st.integers(1, 2))
    def test_random_maps(self, seed, depth):
        """Random maps rarely offer a third round, so depths 1 and 2."""
        rng = random.Random(seed)
        make = rng.choice([random_plhomeo, random_fat_map, random_touching_map])
        g = make(rng, 12 if make is random_touching_map else 6)
        if rng.random() < 0.5:
            A = random_coordinate_change(rng)
            g = compose(A, compose(g, invert(A)))
        try:
            report = build_conjugacy(g, depth)
        except InsufficientIntervals:
            return
        assert report.residual == composite_residual(
            report.h, g, build_ternary_map(depth - 1))

    def test_no_composite_longer_than_its_inputs(self, monkeypatch):
        """On a depth-9 conjugate, no composition inside build_conjugacy has
        more breakpoints than h and t together."""
        g = ternary_conjugate(9)
        sizes = []

        def counting(f, h):
            out = compose_(f, h)
            sizes.append(len(out._ints[0]))
            return out

        compose_ = cantor.compose
        monkeypatch.setattr(cantor, "compose", counting)
        report = build_conjugacy(g, 4)
        monkeypatch.undo()
        bound = len(report.h.breakpoints) + len(build_ternary_map(3).breakpoints)
        assert sizes and max(sizes) <= bound < len(g.breakpoints)

    def test_template_built_once_per_depth(self, monkeypatch):
        g = ternary_conjugate(6)
        first = build_conjugacy(g, 2)  # a different depth, so the memo holds another
        built = []

        def counting(levels):
            built.append(levels)
            return build(levels)

        build = cantor.build_ternary_map
        monkeypatch.setattr(cantor, "build_ternary_map", counting)
        reports = [build_conjugacy(g, 4), build_conjugacy(g, 4)]
        assert built == [3]
        assert reports[0] == reports[1] == template_lookup_conjugacy(g, 4)
        assert build_conjugacy(g, 2) == first and built == [3, 1]


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


def tuples(f):
    return f.breakpoints, f.values


class TestPlantingAgainstOracles:
    """build_ternary_map, explode_fixed_point and densify_chain_property
    share one planting merge; each must equal its point-by-point oracle."""

    def test_ternary_maps(self):
        for n in range(11):
            assert tuples(build_ternary_map(n)) == tuples(appended_ternary_map(n))

    @pytest.mark.parametrize("levels", [0, 3, 9])
    def test_one_validated_map_per_planting(self, monkeypatch, levels):
        # identity() and the planted result: no generator map is built per slot
        validated = []
        check = PLHomeo.__post_init__
        monkeypatch.setattr(PLHomeo, "__post_init__", lambda f: validated.append(check(f)))
        f = build_ternary_map(levels)
        assert len(validated) == 2
        # a window inside the fixed stretch next to 0
        p = F(1, 2 * 3 ** (levels + 2))
        explode_fixed_point(f, p, p / 2, Orientation.R)
        assert len(validated) == 3

    def test_explosions_on_fat_maps(self):
        rng = random.Random(41)
        checked = 0
        for _ in range(60):
            f = random_fat_map(rng, max_plants=4)
            for u, v in fixed_set(f):
                if u == v:
                    continue
                # the whole stretch, each end, and a random inner window
                a = u + (v - u) * F(rng.randrange(0, 8), 16)
                b = v - (v - u) * F(rng.randrange(0, 8), 16)
                for lov, hiv in ((u, v), (u, a + (v - u) / 2), (b - (v - u) / 2, v), (a, b)):
                    orient = (Orientation.R, Orientation.L)[rng.randrange(2)]
                    p, delta = (lov + hiv) / 2, (hiv - lov) / 2
                    got = explode_fixed_point(f, p, delta, orient)
                    assert tuples(got) == tuples(interpolated_explosion(f, p, delta, orient))
                    checked += 1
        assert checked > 100

    @pytest.mark.parametrize("k", [12, 15, 17])
    @pytest.mark.parametrize("depth", [2, 3])
    def test_edge_explosions(self, k, depth):
        eta = F(1, 2**k)
        f = build_ternary_map(depth)
        for p, orient in ((F(3, 2) * eta, Orientation.L), (1 - F(3, 2) * eta, Orientation.R)):
            want = interpolated_explosion(f, p, eta / 2, orient)
            f = explode_fixed_point(f, p, eta / 2, orient)
            assert tuples(f) == tuples(want)

    def test_densify(self):
        rng = random.Random(43)
        maps = [identity(), build_ternary_map(1), build_ternary_map(2)]
        maps += [random_fat_map(rng, max_plants=4) for _ in range(40)]
        maps += [random_touching_map(rng) for _ in range(40)]
        maps += [random_plhomeo(rng) for _ in range(20)]
        outcomes = set()
        for f in maps:
            eps = (F(1, 4), F(1, 8), F(1, 16), F(1, 40))[rng.randrange(4)]
            try:
                want = tuples(interpolated_densify(f, eps))
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    densify_chain_property(f, eps)
                outcomes.add("raised")
                continue
            assert tuples(densify_chain_property(f, eps)) == want
            outcomes.add("planted" if want != tuples(f) else "unchanged")
        assert outcomes == {"raised", "planted", "unchanged"}
