"""Pseudo-orbits, exact shadowing sets, moduli, certificates."""

import collections
import hashlib
import io
import random
import re
from fractions import Fraction as F
from itertools import product
from math import lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from continua import plmap, shadowing
from continua.cantor import build_ternary_map, explode_fixed_point
from continua.continuum import (
    Arc,
    YHomeo,
    YModel,
    YPoint,
    build_arc_model,
    build_arcwise_map,
)
from continua.plmap import (
    Orientation,
    canonical_r,
    compose,
    evaluate,
    identity,
    invert,
    iterate,
    max_slope,
)
from continua.rational import sqrt_enclosure
from continua.shadowing import (
    GRID_LEVELS,
    NOISE_GRID,
    ORBIT_LENGTH,
    CertificateError,
    CoverFailure,
    InwardNeighborhood,
    NoInwardStub,
    PseudoOrbit,
    Stub,
    _below,
    _forward_fold,
    _kernel_fold,
    _min_separation_sq,
    _neighborhood_pieces,
    _verified_arc_shadow,
    estimate_shadowing_modulus,
    find_inward_neighborhood,
    generate_pseudo_orbit,
    generate_pseudo_orbit_y,
    global_shadowing_delta,
    orbit_from_csv,
    quasi_attractor_certificate,
    sample_certificate_soundness,
    sample_global_soundness,
    shadow_on_arcs,
    shadowing_set,
)

from conftest import (
    count_fractions,
    edge_enriched_map,
    embed_point,
    exact_orbit,
    fraction_forward_fold,
    fraction_arc_check,
    fraction_pseudo_orbit_y,
    fraction_shadow_on_arcs,
    identity_homeo,
    materialized_modulus,
    nearest_point,
    orbit_membership_oracle,
    orbit_to_csv,
    orbit_window,
    point_triple,
    polyline_point,
    pullback_shadowing_set,
    random_fat_map,
    random_coordinate_change,
    random_plhomeo,
    random_touching_map,
    rescale,
    scan_inward_neighborhood,
    scan_min_separation_sq,
    semi_stable_map,
    steady_drift_orbit,
    triple_point,
    verify_pseudo_orbit,
    verify_pseudo_orbit_y_sq,
)


@st.composite
def orbits(draw, points) -> PseudoOrbit:
    """Up to 12 drawn points, with index 0 anywhere among them."""
    pts = draw(st.lists(points, min_size=1, max_size=12))
    return PseudoOrbit(tuple(pts), draw(st.integers(0, len(pts) - 1)))


def csv_round_trip(orbit: PseudoOrbit) -> PseudoOrbit:
    buf = io.StringIO()
    orbit_to_csv(orbit, buf)
    buf.seek(0)
    return orbit_from_csv(buf)


orbit_settings = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def noise_recording_random(draws: list) -> type:
    """A ``Random`` whose ``getrandbits`` appends each word that
    ``_below(bits, 2·NOISE_GRID − 1)`` accepts: one noise draw per step of
    the integer modulus trial."""

    class Recording(random.Random):
        def getrandbits(self, k):
            r = super().getrandbits(k)
            if r < 2 * NOISE_GRID - 1:
                draws.append(r)
            return r

    return Recording


def one_scale_trial(f, eps, delta, k, seed):
    """The modulus trial on its per-call table, built whatever the piece count."""
    table = shadowing._one_scale_table(f, eps, len(f._kernel[2]))
    assert table is not None
    return shadowing._one_scale_trial(table, delta, k, seed)


one_scale = pytest.mark.parametrize("trial", [one_scale_trial], ids=["one_scale"])


def zigzag_map(n: int):
    """n pieces on [0, 1]: breakpoints i/n, each interior value moved by
    1/(4n), up and down in turn, so no two adjacent slopes are equal."""
    xs = [F(i, n) for i in range(n + 1)]
    ys = [x + (F((-1) ** i, 4 * n) if 0 < i < n else 0) for i, x in enumerate(xs)]
    return plmap.PLHomeo(tuple(xs), tuple(ys))


def nudged_map(nudge):
    """Two pieces on [0, 1] through (1/2, 1/2 + nudge)."""
    return plmap.PLHomeo((F(0), F(1, 2), F(1)), (F(0), F(1, 2) + nudge, F(1)))


class TestDrawRule:
    def test_below_reads_the_words_of_randrange(self):
        # the interpreter's randrange(n) is _randbelow(n) on getrandbits: the
        # pinned digests and samples rest on this, so it is pinned here
        sizes = [1, 2, 3, 4, 5, 512, 513, 1023, 1024, 1025]
        for seed in range(200):
            ours, theirs = random.Random(seed), random.Random(seed)
            order = sizes * 3
            random.Random(-seed).shuffle(order)
            for n in order:
                assert _below(ours.getrandbits, n) == theirs.randrange(n), (seed, n)
            assert ours.getstate() == theirs.getstate()

    def test_below_raises_on_an_empty_range_as_randrange_does(self):
        for n in (0, -1):
            with pytest.raises(ValueError):
                random.Random(0).randrange(n)
            with pytest.raises(ValueError):
                _below(random.Random(0).getrandbits, n)


class TestPseudoOrbits:
    def test_true_orbit_has_zero_defect(self):
        o = exact_orbit(canonical_r(0, 1), (-4, 6), F(1, 10))
        assert verify_pseudo_orbit(canonical_r(0, 1), o) == 0

    def test_single_jump_defect(self):
        o = PseudoOrbit((F(0), F(1, 2)), 0)
        assert verify_pseudo_orbit(identity(), o) == F(1, 2)

    def test_generator_contract(self):
        rng = random.Random(21)
        for _ in range(25):
            f = random_plhomeo(rng)
            delta = F(rng.randrange(1, 50), 1000)
            o = generate_pseudo_orbit(f, delta, (-5, 12), F(1, 2), seed=rng.randrange(10**6))
            assert verify_pseudo_orbit(f, o) < delta
            assert all(0 <= p <= 1 for p in o.points)
            assert orbit_window(o) == (-5, 12)

    def test_deterministic_generation(self):
        f = build_ternary_map(2)
        a = generate_pseudo_orbit(f, F(1, 100), (0, 10), F(1, 10), seed=7)
        b = generate_pseudo_orbit(f, F(1, 100), (0, 10), F(1, 10), seed=7)
        assert a == b

    def test_seeded_forward_orbit_certified(self):
        f = canonical_r(0, 1)
        o = generate_pseudo_orbit(f, F(1, 100), (0, 10), F(1, 10), seed=7)
        assert verify_pseudo_orbit(f, o) < F(1, 100)
        assert all(0 <= p <= 1 for p in o.points)

    @pytest.mark.parametrize(
        "orbit, digest",
        [
            (lambda: generate_pseudo_orbit(
                build_ternary_map(2), F(1, 100), (-4, 20), F(1, 7), seed=99),
             "efdaccca81b9c6f387bc7d9f15bbc9cd7bc8835234a6510c6f3afbeb09642c39"),
            (lambda: generate_pseudo_orbit(canonical_r(0, 1), F(1, 100), (-3, 5), F(1, 10), seed=3),
             "69df62e53b7290f9ca1b02f40f6503a96e4b2f93736ddaf7211a74b0a1e3982b"),
            (lambda: exact_orbit(canonical_r(0, 1), (-4, 6), F(1, 10)),
             "78bd50e773a12cd5ac3ec84cdea65bc3efcdc2b76fd9e2c7485602d784149068"),
        ],
        ids=["ternary-2-seed-99", "canonical-r-seed-3", "true-orbit"],
    )
    def test_pinned_orbit_digests(self, orbit, digest):
        # backward runs included: the benchmark digests pin forward orbits only
        buf = io.StringIO()
        orbit_to_csv(orbit(), buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest

    def test_csv_round_trip_interval(self):
        o = generate_pseudo_orbit(canonical_r(0, 1), F(1, 100), (-3, 5), F(1, 10), seed=3)
        assert csv_round_trip(o) == o

    def test_csv_round_trip_model(self):
        m = build_arc_model(2)
        g = build_arcwise_map(m, 1)
        o = generate_pseudo_orbit_y(m, g, F(1, 50), 8, YPoint("h1", F(1, 3)), seed=5)
        assert csv_round_trip(o) == o

    @orbit_settings
    @given(orbits(st.fractions()))
    def test_csv_round_trip_any_interval_orbit(self, o):
        assert csv_round_trip(o) == o

    @orbit_settings
    @given(orbits(st.builds(YPoint, st.sampled_from(["circle", "h1", "v3"]), st.fractions(0, 1))))
    def test_csv_round_trip_any_model_orbit(self, o):
        assert csv_round_trip(o) == o


class TestShadowingSet:
    def test_true_orbit_contains_start(self):
        rng = random.Random(22)
        for _ in range(25):
            f = random_plhomeo(rng)
            x0 = F(rng.randrange(0, 33), 32)
            o = exact_orbit(f, (-3, 6), x0)
            s = shadowing_set(f, o, F(1, 100))
            assert s.contains(x0)

    def test_worked_example(self):
        f = canonical_r(0, 1)
        o = PseudoOrbit((F(1, 10), F(1, 5)), 0)
        s = shadowing_set(f, o, F(1, 20))
        assert s.interval == (F(1, 10), F(3, 20))

    def test_huge_epsilon_full_domain(self):
        f = build_ternary_map(1)
        o = PseudoOrbit((F(1, 2), F(1, 2), F(1, 2)), 1)
        s = shadowing_set(f, o, F(2))
        assert s.interval == (F(0), F(1))

    def test_monotone_in_epsilon_antitone_in_window(self):
        rng = random.Random(23)
        for _ in range(20):
            f = random_plhomeo(rng)
            o = generate_pseudo_orbit(f, F(1, 40), (0, 8), F(1, 2), seed=rng.randrange(10**6))
            small = shadowing_set(f, o, F(1, 60))
            big = shadowing_set(f, o, F(1, 30))
            if not small.is_empty:
                (a, b), (c, d) = small.interval, big.interval
                assert c <= a and b <= d
            shorter = PseudoOrbit(o.points[:5], 0)
            sub = shadowing_set(f, shorter, F(1, 60))
            if not small.is_empty:
                assert not sub.is_empty
                (a, b), (c, d) = small.interval, sub.interval
                assert c <= a and b <= d

    def test_agreement_with_grid_oracle(self):
        rng = random.Random(24)
        denom = 10**4
        for _ in range(12):
            f = random_plhomeo(rng)
            f_inv = invert(f)
            o = generate_pseudo_orbit(
                f, F(1, 50), (-2, 6), F(rng.randrange(0, 33), 32), seed=rng.randrange(10**6)
            )
            eps = F(rng.randrange(2, 12), 100)
            s = shadowing_set(f, o, eps)
            lo = max(F(0), o.point(0) - eps)
            hi = min(F(1), o.point(0) + eps)
            for k in range(int(lo * denom), int(hi * denom) + 2):
                y = F(k, denom)
                if not 0 <= y <= 1:
                    continue
                assert s.contains(y) == orbit_membership_oracle(f, f_inv, o, eps, y)


class TestModulus:
    def test_identity_regression(self):
        d = estimate_shadowing_modulus(identity(), F(1, 20), trials=200, seed=4242)
        assert d == F(1, 40)

    def test_positive_for_ternary_map(self):
        d = estimate_shadowing_modulus(build_ternary_map(2), F(1, 20), trials=300, seed=9)
        assert d > 0

    def test_monotone_in_epsilon(self):
        f = build_ternary_map(2)
        d1 = estimate_shadowing_modulus(f, F(1, 40), trials=100, seed=5)
        d2 = estimate_shadowing_modulus(f, F(1, 20), trials=100, seed=5)
        assert d2 >= d1
        # epsilons 2^k apart share their grids, so the order holds at every
        # power-of-two ratio
        for seed in (1, 2, 7):
            for base in (F(1, 80), F(1, 96)):
                ladder = [estimate_shadowing_modulus(f, base * 2**k, 50, seed) for k in range(4)]
                for i in range(4):
                    for j in range(i + 1, 4):
                        assert ladder[j] >= ladder[i], (seed, base, i, j)

    def test_deterministic(self):
        f = build_ternary_map(1)
        a = estimate_shadowing_modulus(f, F(1, 10), trials=60, seed=1)
        b = estimate_shadowing_modulus(f, F(1, 10), trials=60, seed=1)
        assert a == b

    def test_pinned_ternary_values(self):
        assert estimate_shadowing_modulus(build_ternary_map(2), F(1, 20), 300, 9) == F(1, 80)
        assert estimate_shadowing_modulus(build_ternary_map(3), F(1, 20), 100, 5) == F(1, 80)

    def test_zero_when_every_grid_delta_fails(self):
        assert estimate_shadowing_modulus(semi_stable_map(), F(1, 10), 10, 0) == 0

    @pytest.mark.parametrize("domain", [(F(0), F(1)), (F(-3, 2), F(5, 7))])
    def test_full_domain_tubes_decided_up_front(self, monkeypatch, domain):
        made = []

        class CountingRandom(random.Random):
            def __init__(self, seed=None):
                made.append(seed)
                super().__init__(seed)

        rng = random.Random(34)
        width = domain[1] - domain[0]
        for f in (rescale(build_ternary_map(2), domain), rescale(random_plhomeo(rng), domain)):
            for eps in (width, width + F(1, 7), 3 * width, width - F(1, 1000)):
                made.clear()
                with monkeypatch.context() as m:
                    m.setattr(random, "Random", CountingRandom)
                    got = estimate_shadowing_modulus(f, eps, 5, 3)
                assert got == materialized_modulus(f, eps, 5, 3), eps
                if eps >= width:
                    assert got == eps and made == []
                else:
                    assert len(made) >= 5 + 5  # the starts, then the orbits of a scan

    def test_each_start_drawn_once(self, monkeypatch):
        # trial t seeds its start generator with base + 2t and its orbit
        # generator with base + 2t + 1: each start seed is made once, however
        # many grid levels the scan reads
        made = collections.Counter()

        class CountingRandom(random.Random):
            def __init__(self, seed=None):
                made[seed] += 1
                super().__init__(seed)

        monkeypatch.setattr(random, "Random", CountingRandom)
        assert estimate_shadowing_modulus(build_ternary_map(3), F(1, 20), 10, 5) == F(1, 80)
        base = 5 * 1_000_003
        assert [made.pop(base + 2 * t) for t in range(10)] == [1] * 10
        # the rest are orbits: the scan read 1/20, 1/40 and 1/80, trial 0 at
        # each level and all 10 trials at 1/80
        assert set(made) <= {base + 2 * t + 1 for t in range(10)}
        assert made[base + 1] == 3
        assert sum(made.values()) == 12


class TestLazyModulus:
    """The sampled modulus equals the one that builds every orbit with
    ``generate_pseudo_orbit`` and decides it by its full shadowing set, on
    either side of the bounds that pick the integer trial or the
    definition, and neither the fold nor the integer trial reads a point
    past its first empty step."""

    def check(self, f, epsilons, trial_counts=(5,), seeds=(1, 4, 9)):
        for eps in epsilons:
            for trials in trial_counts:
                for seed in seeds:
                    expected = materialized_modulus(f, eps, trials, seed)
                    assert estimate_shadowing_modulus(f, eps, trials, seed) == expected, (
                        eps, trials, seed
                    )

    @pytest.mark.parametrize("depth", range(2, 7))
    def test_equals_materialized_modulus(self, depth):
        self.check(build_ternary_map(depth), (F(1, 20), F(1, 40), F(1, 29)), (5, 25))

    def test_equals_materialized_modulus_where_it_is_zero(self):
        assert materialized_modulus(semi_stable_map(), F(1, 10), 10, 0) == 0
        for f in (identity(), semi_stable_map()):
            self.check(f, (F(1, 10), F(1, 29), F(3, 1000)))

    def test_equals_materialized_modulus_off_the_unit_interval(self):
        # negative numerators: the trial locates pieces by floor division
        rng = random.Random(31)
        for _ in range(12):
            f = rescale(random_plhomeo(rng), (F(-3, 2), F(5, 7)))
            self.check(f, (F(1, 20), F(1, 29), F(3, 1000)), seeds=(rng.randrange(100),))

    @pytest.mark.parametrize("k", [15, 16, 17])
    def test_equals_materialized_modulus_on_edge_enriched_maps(self, k):
        for levels in (2, 3):
            self.check(edge_enriched_map(levels, F(1, 2**k)), (F(1, 20), F(3, 1000)), (10,))

    def test_equals_materialized_modulus_at_a_200_digit_radius(self):
        # the scale grows by about 200 digits on each step through the generator
        tiny = F(1, 10**200)
        for f in (
            explode_fixed_point(identity(), F(1, 2), F(1, 2) - tiny, Orientation.R),
            explode_fixed_point(build_ternary_map(3), F(1, 162), F(1, 200) + tiny, Orientation.L),
        ):
            self.check(f, (F(1, 20), F(1, 29), F(3, 1000)), seeds=(1, 2))

    def test_scale_stays_small_on_a_200_digit_explosion(self, monkeypatch):
        # pieces whose γ has about 666 bits cover most of the domain: without
        # the gcd in _kernel_step, the fold's ends would gain that many bits
        # at each of 24 steps
        f = explode_fixed_point(identity(), F(1, 2), F(1, 2) - F(1, 10**200), Orientation.R)
        sizes = []
        step = shadowing._kernel_step

        def recorded(kernel, N, Q):
            out = step(kernel, N, Q)
            sizes.append(max(v.bit_length() for v in (N, Q, *out)))
            return out

        monkeypatch.setattr(shadowing, "_kernel_step", recorded)
        modulus = estimate_shadowing_modulus(f, F(1, 20), 10, 1)
        monkeypatch.undo()
        assert modulus == materialized_modulus(f, F(1, 20), 10, 1)
        assert sizes and max(sizes) < 4 * 666

    @pytest.mark.parametrize(
        ("f", "trials", "one_scale"),
        [
            (zigzag_map(ORBIT_LENGTH), 1, True),
            (zigzag_map(ORBIT_LENGTH + 1), 1, False),
            (nudged_map(F(1, 2**33)), 2, True),
            (nudged_map(F(1, 2**34)), 2, False),
        ],
        ids=["pieces-at-bound", "pieces-above", "M-at-bound", "M-above"],
    )
    def test_equals_materialized_modulus_on_each_side_of_the_bounds(
        self, monkeypatch, f, trials, one_scale
    ):
        # the one-scale path needs at most trials·ORBIT_LENGTH pieces and
        # M = lcm(γ) at most 2^32; the nudged maps have M = 2^32 and 2^33
        pieces = f._kernel[2]
        M = lcm(*[g for _, _, g in pieces])
        assert len(pieces) in (ORBIT_LENGTH, ORBIT_LENGTH + 1) or M in (2**32, 2**33)
        assert (len(pieces) <= trials * ORBIT_LENGTH and M <= 2**32) is one_scale
        # Past either bound, each trial builds its orbit by the definition
        # (conftest's oracle holds its own reference, so it is not counted).
        built = []
        generate = shadowing.generate_pseudo_orbit
        monkeypatch.setattr(shadowing, "generate_pseudo_orbit",
                            lambda *a: built.append(a) or generate(*a))
        self.check(f, (F(1, 20), F(1, 29), F(3, 1000)), (trials,))
        assert bool(built) is not one_scale

    def test_one_scale_holds_every_value_of_a_trial(self):
        # after step i, every point, image and tube end of a grid-delta orbit
        # has a denominator dividing D0·M^i, so up to the window's last
        # point it is an integer over S
        rng = random.Random(33)
        for f in (build_ternary_map(2), build_ternary_map(3), semi_stable_map(),
                  rescale(random_plhomeo(rng), (F(-3, 2), F(5, 7)))):
            lo, hi = f.domain
            for eps in (F(1, 20), F(3, 1000)):
                S = shadowing._one_scale_table(f, eps, len(f._kernel[2]))[0]
                for j, seed in product((0, 3, GRID_LEVELS - 1), range(8)):
                    x0 = lo + (hi - lo) * F(rng.randrange(NOISE_GRID + 1), NOISE_GRID)
                    orbit = generate_pseudo_orbit(f, eps / 2**j, (0, ORBIT_LENGTH), x0, seed)
                    points = orbit.points
                    values = [*points, *(evaluate(f, p) for p in points[:-1]),
                              *(p - eps for p in points), *(p + eps for p in points)]
                    assert all((v * S).denominator == 1 for v in values), (f, eps, j, seed)

    def test_one_scale_takes_a_fixed_number_of_lcms(self, monkeypatch):
        # the one scale takes two lcms per call, for M and D0, and none per
        # trial or per step
        f = build_ternary_map(3)  # 52 pieces
        counts = []
        for trials in (3, 10):
            calls = []
            with monkeypatch.context() as m:
                m.setattr(shadowing, "lcm", lambda *a: calls.append(a) or lcm(*a))
                estimate_shadowing_modulus(f, F(1, 20), trials, 5)
            counts.append(len(calls))
        assert counts == [2, 2]

    def test_each_call_picks_its_trial_by_the_bounds(self, monkeypatch):
        # past either bound, a trial builds its orbit by the definition
        ran = collections.Counter()
        for name in ("generate_pseudo_orbit", "_one_scale_trial"):
            trial = getattr(shadowing, name)
            monkeypatch.setattr(
                shadowing, name, lambda *a, n=name, t=trial: ran.update([n]) or t(*a)
            )
        explosion = explode_fixed_point(identity(), F(1, 2), F(1, 2) - F(1, 10**200),
                                        Orientation.R)
        for f, trials, path in (
            (explosion, 10, "generate_pseudo_orbit"),  # M of about 666 bits
            (build_ternary_map(9), 5, "generate_pseudo_orbit"),  # 3070 pieces > 5·24
            (build_ternary_map(3), 10, "_one_scale_trial"),
        ):
            ran.clear()
            estimate_shadowing_modulus(f, F(1, 20), trials, 1)
            assert set(ran) == {path}

    @one_scale
    def test_trial_decides_the_shadowing_set_of_its_orbit(self, monkeypatch, trial):
        # deltas up to 16·epsilon make orbits that are empty from their
        # first step; starts 0 and 512 are clamped at lo and at hi
        scales = []
        monkeypatch.setattr(shadowing, "lcm", lambda *a: scales.append(lcm(*a)) or lcm(*a))
        rng = random.Random(32)
        outcomes, clamped, first_empty = set(), set(), set()
        for f in (identity(), build_ternary_map(2), semi_stable_map(),
                  rescale(random_plhomeo(rng), (F(-3, 2), F(5, 7)))):
            lo, hi = f.domain
            for _ in range(40):
                eps = F(1, rng.choice([10, 29, 64]))
                delta = eps * F(rng.randrange(1, 65), 4)
                k = rng.choice([0, NOISE_GRID, rng.randrange(NOISE_GRID + 1)])
                seed = rng.randrange(10**6)
                x0 = lo + (hi - lo) * F(k, NOISE_GRID)
                orbit = generate_pseudo_orbit(f, delta, (0, ORBIT_LENGTH), x0, seed)
                shadowed = not shadowing_set(f, orbit, eps).is_empty
                assert trial(f, eps, delta, k, seed) == shadowed
                outcomes.add(shadowed)
                clamped |= {p for p in orbit.points[1:] if p in (lo, hi)}
                first_empty.add(shadowing_set(f, PseudoOrbit(orbit.points[:2], 0), eps).is_empty)
        assert outcomes == first_empty == {True, False}
        assert clamped == {F(0), F(1), F(-3, 2), F(5, 7)}
        # two lcms per table, M then D0, and none per step; M is 1 on some
        # maps and above 1 on others
        assert len(scales) == 2 * 160
        assert min(scales[::2]) == 1 < max(scales[::2])

    @one_scale
    def test_trial_stops_at_the_first_empty_step(self, monkeypatch, trial):
        # counts the accepted noise draws, one per step taken; from the
        # domain's ends, jumps of up to 2·epsilon clamp the orbit at lo or
        # hi, and the tube around a clamped point can be the one that
        # empties the set
        draws, stops, at_ends = [], set(), set()
        eps = F(1, 20)
        cases = [(NOISE_GRID // 2, eps), *product((0, NOISE_GRID), (eps, 4 * eps))]
        for f in (identity(), build_ternary_map(3), semi_stable_map()):
            for (start, delta), seed in product(cases, range(20)):
                x0 = F(start, NOISE_GRID)
                orbit = generate_pseudo_orbit(f, delta, (0, ORBIT_LENGTH), x0, seed)
                # k: the first index whose prefix has an empty shadowing set
                k = next(
                    (n for n in range(ORBIT_LENGTH + 1)
                     if shadowing_set(f, PseudoOrbit(orbit.points[: n + 1], 0), eps).is_empty),
                    ORBIT_LENGTH,
                )
                draws.clear()
                with monkeypatch.context() as m:
                    m.setattr(random, "Random", noise_recording_random(draws))
                    trial(f, eps, delta, start, seed)
                assert len(draws) == k
                stops.add(k)
                if k < ORBIT_LENGTH:
                    at_ends.add(orbit.points[k])
        assert min(stops) < ORBIT_LENGTH == max(stops)
        assert {F(0), F(1)} <= at_ends

    def test_trials_make_no_fraction_per_step(self, monkeypatch):
        f = build_ternary_map(3)
        f._kernel  # cached on f: its build is not counted
        calls = collections.Counter()

        def counted(name, op):
            def wrapper(*args):
                calls[name] += 1
                return op(*args)

            return wrapper

        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__neg__", "__abs__",
                     "__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
            monkeypatch.setattr(F, name, counted(name, getattr(F, name)))
        for module in (plmap, shadowing):
            monkeypatch.setattr(module, "evaluate", counted("evaluate", evaluate))
        trials = 10
        delta = estimate_shadowing_modulus(f, F(1, 20), trials, 5)
        monkeypatch.undo()
        assert delta == F(1, 80)
        assert calls.pop("evaluate", 0) == 0
        # the grid values and the epsilon check, not ORBIT_LENGTH steps per trial
        assert sum(calls.values()) <= trials + GRID_LEVELS, calls

    def test_fold_stops_at_the_first_empty_step(self):
        eps = F(1, 20)
        for f in (identity(), build_ternary_map(3)):
            orbit = steady_drift_orbit(f, F(0), F(1, 80), 24, down=False)
            # k: the first index whose prefix has an empty shadowing set
            k = next(
                n for n in range(25)
                if shadowing_set(f, PseudoOrbit(orbit.points[: n + 1], 0), eps).is_empty
            )
            drawn = []

            def points():
                for x in orbit.points:
                    drawn.append(x)
                    yield x

            assert _forward_fold(f, points(), eps) is None
            assert len(drawn) == k + 1


class TestForwardFold:
    """The forward fold decides emptiness as the full shadowing set does."""

    def check(self, f, orbit, eps):
        cur = _forward_fold(f, orbit.points, eps)
        s = shadowing_set(f, orbit, eps)
        assert (cur is None) == s.is_empty
        if cur is not None:
            # the fold's interval is the image of the set at the last index
            (a, b), k = s.interval, orbit_window(orbit)[1]
            assert cur == (iterate(f, a, k), iterate(f, b, k))

    def test_agrees_with_shadowing_set_on_random_orbits(self):
        rng = random.Random(27)
        for _ in range(60):
            f = rng.choice(
                [random_plhomeo(rng), random_fat_map(rng), random_touching_map(rng),
                 build_ternary_map(rng.randrange(4))]
            )
            window = (-rng.randrange(3), rng.randrange(1, 12))
            delta = F(1, 2 ** rng.randrange(2, 9))
            x0 = F(rng.randrange(0, 65), 64)
            o = generate_pseudo_orbit(f, delta, window, x0, seed=rng.randrange(10**6))
            for eps in (delta / 4, delta, 4 * delta):
                self.check(f, o, eps)

    def test_agrees_with_shadowing_set_on_steady_drift(self):
        rng = random.Random(28)
        seen = set()
        for n in range(4):
            f = build_ternary_map(n)
            for _ in range(15):
                eps = F(1, 2 ** rng.randrange(3, 7))
                step = eps / rng.randrange(2, 9)
                x0 = F(rng.randrange(0, 65), 64)
                o = steady_drift_orbit(f, x0, step, 24, down=rng.randrange(2) == 0)
                self.check(f, o, eps)
                seen.add(_forward_fold(f, o.points, eps) is None)
        assert seen == {True, False}


@st.composite
def fold_cases(draw):
    """(map, orbit, epsilon): a random, fat or ternary map of [0, 1]; a
    seeded pseudo-orbit over (-m, n) with m <= 3 and n <= 8, some of its
    points moved anywhere in [-1, 2]; epsilon from 10^-6 to 2."""
    kind = draw(st.sampled_from(["random", "fat", "ternary"]))
    seed = draw(st.integers(0, 10**6))
    if kind == "ternary":
        f = build_ternary_map(seed % 4)
    else:
        f = (random_plhomeo if kind == "random" else random_fat_map)(random.Random(seed))
    m, n = draw(st.integers(0, 3)), draw(st.integers(0, 8))
    delta = F(1, 2 ** draw(st.integers(1, 10)))
    x0 = draw(st.fractions(0, 1, max_denominator=64))
    pts = list(generate_pseudo_orbit(f, delta, (-m, n), x0, seed).points)
    for i in draw(st.lists(st.integers(0, m + n), max_size=3)):
        pts[i] = draw(st.fractions(-1, 2, max_denominator=64))
    eps = max(F(1, 10**6), F(draw(st.integers(1, 64)), 32 * 2 ** draw(st.integers(0, 20))))
    return f, PseudoOrbit(tuple(pts), m), eps


class TestFoldToIndexZero:
    """shadowing_set folds from the whole domain straight to index 0."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(fold_cases())
    def test_equals_forward_fold_and_pull_back(self, case):
        f, orbit, eps = case
        expected = pullback_shadowing_set(f, orbit, eps).interval
        assert shadowing_set(f, orbit, eps).interval == expected

    def test_forward_orbit_costs_two_evaluations_per_point(self, monkeypatch):
        calls = []
        kernel = plmap.evaluate

        def counted(f, x):
            calls.append(x)
            return kernel(f, x)

        monkeypatch.setattr(plmap, "evaluate", counted)
        monkeypatch.setattr(shadowing, "evaluate", counted)
        rng = random.Random(29)
        for f in (identity(), build_ternary_map(3), random_plhomeo(rng), random_fat_map(rng)):
            for k in range(1, 26):
                orbit = exact_orbit(f, (0, k - 1), F(rng.randrange(0, 65), 64))
                calls.clear()
                assert not shadowing_set(f, orbit, F(1, 100)).is_empty
                assert len(calls) <= 2 * k, (f, k, len(calls))


class TestKernelFold:
    """The fold on integer pairs gives the interval of the ``Fraction`` fold
    it replaced, and the fold and the search's check both have closed
    tolerances."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(fold_cases())
    def test_equals_fraction_fold(self, case):
        f, orbit, eps = case
        assert _forward_fold(f, orbit.points, eps) == fraction_forward_fold(f, orbit.points, eps)

    def test_tubes_touching_at_one_point(self):
        # [0, 1/10] and [1/10, 3/10] under the identity meet only at 1/10
        eps = F(1, 10)
        (a, b) = _kernel_fold(identity()._kernel, [(0, 1), (2, 10)], eps)
        assert (F(*a), F(*b)) == (eps, eps)
        assert _kernel_fold(identity()._kernel, [(0, 1), (201, 1000)], eps) is None

    def test_check_at_exactly_epsilon(self):
        # h1 of the one-tooth model runs from (-1, 0) to (1, 0), so
        # parameters eps/2 apart are eps apart in the plane
        arc = build_arc_model(1).arc("h1")
        eps = F(1, 10)
        for t, ok in ((F(1, 2) + eps / 2, True), (F(1, 2) + eps / 2 + F(1, 10**9), False)):
            targets = [arc._at(t.numerator, t.denominator)]
            assert _verified_arc_shadow(arc, identity(), F(1, 2), targets, eps) is ok


class TestModelOrbits:
    def test_certified_defect(self):
        m = build_arc_model(3)
        g = build_arcwise_map(m, 2)
        rng = random.Random(26)
        for t in range(15):
            aid = m.arc_ids()[rng.randrange(len(m.arcs))]
            delta = F(rng.randrange(1, 20), 400)
            o = generate_pseudo_orbit_y(m, g, delta, 16, YPoint(aid, F(1, 3)), seed=100 + t)
            assert verify_pseudo_orbit_y_sq(m, g, o) < delta * delta
            assert len(o.points) == 17

    @pytest.mark.parametrize(
        "start, seed, digest",
        [
            (YPoint("h1", F(1, 1000)), 1,
             "9959bb10883abf833b4d821258a9705f6f7eeb8b4ec7f6bbecba8a8e8cdbca70"),
            (YPoint("h1", F(1, 1000)), 7,
             "b825d2c80f8311cd3d75222ee3ef50c212d5d763d40e4ac5241db9cec3a01e1c"),
            (YPoint("v2", F(999, 1000)), 1,
             "791e0fa1bc35de4c81e67d2bbac3c96c55f63ea0de79f83160686cc99ee89c30"),
        ],
        ids=["h1-seed-1", "h1-seed-7", "v2-tip-seed-1"],
    )
    def test_pinned_hop_digests(self, start, seed, digest):
        # h1 starts at the anchor, where the circle meets it, and these two
        # seeds change arcs 4 and 7 times; no other arc meets v2's tip
        m = build_arc_model(3)
        o = generate_pseudo_orbit_y(m, build_arcwise_map(m, 2), F(1, 10), 24, start, seed)
        buf = io.StringIO()
        orbit_to_csv(o, buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest

    def test_orbit_changes_arcs_sometimes(self):
        m = build_arc_model(3)
        g = build_arcwise_map(m, 2)
        seen_arcs = set()
        for t in range(40):
            o = generate_pseudo_orbit_y(m, g, F(1, 10), 20, YPoint("h3", F(1, 32)), seed=t)
            seen_arcs.update(p.arc for p in o.points)
        assert len(seen_arcs) > 1


class TestInwardNeighborhood:
    def test_alpha_formula_bound(self):
        eps, delta1 = F(1, 10), F(3, 50)
        assert min(eps / 2, delta1 / 3) == F(1, 50)
        # the certificate halves the bound after the Lipschitz correction
        m = build_arc_model(1)
        g = YHomeo({a.id: edge_enriched_map(1, F(1, 4096)) for a in m.arcs})
        cert = quasi_attractor_certificate(m, g, "h1", eps, trials=30, seed=2)
        lip = 4 * max_slope(g.map_for("h1")) / F(3, 2)
        assert cert.alpha < min(cert.epsilon / 2, cert.delta1 / 3)
        assert cert.alpha * lip < cert.delta1 / 3 or cert.alpha * F(3, 2) < cert.delta1 / 3

    def test_identity_has_no_stub(self):
        m = build_arc_model(2)
        with pytest.raises(NoInwardStub):
            find_inward_neighborhood(m, identity_homeo(m), "h1", F(1, 100))

    def test_unattracted_stub_refused(self):
        m = build_arc_model(1)
        nb = InwardNeighborhood("circle", (Stub("h1", 0, F(1, 2)),))
        with pytest.raises(CertificateError, match="stub on 'h1' is not strictly attracted"):
            _neighborhood_pieces(m, identity_homeo(m), nb)

    def test_stub_cuts_strictly_attracted(self):
        m = build_arc_model(2)
        g = YHomeo({a.id: edge_enriched_map(2, F(1, 32768)) for a in m.arcs})
        nb = find_inward_neighborhood(m, g, "h2", F(1, 100))
        assert nb.stubs
        for s in nb.stubs:
            fb = g.map_for(s.arc)
            if s.end == 0:
                assert evaluate(fb, s.cut) < s.cut
            else:
                assert evaluate(fb, s.cut) > s.cut

    def test_overlapping_stubs_refused(self):
        # an R interval near 0 and an L interval near 1: at a huge alpha the
        # circle's stubs on h1 reach past each other
        f = explode_fixed_point(identity(), F(3, 20), F(1, 20), Orientation.R)
        f = explode_fixed_point(f, F(17, 20), F(1, 20), Orientation.L)
        m = build_arc_model(1)
        g = YHomeo({a.id: f for a in m.arcs})
        overlap = "stubs on arc 'h1' overlap"
        with pytest.raises(CertificateError, match=overlap) as exc:
            find_inward_neighborhood(m, g, "circle", F(50))
        assert not isinstance(exc.value, NoInwardStub)
        with pytest.raises(CertificateError, match=overlap):
            quasi_attractor_certificate(m, g, "circle", F(400), trials=5, seed=1)

    def test_clamped_cut_when_alpha_huge(self):
        m = build_arc_model(2)
        g = build_arcwise_map(m, 3)
        nb = find_inward_neighborhood(m, g, "h2", F(50))
        for s in nb.stubs:
            assert 0 < s.cut < 1

    @pytest.mark.parametrize("levels", range(1, 13))
    def test_end_scan_matches_min_over_every_interval(self, levels):
        # the ternary map, a conjugate, and the map with an extra interval of
        # each orientation next to both ends, on every arc, at a ladder of
        # alphas that both refuses and clamps
        rng = random.Random(levels)
        f = build_ternary_map(levels)
        h = random_coordinate_change(rng)
        eta = F(1, 4 * 3 ** (levels + 1))
        m = build_arc_model(1)
        for fa in (f, compose(h, compose(f, invert(h))), edge_enriched_map(levels, eta)):
            g = YHomeo({a.id: fa for a in m.arcs})
            for arc in m.arcs:
                for alpha in (F(50), F(1, 10), 3 * eta, F(1, 3 ** (levels + 1))):
                    try:
                        want = scan_inward_neighborhood(m, g, arc.id, alpha)
                    except CertificateError as exc:
                        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                            find_inward_neighborhood(m, g, arc.id, alpha)
                    else:
                        assert find_inward_neighborhood(m, g, arc.id, alpha) == want

    def test_end_scan_reads_up_to_first_inward_interval(self, monkeypatch):
        # each stub reads its neighbour's intervals from the shared vertex's
        # end and stops at the first one flowing toward it
        m = build_arc_model(2)
        g = build_arcwise_map(m, 9)
        listed = shadowing.wandering_intervals
        reads: list[set[int]] = []

        class Recorded:
            def __init__(self, iv, i, log):
                self.iv, self.i, self.log = iv, i, log

            def __getattr__(self, name):
                self.log.add(self.i)
                return getattr(self.iv, name)

        def recording(f):
            log: set[int] = set()
            reads.append(log)
            return [Recorded(iv, i, log) for i, iv in enumerate(listed(f))]

        monkeypatch.setattr(shadowing, "wandering_intervals", recording)
        stubs = [
            s for arc in m.arcs for s in find_inward_neighborhood(m, g, arc.id, F(1, 10)).stubs
        ]
        assert len(reads) == len(stubs) >= 10
        for log, s in zip(reads, stubs):
            ivs = listed(g.map_for(s.arc))
            if s.end == 0:
                first = next(i for i, iv in enumerate(ivs) if iv.orientation is Orientation.L)
                assert log == set(range(first + 1))
            else:
                last = max(i for i, iv in enumerate(ivs) if iv.orientation is Orientation.R)
                assert log == set(range(last, len(ivs)))
            assert len(log) <= 2 < len(ivs)


class TestCertificates:
    def test_full_chain_on_edge_enriched_model(self):
        m = build_arc_model(2)
        g = YHomeo({a.id: edge_enriched_map(2, F(1, 32768)) for a in m.arcs})
        for arc in m.arcs:
            cert = quasi_attractor_certificate(m, g, arc.id, F(1, 10), trials=40, seed=11)
            assert cert.delta1 > 0
            assert 0 < cert.alpha < min(cert.epsilon / 2, cert.delta1 / 3)
            assert 0 < cert.delta < cert.delta1 / 3
            assert cert.delta * cert.delta < cert.separation_sq

    def test_each_stub_cut_evaluated_once(self, monkeypatch):
        # each arc gets its own map object, so every evaluate of a
        # neighbour's map in the certificate is the stub step's
        m = build_arc_model(2)
        arc_id = "h2"
        g = YHomeo({a.id: edge_enriched_map(2, F(1, 32768)) for a in m.arcs})
        calls = []
        counted = shadowing.evaluate

        def counting(f, x):
            calls.append((f, x))
            return counted(f, x)

        monkeypatch.setattr(shadowing, "evaluate", counting)
        cert = quasi_attractor_certificate(m, g, arc_id, F(1, 10), trials=10, seed=11)
        stubs = cert.neighborhood.stubs
        assert stubs
        stub_calls = [(f, x) for f, x in calls if f is not g.map_for(arc_id)]
        assert sorted(stub_calls, key=lambda c: (id(c[0]), c[1])) == sorted(
            ((g.map_for(s.arc), s.cut) for s in stubs), key=lambda c: (id(c[0]), c[1])
        )

    def test_truncated_map_fails_at_small_epsilon(self):
        # depth-3 truncation leaves no inward-flowing interval within the
        # alpha budget of a long arc's endpoints: the chain must refuse
        m = build_arc_model(2)
        g = build_arcwise_map(m, 3)
        with pytest.raises(CertificateError):
            quasi_attractor_certificate(m, g, "circle", F(1, 10), trials=30, seed=1)

    def test_no_grid_delta_below_separation(self):
        m = build_arc_model(2)
        g = YHomeo({a.id: edge_enriched_map(2, F(1, 2**30)) for a in m.arcs})
        with pytest.raises(
            CertificateError, match="arc 'h2': no grid delta below the exact separation distance"
        ):
            quasi_attractor_certificate(m, g, "h2", F(1, 10), 10, 1)

    def test_generous_epsilon_succeeds_on_truncated_map(self):
        m = build_arc_model(2)
        g = build_arcwise_map(m, 3)
        cert = quasi_attractor_certificate(m, g, "h2", F(10), trials=30, seed=1)
        assert cert.delta > 0

    def test_global_delta_is_min(self):
        m = build_arc_model(2)
        g = YHomeo({a.id: edge_enriched_map(2, F(1, 32768)) for a in m.arcs})
        delta, certs = global_shadowing_delta(m, g, F(1, 10), trials=40, seed=11)
        assert delta == min(c.delta for c in certs)
        assert [c.arc for c in certs] == m.arc_ids()

    def test_global_delta_returns_the_per_arc_certificates(self):
        m = build_arc_model(2)
        g = YHomeo({a.id: edge_enriched_map(2, F(1, 32768)) for a in m.arcs})
        _, certs = global_shadowing_delta(m, g, F(1, 10), trials=10, seed=2)
        assert certs == [
            quasi_attractor_certificate(m, g, a.id, F(1, 10), 10, 2 * 1009 + i)
            for i, a in enumerate(m.arcs)
        ]

    def test_pinned_certificate_values(self):
        m = build_arc_model(2)
        g = YHomeo({a.id: edge_enriched_map(2, F(1, 32768)) for a in m.arcs})
        c = quasi_attractor_certificate(m, g, "h2", F(1, 10), trials=40, seed=11)
        assert (c.delta1, c.alpha, c.delta, c.separation_sq) == (
            F(1, 80), F(1, 960), F(1, 491520), F(1, 154618822656)
        )

    def test_cover_failure_lists_points(self):
        m = build_arc_model(2)
        with pytest.raises(CoverFailure) as exc:
            global_shadowing_delta(m, identity_homeo(m), F(1, 10), trials=10, seed=3)
        assert exc.value.uncovered

    def test_deep_truncation_certifies_at_pinned_tolerance(self):
        # intervals reach within the projection margin of every endpoint
        # once the truncation is deep enough: straight arcs certify from
        # depth 6 (first even level within 1/480 of an endpoint), the circle
        # needs two more levels for its stretch factor plus one of headroom
        # against the empirical modulus landing a grid level lower; the
        # whole pipeline then completes at tolerance 1/10 on the plain
        # arcwise map, no edge enrichment
        m = build_arc_model(2)
        g = build_arcwise_map(m, 9)
        delta, certs = global_shadowing_delta(m, g, F(1, 10), trials=20, seed=3)
        assert delta > 0
        assert [c.arc for c in certs] == m.arc_ids()
        fails = sample_global_soundness(m, g, delta, F(1, 10), trials=30, seed=9)
        assert fails == []

    def test_shallow_truncation_refuses_where_deep_certifies(self):
        m = build_arc_model(2)
        g5 = build_arcwise_map(m, 5)
        with pytest.raises(CertificateError):
            quasi_attractor_certificate(m, g5, "h2", F(1, 10), trials=25, seed=3)
        g6 = build_arcwise_map(m, 6)
        cert = quasi_attractor_certificate(m, g6, "h2", F(1, 10), trials=25, seed=3)
        assert cert.delta > 0

    def test_single_arc_model_reduces_to_own_delta(self):
        arc = Arc("seg", "a", "b", "segment", ((F(0), F(0)), (F(1), F(0))), F(1), F(1))
        model = YModel(1, {"a": (F(0), F(0)), "b": (F(1), F(0))}, (arc,))
        g = YHomeo({"seg": edge_enriched_map(1, F(1, 1024))})
        # global seed s seeds arc 0 with s * 1009
        delta, certs = global_shadowing_delta(model, g, F(1, 10), trials=30, seed=4)
        assert certs == [quasi_attractor_certificate(model, g, "seg", F(1, 10), 30, 4 * 1009)]
        assert delta == certs[0].delta


def _random_pieces(rng: random.Random, spread: int, min_count: int) -> list[tuple]:
    """Up to three random polylines with vertices on the 1/8 grid in
    [-spread, spread]^2."""

    def coord() -> F:
        return F(rng.randrange(-8 * spread, 8 * spread + 1), 8)

    return [
        tuple((coord(), coord()) for _ in range(rng.randrange(2, 6)))
        for _ in range(rng.randrange(min_count, 4))
    ]


class TestSeparationAgainstScan:
    """The box-pruned separation equals the full pairwise scan.  (The
    autouse fixture in conftest also checks every certificate built
    in-process by the suite.)"""

    @pytest.mark.parametrize("levels", [3, 9])
    def test_neighborhood_pieces(self, levels):
        # stubs at a ladder of alphas on every arc: the pieces the
        # certificate chain separates, with no modulus sampling
        checked = 0
        for M in (1, 3):
            m = build_arc_model(M)
            g = build_arcwise_map(m, levels)
            for arc in m.arcs:
                for j in (1, 4, 7, 10):
                    try:
                        nb = find_inward_neighborhood(m, g, arc.id, F(1, 2**j))
                    except CertificateError:
                        continue
                    image, complement = _neighborhood_pieces(m, g, nb)
                    assert _min_separation_sq(image, complement) == scan_min_separation_sq(
                        image, complement
                    )
                    checked += 1
        assert checked >= 10

    @pytest.mark.parametrize(
        "M, depth, k, seed, counts",
        [(3, 3, 15, 852268, [3, 1, 1, 1, 1, 1, 1]), (2, 3, 17, 354791, [3, 1, 1, 1, 1])],
        ids=["7 arcs", "5 arcs"],
    )
    def test_segment_distances_per_certificate(self, monkeypatch, M, depth, k, seed, counts):
        # the first two ops of the certify benchmark at seed 1, one certificate
        # per arc seeded as global_shadowing_delta seeds it.  Each closest pair
        # is a stub's image and the kept part of the same straight arc:
        # collinear and axis-parallel, so its box gap equals its distance and
        # the scan stops after it.  The circle's certificates first pop the
        # circle's two end chords against the kept horizontal arcs, whose boxes
        # nearly touch but whose distance is larger.  The counts follow from the
        # heap order (gap, index) and the distances' values alone.
        calls = []
        dist2 = shadowing._segment_dist2
        monkeypatch.setattr(shadowing, "_segment_dist2", lambda *a: calls.append(a) or dist2(*a))
        m = build_arc_model(M)
        g = YHomeo({a.id: edge_enriched_map(depth, F(1, 2**k)) for a in m.arcs})
        per_cert = []
        for i, arc in enumerate(m.arcs):
            calls.clear()
            quasi_attractor_certificate(m, g, arc.id, F(1, 10), 10, seed * 1009 + i)
            per_cert.append(len(calls))
        assert per_cert == counts

    def test_one_fraction_per_call(self, monkeypatch):
        # the certificate inputs of the "7 arcs" case above: the distances are
        # decided on integers, and the result is the one Fraction built
        inputs = []
        checked = shadowing._min_separation_sq
        monkeypatch.setattr(
            shadowing, "_min_separation_sq", lambda *a: inputs.append(a) or checked(*a)
        )
        m = build_arc_model(3)
        g = YHomeo({a.id: edge_enriched_map(3, F(1, 2**15)) for a in m.arcs})
        for i, arc in enumerate(m.arcs):
            quasi_attractor_certificate(m, g, arc.id, F(1, 10), 10, 852268 * 1009 + i)
        assert len(inputs) == 7
        for image, complement in inputs:
            best, made = count_fractions(_min_separation_sq, image, complement)
            assert (best, made) == (scan_min_separation_sq(image, complement), 1)

    def test_empty_complement(self):
        assert _min_separation_sq([((F(0), F(0)), (F(1), F(0)))], []) is None

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_pieces(self, rng):
        image = _random_pieces(rng, 2, 1)
        complement = _random_pieces(rng, 5, 1)
        assert _min_separation_sq(image, complement) == scan_min_separation_sq(
            image, complement
        )


class TestShadowSearch:
    def test_single_arc_orbit_matches_arc_answer(self):
        m = build_arc_model(2)
        g = build_arcwise_map(m, 2)
        o = generate_pseudo_orbit_y(m, g, F(1, 200), 12, YPoint("h2", F(1, 2)), seed=31)
        if all(p.arc == "h2" for p in o.points):
            w_model = shadow_on_arcs(m, g, o, F(1, 10), m.arcs)
            w_arc = shadow_on_arcs(m, g, o, F(1, 10), [m.arc("h2")])
            assert w_model == w_arc

    def test_orbit_near_tooth_base_shadowed_from_horizontal(self):
        m = build_arc_model(3)
        g = build_arcwise_map(m, 2)
        # constant drift near the base of the shortest retained tooth
        pts = tuple(YPoint("v3", F(k, 400)) for k in range(10))
        o = PseudoOrbit(pts, 0)
        w = shadow_on_arcs(m, g, o, F(1, 10), [m.arc("h1")])
        assert w is not None

    def test_certificate_soundness_sampled(self):
        m = build_arc_model(2)
        g = YHomeo({a.id: edge_enriched_map(2, F(1, 32768)) for a in m.arcs})
        cert = quasi_attractor_certificate(m, g, "h2", F(1, 10), trials=40, seed=11)
        fails = sample_certificate_soundness(m, g, cert, trials=80, seed=5)
        assert fails == []

    def test_global_soundness_sampled(self):
        m = build_arc_model(2)
        g = YHomeo({a.id: edge_enriched_map(2, F(1, 32768)) for a in m.arcs})
        delta, _ = global_shadowing_delta(m, g, F(1, 10), trials=40, seed=11)
        fails = sample_global_soundness(m, g, delta, F(1, 10), trials=80, seed=6)
        assert fails == []

    def test_sampled_failures_pinned(self):
        # search misses on real orbits: a certificate whose delta is widened
        # to 1/20, and a global delta of 1/10 at epsilon 1/16
        m = build_arc_model(2)
        g = YHomeo({a.id: edge_enriched_map(2, F(1, 32768)) for a in m.arcs})
        cert = quasi_attractor_certificate(m, g, "h2", F(1, 10), trials=40, seed=11)
        wide = shadowing.QuasiAttractorCertificate(
            cert.arc, cert.epsilon, cert.delta1, cert.alpha, cert.neighborhood, F(1, 20),
            cert.separation_sq,
        )
        assert sample_certificate_soundness(m, g, wide, trials=40, seed=1) == [1, 14, 33]
        m = build_arc_model(3)
        g = build_arcwise_map(m, 2)
        assert sample_global_soundness(m, g, F(1, 10), F(1, 16), trials=30, seed=1) == [
            0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 19, 20, 23, 24, 25, 26,
            28, 29,
        ]

    def test_rejects_two_sided_orbit(self):
        m = build_arc_model(1)
        g = build_arcwise_map(m, 1)
        o = PseudoOrbit((YPoint("h1", F(1, 2)), YPoint("h1", F(1, 2))), 1)
        with pytest.raises(ValueError):
            shadow_on_arcs(m, g, o, F(1, 10), m.arcs)


@st.composite
def arc_orbits(draw):
    """An arc of a model with M <= 3 teeth, a ternary or random map on it,
    and a forward orbit of that map embedded and then moved in the plane
    by at most a quarter of epsilon per coordinate."""
    arc = draw(st.sampled_from(build_arc_model(draw(st.integers(1, 3))).arcs))
    if draw(st.booleans()):
        fa = build_ternary_map(draw(st.integers(0, 3)))
    else:
        fa = random_plhomeo(random.Random(draw(st.integers(0, 2**32))))
    eps = F(1, draw(st.integers(4, 256)))
    moves = st.fractions(-eps / 4, eps / 4, max_denominator=4096)
    x = draw(st.fractions(0, 1, max_denominator=256))
    targets = []
    for _ in range(draw(st.integers(1, 12))):
        px, py = arc.embed(x)
        targets.append((px + draw(moves), py + draw(moves)))
        x = evaluate(fa, x)
    return arc, fa, targets, eps, draw(st.fractions(0, 1, max_denominator=997))


class TestReducedSetWitnesses:
    """Every point of the reduced shadowing set that the arc search solves
    is a witness: stretch_hi bounds the ambient distance per unit of
    parameter, so |embed(f^i y) - p_i| <= eps_rem + margin_hi = epsilon."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(arc_orbits())
    def test_every_point_verifies(self, case):
        arc, fa, targets, eps, u = case
        nearest = [nearest_point(arc, p) for p in targets]
        eps_rem = eps - sqrt_enclosure(max(d2 for _, d2 in nearest))[1]
        assert eps_rem > 0
        orbit = PseudoOrbit(tuple(t for t, _ in nearest), 0)
        s = shadowing_set(fa, orbit, eps_rem / arc.stretch_hi)
        if s.is_empty:
            return
        lo, hi = s.interval
        triples = [point_triple(p) for p in targets]
        for y in (lo, hi, (lo + hi) / 2, lo + (hi - lo) / 3, lo + (hi - lo) * u):
            assert _verified_arc_shadow(arc, fa, y, triples, eps), (arc.id, y)


# rational unit vectors, which place a target exactly epsilon away
UNIT_VECTORS = [(F(1), F(0)), (F(0), F(-1)), (F(3, 5), F(4, 5)), (F(-5, 13), F(12, 13))]


@st.composite
def check_cases(draw):
    """(arc, fa, y, targets, eps, exact): the forward orbit of y under fa on
    an arc of the M-tooth model, M in 1..3, and one plane target per orbit
    point.  A target is a point of the orbit point's own polyline segment,
    of a segment of the circle one or two away, off the arc, or exactly
    epsilon away, then half the time pushed 10^-9 further.  ``exact`` says
    that every target is exactly epsilon away."""
    arc = draw(st.sampled_from(build_arc_model(draw(st.integers(1, 3))).arcs))
    if draw(st.booleans()):
        fa = build_ternary_map(draw(st.integers(0, 3)))
    else:
        fa = random_plhomeo(random.Random(draw(st.integers(0, 2**32))))
    eps = F(1, draw(st.integers(8, 128)))
    moves = st.fractions(-eps, eps, max_denominator=4096)
    n = arc.segments
    y = z = draw(st.fractions(0, 1, max_denominator=997))
    targets, exact = [], True
    for _ in range(draw(st.integers(1, 10))):
        k = min(int(z * n), n - 1)
        kind = draw(st.sampled_from(["segment", "circle", "off", "exact"]))
        exact &= kind == "exact"
        px, py = polyline_point(arc, z)
        if kind == "circle" and n > 1:
            step = draw(st.sampled_from([-2, -1, 1, 2]))
            j = k + step if 0 <= k + step < n else k - step
            targets.append(arc.embed((j + draw(st.fractions(0, 1, max_denominator=4096))) / n))
        elif kind in ("segment", "circle"):
            targets.append(arc.embed(min(max(z + draw(moves), F(k, n)), F(k + 1, n))))
        elif kind == "off":
            targets.append((px + draw(moves), py + draw(moves)))
        else:
            (ux, uy), r = draw(st.sampled_from(UNIT_VECTORS)), eps
            if draw(st.booleans()):
                r, exact = r + F(1, 10**9), False
            targets.append((px + r * ux, py + r * uy))
        z = evaluate(fa, z)
    return arc, fa, y, targets, eps, exact


class TestOneCheck:
    """The search's check, one integer distance between two placed points,
    gives the verdict of the Fraction check on every kind of target."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(check_cases())
    def test_equals_fraction_check(self, case):
        arc, fa, y, targets, eps, exact = case
        ok = _verified_arc_shadow(arc, fa, y, [point_triple(p) for p in targets], eps)
        assert ok == fraction_arc_check(arc, fa, y, targets, eps)
        assert ok or not exact


class TestOneCandidate:
    """The arc search stops projecting at the first target epsilon or more
    from the arc, and otherwise checks exactly one candidate.  A target on
    the searched arc keeps its parameter and is never projected."""

    def test_counted_calls(self, monkeypatch):
        m = build_arc_model(3)
        g = build_arcwise_map(m, 2)
        eps = F(1, 16)
        calls = []
        nearest, verify = Arc.nearest, shadowing._verified_arc_shadow
        monkeypatch.setattr(
            Arc,
            "nearest",
            lambda arc, *a: calls.append(("n", triple_point(*a))) or nearest(arc, *a),
        )
        monkeypatch.setattr(
            shadowing, "_verified_arc_shadow", lambda *a: calls.append(("v",)) or verify(*a)
        )
        orbits = [
            generate_pseudo_orbit_y(m, g, F(1, 10), 12, YPoint("v2", F(57, 256)), seed)
            for seed in range(40, 45)
        ]
        # up the shortest tooth from its base: far from h1 and h2 from index 2 on
        orbits.append(PseudoOrbit(tuple(YPoint("v3", F(k, 10)) for k in range(10)), 0))
        firsts_far = set()
        on_arc_before_stop = 0
        for orbit in orbits:
            targets = [embed_point(m, p) for p in orbit.points]
            for arc in m.arcs:
                d2s = [nearest_point(arc, p)[1] for p in targets]
                far = next((i for i, d2 in enumerate(d2s) if d2 >= eps * eps), None)
                firsts_far.add(far)
                stop = len(targets) if far is None else far + 1
                on_arc = [i for i in range(stop) if orbit.points[i].arc == arc.id]
                on_arc_before_stop += len(on_arc)
                calls.clear()
                shadow_on_arcs(m, g, orbit, eps, [arc])
                # one "n" per off-arc target up to the first far one, in order
                expected = [("n", targets[i]) for i in range(stop) if i not in on_arc]
                assert calls == expected + [("v",)] * (far is None), arc.id
                # and no projection of a target on the arc
                assert len([c for c in calls if c[0] == "n"]) == stop - len(on_arc), arc.id
        assert {None, 0, 2} <= firsts_far
        assert on_arc_before_stop > 0

    def test_nearest_calls_in_certificate_sampling(self, monkeypatch):
        # most points of an orbit sampled near h2 lie on h2 and keep their
        # parameter; projecting every point made 2000 calls
        m = build_arc_model(2)
        g = YHomeo({a.id: edge_enriched_map(2, F(1, 32768)) for a in m.arcs})
        cert = quasi_attractor_certificate(m, g, "h2", F(1, 10), trials=40, seed=11)
        calls = []
        nearest = Arc.nearest
        monkeypatch.setattr(Arc, "nearest", lambda arc, *a: calls.append(a) or nearest(arc, *a))
        assert sample_certificate_soundness(m, g, cert, trials=80, seed=5) == []
        assert len(calls) == 819

    def test_each_point_projected_once_per_arc(self, monkeypatch):
        # ROADMAP item 9's reproduction: every arc is searched and none verifies
        m = build_arc_model(3)
        g = build_arcwise_map(m, 2)
        orbit = generate_pseudo_orbit_y(m, g, F(1, 10), 12, YPoint("v2", F(57, 256)), 42)
        counts = collections.Counter()
        nearest = Arc.nearest
        monkeypatch.setattr(
            Arc,
            "nearest",
            lambda arc, *a: counts.update([(arc.id, triple_point(*a))]) or nearest(arc, *a),
        )
        assert shadow_on_arcs(m, g, orbit, F(1, 16), m.arcs) is None
        assert {aid for aid, _ in counts} == set(m.arc_ids())
        # the orbit visits the origin four times; each visit is one target
        occurs = collections.Counter(embed_point(m, p) for p in orbit.points)
        assert [key for key, n in counts.items() if n > occurs[key[1]]] == []


class TestIntegerProjection:
    """The arc search projects and compares each orbit point in integers:
    the Fractions it makes do not grow with the orbit."""

    def test_fractions_made_are_the_same_at_window_12_and_24(self):
        # points on h2, v3 and h1 near their branch point b3; the witness arc
        # h1 projects every point on h2 and v3
        m = build_arc_model(3)
        g = build_arcwise_map(m, 2)
        cycle = [("h2", 0, 1), ("v3", 1, 64), ("h1", 63, 64), ("h2", 1, 128)]
        runs = [
            count_fractions(
                shadowing._search_arcs, m, g, [cycle[i % 4] for i in range(L)], F(1, 16), m.arcs
            )
            for L in (12, 24)
        ]
        assert runs[0] == runs[1]
        assert runs[0][0] == YPoint("h1", F(245, 256))


@st.composite
def sampler_cases(draw):
    """(model, g, sampler, delta, epsilon, trials, seed): M from 1 to 5, a
    map drawn per arc (ternary, edge-enriched, exploded at 3/2·2⁻ᵏ as in
    the benchmark's G.json, or random), and deltas up to three epsilons,
    so that searches miss as well as verify."""
    model = build_arc_model(draw(st.integers(1, 5)))
    maps = {}
    for a in model.arcs:
        kind = draw(st.sampled_from(["ternary", "enriched", "exploded", "random"]))
        k = draw(st.integers(8, 17))
        if kind == "ternary":
            maps[a.id] = build_ternary_map(draw(st.integers(0, 3)))
        elif kind == "enriched":
            maps[a.id] = edge_enriched_map(draw(st.integers(1, 3)), F(1, 2**k))
        elif kind == "exploded":
            f = build_ternary_map(draw(st.integers(1, 3)))
            maps[a.id] = explode_fixed_point(f, F(3, 2**(k + 1)), F(1, 2**(k + 1)), Orientation.L)
        else:
            maps[a.id] = random_plhomeo(random.Random(draw(st.integers(0, 2**32))))
    eps = F(1, draw(st.integers(4, 40)))
    delta = eps * F(draw(st.integers(1, 48)), 16)
    sampler = draw(st.sampled_from(["certificate", "global"]))
    arc = draw(st.sampled_from(model.arcs)).id
    return model, YHomeo(maps), sampler, arc, delta, eps, draw(st.integers(0, 10**6))


class TestIntegerPassAgainstFractionOracle:
    """The integer pass gives the orbits and witnesses of the ``Fraction``
    stepper and search it replaced (``conftest.fraction_pseudo_orbit_y`` and
    ``fraction_shadow_on_arcs``): through the public functions, and trial by
    trial inside both samplers, with each sampler's own start function."""

    TRIALS = 4

    def check(self, case) -> set[str]:
        model, g, sampler, arc_id, delta, eps, seed = case
        recorded = []
        sampled = shadowing._sampled_failures

        def recording(*args):
            recorded.append(args)
            return sampled(*args)

        with mock.patch.object(shadowing, "_sampled_failures", recording):
            if sampler == "certificate":
                nb = InwardNeighborhood(arc_id, ())
                cert = shadowing.QuasiAttractorCertificate(arc_id, eps, delta, delta, nb, delta, F(0))
                fails = sample_certificate_soundness(model, g, cert, self.TRIALS, seed)
            else:
                fails = sample_global_soundness(model, g, delta, eps, self.TRIALS, seed)
        [(_, _, delta_, eps_, trials, base, start, arcs)] = recorded
        assert (delta_, eps_, trials) == (delta, eps, self.TRIALS)
        seen = set()
        expected_fails = []
        for t in range(trials):
            x0 = start(random.Random(base + t))
            orbit = fraction_pseudo_orbit_y(model, g, delta, ORBIT_LENGTH, x0, base + t + 1)
            assert generate_pseudo_orbit_y(model, g, delta, ORBIT_LENGTH, x0, base + t + 1) == orbit
            witness = fraction_shadow_on_arcs(model, g, orbit, eps, arcs)
            assert shadow_on_arcs(model, g, orbit, eps, arcs) == witness
            if witness is None:
                expected_fails.append(t)
            seen.add("miss" if witness is None else "witness")
            if any(p.arc != x0.arc for p in orbit.points):
                seen.add("hop")
            seen.add(f"{sampler} sampler")
        assert fails == expected_fails
        return seen

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(sampler_cases())
    def test_same_orbits_and_witnesses(self, case):
        self.check(case)

    def test_cases_cover_misses_and_hops(self):
        # edge-enriched maps at eta = 2^-15, as in certify, at a certificate
        # delta and at a widened one; and a global search with mixed maps
        m2 = build_arc_model(2)
        g2 = YHomeo({a.id: edge_enriched_map(2, F(1, 32768)) for a in m2.arcs})
        m5 = build_arc_model(5)
        maps = [build_ternary_map(2), edge_enriched_map(3, F(1, 2**12)), identity()]
        g5 = YHomeo({a.id: maps[i % 3] for i, a in enumerate(m5.arcs)})
        # pieces whose γ has about 666 bits cover most of each arc: the gcd
        # steps of the stepper, the fold and the check
        m1 = build_arc_model(1)
        huge = explode_fixed_point(identity(), F(1, 2), F(1, 2) - F(1, 10**200), Orientation.R)
        g1 = YHomeo({a.id: huge for a in m1.arcs})
        seen = set()
        for case in [
            (m2, g2, "certificate", "h2", F(1, 320), F(1, 10), 5),
            (m2, g2, "certificate", "h2", F(1, 20), F(1, 10), 1),
            (m5, g5, "global", "h1", F(1, 10), F(1, 16), 3),
            (m5, g5, "global", "h1", F(1, 80), F(1, 10), 4),
            (m1, g1, "global", "h1", F(1, 40), F(1, 10), 2),
            (m1, g1, "certificate", "v1", F(1, 8), F(1, 10), 7),
        ]:
            seen |= self.check(case)
        assert seen == {"miss", "witness", "hop", "certificate sampler", "global sampler"}

    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_orbits_from_the_ends_of_every_arc(self, M):
        # at a tooth tip no other arc meets, so a hop draw there jitters;
        # jitters past either end are clamped
        m = build_arc_model(M)
        g = identity_homeo(m)
        for a in m.arcs:
            for t in (F(0), F(1)):
                for seed in range(8):
                    x0 = YPoint(a.id, t)
                    expected = fraction_pseudo_orbit_y(m, g, F(1, 10), 12, x0, seed)
                    assert generate_pseudo_orbit_y(m, g, F(1, 10), 12, x0, seed) == expected
