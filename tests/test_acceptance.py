"""Acceptance criteria, one test per criterion, run at stated tolerances.

Each test prints one PASS line when its criterion holds; a failing
criterion fails its test with a diagnosis.  Criteria 7 and 8 are
known-red: they pin a truncation depth whose maps have no inward-flowing
intervals within the projection margin required by the certificate chain,
so the construction refuses deterministically.  The machinery itself is
validated end to end at attainable parameters in test_shadowing/test_cli.
"""

import random
import time
from fractions import Fraction as F

import pytest

from continua.cantor import (
    build_conjugacy,
    build_ternary_map,
    best_chain_quality,
    chain_property_threshold,
    check_chain_property,
    densify_chain_property,
    minimal_indices,
)
from continua.cli import dump_json, main as cli_main
from continua.continuum import build_arc_model, build_arcwise_map
from continua.plmap import (
    Orientation,
    PLHomeo,
    c0_distance,
    canonical_generator,
    canonical_r,
    compose,
    invert,
    wandering_intervals,
)
from continua.shadowing import (
    CertificateError,
    CoverFailure,
    PseudoOrbit,
    generate_pseudo_orbit,
    generate_pseudo_orbit_y,
    global_shadowing_delta,
    quasi_attractor_certificate,
    sample_certificate_soundness,
    shadowing_set,
)
from conftest import (
    literal_chain_quality,
    orbit_membership_oracle,
    random_coordinate_change,
    random_fat_map,
    random_plhomeo,
)

EPS_PINNED = F(1, 10)
LEVELS_PINNED = 3
SEGMENTS_PINNED = 8
CERT_TRIALS = 200


def report(k: int, detail: str) -> None:
    print(f"CRITERION {k}: PASS — {detail}")


def test_criterion_1_interval_combinatorics():
    """Wandering intervals of the truncated maps, levels 0..5."""
    t0 = time.time()
    count_violations = []
    for n in range(6):
        ivs = wandering_intervals(build_ternary_map(n))
        got = {(iv.a, iv.b, iv.orientation) for iv in ivs}
        want = {(*idx.interval(), idx.orientation) for idx in minimal_indices(n)}
        assert got == want, f"interval family mismatch at depth {n}"
        per_level = [0] * (n + 1)
        for iv in ivs:
            level = next(
                idx.n for idx in minimal_indices(n) if idx.interval() == (iv.a, iv.b)
            )
            expected = Orientation.R if level % 2 == 0 else Orientation.L
            assert iv.orientation is expected
            per_level[level] += 1
        # Middle thirds nest across levels (already [4/9,5/9] inside
        # [1/3,2/3]) and a homeomorphism's wandering intervals are pairwise
        # disjoint, so only the non-nested ones are realized: 2^n at level n,
        # 2^(N+1)-1 in all.  (3^(N+1)-1)/2 counts every level/offset pair,
        # which is the all_indices count checked in test_cantor.
        counts = (len(ivs), per_level)
        want_counts = (2 ** (n + 1) - 1, [2**level for level in range(n + 1)])
        if counts != want_counts:
            count_violations.append((n, counts, want_counts))
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    assert not count_violations, (
        "realized interval counts differ from 2^(N+1)-1 in total and 2^n at "
        "level n. Violations (depth, realized, expected) as "
        f"(total, per-level counts): {count_violations}"
    )
    report(1, "interval families, orientations, and counts")


def test_criterion_2_chain_thresholds():
    t0 = time.time()
    frozen = {1: F(1, 3), 2: F(1, 9), 3: F(1, 27), 4: F(1, 81)}
    for n, expected in frozen.items():
        tau = chain_property_threshold(n)
        assert tau == expected, f"threshold at depth {n}: {tau} != {expected}"
        f = build_ternary_map(n)
        assert check_chain_property(f, tau) is None
        assert check_chain_property(f, tau + F(1, 10**4)) is not None
        if n <= 3:
            ivs = wandering_intervals(f)
            assert literal_chain_quality(ivs) == tau
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
    report(2, "thresholds 1/3, 1/9, 1/27, 1/81 match the scan boundary and the oracle")


def test_criterion_3_conjugacy_recovery():
    t0 = time.time()
    rng = random.Random(2024)
    worst_final = F(0)
    for _ in range(20):
        A = random_coordinate_change(rng)
        residuals = []
        for depth in (2, 3, 4):
            levels = depth - 1
            base = build_ternary_map(levels)
            g = compose(A, compose(base, invert(A)))
            rep = build_conjugacy(g, depth)
            pairs = sorted(rep.matched, key=lambda p: p[0].a)
            assert pairs == sorted(pairs, key=lambda p: p[1].interval()[0])
            assert all(iv.orientation is idx.orientation for iv, idx in pairs)
            assert len(pairs) == 2**depth - 1
            residuals.append(rep.residual)
        assert residuals[0] >= residuals[1] >= residuals[2]
        assert residuals[2] < F(1, 50), f"final residual {residuals[2]}"
        worst_final = max(worst_final, residuals[2])
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"
    report(3, f"20 coordinate changes recovered; worst depth-4 residual {worst_final}")


def test_criterion_4_densification():
    t0 = time.time()
    rng = random.Random(77)
    runs = 0
    for _ in range(50):
        f = random_fat_map(rng)
        for eps in (F(1, 4), F(1, 8), F(1, 16)):
            out = densify_chain_property(f, eps)
            assert check_chain_property(out, eps) is not None
            assert c0_distance(f, out) < eps
            runs += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
    report(4, f"{runs} densification runs satisfied the property within distance")


def _planted_chain_map(rng: random.Random, eps: F) -> PLHomeo:
    """An alternating chain with every inequality slack and fat intervals.

    Uniform layout: n width-eps/2 generators separated by n+1 equal gaps at
    most 3 eps/4, then each gap jittered by at most eps/16.  All margins
    stay at or below 13 eps/16, so the chain quality has slack, and widths
    eps/2 dominate the margin, so small perturbations cannot erase any
    chain interval entirely.
    """
    w = eps / 2
    n = 1
    while (1 - n * w) / (n + 1) > 3 * eps / 4:
        n += 1
    gap = (1 - n * w) / (n + 1)
    xs = [F(0)]
    ys = [F(0)]
    orient = Orientation.R
    pos = gap + F(rng.randrange(-4, 5), 1) * eps / 64
    for i in range(n):
        gen = canonical_generator(pos, pos + w, orient)
        for x, y in zip(gen.breakpoints, gen.values):
            if x > xs[-1]:
                xs.append(x)
                ys.append(y)
        orient = orient.flipped()
        pos = pos + w + gap + F(rng.randrange(-4, 5), 1) * eps / 64
    xs.append(F(1))
    ys.append(F(1))
    return PLHomeo(tuple(xs), tuple(ys))


def _perturb_chain_map(rng: random.Random, f: PLHomeo, margin: F) -> PLHomeo:
    """Translate each planted generator and jitter its interior value.

    Fixed stretches stay pinned to the diagonal: tilting a whole stretch
    collapses it to one fixed point and makes the neighboring intervals
    touch, killing the strict chain ordering at arbitrarily small uniform
    distance (demonstrated in test_cantor), so such perturbations lie
    outside any sound robustness margin.
    """
    scale = margin / 32
    xs = [F(0)]
    ys = [F(0)]
    for iv in wandering_intervals(f):
        shift = F(rng.randrange(-15, 16), 16) * scale
        vjit = F(rng.randrange(-15, 16), 16) * scale
        gen = canonical_generator(iv.a + shift, iv.b + shift, iv.orientation)
        pts = list(zip(gen.breakpoints, gen.values))
        pts[1] = (pts[1][0], pts[1][1] + vjit)
        for x, y in pts:
            if x > xs[-1]:
                xs.append(x)
                ys.append(y)
    xs.append(F(1))
    ys.append(F(1))
    return PLHomeo(tuple(xs), tuple(ys))


def test_criterion_5_openness_robustness():
    t0 = time.time()
    rng = random.Random(55)
    eps = F(1, 4)
    checked = 0
    for _ in range(20):
        f = _planted_chain_map(rng, eps)
        quality = best_chain_quality(wandering_intervals(f))
        assert quality is not None and quality < eps
        margin = eps - quality
        assert margin > 0
        for _ in range(10):
            g = _perturb_chain_map(rng, f, margin)
            d = c0_distance(f, g)
            assert d < margin / 4, "sampler exceeded the perturbation budget"
            assert check_chain_property(g, eps) is not None, (
                f"perturbation of size {d} broke the property at margin {margin}"
            )
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"
    report(5, f"{checked} perturbations within margin/4 all kept the property")


def test_criterion_6_exact_shadowing_sets():
    t0 = time.time()
    rng = random.Random(606)
    denom = 10**4
    instances = 0
    # the worked instance first
    f = canonical_r(0, 1)
    o = PseudoOrbit((F(1, 10), F(1, 5)), 0, F(1))
    assert shadowing_set(f, o, F(1, 20)).intervals == ((F(1, 10), F(3, 20)),)
    while instances < 100:
        f = random_plhomeo(rng) if instances % 2 == 0 else random_fat_map(rng)
        f_inv = invert(f)
        window = (-rng.randrange(0, 3), rng.randrange(2, 7))
        x0 = F(rng.randrange(0, 33), 32)
        delta = F(rng.randrange(1, 30), 1000)
        orbit = generate_pseudo_orbit(f, delta, window, x0, seed=rng.randrange(10**9))
        eps = F(rng.randrange(2, 11), 100)
        s = shadowing_set(f, orbit, eps)
        lo = max(F(0), orbit.point(0) - eps)
        hi = min(F(1), orbit.point(0) + eps)
        for k in range(-(-lo.numerator * denom // lo.denominator), int(hi * denom) + 1):
            y = F(k, denom)
            if not lo <= y <= hi:
                continue
            member = orbit_membership_oracle(f, f_inv, orbit, eps, y)
            assert member == s.contains(y), (
                f"disagreement at {y} (instance {instances})"
            )
        instances += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"
    report(6, f"grid oracle agreed on {instances} instances incl. the worked value")


@pytest.fixture(scope="module")
def pinned_model_and_map():
    model = build_arc_model(SEGMENTS_PINNED)
    g = build_arcwise_map(model, LEVELS_PINNED)
    return model, g


def test_criterion_7_arc_certificates_at_pinned_parameters(pinned_model_and_map):
    t0 = time.time()
    model, g = pinned_model_and_map
    outcomes: dict[str, str] = {}
    certs = {}
    for i, arc in enumerate(model.arcs):
        try:
            certs[arc.id] = quasi_attractor_certificate(
                model, g, arc.id, EPS_PINNED, trials=CERT_TRIALS, seed=1009 + i
            )
            outcomes[arc.id] = "certified"
        except CertificateError as exc:
            outcomes[arc.id] = str(exc)
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.2f}s exceeds 2min"
    failed = {aid: msg for aid, msg in outcomes.items() if msg != "certified"}
    if failed:
        pytest.fail(
            "certificates do not exist for all arcs at depth 3, tolerance 1/10: "
            "the projection margin is capped at epsilon/12 = 1/120 before the "
            "Lipschitz correction, while the nearest inward-flowing interval of "
            "a depth-3 arc map sits at parameter depth 1/81 from a t = 0 vertex "
            "and 1/27 from a t = 1 vertex "
            "(ambient 1/81 and 1/27 on unit-length arcs, worse through the circle's "
            "stretch), so no inward neighborhood fits inside the margin. "
            "Deterministic refusals: "
            + "; ".join(f"{aid}: {msg}" for aid, msg in sorted(failed.items()))
        )
    # unreachable at the pinned parameters; kept for attainable configurations
    failures = []
    for aid, cert in certs.items():
        failures += sample_certificate_soundness(model, g, cert, 1000, seed=42)
    assert failures == []
    report(7, "all arcs certified and 10^3 sampled orbits shadowed")


def test_criterion_8_global_shadowing_at_pinned_parameters(pinned_model_and_map):
    t0 = time.time()
    model, g = pinned_model_and_map
    try:
        delta, cover = global_shadowing_delta(
            model, g, EPS_PINNED, trials=CERT_TRIALS, seed=7
        )
    except CoverFailure as exc:
        elapsed = time.time() - t0
        assert elapsed < 120.0, f"runtime {elapsed:.2f}s exceeds 2min"
        pytest.fail(
            "global delta unavailable: per-arc certification fails at depth 3 "
            f"and tolerance 1/10 (see criterion 7). Uncovered sample points: "
            f"{[(p.arc, str(p.t)) for p in exc.uncovered]}"
        )
    # unreachable at the pinned parameters; kept for attainable configurations
    from continua.shadowing import sample_global_soundness

    failures = sample_global_soundness(model, g, delta, EPS_PINNED, 1000, seed=8)
    assert failures == []
    report(8, f"global delta {delta} with zero sampled failures")


def test_criterion_9_determinism(tmp_path):
    # criterion-3 artifacts: conjugacy reports for seeded coordinate changes
    def conjugacy_artifact() -> bytes:
        rng = random.Random(2024)
        payload = []
        for _ in range(3):
            A = random_coordinate_change(rng)
            g = compose(A, compose(build_ternary_map(2), invert(A)))
            payload.append(build_conjugacy(g, 3).to_json())
        return dump_json(payload).encode()

    assert conjugacy_artifact() == conjugacy_artifact()

    # criterion-7/8 artifact: the certification bundle at the pinned
    # parameters (a cover-failure report here) must be byte-identical
    outs = []
    for name in ("bundle_a.json", "bundle_b.json"):
        out = tmp_path / name
        code = cli_main(
            [
                "certify",
                "--segments",
                str(SEGMENTS_PINNED),
                "--depth",
                str(LEVELS_PINNED),
                "--epsilon",
                "1/10",
                "--trials",
                "50",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 3
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    # seeded orbits re-generate identically on both state spaces
    f = build_ternary_map(2)
    o1 = generate_pseudo_orbit(f, F(1, 100), (-4, 20), F(1, 7), seed=99)
    o2 = generate_pseudo_orbit(f, F(1, 100), (-4, 20), F(1, 7), seed=99)
    assert o1 == o2
    model = build_arc_model(2)
    gy = build_arcwise_map(model, 2)
    from continua.continuum import YPoint

    y1 = generate_pseudo_orbit_y(model, gy, F(1, 50), 20, YPoint("h1", F(1, 3)), seed=4)
    y2 = generate_pseudo_orbit_y(model, gy, F(1, 50), 20, YPoint("h1", F(1, 3)), seed=4)
    assert y1 == y2
    report(9, "conjugacy, certification, and orbit artifacts byte-identical")
