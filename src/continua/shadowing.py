"""Pseudo-orbits, exact shadowing sets, and quasi-attractor certificates.

Interval side: seeded pseudo-orbit generation with certified jump bounds,
exact finite-window shadowing sets for monotone PL maps (preimages of
tubes are intervals with rational endpoints, so the intersection is exact),
and an empirical bisection estimate of the shadowing modulus.

Continuum side: pseudo-orbits on the arc model, the constructive
delta-chain for one invariant arc (empirical inner modulus, projection
margin, inward neighborhood with strictly attracted stubs, exact
separation of the neighborhood's image from its complement), the covering
composition over all arcs, and a self-verifying shadowing-point search.

Everything is deterministic for a fixed seed; sampling runs sequentially
with per-trial seeds derived by counter.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from fractions import Fraction

from .continuum import YHomeo, YModel, YPoint, apply_map, validate_homeo
from .geometry import dist2_pp, dist2_segment_segment
from .plmap import (
    Orientation,
    PLHomeo,
    evaluate,
    invert,
    max_slope,
    wandering_intervals,
)
from .rational import (
    format_rational,
    parse_rational,
    rational_to_json,
    sqrt_approx,
    sqrt_enclosure,
)


class CertificateError(RuntimeError):
    """The constructive delta-chain could not be completed."""


class NoInwardStub(CertificateError):
    """An adjacent arc has no inward-flowing interval within reach."""


class CoverFailure(RuntimeError):
    """Some arcs could not be certified; carries uncovered sample points."""

    def __init__(self, message: str, uncovered: list[YPoint]):
        super().__init__(message)
        self.uncovered = uncovered


@dataclass(frozen=True)
class ShadowingConfig:
    """Knobs shared by all sampling routines (defaults are regression-pinned).

    grid_levels drives the modulus bisection; the containment delta search
    gets its own deeper grid (delta_grid_levels) because stub attraction
    gaps shrink with the truncation depth while staying exactly decidable.
    """

    orbit_length: int = 24
    noise_grid: int = 512
    grid_levels: int = 12
    delta_grid_levels: int = 24


DEFAULT_CONFIG = ShadowingConfig()


# ---------------------------------------------------------------------------
# Pseudo-orbits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PseudoOrbit:
    """A finite two-sided point sequence with a certified jump bound.

    ``points[i]`` is the state at index i - offset, so the window is
    [-offset, len(points) - 1 - offset].  Consecutive states satisfy
    distance(f(x_i), x_{i+1}) < delta for the producing map f.
    """

    points: tuple
    offset: int
    delta: Fraction

    def __post_init__(self):
        if not self.points:
            raise ValueError("empty pseudo-orbit")
        if not 0 <= self.offset < len(self.points):
            raise ValueError("offset outside the point list")

    @property
    def window(self) -> tuple[int, int]:
        return (-self.offset, len(self.points) - 1 - self.offset)

    @property
    def forward_points(self) -> tuple:
        return self.points[self.offset :]

    def point(self, i: int):
        return self.points[i + self.offset]


def _noise(rng: random.Random, bound: Fraction, grid: int) -> Fraction:
    return Fraction(rng.randrange(-(grid - 1), grid), grid) * bound


def _clamp(x: Fraction, lo: Fraction, hi: Fraction) -> Fraction:
    return min(max(x, lo), hi)


def generate_pseudo_orbit(
    f: PLHomeo,
    delta: Fraction,
    window: tuple[int, int],
    x0: Fraction,
    seed: int,
    config: ShadowingConfig = DEFAULT_CONFIG,
) -> PseudoOrbit:
    """Seeded noisy orbit with every jump certified below ``delta``.

    Forward steps add uniform rational noise below delta/2 to the exact
    image; backward steps perturb the exact preimage, scaled down by the
    slope bound so the defining inequality still holds.  Points are clamped
    to the domain (the exact image is in the domain, so clamping never
    increases a jump).
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    m, n = -window[0], window[1]
    if m < 0 or n < 0:
        raise ValueError("window must contain index 0")
    lo, hi = f.domain
    x0 = Fraction(x0)
    if not lo <= x0 <= hi:
        raise ValueError("x0 outside the domain")

    rng = random.Random(seed)
    fwd_bound = delta / 2
    bwd_bound = delta / (2 * max(Fraction(1), max_slope(f)))
    grid = config.noise_grid

    fwd = [x0]
    for _ in range(n):
        fwd.append(_clamp(evaluate(f, fwd[-1]) + _noise(rng, fwd_bound, grid), lo, hi))
    f_inv = invert(f)
    bwd = [x0]
    for _ in range(m):
        bwd.append(_clamp(evaluate(f_inv, bwd[-1]) + _noise(rng, bwd_bound, grid), lo, hi))
    points = tuple(reversed(bwd[1:])) + tuple(fwd)
    return PseudoOrbit(points, m, delta)


def true_orbit(
    f: PLHomeo, window: tuple[int, int], x0: Fraction, delta: Fraction = Fraction(1, 10**6)
) -> PseudoOrbit:
    """The exact orbit as a PseudoOrbit (zero noise; defect exactly 0)."""
    m, n = -window[0], window[1]
    fwd = [Fraction(x0)]
    for _ in range(n):
        fwd.append(evaluate(f, fwd[-1]))
    f_inv = invert(f)
    bwd = [Fraction(x0)]
    for _ in range(m):
        bwd.append(evaluate(f_inv, bwd[-1]))
    return PseudoOrbit(tuple(reversed(bwd[1:])) + tuple(fwd), m, Fraction(delta))


def verify_pseudo_orbit(f: PLHomeo, orbit: PseudoOrbit) -> Fraction:
    """Exact max over consecutive pairs of |f(x_i) - x_{i+1}|."""
    pts = orbit.points
    if len(pts) < 2:
        return Fraction(0)
    return max(abs(evaluate(f, a) - b) for a, b in zip(pts, pts[1:]))


# ---------------------------------------------------------------------------
# Exact shadowing sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShadowingSet:
    """Closed set of points whose orbit stays within epsilon of the orbit.

    y belongs iff |f^i(y) - x_i| <= epsilon for every window index i
    (closed tolerance: endpoints stay exactly representable).  For a
    monotone interval map this is a single closed interval, carried as a
    list for forward compatibility.
    """

    intervals: tuple[tuple[Fraction, Fraction], ...]
    epsilon: Fraction

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, y: Fraction) -> bool:
        return any(lo <= y <= hi for lo, hi in self.intervals)

    def to_json(self) -> dict:
        return {
            "epsilon": rational_to_json(self.epsilon),
            "intervals": [
                [rational_to_json(lo), rational_to_json(hi)] for lo, hi in self.intervals
            ],
        }


def shadowing_set(f: PLHomeo, orbit: PseudoOrbit, epsilon: Fraction) -> ShadowingSet:
    """Exact intersection of pulled-back epsilon-tubes around the orbit.

    Folds tube constraints forward through the window (images of intervals
    under a monotone PL map are intervals with rational endpoints), then
    pulls the surviving interval back to index 0.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    lo, hi = f.domain

    def tube(x: Fraction) -> tuple[Fraction, Fraction] | None:
        a, b = max(lo, x - epsilon), min(hi, x + epsilon)
        return (a, b) if a <= b else None

    cur = tube(orbit.points[0])
    if cur is None:
        return ShadowingSet((), epsilon)
    for x in orbit.points[1:]:
        img = (evaluate(f, cur[0]), evaluate(f, cur[1]))
        t = tube(x)
        if t is None:
            return ShadowingSet((), epsilon)
        nxt = (max(img[0], t[0]), min(img[1], t[1]))
        if nxt[0] > nxt[1]:
            return ShadowingSet((), epsilon)
        cur = nxt
    f_inv = invert(f)
    steps_back = orbit.window[1]
    a, b = cur
    for _ in range(steps_back):
        a, b = evaluate(f_inv, a), evaluate(f_inv, b)
    return ShadowingSet(((a, b),), epsilon)


def estimate_shadowing_modulus(
    f: PLHomeo,
    epsilon: Fraction,
    trials: int,
    seed: int,
    config: ShadowingConfig = DEFAULT_CONFIG,
) -> Fraction:
    """Largest grid delta whose sampled pseudo-orbits are all shadowed.

    The grid is epsilon times powers of 1/2 (``config.grid_levels``
    levels).  A lower-confidence empirical stand-in for the true modulus:
    deterministic for a fixed seed, with per-trial seeds derived by
    counter and orbits depending only on (map, delta, start, seed) so the
    estimate is monotone in epsilon.  Returns 0 when even the smallest
    grid value fails.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    lo, hi = f.domain
    grid = config.noise_grid

    for j in range(config.grid_levels):
        delta = epsilon / 2**j
        ok = True
        for t in range(trials):
            start_rng = random.Random(seed * 1_000_003 + 2 * t)
            x0 = lo + (hi - lo) * Fraction(start_rng.randrange(0, grid + 1), grid)
            orbit = generate_pseudo_orbit(
                f, delta, (0, config.orbit_length), x0, seed * 1_000_003 + 2 * t + 1, config
            )
            if shadowing_set(f, orbit, epsilon).is_empty:
                ok = False
                break
        if ok:
            return delta
    return Fraction(0)


# ---------------------------------------------------------------------------
# Orbit CSV interchange
# ---------------------------------------------------------------------------


def orbit_to_csv(orbit: PseudoOrbit, stream) -> None:
    """CSV rows with exact "num/den" coordinates (interval or model points)."""
    w = csv.writer(stream)
    first = orbit.points[0]
    if isinstance(first, YPoint):
        w.writerow(["index", "arc", "t"])
        for i, p in enumerate(orbit.points):
            w.writerow([i - orbit.offset, p.arc, format_rational(p.t)])
    else:
        w.writerow(["index", "point"])
        for i, p in enumerate(orbit.points):
            w.writerow([i - orbit.offset, format_rational(p)])


def orbit_from_csv(stream, delta: Fraction) -> PseudoOrbit:
    rows = list(csv.reader(stream))
    if not rows or rows[0][:1] != ["index"]:
        raise ValueError("missing CSV header")
    header, body = rows[0], rows[1:]
    if not body:
        raise ValueError("empty orbit CSV")
    for n, row in enumerate(body, start=2):
        if len(row) < len(header):
            raise ValueError(f"orbit CSV row {n} has {len(row)} fields, header has {len(header)}")
    indices = [int(r[0]) for r in body]
    if indices != list(range(indices[0], indices[0] + len(indices))):
        raise ValueError("orbit indices must be consecutive")
    offset = -indices[0]
    if header[1:] == ["arc", "t"]:
        pts: tuple = tuple(YPoint(r[1], parse_rational(r[2])) for r in body)
    elif header[1:] == ["point"]:
        pts = tuple(parse_rational(r[1]) for r in body)
    else:
        raise ValueError(f"unrecognized orbit CSV header {header!r}")
    return PseudoOrbit(pts, offset, Fraction(delta))


# ---------------------------------------------------------------------------
# Pseudo-orbits on the arc model
# ---------------------------------------------------------------------------


def generate_pseudo_orbit_y(
    model: YModel,
    g: YHomeo,
    delta: Fraction,
    length: int,
    x0: YPoint,
    seed: int,
    config: ShadowingConfig = DEFAULT_CONFIG,
) -> PseudoOrbit:
    """Forward noisy orbit on the model with certified ambient jumps.

    Each step perturbs the exact image along its arc (parameter jitter
    scaled by the arc's stretch bound) and occasionally hops across a
    vertex onto an adjacent arc when the image lies close enough; both
    moves keep the ambient jump strictly below delta.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    rng = random.Random(seed)
    grid = config.noise_grid
    bound = delta / 2

    pts = [x0]
    for _ in range(length):
        img = apply_map(model, g, pts[-1])
        arc = model.arc(img.arc)
        hopped = False
        if rng.randrange(4) == 0:
            # hop across a vertex when the image is within bound/2 of it
            for end, t_end in ((0, Fraction(0)), (1, Fraction(1))):
                if arc.stretch_hi * abs(img.t - t_end) < bound / 2:
                    vertex = model.vertex_of(arc, end)
                    neighbors = [
                        (a, e) for a, e in model.arcs_at(vertex) if a.id != arc.id
                    ]
                    if neighbors:
                        other, oend = neighbors[rng.randrange(len(neighbors))]
                        depth = (
                            bound
                            / 2
                            / other.stretch_hi
                            * Fraction(rng.randrange(0, grid), grid)
                        )
                        depth = min(depth, Fraction(1))
                        t_new = depth if oend == 0 else 1 - depth
                        pts.append(YPoint(other.id, t_new))
                        hopped = True
                    break
        if not hopped:
            jitter = _noise(rng, bound / arc.stretch_hi, grid)
            pts.append(YPoint(img.arc, _clamp(img.t + jitter, Fraction(0), Fraction(1))))
    return PseudoOrbit(tuple(pts), 0, delta)


def verify_pseudo_orbit_y_sq(model: YModel, g: YHomeo, orbit: PseudoOrbit) -> Fraction:
    """Exact max squared ambient distance d(g(x_i), x_{i+1})^2."""
    pts = orbit.points
    if len(pts) < 2:
        return Fraction(0)
    worst = Fraction(0)
    for a, b in zip(pts, pts[1:]):
        img = apply_map(model, g, a)
        worst = max(worst, dist2_pp(model.embed(img), model.embed(b)))
    return worst


def verify_pseudo_orbit_y(model: YModel, g: YHomeo, orbit: PseudoOrbit) -> Fraction:
    """Max ambient jump, reported through the certified sqrt enclosure."""
    return sqrt_approx(verify_pseudo_orbit_y_sq(model, g, orbit))


# ---------------------------------------------------------------------------
# Inward neighborhoods and certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stub:
    """Half-open sliver of an adjacent arc hanging off a shared vertex.

    end 0 keeps parameters [0, cut); end 1 keeps (cut, 1].  The cut point
    sits strictly inside a wandering interval flowing toward the vertex, so
    the arc map strictly pulls the closed stub into itself.
    """

    arc: str
    end: int
    cut: Fraction

    def to_json(self) -> dict:
        return {"arc": self.arc, "end": self.end, "cut": rational_to_json(self.cut)}


@dataclass(frozen=True)
class InwardNeighborhood:
    """An invariant arc together with strictly attracted boundary stubs."""

    arc: str
    stubs: tuple[Stub, ...]

    def to_json(self) -> dict:
        return {"arc": self.arc, "stubs": [s.to_json() for s in self.stubs]}


@dataclass(frozen=True)
class QuasiAttractorCertificate:
    """Constants realizing the one-arc shadowing-transfer chain.

    delta1: empirical inner shadowing modulus of the arc at epsilon/2
    (ambient units).  alpha: projection margin, below min(epsilon/2,
    delta1/3) and small enough that the arc map moves alpha-close points
    by less than delta1/3.  neighborhood: the arc plus inward stubs within
    alpha.  delta: a grid value below delta1/3 with the delta-fattening of
    closure(g(V)) still inside V, via the exact separation distance.
    """

    arc: str
    epsilon: Fraction
    delta1: Fraction
    alpha: Fraction
    neighborhood: InwardNeighborhood
    delta: Fraction
    separation_sq: Fraction

    def to_json(self) -> dict:
        return {
            "arc": self.arc,
            "epsilon": rational_to_json(self.epsilon),
            "delta1": rational_to_json(self.delta1),
            "alpha": rational_to_json(self.alpha),
            "neighborhood": self.neighborhood.to_json(),
            "delta": rational_to_json(self.delta),
            "separation_sq": rational_to_json(self.separation_sq),
        }


def find_inward_neighborhood(
    model: YModel, g: YHomeo, arc_id: str, alpha: Fraction
) -> InwardNeighborhood:
    """The arc plus one inward stub on every adjacent arc.

    Each cut point lies strictly inside a wandering interval of the
    adjacent arc's map flowing toward the shared vertex, at ambient
    distance below alpha from it (clamped inside the arc when alpha
    exceeds its length).  Raises NoInwardStub when an adjacent arc has no
    such interval within reach.
    """
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    arc = model.arc(arc_id)
    stubs: list[Stub] = []
    for end in (0, 1):
        vertex = model.vertex_of(arc, end)
        for other, oend in model.arcs_at(vertex):
            if other.id == arc_id:
                continue
            fb = g.map_for(other.id)
            depth_bound = min(alpha / other.stretch_hi, Fraction(1))
            ivs = wandering_intervals(fb)
            cut = None
            if oend == 0:
                cands = [
                    iv for iv in ivs if iv.orientation is Orientation.L and iv.a < depth_bound
                ]
                if cands:
                    iv = cands[0]
                    cut = (iv.a + min(iv.b, depth_bound)) / 2
            else:
                cands = [
                    iv
                    for iv in ivs
                    if iv.orientation is Orientation.R and iv.b > 1 - depth_bound
                ]
                if cands:
                    iv = cands[-1]
                    cut = (max(iv.a, 1 - depth_bound) + iv.b) / 2
            if cut is None:
                raise NoInwardStub(
                    f"no inward stub: arc {other.id!r} has no "
                    f"{'L' if oend == 0 else 'R'}-flowing interval within {alpha} "
                    f"of vertex {vertex!r}"
                )
            stubs.append(Stub(other.id, oend, cut))

    by_arc: dict[str, list[Stub]] = {}
    for s in stubs:
        by_arc.setdefault(s.arc, []).append(s)
    for aid, ss in by_arc.items():
        if len(ss) == 2:
            c0 = next(s.cut for s in ss if s.end == 0)
            c1 = next(s.cut for s in ss if s.end == 1)
            if not c0 < c1:
                raise CertificateError(f"stubs on arc {aid!r} overlap")
    return InwardNeighborhood(arc_id, tuple(stubs))


def _neighborhood_pieces(
    model: YModel, g: YHomeo, nb: InwardNeighborhood
) -> tuple[list[tuple], list[tuple]]:
    """Polyline pieces of closure(g(V)) and of the complement of V."""
    image_pieces = [model.arc(nb.arc).sub_polyline(Fraction(0), Fraction(1))]
    complement_ranges: dict[str, list[tuple[Fraction, Fraction]]] = {
        a.id: [(Fraction(0), Fraction(1))] for a in model.arcs if a.id != nb.arc
    }
    stubs_by_arc: dict[str, dict[int, Stub]] = {}
    for s in nb.stubs:
        stubs_by_arc.setdefault(s.arc, {})[s.end] = s
    for aid, ends in stubs_by_arc.items():
        arc = model.arc(aid)
        fb = g.map_for(aid)
        lo_keep, hi_keep = Fraction(0), Fraction(1)
        if 0 in ends:
            cut = ends[0].cut
            image_pieces.append(arc.sub_polyline(Fraction(0), evaluate(fb, cut)))
            lo_keep = cut
        if 1 in ends:
            cut = ends[1].cut
            image_pieces.append(arc.sub_polyline(evaluate(fb, cut), Fraction(1)))
            hi_keep = cut
        complement_ranges[aid] = [(lo_keep, hi_keep)]
    complement_pieces = [
        model.arc(aid).sub_polyline(lo, hi)
        for aid, ranges in complement_ranges.items()
        for lo, hi in ranges
    ]
    return image_pieces, complement_pieces


def _min_separation_sq(
    image_pieces: list[tuple], complement_pieces: list[tuple]
) -> Fraction | None:
    """Exact min squared distance between the piece families; None if the
    complement is empty (single-arc models: every fattening stays inside)."""
    best: Fraction | None = None
    for poly_a in image_pieces:
        for i in range(len(poly_a) - 1):
            sa, sb = poly_a[i], poly_a[i + 1]
            for poly_b in complement_pieces:
                for j in range(len(poly_b) - 1):
                    d2 = dist2_segment_segment(sa, sb, poly_b[j], poly_b[j + 1])
                    if best is None or d2 < best:
                        best = d2
    return best


def quasi_attractor_certificate(
    model: YModel,
    g: YHomeo,
    arc_id: str,
    epsilon: Fraction,
    trials: int = 200,
    seed: int = 0,
    config: ShadowingConfig = DEFAULT_CONFIG,
) -> QuasiAttractorCertificate:
    """Execute the one-arc shadowing-transfer chain and return its constants.

    Steps: empirical inner modulus of the arc map at epsilon/2 (converted
    through the arc's stretch bounds); projection margin alpha at half of
    min(epsilon/2, delta1/3, delta1 over three Lipschitz units); inward
    stubs within alpha; exact strict attraction of the stub cuts; the
    largest grid delta below delta1/3 whose fattening of closure(g(V))
    stays inside V, certified by the exact squared separation.
    """
    validate_homeo(model, g)
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    arc = model.arc(arc_id)
    fa = g.map_for(arc_id)

    eps_half_param = (epsilon / 2) / arc.stretch_hi
    delta1_param = estimate_shadowing_modulus(fa, eps_half_param, trials, seed, config)
    if delta1_param == 0:
        raise CertificateError(f"arc {arc_id!r}: empirical shadowing modulus is zero")
    delta1 = delta1_param * arc.stretch_lo

    lip_ambient = arc.stretch_hi * max_slope(fa) / arc.stretch_lo
    alpha = min(epsilon / 2, delta1 / 3, delta1 / (3 * lip_ambient)) / 2

    nb = find_inward_neighborhood(model, g, arc_id, alpha)
    for s in nb.stubs:
        fb = g.map_for(s.arc)
        img = evaluate(fb, s.cut)
        if s.end == 0 and not img < s.cut:
            raise CertificateError(f"stub on {s.arc!r} is not strictly attracted")
        if s.end == 1 and not img > s.cut:
            raise CertificateError(f"stub on {s.arc!r} is not strictly attracted")

    image_pieces, complement_pieces = _neighborhood_pieces(model, g, nb)
    sep_sq = _min_separation_sq(image_pieces, complement_pieces)

    delta = None
    for j in range(1, config.delta_grid_levels + 1):
        cand = delta1 / 3 / 2**j
        if sep_sq is None or cand * cand < sep_sq:
            delta = cand
            break
    if delta is None:
        raise CertificateError(
            f"arc {arc_id!r}: no grid delta below the exact separation distance"
        )
    if sep_sq is None:
        sep_sq = Fraction(-1)  # sentinel: empty complement, separation vacuous
    return QuasiAttractorCertificate(arc_id, epsilon, delta1, alpha, nb, delta, sep_sq)


def global_shadowing_delta(
    model: YModel,
    g: YHomeo,
    epsilon: Fraction,
    trials: int = 200,
    seed: int = 0,
    config: ShadowingConfig = DEFAULT_CONFIG,
) -> tuple[Fraction, list[tuple[str, Fraction]]]:
    """Per-arc certificates, the exact cover check, and the global delta.

    The certified arcs are themselves the cover (every model point lies on
    one); raises CoverFailure listing sample points of arcs that could not
    be certified.  Returns (min of the per-arc deltas, the per-arc list).
    """
    certs: list[QuasiAttractorCertificate] = []
    failures: dict[str, str] = {}
    for i, arc in enumerate(model.arcs):
        try:
            certs.append(
                quasi_attractor_certificate(
                    model, g, arc.id, epsilon, trials, seed * 1009 + i, config
                )
            )
        except CertificateError as exc:
            failures[arc.id] = str(exc)
    if failures:
        uncovered = [YPoint(aid, Fraction(1, 2)) for aid in sorted(failures)]
        detail = "; ".join(f"{aid}: {msg}" for aid, msg in sorted(failures.items()))
        raise CoverFailure(f"cover failure: {detail}", uncovered)
    cover = [(c.arc, c.delta) for c in certs]
    return min(c.delta for c in certs), cover


# ---------------------------------------------------------------------------
# Shadowing-point search on the model
# ---------------------------------------------------------------------------


def _verified_arc_shadow(
    model: YModel,
    g: YHomeo,
    arc_id: str,
    y: Fraction,
    targets: list,
    epsilon: Fraction,
) -> bool:
    """Exact check that the forward orbit of (arc, y) epsilon-tracks targets."""
    arc = model.arc(arc_id)
    fa = g.map_for(arc_id)
    eps_sq = epsilon * epsilon
    z = y
    for p in targets:
        if dist2_pp(arc.embed(z), model.embed(p)) > eps_sq:
            return False
        z = evaluate(fa, z)
    return True


def shadow_on_arc(
    model: YModel,
    g: YHomeo,
    arc_id: str,
    orbit: PseudoOrbit,
    epsilon: Fraction,
) -> YPoint | None:
    """Search one arc for a verified epsilon-shadowing point.

    Projects the orbit to nearest points of the arc, solves the exact
    arc-level shadowing set at the tolerance left after the projection
    margin, and verifies each candidate directly in ambient distance (so
    the returned witness is sound regardless of the conversion bounds).
    """
    if orbit.offset != 0:
        raise ValueError("arc search expects a forward pseudo-orbit")
    arc = model.arc(arc_id)
    fa = g.map_for(arc_id)
    targets = list(orbit.points)

    proj: list[Fraction] = []
    worst_d2 = Fraction(0)
    for p in targets:
        t, d2 = arc.nearest(model.embed(p))
        proj.append(t)
        worst_d2 = max(worst_d2, d2)
    if worst_d2 >= epsilon * epsilon:
        return None
    margin_hi = sqrt_enclosure(worst_d2)[1]
    eps_rem = epsilon - margin_hi
    candidates: list[Fraction] = []
    if eps_rem > 0:
        s = shadowing_set(
            fa, PseudoOrbit(tuple(proj), 0, Fraction(1)), eps_rem / arc.stretch_hi
        )
        for lo, hi in s.intervals:
            candidates.extend(((lo + hi) / 2, lo, hi))
    candidates.extend(proj[:1])  # the projected start is a cheap extra candidate
    for y in candidates:
        if _verified_arc_shadow(model, g, arc_id, y, targets, epsilon):
            return YPoint(arc_id, y)
    return None


def shadow_on_model(
    model: YModel, g: YHomeo, orbit: PseudoOrbit, epsilon: Fraction
) -> YPoint | None:
    """Locate a verified epsilon-shadowing point anywhere on the model.

    Tries arcs in order of exact distance from the orbit's start; the
    first arc whose search verifies a witness wins.
    """
    if orbit.offset != 0:
        raise ValueError("model search expects a forward pseudo-orbit")
    start = model.embed(orbit.points[0])
    ranked = sorted(model.arcs, key=lambda a: (a.nearest(start)[1], a.id))
    for arc in ranked:
        w = shadow_on_arc(model, g, arc.id, orbit, epsilon)
        if w is not None:
            return w
    return None


# ---------------------------------------------------------------------------
# Soundness sampling
# ---------------------------------------------------------------------------


def sample_near_arc(
    model: YModel, arc_id: str, radius: Fraction, rng: random.Random, grid: int
) -> YPoint:
    """A random model point within ``radius`` (ambient) of the given arc."""
    arc = model.arc(arc_id)
    if rng.randrange(2) == 0:
        return YPoint(arc_id, Fraction(rng.randrange(0, grid + 1), grid))
    end = rng.randrange(2)
    vertex = model.vertex_of(arc, 0 if end == 0 else 1)
    neighbors = [(a, e) for a, e in model.arcs_at(vertex) if a.id != arc_id]
    if not neighbors:
        return YPoint(arc_id, Fraction(rng.randrange(0, grid + 1), grid))
    other, oend = neighbors[rng.randrange(len(neighbors))]
    depth = min(radius / other.stretch_hi, Fraction(1)) * Fraction(
        rng.randrange(0, grid), grid
    )
    return YPoint(other.id, depth if oend == 0 else 1 - depth)


def sample_certificate_soundness(
    model: YModel,
    g: YHomeo,
    cert: QuasiAttractorCertificate,
    trials: int,
    seed: int,
    config: ShadowingConfig = DEFAULT_CONFIG,
) -> list[int]:
    """Indices of sampled orbits near the arc that fail to be shadowed on it.

    Each trial starts within the certificate's delta of the arc, runs a
    delta-pseudo-orbit forward, and must be epsilon-shadowed by a point of
    the arc itself.
    """
    failures: list[int] = []
    for t in range(trials):
        rng = random.Random(seed * 7_368_787 + t)
        x0 = sample_near_arc(model, cert.arc, cert.delta, rng, config.noise_grid)
        orbit = generate_pseudo_orbit_y(
            model, g, cert.delta, config.orbit_length, x0, seed * 7_368_787 + t + 1, config
        )
        if shadow_on_arc(model, g, cert.arc, orbit, cert.epsilon) is None:
            failures.append(t)
    return failures


def sample_global_soundness(
    model: YModel,
    g: YHomeo,
    delta: Fraction,
    epsilon: Fraction,
    trials: int,
    seed: int,
    config: ShadowingConfig = DEFAULT_CONFIG,
) -> list[int]:
    """Indices of arbitrary-start delta-pseudo-orbits with no verified witness."""
    failures: list[int] = []
    arc_ids = model.arc_ids()
    for t in range(trials):
        rng = random.Random(seed * 9_999_991 + t)
        aid = arc_ids[rng.randrange(len(arc_ids))]
        x0 = YPoint(aid, Fraction(rng.randrange(0, config.noise_grid + 1), config.noise_grid))
        orbit = generate_pseudo_orbit_y(
            model, g, delta, config.orbit_length, x0, seed * 9_999_991 + t + 1, config
        )
        if shadow_on_model(model, g, orbit, epsilon) is None:
            failures.append(t)
    return failures
