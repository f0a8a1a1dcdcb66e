"""Pseudo-orbits, exact shadowing sets, and quasi-attractor certificates.

Interval side: seeded pseudo-orbit generation with certified jump bounds,
exact finite-window shadowing sets for monotone PL maps (preimages of
tubes are intervals with rational endpoints, so the intersection is exact),
and an empirical estimate of the shadowing modulus by a top-down grid scan.

Continuum side: pseudo-orbits on the arc model, the constructive
delta-chain for one invariant arc (empirical inner modulus, projection
margin, inward neighborhood with strictly attracted stubs, exact
separation of the neighborhood's image from its complement), the covering
composition over all arcs, and a self-verifying shadowing-point search.
``certify_model`` runs the whole ``certify``: the cover, then the samplers.

Everything is deterministic for a fixed seed, and sampling runs
sequentially.  Both soundness samplers run one trial loop: trial t draws
its start from ``Random(base + t)`` and its orbit from seed base + t + 1,
and steps and searches that orbit in one integer pass on the arc maps'
kernels.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from functools import cache, cached_property
from heapq import heapify, heappop
from itertools import product
from math import gcd, lcm

from .continuum import Arc, YHomeo, YModel, YPoint, validate_homeo
from .geometry import _box, _box_gap_sq, _segment_dist2, _segment_record
from .plmap import (
    _REDUCE_ABOVE,
    Orientation,
    PLHomeo,
    _Frozen,
    _kernel_step,
    evaluate,
    invert,
    iterate,
    max_slope,
    wandering_intervals,
)
from .rational import (
    parse_integer,
    parse_rational,
    positive,
    rational_to_json,
    sqrt_enclosure,
)


class CertificateError(RuntimeError):
    """The constructive delta-chain could not be completed."""


class NoInwardStub(CertificateError):
    """An adjacent arc has no inward-flowing interval within reach."""


class CoverFailure(RuntimeError):
    """Some arcs could not be certified.  ``uncovered`` holds a placeholder
    point at parameter 1/2 per failed arc, not evidence (ROADMAP item 2)."""

    def __init__(self, message: str, uncovered: list[YPoint]):
        super().__init__(message)
        self.uncovered = uncovered


# Sampling constants, pinned by regression tests.  The modulus scan tries
# GRID_LEVELS levels; the containment delta search gets its own
# deeper grid, because stub attraction gaps shrink with the truncation depth
# while staying exactly decidable.
ORBIT_LENGTH = 24
NOISE_GRID = 512
GRID_LEVELS = 12
DELTA_GRID_LEVELS = 24
# A noise draw is _below(bits, _NOISE_WIDTH) - (NOISE_GRID - 1), in -511..511.
_NOISE_WIDTH = 2 * NOISE_GRID - 1


# ---------------------------------------------------------------------------
# Pseudo-orbits
# ---------------------------------------------------------------------------


class PseudoOrbit(_Frozen):
    """A finite two-sided point sequence, of interval points or of model points.

    ``points[i]`` is the state at index i - offset, so the window is
    [-offset, len(points) - 1 - offset].
    """

    _fields = ("points", "offset")

    def __post_init__(self):
        if not self.points:
            raise ValueError("empty pseudo-orbit")
        if not 0 <= self.offset < len(self.points):
            raise ValueError("offset outside the point list")

    def point(self, i: int):
        return self.points[i + self.offset]


def _from_end(end: int, x: Fraction) -> Fraction:
    """The arc parameter at depth x from end ``end`` (0 or 1); its own inverse."""
    return 1 - x if end else x


def _below(bits: Callable[[int], int], n: int) -> int:
    """A draw in [0, n), n >= 1, on ``bits``, a ``Random.getrandbits``: CPython's
    ``_randbelow_with_getrandbits``, which ``randrange(a, b)`` runs as a +
    _randbelow(b - a), so it reads the words and gives the values of ``randrange``,
    which raises ValueError on an empty range too."""
    if n < 1:
        raise ValueError(f"empty range for a draw below {n}")
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _clamp(x: Fraction, lo: Fraction, hi: Fraction) -> Fraction:
    return min(max(x, lo), hi)


def generate_pseudo_orbit(
    f: PLHomeo,
    delta: Fraction,
    window: tuple[int, int],
    x0: Fraction,
    seed: int,
) -> PseudoOrbit:
    """Seeded noisy orbit of x0 over ``window``, each jump below ``delta``.

    Forward steps add uniform rational noise below delta/2 to the exact
    image, and backward steps perturb the exact preimage by noise scaled
    down by the slope bound, so every jump stays below delta.  Points are
    clamped to the domain (the exact image is in the domain, so clamping
    never increases a jump).  The forward run x1..xn draws its noise
    before the backward run x-1..x-m.
    """
    bits = random.Random(seed).getrandbits
    delta = positive(delta, "delta")
    m, n = -window[0], window[1]
    if m < 0 or n < 0:
        raise ValueError("window must contain index 0")
    lo, hi = f.domain
    x0 = Fraction(x0)
    if not lo <= x0 <= hi:
        raise ValueError("x0 outside the domain")

    def run(g: PLHomeo, steps: int, bound: Fraction) -> list[Fraction]:
        ys = [x0]
        for _ in range(steps):
            noise = Fraction(_below(bits, _NOISE_WIDTH) - (NOISE_GRID - 1), NOISE_GRID)
            ys.append(_clamp(evaluate(g, ys[-1]) + noise * bound, lo, hi))
        return ys

    forward = run(f, n, delta / 2)
    backward = run(invert(f), m, delta / (2 * max(Fraction(1), max_slope(f)))) if m else [x0]
    return PseudoOrbit(tuple(backward[:0:-1] + forward), m)


# ---------------------------------------------------------------------------
# Exact shadowing sets
# ---------------------------------------------------------------------------


class ShadowingSet(_Frozen):
    """Closed set of points whose orbit stays within epsilon of the orbit.

    y belongs iff |f^i(y) - x_i| <= epsilon for every window index i
    (closed tolerance: endpoints stay exactly representable).  For a
    monotone interval map this is one closed interval, or None when empty;
    the JSON form lists it as zero or one intervals.
    """

    _fields = ("interval", "epsilon")

    @property
    def is_empty(self) -> bool:
        return self.interval is None

    def contains(self, y: Fraction) -> bool:
        return self.interval is not None and self.interval[0] <= y <= self.interval[1]

    def to_json(self) -> dict:
        ivs = [] if self.interval is None else [self.interval]
        return {
            "epsilon": rational_to_json(self.epsilon),
            "intervals": [[rational_to_json(lo), rational_to_json(hi)] for lo, hi in ivs],
        }


def shadowing_set(f: PLHomeo, orbit: PseudoOrbit, epsilon: Fraction) -> ShadowingSet:
    """Exact intersection of pulled-back epsilon-tubes around the orbit.

    Folds the tubes under f's inverse from the window's last index to its
    first, then pushes the surviving interval forward ``orbit.offset``
    steps to index 0, so a forward orbit needs no push.
    """
    epsilon = positive(epsilon, "epsilon")
    cur = _forward_fold(invert(f), reversed(orbit.points), epsilon)
    if cur is None:
        return ShadowingSet(None, epsilon)
    k = orbit.offset
    return ShadowingSet((iterate(f, cur[0], k), iterate(f, cur[1], k)), epsilon)


def _forward_fold(
    g: PLHomeo, points: Iterable[Fraction], epsilon: Fraction
) -> tuple[Fraction, Fraction] | None:
    """Fold the epsilon-tubes around ``points`` forward under g: the image
    at the last point of their shadowing set under g, or None when empty.
    It runs on g's kernel (``_kernel_fold``)."""
    s = _kernel_fold(g._kernel, ((x.numerator, x.denominator) for x in points), epsilon)
    return None if s is None else (Fraction(*s[0]), Fraction(*s[1]))


def _kernel_fold(
    kernel: tuple, points: Iterable[tuple[int, int]], epsilon: Fraction
) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """The fold of ``_forward_fold`` on the kernel of g: each point and
    each fold end is an integer pair (numerator, denominator), and pairs
    are compared by cross-multiplying.

    The fold starts from the whole domain, which g maps onto itself, reads
    one point per step and returns at the first empty step.  g is a
    bijection, so the image is empty exactly when the set is.
    """
    d, keys, _ = kernel
    en, ed = epsilon.numerator, epsilon.denominator
    (A, P), (B, Q) = (keys[0], d), (keys[-1], d)
    for X, R in points:
        A, P = _kernel_step(kernel, A, P)
        B, Q = _kernel_step(kernel, B, Q)
        lo, hi, den = X * ed - en * R, X * ed + en * R, R * ed
        if lo * P > A * den:
            A, P = lo, den
        if hi * Q < B * den:
            B, Q = hi, den
        if A * Q > B * P:
            return None
    return (A, P), (B, Q)


def estimate_shadowing_modulus(
    f: PLHomeo, epsilon: Fraction, trials: int, seed: int
) -> Fraction:
    """Largest grid delta whose sampled pseudo-orbits are all shadowed.

    Scans the grid epsilon / 2^j (``GRID_LEVELS`` levels) from the top
    down and returns 0 when even the smallest value fails.  Trial t draws
    its start once, from seed * 1_000_003 + 2t, and seeds its orbit one
    higher at every level.  A trial's orbit is the one
    ``generate_pseudo_orbit`` draws from that start and seed over the
    window (0, ``ORBIT_LENGTH``), and the verdict is whether its
    ``shadowing_set`` is non-empty.  A lower-confidence empirical stand-in
    for the true modulus.  Orbits depend only on (map, delta, start, seed),
    so for epsilons 2^k apart the grids line up and the larger epsilon's
    estimate is at least the smaller's (when that value is on both grids).
    Other ratios have no such order: depth-2 ternary map, 20 trials, seed 2
    gives 1/58 at epsilon 1/29 and 1/112 at epsilon 1/28.
    When epsilon is at least hi - lo, every tube covers the domain, which f
    fixes, so every trial at level 0 is shadowed: the scan returns epsilon
    before it draws a start or builds a ``Random``.

    Each call picks how it decides a trial from its input: in integers on
    one scale fixed for the whole call (``_one_scale_table``, then
    ``_one_scale_trial``) when the lcm M of the kernel's γ is at most
    2^32 and f has at most trials·``ORBIT_LENGTH`` pieces, and by the
    definition otherwise: ``generate_pseudo_orbit``, then ``_forward_fold``
    on f's kernel, whose image is empty exactly when the shadowing set is.
    Both give the same verdict on every trial, so the choice changes no
    value.
    """
    epsilon = positive(epsilon, "epsilon")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if epsilon >= f.hi - f.lo:
        return epsilon
    base = seed * 1_000_003
    draws = (random.Random(base + 2 * t).getrandbits for t in range(trials))
    starts = [_below(bits, NOISE_GRID + 1) for bits in draws]
    table = _one_scale_table(f, epsilon, trials)
    lo, hi = f.domain
    for j in range(GRID_LEVELS):
        delta = epsilon / 2**j
        if all(
            _one_scale_trial(table, delta, k, base + 2 * t + 1)
            if table is not None
            else _forward_fold(f, generate_pseudo_orbit(
                f, delta, (0, ORBIT_LENGTH), lo + (hi - lo) * Fraction(k, NOISE_GRID),
                base + 2 * t + 1).points, epsilon) is not None
            for t, k in enumerate(starts)
        ):
            return delta
    return Fraction(0)


# The one-scale path's bound on M, the lcm of the kernel's γ; its table is
# O(pieces) and its scale has about 24·log2(M) bits.  Its modulus time over
# the definition's (epsilon 1/20, 1/29 and 3/1000, seeds 1–10; x86-64,
# Python 3.11) was 0.25–0.27 at 24 and 25 pieces and 1 trial, and 0.16–0.17
# at M = 2^32 and 2^33.  Far past the bounds the definition is cheaper: 8
# against 25 ms on a 200-digit explosion (M of 666 bits, 10 trials), 4
# against 38 ms on the depth-14 map (98302 pieces, 10 trials).
_ONE_SCALE_MAX_GAMMA = 2**32


def _one_scale_table(f: PLHomeo, epsilon: Fraction, trials: int) -> tuple | None:
    """The per-call table of ``_one_scale_trial``: (S, cuts, pieces, LO, HI, E),
    or None when the call decides its trials by the definition.

    S = D0·M^ORBIT_LENGTH, with M the lcm of the kernel's γ and D0 the lcm
    of d and 1024·δ.den at the grid's smallest δ = epsilon/2^(GRID_LEVELS - 1);
    D0 is then a multiple of 512·lo.den, 512·hi.den and epsilon.den too, as
    lo and hi are breakpoints and epsilon is δ·2^(GRID_LEVELS - 1).  A
    trial's start, clamps, tubes and noise unit have denominators dividing
    D0, and a piece (α, β, γ) maps a value of denominator dividing D0·M^i
    to one of denominator dividing D0·M^(i+1), as γ divides M.  So after
    step i every value a trial carries is an integer over S, and a step is
    one exact floor division.  ``cuts`` holds the interior keys times S/d,
    so the piece of X/S is ``bisect_right(cuts, X)``, and ``pieces`` holds
    (α, β·S, γ).  The table is O(pieces) and S has about 24·log2(M) bits,
    so the call runs the definition when f has more than
    trials·``ORBIT_LENGTH`` pieces or M is above ``_ONE_SCALE_MAX_GAMMA``:
    far past those bounds the table costs more than the definition.
    """
    d, keys, pieces = f._kernel
    if len(pieces) > trials * ORBIT_LENGTH:
        return None
    M = lcm(*[g for _, _, g in pieces])
    if M > _ONE_SCALE_MAX_GAMMA:
        return None
    lo, hi = f.domain
    finest = epsilon / 2 ** (GRID_LEVELS - 1)
    S = lcm(d, 2 * NOISE_GRID * finest.denominator) * M**ORBIT_LENGTH
    s = S // d
    return (
        S,
        [key * s for key in keys[1 : len(pieces)]],
        [(a, b * S, g) for a, b, g in pieces],
        lo.numerator * (S // lo.denominator),
        hi.numerator * (S // hi.denominator),
        epsilon.numerator * (S // epsilon.denominator),
    )


def _one_scale_trial(table: tuple, delta: Fraction, k: int, seed: int) -> bool:
    """Whether the seeded delta-pseudo-orbit from lo + (hi - lo)·k/NOISE_GRID
    has a non-empty epsilon-shadowing set over (0, ``ORBIT_LENGTH``), on the
    per-call scale S of ``_one_scale_table``.

    One pass steps the orbit as ``generate_pseudo_orbit`` does (one
    ``_below`` noise draw per step, in units of delta/1024, clamped to the
    domain) and folds the tubes as ``_forward_fold`` does, reading x0 first
    and returning at the first empty step.  Every value is an integer over
    S, with the noise unit U = delta.num·S/(1024·delta.den).  A step on
    piece (α, β·S, γ) is X = (α·X + β·S) // γ, which is exact because the
    table's invariant holds (denominators divide D0·M^i after step i), so
    no step takes an lcm, rescales the tubes or the noise, or takes a gcd.
    """
    S, cuts, pieces, LO, HI, E = table
    U = delta.numerator * (S // (2 * NOISE_GRID * delta.denominator))
    X = (LO * (NOISE_GRID - k) + HI * k) // NOISE_GRID
    A, B = max(LO, X - E), min(HI, X + E)
    bits = random.Random(seed).getrandbits
    for _ in range(ORBIT_LENGTH):
        ax, bx, gx = pieces[bisect_right(cuts, X)]
        aa, ba, ga = pieces[bisect_right(cuts, A)]
        ab, bb, gb = pieces[bisect_right(cuts, B)]
        X = (ax * X + bx) // gx
        A = (aa * A + ba) // ga
        B = (ab * B + bb) // gb
        X += (_below(bits, _NOISE_WIDTH) - (NOISE_GRID - 1)) * U
        X = LO if X < LO else HI if X > HI else X
        if X - E > A:
            A = X - E
        if X + E < B:
            B = X + E
        if A > B:
            return False
    return True


# ---------------------------------------------------------------------------
# Orbit CSV interchange
# ---------------------------------------------------------------------------


def orbit_from_csv(stream) -> PseudoOrbit:
    import csv

    try:
        rows = list(csv.reader(stream))
    except csv.Error as exc:
        raise ValueError(f"unreadable orbit CSV: {exc}") from None
    if not rows or rows[0][:1] != ["index"]:
        raise ValueError("missing CSV header")
    header, body = rows[0], rows[1:]
    if not body:
        raise ValueError("empty orbit CSV")
    for n, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise ValueError(f"orbit CSV row {n} has {len(row)} fields, header has {len(header)}")
    indices = [parse_integer(r[0].strip()) for r in body]
    if indices != list(range(indices[0], indices[0] + len(indices))):
        raise ValueError("orbit indices must be consecutive")
    offset = -indices[0]
    if header[1:] == ["arc", "t"]:
        pts: tuple = tuple(YPoint(r[1], parse_rational(r[2])) for r in body)
    elif header[1:] == ["point"]:
        pts = tuple(parse_rational(r[1]) for r in body)
    else:
        raise ValueError(f"unrecognized orbit CSV header {header!r}")
    return PseudoOrbit(pts, offset)


# ---------------------------------------------------------------------------
# Pseudo-orbits on the arc model
# ---------------------------------------------------------------------------


# A model-orbit point as the integer pass carries it: arc id, T and D, at
# parameter T/D.
_ArcPoint = tuple[str, int, int]


def generate_pseudo_orbit_y(
    model: YModel,
    g: YHomeo,
    delta: Fraction,
    length: int,
    x0: YPoint,
    seed: int,
) -> PseudoOrbit:
    """Forward noisy orbit on the model with certified ambient jumps.

    Each step perturbs the exact image along its arc (parameter jitter
    scaled by the arc's stretch bound) and occasionally hops across a
    vertex onto an adjacent arc when the image lies close enough; both
    moves keep the ambient jump strictly below delta.  The steps run in
    integers (``_orbit_stepper``).
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    delta = positive(delta, "delta")
    validate_homeo(model, g)  # the kernels are read with no domain check
    points = _orbit_stepper(model, g, delta)(x0, length, seed)
    return PseudoOrbit(tuple(YPoint(aid, Fraction(T, D)) for aid, T, D in points), 0)


def _orbit_stepper(
    model: YModel, g: YHomeo, delta: Fraction
) -> Callable[[YPoint, int, int], list[_ArcPoint]]:
    """The stepper of ``generate_pseudo_orbit_y`` for (model, g, delta):
    step(x0, length, seed) gives the orbit's points as ``_ArcPoint``s.

    Each step maps T/D through the arc map's kernel, which multiplies D by
    the piece's γ.  Every draw is ``_below`` on the orbit's ``getrandbits``.
    Per step, it draws a value below 4; on 0, the first arc end whose
    depth is below delta/(4·stretch_hi), if any, gives the arcs across it,
    and when there are any (a tooth tip has none), it draws one and a depth
    of r units delta/(2048·stretch_hi) into it, r below 512 (clamped to the
    arc).  Otherwise it draws a jitter of r units delta/(1024·stretch_hi),
    r in -511..511, clamped to [0, 1].
    Each arc's unit is an integer K over C, and D stays a multiple C·S of
    C, so the unit over D is K·S; after a step whose γ is above
    ``plmap._REDUCE_ABOVE``, T, D and S are divided by the gcd of T and S.
    """
    units = {a.id: delta / (4 * NOISE_GRID * a.stretch_hi) for a in model.arcs}
    C = lcm(*(u.denominator for u in units.values()))
    # per arc: its map's kernel, its unit K over C, and the arcs across each end
    table = {
        a.id: (
            g.map_for(a.id)._kernel,
            units[a.id].numerator * (C // units[a.id].denominator),
            *([(o.id, oend) for o, oend in model.across(a, end)] for end in (0, 1)),
        )
        for a in model.arcs
    }

    def step(x0: YPoint, length: int, seed: int) -> list[_ArcPoint]:
        bits = random.Random(seed).getrandbits
        aid, t = x0.arc, x0.t
        D = lcm(C, t.denominator)
        S, T = D // C, t.numerator * (D // t.denominator)
        points = [(aid, T, D)]
        for _ in range(length):
            (d, keys, pieces), K, across0, across1 = table[aid]
            a, b, c = pieces[bisect_right(keys, T * d // D, 0, len(pieces)) - 1]
            T = a * T + b * D
            if c > 1:
                D, S = D * c, S * c
                if c > _REDUCE_ABOVE:
                    r = gcd(T, S)
                    T, D, S = T // r, D // r, S // r
            unit = K * S
            across: list[tuple[str, int]] = []
            if _below(bits, 4) == 0:
                if T < NOISE_GRID * unit:
                    across = across0
                elif D - T < NOISE_GRID * unit:
                    across = across1
            if across:
                aid, oend = across[_below(bits, len(across))]
                depth = min(table[aid][1] * S * _below(bits, NOISE_GRID), D)
                T = D - depth if oend else depth
            else:
                jitter = (_below(bits, _NOISE_WIDTH) - (NOISE_GRID - 1)) * 2 * unit
                T = min(max(T + jitter, 0), D)
            points.append((aid, T, D))
        return points

    return step


# ---------------------------------------------------------------------------
# Inward neighborhoods and certificates
# ---------------------------------------------------------------------------


class Stub(_Frozen):
    """Half-open sliver of an adjacent arc hanging off a shared vertex.

    end 0 keeps parameters [0, cut); end 1 keeps (cut, 1].  The cut point
    sits strictly inside a wandering interval flowing toward the vertex, so
    the arc map strictly pulls the closed stub into itself.
    """

    _fields = ("arc", "end", "cut")


class InwardNeighborhood(_Frozen):
    """An invariant arc together with strictly attracted boundary stubs."""

    _fields = ("arc", "stubs")

    @cached_property
    def kept(self) -> dict[str, tuple[Fraction, Fraction]]:
        """Parameter range [lo, hi] of each stubbed arc left outside the
        neighborhood: lo is its end-0 cut (else 0), hi its end-1 cut (else 1)."""
        out: dict[str, tuple[Fraction, Fraction]] = {}
        for s in self.stubs:
            lo, hi = out.get(s.arc, (Fraction(0), Fraction(1)))
            out[s.arc] = (s.cut, hi) if s.end == 0 else (lo, s.cut)
        return out


class QuasiAttractorCertificate(_Frozen):
    """Constants realizing the one-arc shadowing-transfer chain.

    delta1: empirical inner shadowing modulus of the arc at epsilon/2
    (ambient units).  alpha: projection margin, below min(epsilon/2,
    delta1/3) and small enough that the arc map moves alpha-close points
    by less than delta1/3.  neighborhood: the arc plus inward stubs within
    alpha.  delta: a grid value below delta1/3 with the delta-fattening of
    closure(g(V)) still inside V, via the exact separation distance.
    """

    _fields = ("arc", "epsilon", "delta1", "alpha", "neighborhood", "delta", "separation_sq")


# The orientation of a wandering interval that flows toward arc end 0 or 1.
_INWARD = (Orientation.L, Orientation.R)


def find_inward_neighborhood(
    model: YModel, g: YHomeo, arc_id: str, alpha: Fraction
) -> InwardNeighborhood:
    """The arc plus one inward stub on every adjacent arc.

    Each cut point lies strictly inside the wandering interval of the
    adjacent arc's map that flows toward the shared vertex and comes
    closest (the first read from that end), at ambient distance below
    alpha from it (clamped inside the arc when alpha exceeds its length).
    Raises NoInwardStub when there is none within reach.
    """
    alpha = positive(alpha, "alpha")
    arc = model.arc(arc_id)
    stubs: list[Stub] = []
    for end in (0, 1):
        for other, oend in model.across(arc, end):
            depth_bound = min(alpha / other.stretch_hi, Fraction(1))
            ivs = wandering_intervals(g.map_for(other.id))
            # (near, far) depths from the shared vertex of the closest inward interval
            nearest = next(
                (
                    sorted((_from_end(oend, iv.a), _from_end(oend, iv.b)))
                    for iv in (reversed(ivs) if oend else ivs)
                    if iv.orientation is _INWARD[oend]
                ),
                None,
            )
            if nearest is None or nearest[0] >= depth_bound:
                raise NoInwardStub(
                    f"no inward stub: arc {other.id!r} has no "
                    f"{_INWARD[oend].value}-flowing interval within {alpha} "
                    f"of vertex {model.vertex_of(arc, end)!r}"
                )
            near, far = nearest
            stubs.append(Stub(other.id, oend, _from_end(oend, (near + min(far, depth_bound)) / 2)))

    nb = InwardNeighborhood(arc_id, tuple(stubs))
    for aid, (lo, hi) in nb.kept.items():
        if not lo < hi:
            raise CertificateError(f"stubs on arc {aid!r} overlap")
    return nb


def _neighborhood_pieces(
    model: YModel, g: YHomeo, nb: InwardNeighborhood
) -> tuple[list[tuple], list[tuple]]:
    """Polyline pieces of closure(g(V)) and of the complement of V; raises
    CertificateError when a stub cut is not strictly attracted."""
    image_pieces = [model.arc(nb.arc).sub_polyline(Fraction(0), Fraction(1))]
    for s in nb.stubs:
        img = evaluate(g.map_for(s.arc), s.cut)
        if not _from_end(s.end, img) < _from_end(s.end, s.cut):
            raise CertificateError(f"stub on {s.arc!r} is not strictly attracted")
        image_pieces.append(model.arc(s.arc).sub_polyline(*sorted((Fraction(s.end), img))))
    complement_pieces = [
        a.sub_polyline(*nb.kept.get(a.id, (Fraction(0), Fraction(1))))
        for a in model.arcs
        if a.id != nb.arc
    ]
    return image_pieces, complement_pieces


def _min_separation_sq(
    image_pieces: list[tuple], complement_pieces: list[tuple]
) -> Fraction | None:
    """Exact min squared distance between the piece families; None if the
    complement is empty (single-arc models: every fattening stays inside).

    Best-first, as in Hjaltason and Samet's incremental distance join
    (SIGMOD 1998): the squared gap between two segments' bounding boxes
    bounds their distance from below, so the segment pairs are taken in
    order of that gap, and the scan stops at the first gap no smaller than
    the best exact distance so far.  Each polyline vertex is scaled once to
    integers, times the lcm D of all the denominators, and each segment
    gets its box and its ``geometry`` record (q = 1) from its two scaled
    ends.  So each gap is an integer and each segment distance a pair n/d
    (``_segment_dist2``, which projects with ``_project_segment``), both D²
    times the true value and compared by cross-multiplying.  The one
    ``Fraction`` is the result, n/(d·D²).
    """
    families = (image_pieces, complement_pieces)
    D = lcm(*(c.denominator for pieces in families for poly in pieces for p in poly for c in p))
    sides = []
    for pieces in families:
        side = []
        for poly in pieces:
            pts = [
                (x.numerator * (D // x.denominator), y.numerator * (D // y.denominator))
                for x, y in poly
            ]
            side += [(_box(a, b), _segment_record(1, a, b)) for a, b in zip(pts, pts[1:])]
        sides.append(side)
    # the index i keeps equal gaps from comparing records
    pairs = [
        (_box_gap_sq(box, other), i, s, t)
        for i, ((box, s), (other, t)) in enumerate(product(*sides))
    ]
    heapify(pairs)
    best: tuple[int, int] | None = None
    while pairs and (best is None or pairs[0][0] * best[1] < best[0]):
        _, _, s, t = heappop(pairs)
        n, d = _segment_dist2(s, t)
        if best is None or n * best[1] < best[0] * d:
            best = n, d
    return None if best is None else Fraction(best[0], best[1] * D * D)


def quasi_attractor_certificate(
    model: YModel,
    g: YHomeo,
    arc_id: str,
    epsilon: Fraction,
    trials: int,
    seed: int,
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
    epsilon = positive(epsilon, "epsilon")
    arc = model.arc(arc_id)
    fa = g.map_for(arc_id)

    eps_half_param = (epsilon / 2) / arc.stretch_hi
    delta1_param = estimate_shadowing_modulus(fa, eps_half_param, trials, seed)
    if delta1_param == 0:
        raise CertificateError(f"arc {arc_id!r}: empirical shadowing modulus is zero")
    delta1 = delta1_param * arc.stretch_lo

    lip_ambient = arc.stretch_hi * max_slope(fa) / arc.stretch_lo
    alpha = min(epsilon / 2, delta1 / 3, delta1 / (3 * lip_ambient)) / 2

    nb = find_inward_neighborhood(model, g, arc_id, alpha)
    image_pieces, complement_pieces = _neighborhood_pieces(model, g, nb)
    sep_sq = _min_separation_sq(image_pieces, complement_pieces)

    for j in range(1, DELTA_GRID_LEVELS + 1):
        delta = delta1 / 3 / 2**j
        if sep_sq is None or delta * delta < sep_sq:
            break
    else:
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
    trials: int,
    seed: int,
) -> tuple[Fraction, list[QuasiAttractorCertificate]]:
    """Per-arc certificates, the exact cover check, and the global delta.

    The certified arcs are themselves the cover (every model point lies on
    one); raises CoverFailure listing sample points of arcs that could not
    be certified.  Returns (min of the per-arc deltas, the certificates in
    arc order); arc i's certificate is seeded with ``seed * 1009 + i``.
    """
    certs: list[QuasiAttractorCertificate] = []
    failures: dict[str, str] = {}
    for i, arc in enumerate(model.arcs):
        try:
            certs.append(
                quasi_attractor_certificate(model, g, arc.id, epsilon, trials, seed * 1009 + i)
            )
        except CertificateError as exc:
            failures[arc.id] = str(exc)
    if failures:
        uncovered = [YPoint(aid, Fraction(1, 2)) for aid in sorted(failures)]
        detail = "; ".join(f"{aid}: {msg}" for aid, msg in sorted(failures.items()))
        raise CoverFailure(f"cover failure: {detail}", uncovered)
    return min(c.delta for c in certs), certs


# ---------------------------------------------------------------------------
# Shadowing-point search on the model
# ---------------------------------------------------------------------------


def _verified_arc_shadow(
    arc: Arc,
    fa: PLHomeo,
    y: Fraction,
    targets: Sequence[tuple[int, int, int]],
    epsilon: Fraction,
) -> bool:
    """Exact check that the forward orbit of (arc, y) epsilon-tracks the
    targets.

    Target i is the plane point (x/w, y/w) of its triple targets[i].  The
    orbit runs on fa's kernel as an integer pair Z/Q (``_kernel_step``),
    and each orbit point is placed by ``Arc._at`` as a triple too; the
    squared distance of the two points is compared with epsilon squared
    by cross-multiplying.
    """
    eps_sq = epsilon * epsilon
    en, ed = eps_sq.numerator, eps_sq.denominator
    kernel = fa._kernel
    Z, Q = y.numerator, y.denominator
    for tx, ty, tw in targets:
        px, py, w = arc._at(Z, Q)
        dx, dy = px * tw - tx * w, py * tw - ty * w  # over w·tw
        if (dx * dx + dy * dy) * ed > en * (w * tw) ** 2:
            return False
        Z, Q = _kernel_step(kernel, Z, Q)
    return True


def shadow_on_arcs(
    model: YModel, g: YHomeo, orbit: PseudoOrbit, epsilon: Fraction, arcs: Iterable[Arc]
) -> YPoint | None:
    """The first of ``arcs``, nearest to the orbit's start first, whose one
    candidate verifies; None is a search miss, not a proof.  The search
    runs in integers (``_search_arcs``)."""
    if orbit.offset != 0:
        raise ValueError("arc search expects a forward pseudo-orbit")
    epsilon = positive(epsilon, "epsilon")
    validate_homeo(model, g)  # the kernels are read with no domain check
    for p in orbit.points:
        model.arc(p.arc)  # an unknown arc id raises ModelError, reached or not
    points = [(p.arc, p.t.numerator, p.t.denominator) for p in orbit.points]
    return _search_arcs(model, g, points, epsilon, arcs)


def _search_arcs(
    model: YModel,
    g: YHomeo,
    points: Sequence[_ArcPoint],
    epsilon: Fraction,
    arcs: Iterable[Arc],
) -> YPoint | None:
    """``shadow_on_arcs`` on ``_ArcPoint``s.

    An orbit point on the searched arc is its own nearest point, at
    distance 0, so it keeps its parameter T/D and is never projected.  Each
    orbit point is placed at most once per search, as the integer triple
    ``Arc._at`` gives on its own arc, the first time an arc needs it, and
    ``Arc.nearest`` projects that triple in integers.  Each arc projects a
    point at most once: the start's projection ranks the arcs and is index
    0.  Squared distances stay integer pairs, compared with epsilon squared
    by cross-multiplying, so the Fractions an arc makes (its ranking key,
    the worst distance's root and the candidate) do not grow with the
    orbit.  An arc stops at the first point epsilon or more away.
    Otherwise it checks the midpoint of the exact shadowing set at the
    tolerance left after the projection margin, else the projected start,
    exactly in ambient distance.  Every point of a non-empty reduced set
    tracks when ``stretch_hi`` bounds the arc's stretch, so the midpoint
    stands for it.  The set is folded on the kernel of the arc map's
    inverse (``_kernel_fold``), and the candidate is checked on the map's
    kernel against the triples (``_verified_arc_shadow``).
    """
    en, ed = (epsilon * epsilon).as_integer_ratio()
    triple = cache(lambda i: model.arc(points[i][0])._at(*points[i][1:]))

    def project(arc: Arc, i: int) -> tuple[int, int, int, int]:
        aid, T, D = points[i]
        return (T, D, 0, 1) if aid == arc.id else arc.nearest(*triple(i))

    ranked = sorted(
        ((project(a, 0), a) for a in arcs), key=lambda r: (Fraction(*r[0][2:]), r[1].id)
    )
    for first, arc in ranked:
        fa = g.map_for(arc.id)
        proj: list[tuple[int, int]] = []
        wn, wd = 0, 1  # the largest squared distance so far
        for i in range(len(points)):
            tn, td, dn, dd = project(arc, i) if i else first
            if dn * ed >= en * dd:
                break
            if dn * wd > wn * dd:
                wn, wd = dn, dd
            proj.append((tn, td))
        else:
            y = Fraction(*proj[0])
            eps_rem = epsilon - sqrt_enclosure(Fraction(wn, wd))[1]
            if eps_rem > 0:
                s = _kernel_fold(invert(fa)._kernel, reversed(proj), eps_rem / arc.stretch_hi)
                if s is not None:
                    (A, P), (B, Q) = s
                    y = Fraction(A * Q + B * P, 2 * P * Q)
            targets = [triple(i) for i in range(len(points))]
            if _verified_arc_shadow(arc, fa, y, targets, epsilon):
                return YPoint(arc.id, y)
    return None


# ---------------------------------------------------------------------------
# Soundness sampling, and the whole certify run
# ---------------------------------------------------------------------------


def _sampled_failures(
    model: YModel,
    g: YHomeo,
    delta: Fraction,
    epsilon: Fraction,
    trials: int,
    base: int,
    start: Callable[[random.Random], YPoint],
    arcs: Sequence[Arc],
) -> list[int]:
    """Indices t of the sampled delta-pseudo-orbits that ``shadow_on_arcs``
    finds no epsilon-shadow for on ``arcs``.  Trial t starts at
    ``start(Random(base + t))`` and seeds its orbit with base + t + 1; its
    orbit is stepped and searched in integers, as ``generate_pseudo_orbit_y``
    and ``shadow_on_arcs`` do, with no ``YPoint`` per step."""
    step = _orbit_stepper(model, g, delta)
    failures: list[int] = []
    for t in range(trials):
        points = step(start(random.Random(base + t)), ORBIT_LENGTH, base + t + 1)
        if _search_arcs(model, g, points, epsilon, arcs) is None:
            failures.append(t)
    return failures


def sample_certificate_soundness(
    model: YModel,
    g: YHomeo,
    cert: QuasiAttractorCertificate,
    trials: int,
    seed: int,
) -> list[int]:
    """Indices of sampled orbits near the arc that fail to be shadowed on it.

    Each trial starts within the certificate's delta of the arc, runs a
    delta-pseudo-orbit forward, and must be epsilon-shadowed by a point of
    the arc itself.
    """
    arc = model.arc(cert.arc)

    def start(rng: random.Random) -> YPoint:
        # the arc itself half the time, and when the chosen end has no other arc
        bits = rng.getrandbits
        if _below(bits, 2) == 0 or not (neighbors := model.across(arc, _below(bits, 2))):
            return YPoint(arc.id, Fraction(_below(bits, NOISE_GRID + 1), NOISE_GRID))
        other, oend = neighbors[_below(bits, len(neighbors))]
        depth = min(cert.delta / other.stretch_hi, Fraction(1)) * Fraction(
            _below(bits, NOISE_GRID), NOISE_GRID
        )
        return YPoint(other.id, _from_end(oend, depth))

    return _sampled_failures(
        model, g, cert.delta, cert.epsilon, trials, seed * 7_368_787, start, [arc]
    )


def sample_global_soundness(
    model: YModel,
    g: YHomeo,
    delta: Fraction,
    epsilon: Fraction,
    trials: int,
    seed: int,
) -> list[int]:
    """Indices of arbitrary-start delta-pseudo-orbits with no verified witness."""

    def start(rng: random.Random) -> YPoint:
        arc = model.arcs[_below(rng.getrandbits, len(model.arcs))]
        return YPoint(arc.id, Fraction(_below(rng.getrandbits, NOISE_GRID + 1), NOISE_GRID))

    return _sampled_failures(model, g, delta, epsilon, trials, seed * 9_999_991, start, model.arcs)


def certify_model(
    model: YModel, g: YHomeo, epsilon: Fraction, trials: int, seed: int
) -> tuple[Fraction, list[QuasiAttractorCertificate], dict[str, list[int]], list[int]]:
    """The whole ``certify`` run: (global delta, certificates in arc order,
    the sampled failures of each arc that has any, the global failures).

    ``global_shadowing_delta`` builds arc i's certificate with seed
    ``seed * 1009 + i``, and raises CoverFailure as it does.  Then that
    certificate is sampled with ``seed * 31 + i``, and the global delta
    with ``seed * 17``.
    """
    delta, certs = global_shadowing_delta(model, g, epsilon, trials, seed)
    per_arc_failures = {}
    for i, cert in enumerate(certs):
        fails = sample_certificate_soundness(model, g, cert, trials, seed * 31 + i)
        if fails:
            per_arc_failures[cert.arc] = fails
    global_failures = sample_global_soundness(model, g, delta, epsilon, trials, seed * 17)
    return delta, certs, per_arc_failures, global_failures
