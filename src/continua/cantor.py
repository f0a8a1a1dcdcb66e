"""Middle-thirds interval combinatorics and the alternating model map.

The closed interval family T(n, k) = [(3k+1)/3^(n+1), (3k+2)/3^(n+1)]
enumerates middle thirds at every ternary level.  Planting the canonical
right-moving generator on even levels and the left-moving one on odd levels
(shallowest level wins where indices nest) yields, at truncation depth N,
an exact PL map whose wandering intervals are the non-nested T(n, k) with
n <= N.

On top of that construction this module provides:

* the fine-alternating-chain property: an ordered R, L, R, ... chain of
  wandering intervals whose leading margin, gaps, and trailing margin are
  all below a tolerance; decision procedure, witness extraction, and the
  exact feasibility threshold by minimax dynamic programming over all
  subsequences, O(n log n) in the number n of wandering intervals (a
  right-to-left sweep with one monotone staircase per orientation);
* greedy inductive conjugacy building against the ternary template, with
  an exact residual;
* fixed-point explosions (planting a canonical generator inside an
  interval of fixed points) and the densification routine that plants
  alternating chains until the property holds.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .plmap import (
    DomainError,
    Orientation,
    OrientedInterval,
    PLHomeo,
    c0_distance,
    canonical_generator,
    compose,
    evaluate,
    fixed_set,
    wandering_intervals,
)
from .rational import rational_from_json, rational_to_json


class InsufficientIntervals(RuntimeError):
    """A conjugacy round found no admissible interval in some gap."""


class ExplosionSiteError(ValueError):
    """Explosion window not inside an interval of fixed points."""


# ---------------------------------------------------------------------------
# Ternary indices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TernaryIndex:
    """Level/offset address of a middle-third interval."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 0 or not 0 <= self.k < 3**self.n:
            raise ValueError(f"invalid ternary index ({self.n}, {self.k})")

    @property
    def orientation(self) -> Orientation:
        return Orientation.R if self.n % 2 == 0 else Orientation.L

    def interval(self) -> tuple[Fraction, Fraction]:
        d = 3 ** (self.n + 1)
        return Fraction(3 * self.k + 1, d), Fraction(3 * self.k + 2, d)

    def is_minimal(self) -> bool:
        """True when not nested inside a shallower middle third.

        Holds exactly when every base-3 digit of k (n digits) is 0 or 2.
        """
        k = self.k
        for _ in range(self.n):
            if k % 3 == 1:
                return False
            k //= 3
        return True

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k}

    @staticmethod
    def from_json(obj: dict) -> "TernaryIndex":
        return TernaryIndex(int(obj["n"]), int(obj["k"]))


def ternary_interval(idx: TernaryIndex) -> tuple[Fraction, Fraction]:
    """Exact endpoints of the middle-third interval addressed by ``idx``."""
    return idx.interval()


def all_indices(max_level: int) -> list[TernaryIndex]:
    """Every (n, k) with n <= max_level, nested ones included."""
    return [TernaryIndex(n, k) for n in range(max_level + 1) for k in range(3**n)]


def minimal_indices(max_level: int) -> list[TernaryIndex]:
    """The non-nested indices with n <= max_level: 2^n per level n.

    These are exactly the wandering intervals realized by the depth-limited
    alternating map; nested indices are shadowed by a shallower level.
    """
    out: list[TernaryIndex] = []
    for n in range(max_level + 1):
        ks = [0]
        for _ in range(n):
            ks = [3 * k + d for k in ks for d in (0, 2)]
        out.extend(TernaryIndex(n, k) for k in sorted(ks))
    return out


def build_ternary_map(levels: int) -> PLHomeo:
    """Depth-truncated alternating map on [0, 1].

    Equal to the canonical right generator on every non-nested middle third
    of even level <= ``levels``, the canonical left generator on odd levels,
    and to the identity elsewhere (deeper gaps and the residual set).
    """
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    plan = sorted(
        (idx.interval(), idx.orientation) for idx in minimal_indices(levels)
    )
    xs: list[Fraction] = [Fraction(0)]
    ys: list[Fraction] = [Fraction(0)]
    for (a, b), orient in plan:
        gen = canonical_generator(a, b, orient)
        for x, y in zip(gen.breakpoints, gen.values):
            if x > xs[-1]:
                xs.append(x)
                ys.append(y)
    if xs[-1] != 1:
        xs.append(Fraction(1))
        ys.append(Fraction(1))
    return PLHomeo(tuple(xs), tuple(ys))


# ---------------------------------------------------------------------------
# Fine alternating chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainWitness:
    """An ordered alternating chain witnessing the fine-chain property.

    Conditions: interval order is strict, orientations alternate starting
    with R, and leading margin, every gap, and trailing margin are all
    strictly below ``epsilon``.
    """

    intervals: tuple[OrientedInterval, ...]
    epsilon: Fraction

    def __post_init__(self):
        ivs = self.intervals
        if not ivs:
            raise ValueError("empty witness chain")
        for i, iv in enumerate(ivs):
            want = Orientation.R if i % 2 == 0 else Orientation.L
            if iv.orientation is not want:
                raise ValueError(f"orientation at position {i + 1} must be {want.value}")
        for prev, nxt in zip(ivs, ivs[1:]):
            if not prev.b < nxt.a:
                raise ValueError("chain intervals must be strictly ordered")

    def quality(self, lo: Fraction = Fraction(0), hi: Fraction = Fraction(1)) -> Fraction:
        """max of leading margin, gaps, trailing margin; witness iff < epsilon."""
        ivs = self.intervals
        worst = max(ivs[0].a - lo, hi - ivs[-1].b)
        for prev, nxt in zip(ivs, ivs[1:]):
            worst = max(worst, nxt.a - prev.b)
        return worst

    def to_json(self) -> dict:
        return {
            "epsilon": rational_to_json(self.epsilon),
            "intervals": [iv.to_json() for iv in self.intervals],
        }

    @staticmethod
    def from_json(obj: dict) -> "ChainWitness":
        return ChainWitness(
            tuple(OrientedInterval.from_json(o) for o in obj["intervals"]),
            rational_from_json(obj["epsilon"]),
        )


def _suffix_best(ivs: list[OrientedInterval], hi: Fraction) -> list[Fraction]:
    """fwd[i]: minimal achievable max(later gaps, trailing margin) from i.

    Minimax dynamic programming over all alternating continuations; with it
    the scan below is complete: it finds a witness whenever any subsequence
    of the wandering intervals is one.

    ``ivs`` must be sorted and pairwise disjoint, as ``wandering_intervals``
    returns them; then every j >= i + 2 lies strictly right of i, and only
    j = i + 1 can touch it.  The sweep runs right to left in O(n log n).
    Per orientation it keeps a staircase of candidates j, nearest last,
    with a_j increasing and fwd[j] strictly decreasing in j (a candidate
    farther right with no smaller fwd never wins again).  Along it
    max(a_j - b_i, fwd[j]) first falls with fwd[j], then rises with
    a_j - b_i, so one bisection on a_j - fwd[j] finds the crossing and its
    two neighbours hold the minimum.  The staircase is queried while it
    holds only j >= i + 2; j = i + 1 is tested directly and pushed after
    fwd[i] is known, because a touching i + 1 must not evict a candidate
    that is valid for i.
    """
    for prev, nxt in zip(ivs, ivs[1:]):
        if prev.b > nxt.a:
            raise ValueError("wandering intervals must be sorted and pairwise disjoint")
    n = len(ivs)
    fwd = [Fraction(0)] * n
    # per orientation: candidate indices, and fwd[j] - a_j, which increases
    # along the list
    stairs = {Orientation.R: ([], []), Orientation.L: ([], [])}
    for i in range(n - 1, -1, -1):
        if i + 2 < n:
            j = i + 2
            js, keys = stairs[ivs[j].orientation]
            while js and fwd[js[-1]] >= fwd[j]:
                js.pop()
                keys.pop()
            js.append(j)
            keys.append(fwd[j] - ivs[j].a)
        b = ivs[i].b
        want = ivs[i].orientation.flipped()
        best = hi - b
        js, keys = stairs[want]
        p = bisect_right(keys, -b)
        if p > 0:
            best = min(best, ivs[js[p - 1]].a - b)
        if p < len(js):
            best = min(best, fwd[js[p]])
        if i + 1 < n and ivs[i + 1].orientation is want and ivs[i + 1].a > b:
            best = min(best, max(ivs[i + 1].a - b, fwd[i + 1]))
        fwd[i] = best
    return fwd


def best_chain_quality(
    ivs: list[OrientedInterval], lo: Fraction = Fraction(0), hi: Fraction = Fraction(1)
) -> Fraction | None:
    """Exact optimum of ChainWitness.quality over all alternating chains.

    None when there is no R interval to start a chain.
    """
    fwd = _suffix_best(ivs, hi)
    best: Fraction | None = None
    for i, iv in enumerate(ivs):
        if iv.orientation is Orientation.R:
            q = max(iv.a - lo, fwd[i])
            if best is None or q < best:
                best = q
    return best


def check_chain_property(f: PLHomeo, epsilon: Fraction) -> ChainWitness | None:
    """Witness for the fine-chain property at ``epsilon``, or None.

    Left-to-right scan over the wandering intervals, keeping only steps that
    preserve feasibility (the suffix minimax above), taking the earliest
    such interval at each step; the chain is extended while any feasible
    extension remains.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    lo, hi = f.domain
    ivs = wandering_intervals(f)
    if not ivs:
        return None
    fwd = _suffix_best(ivs, hi)

    start = None
    for i, iv in enumerate(ivs):
        if iv.orientation is Orientation.R and max(iv.a - lo, fwd[i]) < epsilon:
            start = i
            break
    if start is None:
        return None

    chain = [start]
    while True:
        cur = ivs[chain[-1]]
        want = cur.orientation.flipped()
        step = None
        for j in range(chain[-1] + 1, len(ivs)):
            iv = ivs[j]
            if iv.orientation is want and iv.a > cur.b and max(iv.a - cur.b, fwd[j]) < epsilon:
                step = j
                break
        if step is None:
            break
        chain.append(step)
    witness = ChainWitness(tuple(ivs[i] for i in chain), epsilon)
    assert witness.quality(lo, hi) < epsilon
    return witness


DEFAULT_THRESHOLD_LEVEL_BOUND = 6


def chain_property_threshold(levels: int, max_levels: int = DEFAULT_THRESHOLD_LEVEL_BOUND) -> Fraction:
    """Infimum tolerance above which the depth-``levels`` map has a witness.

    Computed by the exact minimax search over all alternating subsequences
    of its wandering intervals; the infimum is attained, so the property
    holds exactly for tolerances strictly above the returned value.
    """
    if levels > max_levels:
        raise ValueError(f"levels={levels} exceeds the exhaustive-search bound {max_levels}")
    f = build_ternary_map(levels)
    best = best_chain_quality(wandering_intervals(f))
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Conjugacy building
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjugacyReport:
    """Result of the inductive template matching.

    ``h`` identifies matched intervals of the input with the ternary
    template affinely and interpolates linearly elsewhere; ``residual`` is
    the exact uniform distance between h∘g and t∘h where t is the depth
    (depth-1) ternary map recorded by the producing call.
    """

    h: PLHomeo
    depth: int
    matched: tuple[tuple[OrientedInterval, TernaryIndex], ...]
    residual: Fraction

    def to_json(self) -> dict:
        return {
            "h": self.h.to_json(),
            "depth": self.depth,
            "matched": [
                {"source": iv.to_json(), "target": idx.to_json()}
                for iv, idx in self.matched
            ],
            "residual": rational_to_json(self.residual),
        }


def build_conjugacy(g: PLHomeo, depth: int) -> ConjugacyReport:
    """Greedy inductive matching of g's wandering intervals to the template.

    Round 1 matches g's widest R interval to the level-0 middle third;
    round k matches, inside each gap created so far, the widest interval of
    the level-(k-1) orientation (R for even level, L for odd) to the unique
    template interval of that level in the corresponding template gap.
    Ties break leftmost.  Raises InsufficientIntervals when a gap offers no
    admissible interval.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if g.domain != (Fraction(0), Fraction(1)):
        raise DomainError(f"conjugacy building expects maps on [0, 1], got {g.domain}")
    ivs = wandering_intervals(g)
    by_level = {n: [idx for idx in minimal_indices(depth - 1) if idx.n == n] for n in range(depth)}

    matched: list[tuple[OrientedInterval, TernaryIndex]] = []
    for rnd in range(1, depth + 1):
        level = rnd - 1
        want = Orientation.R if level % 2 == 0 else Orientation.L
        bounds = [Fraction(0)]
        for iv, _ in matched:
            bounds.extend((iv.a, iv.b))
        bounds.append(Fraction(1))
        gaps = [(bounds[i], bounds[i + 1]) for i in range(0, len(bounds), 2)]

        t_bounds = [Fraction(0)]
        for _, idx in matched:
            a, b = idx.interval()
            t_bounds.extend((a, b))
        t_bounds.append(Fraction(1))
        t_gaps = [(t_bounds[i], t_bounds[i + 1]) for i in range(0, len(t_bounds), 2)]

        new_pairs: list[tuple[OrientedInterval, TernaryIndex]] = []
        for (glo, ghi), (tlo, thi) in zip(gaps, t_gaps):
            targets = [
                idx for idx in by_level[level] if tlo < idx.interval()[0] and idx.interval()[1] < thi
            ]
            assert len(targets) == 1, "template gap must contain exactly one interval of its level"
            cands = [
                iv for iv in ivs if iv.orientation is want and glo < iv.a and iv.b < ghi
            ]
            if not cands:
                raise InsufficientIntervals(
                    f"round {rnd}: no {want.value} interval inside gap ({glo}, {ghi})"
                )
            pick = max(cands, key=lambda iv: (iv.width, -iv.a))
            new_pairs.append((pick, targets[0]))
        matched.extend(new_pairs)
        matched.sort(key=lambda pair: pair[0].a)

    xs: list[Fraction] = [Fraction(0)]
    ys: list[Fraction] = [Fraction(0)]
    for iv, idx in matched:
        a, b = idx.interval()
        xs.extend((iv.a, iv.b))
        ys.extend((a, b))
    xs.append(Fraction(1))
    ys.append(Fraction(1))
    h = PLHomeo(tuple(xs), tuple(ys))

    template = build_ternary_map(depth - 1)
    residual = c0_distance(compose(h, g), compose(template, h))
    return ConjugacyReport(h, depth, tuple(matched), residual)


# ---------------------------------------------------------------------------
# Explosions and densification
# ---------------------------------------------------------------------------


def explode_fixed_point(
    f: PLHomeo, p: Fraction, delta: Fraction, orient: Orientation
) -> PLHomeo:
    """Replace the fixed stretch [p-delta, p+delta] by a canonical generator.

    Requires the whole window to lie inside one maximal interval of fixed
    points; outside the window the result is bit-identical to ``f``.
    """
    p, delta = Fraction(p), Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    lov, hiv = p - delta, p + delta
    if not any(a <= lov and hiv <= b for a, b in fixed_set(f)):
        raise ExplosionSiteError(f"[{lov}, {hiv}] not inside fixed set")
    gen = canonical_generator(lov, hiv, orient)
    xs = sorted(set(x for x in f.breakpoints if not lov < x < hiv) | set(gen.breakpoints))
    ys = [evaluate(gen, x) if lov <= x <= hiv else evaluate(f, x) for x in xs]
    return PLHomeo(tuple(xs), tuple(ys))


def densify_chain_property(f: PLHomeo, epsilon: Fraction) -> PLHomeo:
    """Plant alternating generators in fixed stretches until the chain
    property holds at ``epsilon``, moving the map by less than ``epsilon``.

    Inputs that already satisfy the property are returned unchanged.
    Planting works in (L, R) stations: every fixed component of positive
    length receives pairs of opposite-oriented generators at pitch below
    epsilon/2, so a chain arriving in either parity finds its next interval
    within epsilon regardless of the surrounding wandering structure.
    Widths stay at or below epsilon/8, so the uniform distance to the input
    is at most epsilon/32.  Raises when the property is still unattainable
    (isolated fixed points wedged between fat same-oriented intervals admit
    no planting site).
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if check_chain_property(f, epsilon) is not None:
        return f

    slots: list[tuple[Fraction, Fraction, Orientation]] = []
    for u, v in fixed_set(f):
        if u == v:
            continue
        w = min(epsilon / 8, (v - u) / 8)
        s = u + w / 2
        while s + 3 * w <= v:
            slots.append((s, s + w, Orientation.L))
            slots.append((s + 3 * w / 2, s + 5 * w / 2, Orientation.R))
            s += 4 * w

    # all windows are disjoint and inside fixed stretches, so one merged
    # rebuild equals the sequence of individual explosions
    windows = [(a, b) for a, b, _ in slots]
    xs = sorted(
        set(x for x in f.breakpoints if not any(a < x < b for a, b in windows))
        | {p for a, b, o in slots for p in canonical_generator(a, b, o).breakpoints}
    )
    gens = {(a, b): canonical_generator(a, b, o) for a, b, o in slots}

    def value(x: Fraction) -> Fraction:
        for (a, b), gen in gens.items():
            if a <= x <= b:
                return evaluate(gen, x)
        return evaluate(f, x)

    result = PLHomeo(tuple(xs), tuple(value(x) for x in xs))

    if check_chain_property(result, epsilon) is None:
        raise ValueError(
            "cannot densify: isolated fixed points leave no room to restore alternation"
        )
    return result
