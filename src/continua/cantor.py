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
  right-to-left sweep with one monotone staircase per orientation, run on
  integer keys: every endpoint scaled by the lcm of the endpoint
  denominators).  One builder makes a table from a sequence of intervals
  and the domain's ends, reading each end from the integer pair that its
  interval holds.  A map keeps the table of its own intervals, built on
  first use, so repeated decisions on one map only rescan it, and the
  threshold of a ternary map is read from it; the list
  ``wandering_intervals(f)`` leads back to that table while it still holds
  f's intervals;
* greedy inductive conjugacy building against the ternary template, with
  an exact residual; it compares interval widths on the same table's keys,
  takes the residual without composing h∘g, and builds the template once
  per depth;
* fixed-point explosions (planting a canonical generator inside an
  interval of fixed points) and the densification routine that plants
  alternating chains until the property holds.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import is_

from .plmap import (
    DomainError,
    Orientation,
    OrientedInterval,
    PLHomeo,
    _Frozen,
    _MapIntervals,
    _composite_c0_distance,
    _gaps,
    _generator_points,
    compose,
    fixed_set,
    identity,
)
from .rational import positive, rational_to_json


class InsufficientIntervals(RuntimeError):
    """A conjugacy round found no admissible interval in some gap."""


class ExplosionSiteError(ValueError):
    """Explosion window not inside an interval of fixed points."""


# ---------------------------------------------------------------------------
# Ternary indices
# ---------------------------------------------------------------------------


class TernaryIndex(_Frozen):
    """Level/offset address of a middle-third interval."""

    _fields = ("n", "k")

    def __post_init__(self):
        if self.n < 0 or not 0 <= self.k < 3**self.n:
            raise ValueError(f"invalid ternary index ({self.n}, {self.k})")

    @property
    def orientation(self) -> Orientation:
        return Orientation.R if self.n % 2 == 0 else Orientation.L

    def interval(self) -> tuple[Fraction, Fraction]:
        """Exact endpoints of the middle-third interval this index addresses."""
        d = 3 ** (self.n + 1)
        return Fraction(3 * self.k + 1, d), Fraction(3 * self.k + 2, d)


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
    return _plant(
        identity(), sorted((*idx.interval(), idx.orientation) for idx in minimal_indices(levels))
    )


def _plant(f: PLHomeo, slots: list[tuple[Fraction, Fraction, Orientation]]) -> PLHomeo:
    """f with the canonical generator of each slot (a, b, orientation)
    planted on [a, b].

    The windows must be sorted, pairwise disjoint and fixed pointwise by f.
    Then the result's breakpoints are f's breakpoints outside the windows
    merged with each generator's three points, each with the value already
    stored for it, so no point is evaluated and no map is built per slot.
    """
    fx, fy = f.breakpoints, f.values
    xs: list[Fraction] = []
    ys: list[Fraction] = []
    i = 0
    for a, b, orient in slots:
        while fx[i] < a:
            xs.append(fx[i])
            ys.append(fy[i])
            i += 1
        while i < len(fx) and fx[i] <= b:
            i += 1
        gx, gy = _generator_points(a, b, orient)
        xs.extend(gx)
        ys.extend(gy)
    xs.extend(fx[i:])
    ys.extend(fy[i:])
    return PLHomeo(tuple(xs), tuple(ys))


# ---------------------------------------------------------------------------
# Fine alternating chains
# ---------------------------------------------------------------------------


class ChainWitness(_Frozen):
    """An ordered alternating chain witnessing the fine-chain property.

    Conditions: interval order is strict, orientations alternate starting
    with R, and leading margin, every gap, and trailing margin are all
    strictly below ``epsilon``.
    """

    _fields = ("intervals", "epsilon")

    def __post_init__(self):
        ivs = self.intervals
        if not ivs:
            raise ValueError("empty witness chain")
        for i, iv in enumerate(ivs):
            want = Orientation.R if i % 2 == 0 else Orientation.L
            if iv.orientation is not want:
                raise ValueError(f"orientation at position {i + 1} must be {want.value}")
        # b < a on the intervals' reduced ends, so no Fraction is built
        ends = [iv._ends for iv in ivs]
        for (_, _, bn, bd), (an, ad, _, _) in zip(ends, ends[1:]):
            if not bn * ad < an * bd:
                raise ValueError("chain intervals must be strictly ordered")

    def quality(self, lo: Fraction = Fraction(0), hi: Fraction = Fraction(1)) -> Fraction:
        """max of leading margin, gaps, trailing margin; witness iff < epsilon.
        Read from the intervals' integer ends, so no a or b is built."""
        gaps = _gaps(self.intervals, lo.as_integer_ratio(), hi.as_integer_ratio())
        return max(Fraction(an * bd - bn * ad, bd * ad) for (bn, bd), (an, ad) in gaps)


# a chain table: (d, lo·d, hi·d, [a_i·d], [b_i·d], orientations, fwd)
_Table = tuple[int, int, int, list[int], list[int], list[Orientation], list[int]]


def _chain_table(
    ivs: Sequence[OrientedInterval], lo: tuple[int, int], hi: tuple[int, int]
) -> _Table:
    """The chain table of sorted, pairwise disjoint wandering intervals on
    [lo, hi], given as reduced (numerator, denominator) pairs: d is the lcm
    of the denominators of lo, hi and every end, and fwd[i]·d is the least
    max(later gaps, trailing margin) from i (``_chain_sweep``).  Each end
    is read from its interval's reduced pair, so no ``Fraction`` is built
    or read, and scaling by d keeps every comparison exact.  It builds a
    new table on every call; a map keeps its own (``_map_chain_table``)."""
    ends = [iv._ends for iv in ivs]
    an, ad, bn, bd = zip(*ends) if ends else ((),) * 4
    dens = {*ad, *bd}
    d = lcm(lo[1], hi[1], *dens)
    scale = {q: d // q for q in dens}
    a = [p * scale[q] for p, q in zip(an, ad)]
    b = [p * scale[q] for p, q in zip(bn, bd)]
    orient = [iv.orientation for iv in ivs]
    top = hi[0] * (d // hi[1])
    return d, lo[0] * (d // lo[1]), top, a, b, orient, _chain_sweep(a, b, orient, top)


def _chain_sweep(a: list[int], b: list[int], orient: list[Orientation], top: int) -> list[int]:
    """fwd of the chain DP on integer keys: interval i is (a[i], b[i]) with
    orientation orient[i], the domain ends at top, and fwd[i] is the
    minimal achievable max(later gaps, trailing margin) from i.

    Minimax dynamic programming over all alternating continuations; with it
    the scan in ``check_chain_property`` is complete: it finds a witness
    whenever any subsequence of the wandering intervals is one.

    The intervals must be sorted and pairwise disjoint, as
    ``wandering_intervals`` returns them; then every j >= i + 2 lies
    strictly right of i, and only j = i + 1 can touch it.  The sweep runs
    right to left in O(n log n).  Per orientation it keeps a staircase of
    candidates j, nearest last, with a_j increasing and fwd[j] strictly
    decreasing in j (a candidate farther right with no smaller fwd never
    wins again).  Along it max(a_j - b_i, fwd[j]) first falls with fwd[j],
    then rises with a_j - b_i, so one bisection on a_j - fwd[j] finds the
    crossing and its two neighbours hold the minimum.  The staircase is queried while it
    holds only j >= i + 2; j = i + 1 is tested directly and pushed after
    fwd[i] is known, because a touching i + 1 must not evict a candidate
    that is valid for i.  The loop takes its minima and maxima with plain
    comparisons, not ``min``/``max`` calls.  It runs once per table.
    """
    n = len(a)
    fwd = [0] * n
    # per orientation (picked by identity: an Orientation hashes in Python):
    # candidate indices, and fwd[j] - a_j, which increases along the list
    R = Orientation.R
    right, right_keys, left, left_keys = [], [], [], []
    for i in range(n - 1, -1, -1):
        j = i + 2
        if j < n:
            fj = fwd[j]
            if orient[j] is R:
                js, keys = right, right_keys
            else:
                js, keys = left, left_keys
            while js and fwd[js[-1]] >= fj:
                js.pop()
                keys.pop()
            js.append(j)
            keys.append(fj - a[j])
        bi = b[i]
        mine = orient[i]
        best = top - bi
        if mine is R:  # the staircase of the next link's orientation
            js, keys = left, left_keys
        else:
            js, keys = right, right_keys
        p = bisect_right(keys, -bi)
        if p:
            c = a[js[p - 1]] - bi
            if c < best:
                best = c
        if p < len(js):
            c = fwd[js[p]]
            if c < best:
                best = c
        if i + 1 < n and orient[i + 1] is not mine:
            c = a[i + 1] - bi
            if c > 0:
                rest = fwd[i + 1]
                if rest > c:
                    c = rest
                if c < best:
                    best = c
        fwd[i] = best
    return fwd


def _map_chain_table(f: PLHomeo) -> _Table:
    """The chain table of f's cached wandering intervals on f's domain,
    whose ends are read from f's integer form; built on first use and kept
    on f next to its intervals.  Its readers do not change it."""
    table = f.__dict__.get("_chain_table")
    if table is None:
        xn, xd = f._ints[:2]
        table = _chain_table(f._structure, (xn[0], xd[0]), (xn[-1], xd[-1]))
        object.__setattr__(f, "_chain_table", table)
    return table


def best_chain_quality(
    ivs: list[OrientedInterval], lo: Fraction = Fraction(0), hi: Fraction = Fraction(1)
) -> Fraction | None:
    """Exact optimum of ChainWitness.quality over all alternating chains.

    ``ivs`` must be sorted and pairwise disjoint (else ValueError).  None
    when there is no R interval to start a chain.  The minimum is taken over
    an integer chain table; only the result is a ``Fraction``.  The list
    ``wandering_intervals(f)`` reads f's kept table while it holds f's own
    interval objects, in f's order, and ``lo`` and ``hi`` are f's domain
    ends; any other list builds its own table.
    """
    f = ivs.map if isinstance(ivs, _MapIntervals) else None
    if (
        f is not None
        and (lo, hi) == f.domain
        and len(ivs) == len(f._structure)
        and all(map(is_, ivs, f._structure))
    ):
        table = _map_chain_table(f)
    else:
        table = _chain_table(ivs, lo.as_integer_ratio(), hi.as_integer_ratio())
    a, b = table[3:5]
    if any(bi > ai for bi, ai in zip(b, a[1:])):
        raise ValueError("wandering intervals must be sorted and pairwise disjoint")
    return _table_optimum(table)


def _table_optimum(table: _Table) -> Fraction | None:
    """The least quality of a chain, read from a chain table, or None when
    no R interval starts one."""
    d, start, _, a, _, orient, fwd = table
    best = min(
        (max(ai - start, rest) for ai, o, rest in zip(a, orient, fwd) if o is Orientation.R),
        default=None,
    )
    return None if best is None else Fraction(best, d)


def check_chain_property(f: PLHomeo, epsilon: Fraction) -> ChainWitness | None:
    """Witness for the fine-chain property at ``epsilon``, or None.

    One left-to-right scan over the wandering intervals and their suffix
    minimax: an interval joins the chain when it has the wanted orientation
    (R first, then alternating), lies strictly right of the chain's end b
    (``lo`` before the first link), and its gap from b and best continuation
    both stay below ``epsilon``.  So each link is the earliest one that
    keeps the chain completable, and the chain grows while one remains.
    The scan reads f's integer table, built on the first call and kept on
    f: x/d < p/q exactly when x·q < p·d.  The closing check recomputes the
    witness's quality from the table's keys of the chosen links.
    """
    epsilon = positive(epsilon, "epsilon")
    ivs = f._structure
    d, start, top, a, b, orient, fwd = _map_chain_table(f)
    q, bound = epsilon.denominator, epsilon.numerator * d
    links: list[int] = []
    end, want = start, Orientation.R
    for k, (o, ak, rest) in enumerate(zip(orient, a, fwd)):
        if o is want and (not links or ak > end) and max(ak - end, rest) * q < bound:
            links.append(k)
            end, want = b[k], want.flipped()
    if not links:
        return None
    witness = ChainWitness(tuple(ivs[k] for k in links), epsilon)
    margins = [a[links[0]] - start, top - b[links[-1]]]
    margins += [a[k] - b[j] for j, k in zip(links, links[1:])]
    assert max(margins) * q < bound
    return witness


def chain_property_threshold(levels: int) -> Fraction:
    """Infimum tolerance above which the depth-``levels`` map has a witness.

    Computed by the exact minimax search over all alternating subsequences
    of its wandering intervals, read from the map's kept table; the infimum
    is attained, so the property holds exactly for tolerances strictly
    above the returned value.
    """
    best = _table_optimum(_map_chain_table(build_ternary_map(levels)))
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Conjugacy building
# ---------------------------------------------------------------------------


class ConjugacyReport(_Frozen):
    """Result of the inductive template matching.

    ``h`` identifies matched intervals of the input with the ternary
    template affinely and interpolates linearly elsewhere; ``residual`` is
    the exact uniform distance between h∘g and t∘h where t is the depth
    (depth-1) ternary map recorded by the producing call.
    """

    _fields = ("h", "depth", "matched", "residual")

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
    Ties break leftmost.  Gaps and widths are taken on the integer keys of
    the chain table kept on g.  Raises InsufficientIntervals when a gap
    offers no admissible interval.

    The residual c0_distance(h∘g, t∘h) is taken piece by piece over h
    (``plmap._composite_c0_distance``), so the long h∘g is never built;
    t∘h has at most len(h) + len(t) breakpoints.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if g.domain != (Fraction(0), Fraction(1)):
        raise DomainError(f"conjugacy building expects maps on [0, 1], got [{g.lo}, {g.hi}]")
    # sorted and disjoint, so the intervals inside a gap form one index
    # range of both endpoint key lists of the table kept on g; a width is
    # b − a over the table's scale d
    ivs = g._structure
    d, start, top, a, b, orient, _ = _map_chain_table(g)

    picks: list[tuple[int, TernaryIndex]] = []
    # (source gap as two keys, j) pairs, left to right: the template gap
    # matched to the source gap holds T(level, j), and the gaps on either
    # side of T(n, j) hold T(n + 1, 3j) and T(n + 1, 3j + 2)
    gaps = [(start, top, 0)]
    for rnd in range(1, depth + 1):
        level = rnd - 1
        want = Orientation.R if level % 2 == 0 else Orientation.L
        new_gaps = []
        for glo, ghi, j in gaps:
            # the widest, and the leftmost of equally wide
            best, widest = None, 0
            for k in range(bisect_right(a, glo), bisect_left(b, ghi)):
                if orient[k] is want and (best is None or b[k] - a[k] > widest):
                    best, widest = k, b[k] - a[k]
            if best is None:
                raise InsufficientIntervals(
                    f"insufficient intervals: round {rnd}: no {want.value} interval "
                    f"inside gap ({Fraction(glo, d)}, {Fraction(ghi, d)})"
                )
            picks.append((best, TernaryIndex(level, j)))
            new_gaps += [(glo, a[best], 3 * j), (b[best], ghi, 3 * j + 2)]
        gaps = new_gaps
    matched = [(ivs[k], idx) for k, idx in sorted(picks, key=lambda pick: pick[0])]

    xs: list[Fraction] = [Fraction(0)]
    ys: list[Fraction] = [Fraction(0)]
    for iv, idx in matched:
        xs.extend((iv.a, iv.b))
        ys.extend(idx.interval())
    xs.append(Fraction(1))
    ys.append(Fraction(1))
    h = PLHomeo(tuple(xs), tuple(ys))

    residual = _composite_c0_distance(h, g, compose(_template(depth - 1), h))
    return ConjugacyReport(h, depth, tuple(matched), residual)


@lru_cache(maxsize=1)
def _template(levels: int) -> PLHomeo:
    """``build_ternary_map(levels)`` behind a one-entry memo: repeated
    calls at one depth build it once, and only the last one used is kept."""
    return build_ternary_map(levels)


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
    p, delta = Fraction(p), positive(delta, "delta")
    lov, hiv = p - delta, p + delta
    if not any(a <= lov and hiv <= b for a, b in fixed_set(f)):
        raise ExplosionSiteError(f"[{lov}, {hiv}] not inside fixed set")
    return _plant(f, [(lov, hiv, orient)])


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
    epsilon = positive(epsilon, "epsilon")
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

    # the windows are sorted, disjoint and inside fixed stretches, so one
    # planting equals the sequence of individual explosions
    result = _plant(f, slots)

    if check_chain_property(result, epsilon) is None:
        raise ValueError(
            "cannot densify: isolated fixed points leave no room to restore alternation"
        )
    return result
