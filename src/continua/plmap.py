"""Piecewise-linear increasing self-homeomorphisms of a closed interval.

A ``PLHomeo`` is an increasing PL map with matched breakpoint/value lists
over exact rationals, with both endpoints fixed (orientation preserving).
The representation is canonical: a breakpoint whose two adjacent slopes
are equal is pruned, so structural equality is semantic equality and
identity laws hold bit-exactly.

What every map holds is its integer form, ``_ints``: int tuples of the
numerators and denominators, in lowest terms, of its breakpoints, values
and per-piece slopes, with its domain.  Equality and hashing compare it.
The Fraction tuples ``breakpoints`` and ``values`` are built from it when
first read and then kept; so are the per-piece slopes, one Fraction per
distinct slope, and their maximum (``max_slope`` reads it).
``to_json`` writes the form, and builds neither tuple.

The validating constructor ``PLHomeo(breakpoints, values)`` is the only
public way to build a map; ``from_json`` and every other module go through
it.  It checks and prunes the Fractions it is given, keeps them, and
fills the integer form from them.  Inside this module, results that are
canonical by construction (an inverse, a pruned composition) are wrapped
by ``_trusted`` from their integer form alone, without being checked
again: ``compose`` fills it from the integers its walk holds, and
``invert`` swaps the tuples of the map it inverts.  ``compose``,
``c0_distance``, the fixed-set walk and the kernel read it and no
Fraction per point: they order abscissae, interpolate and take signs by
cross-multiplying pairs.  There is no common scale, so no integer the
walks form grows with the number of distinct denominators.  ``compose``
walks the two lists by runs: a run of one list inside one piece of the
other copies its own coordinate and sends the other through that piece,
and only a point where the lists meet can be pruned.  Each walk has one
run body, whatever the run's length: ``_gallop`` ends the run, and the
piece's affine form is built once for it.  ``c0_distance``
cuts the longer list into blocks of 16 pieces and samples both maps at
the block ends; as both maps increase, the gap on a block [u, v] is at
most max(a(v) − b(u), b(v) − a(u)), so its ``_sup_gap`` walks, by runs
as ``compose`` does, only the blocks whose bound exceeds the largest gap
found so far; ``_composite_c0_distance`` runs it per piece of h to take
the distance of h∘g from a map without building h∘g.  The fixed-set walk
builds no Fraction, and its intervals skip the constructor's check,
which its order guarantees.

Each map also caches, on first use, its integer evaluation kernel (read
by ``evaluate`` and by the integer passes of ``shadowing``: the sampled
modulus's per-call one-scale table and its trials, the model-orbit
stepper, and the search's fold and check), its inverse (returned by
``invert``), and its wandering intervals, found in one walk over the
breakpoints; their reduced integer ends are the one store of them
(``wandering_intervals`` copies the tuple, ``fixed_set`` builds its
Fractions from the gaps around them, ``cantor`` its chain table).  The
kernel scales the breakpoints by d, the lcm of their denominators, to
integer keys, and writes each piece as f(p/q) = (α·p + β·q)/(γ·q) with
integers α, β, γ, so one evaluation locates its piece by integer
comparisons and builds one Fraction.
``_kernel_step`` is the one step of a single point on the kernel, as an
integer pair: ``evaluate`` builds its Fraction, and ``shadowing``'s fold
and check step on it without one.  The inverse holds no reference back
to its map, so the cache forms no reference cycle.

The module provides the algebra (evaluate, compose, invert, iterate),
the uniform metric on maps and their inverses, fixed-set and
wandering-interval analysis, the one-breakpoint canonical generators
(whose three points ``cantor`` plants without building a map per slot),
affine rescaling, and an exact Lipschitz constant (``max_slope``).

``_Frozen`` is the base of the package's value classes: ``PLHomeo`` and
``OrientedInterval`` here, and the records of ``cantor``, ``continuum`` and
``shadowing``.  Its one ``__init__`` stores their fields and its one
``to_json`` writes them; it gives the frozen dataclass's refusals,
equality, hash and ``repr``, so no CLI process imports ``dataclasses``.
"""

from __future__ import annotations

from bisect import bisect_right
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .rational import pair_to_json, rational_from_json, rational_to_json


# An integer pass divides its carried integers by their gcd after a step
# whose growth factor is above this, that is, has more than 64 bits.
_REDUCE_ABOVE = 2**64 - 1


class DomainError(ValueError):
    """Argument outside a map's domain, or mismatched domains."""


class Orientation(str, Enum):
    R = "R"
    L = "L"

    def flipped(self) -> "Orientation":
        return Orientation.L if self is Orientation.R else Orientation.R


class _Frozen:
    """Base of the package's immutable value classes.

    Its ``__init__`` serves every subclass: one positional argument per
    name in ``_fields``, else TypeError, each stored with
    ``object.__setattr__``, then ``__post_init__``, which a subclass
    overrides to check its fields.  Assigning or deleting an attribute
    raises AttributeError.  Equality, hashing and ``repr`` read ``_fields``
    as a frozen dataclass's generated methods do: equal when the class is
    the same and the field tuples are equal, the hash of the field tuple,
    and ``Name(field=value!r, ...)``.  So does ``to_json``, by ``_json``.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *args):
        if len(args) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} arguments")
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign a {type(value).__name__} to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}")

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def to_json(self) -> dict:
        return {name: _json(getattr(self, name)) for name in self._fields}


def _json(value):
    """``_Frozen.to_json``'s rule: a Fraction by ``rational_to_json``, a value
    class by its ``to_json``, a tuple as a list, a dict by value, else as is."""
    if isinstance(value, Fraction):
        return rational_to_json(value)
    if isinstance(value, _Frozen):
        return value.to_json()
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    if isinstance(value, dict):
        return {k: _json(v) for k, v in value.items()}
    return value


class OrientedInterval(_Frozen):
    """A wandering interval (a, b) tagged by where its points flow.

    R: the map exceeds the identity on (a, b), so forward orbits converge
    to b.  L: the map is below the identity, orbits converge to a.

    It holds ``_ends``, a and b as reduced pairs (an, ad, bn, bd), which
    the constructor fills from the a and b it checks and keeps.  The
    fixed-set walk sets ``_ends`` alone, and a and b are built when first
    read, as ``PLHomeo`` builds its tuples.
    """

    _fields = ("a", "b", "orientation")

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"empty interval ({self.a}, {self.b})")
        a, b = Fraction(self.a), Fraction(self.b)
        object.__setattr__(self, "_ends", (a.numerator, a.denominator, b.numerator, b.denominator))

    # built from _ends when first read, then kept
    a = cached_property(lambda self: Fraction(*self._ends[:2]))
    b = cached_property(lambda self: Fraction(*self._ends[2:]))

    def to_json(self) -> dict:
        an, ad, bn, bd = self._ends
        return {"a": pair_to_json(an, ad), "b": pair_to_json(bn, bd),
                "orientation": self.orientation.value}


class PLHomeo(_Frozen):
    """Increasing PL bijection of [lo, hi] fixing both endpoints.

    breakpoints: strictly increasing, first = lo, last = hi.
    values: strictly increasing, values[0] = lo, values[-1] = hi.
    Evaluation linearly interpolates between consecutive breakpoints.

    Immutable: assigning or deleting an attribute raises.  Two maps are
    equal, and hash alike, when their integer forms are equal, which holds
    exactly when their breakpoint and value tuples are.
    """

    _fields = ("breakpoints", "values")

    def __post_init__(self):
        xs = [Fraction(x) for x in self.breakpoints]
        ys = [Fraction(y) for y in self.values]
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("breakpoint and value lists must match and have length >= 2")
        for i in range(len(xs) - 1):
            if not xs[i] < xs[i + 1]:
                raise ValueError("breakpoints must be strictly increasing")
            if not ys[i] < ys[i + 1]:
                raise ValueError("values must be strictly increasing")
        if ys[0] != xs[0] or ys[-1] != xs[-1]:
            raise ValueError("endpoints must be fixed: values[0]=lo, values[-1]=hi")
        # a breakpoint whose two adjacent slopes are equal is dropped; the
        # piece it splits keeps that slope
        keep_x, keep_y, slopes = [], [], []
        for i in range(len(xs) - 1):
            s = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
            if not slopes or s != slopes[-1]:
                keep_x.append(xs[i])
                keep_y.append(ys[i])
                slopes.append(s)
        keep_x.append(xs[-1])
        keep_y.append(ys[-1])
        object.__setattr__(self, "breakpoints", tuple(keep_x))
        object.__setattr__(self, "values", tuple(keep_y))
        object.__setattr__(self, "domain", (xs[0], xs[-1]))
        object.__setattr__(self, "_ints", (*_parts(keep_x), *_parts(keep_y), *_parts(slopes)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._ints == other._ints

    def __hash__(self):
        return hash(self._ints)

    def __repr__(self):
        return f"PLHomeo({self.breakpoints!r}, {self.values!r})"

    # -- basic geometry ----------------------------------------------------

    @cached_property
    def breakpoints(self) -> tuple[Fraction, ...]:
        xn, xd = self._ints[:2]
        return tuple(map(Fraction, xn, xd))

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        yn, yd = self._ints[2:4]
        return tuple(map(Fraction, yn, yd))

    @property
    def lo(self) -> Fraction:
        return self.domain[0]

    @property
    def hi(self) -> Fraction:
        return self.domain[1]

    @cached_property
    def _slopes(self) -> tuple[Fraction, ...]:
        # one Fraction per distinct slope, shared by the pieces that have it
        pairs = tuple(zip(*self._ints[4:]))
        made = {p: Fraction(*p) for p in set(pairs)}
        return tuple(made[p] for p in pairs)

    @cached_property
    def _max_slope(self) -> Fraction:
        return max(self._slopes)

    @cached_property
    def _kernel(self) -> tuple[int, tuple[int, ...], tuple[tuple[int, int, int], ...]]:
        # (d, keys, pieces): keys[i] = breakpoints[i]·d, and on piece i,
        # f(x) = s·x + c = (α·p + β·q)/(γ·q) at x = p/q, with γ = lcm of the
        # denominators of s and c.
        xn, xd, yn, yd, sn, sd = self._ints
        d = lcm(*xd)
        pieces = []
        for p, q, r, e, a, b in zip(xn, xd, yn, yd, sn, sd):
            # c = r/e − (a/b)·(p/q), in lowest terms
            cn, cd = _lowest(r * b * q - a * p * e, e * b * q)
            g = lcm(b, cd)
            pieces.append((a * (g // b), cn * (g // cd), g))
        return d, tuple(p * (d // q) for p, q in zip(xn, xd)), tuple(pieces)

    @cached_property
    def _inverse(self) -> "PLHomeo":
        # Swapping the lists keeps them canonical: two adjacent slopes are
        # equal exactly where their reciprocals are.  The inverse shares
        # self's integer tuples, swapped, builds its own Fraction tuples when
        # first read, and does not point back at self.
        return _trusted(_swapped(self._ints), self.domain)

    @cached_property
    def _structure(self) -> tuple[OrientedInterval, ...]:
        return _fixed_and_wandering(self)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        xn, xd, yn, yd = self._ints[:4]
        return {
            "domain": [pair_to_json(xn[0], xd[0]), pair_to_json(xn[-1], xd[-1])],
            "breakpoints": list(map(pair_to_json, xn, xd)),
            "values": list(map(pair_to_json, yn, yd)),
        }

    @staticmethod
    def from_json(obj: dict) -> "PLHomeo":
        try:
            xs = [rational_from_json(p) for p in obj["breakpoints"]]
            ys = [rational_from_json(p) for p in obj["values"]]
            dom = [rational_from_json(p) for p in obj["domain"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed PL map object: {exc}") from exc
        f = PLHomeo(tuple(xs), tuple(ys))
        if dom != [f.lo, f.hi]:
            raise ValueError("domain field disagrees with breakpoint endpoints")
        return f


def _parts(qs: list[Fraction]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The numerators and the denominators of ``qs``."""
    return tuple(q.numerator for q in qs), tuple(q.denominator for q in qs)


def _trusted(ints: tuple[tuple[int, ...], ...], domain: tuple[Fraction, Fraction]) -> PLHomeo:
    """Wrap a canonical integer form and its domain as a map, skipping
    validation.  Its Fraction tuples are built when first read."""
    f = object.__new__(PLHomeo)
    object.__setattr__(f, "domain", domain)
    object.__setattr__(f, "_ints", ints)
    return f


def identity(lo: Fraction = Fraction(0), hi: Fraction = Fraction(1)) -> PLHomeo:
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    return PLHomeo((lo, hi), (lo, hi))


def _kernel_step(kernel: tuple, N: int, Q: int) -> tuple[int, int]:
    """The image of N/Q (Q > 0, N/Q in the domain) under a map with this
    ``PLHomeo._kernel``, as an integer pair: (α·N + β·Q, γ·Q) on the piece
    (α, β, γ) found by bisecting the keys for floor(N·d/Q) (hi on the last
    piece), divided by its gcd when γ is above ``_REDUCE_ABOVE``."""
    d, keys, pieces = kernel
    a, b, c = pieces[bisect_right(keys, N * d // Q, 0, len(pieces)) - 1]
    N, Q = a * N + b * Q, c * Q
    if c > _REDUCE_ABOVE:
        r = gcd(N, Q)
        N, Q = N // r, Q // r
    return N, Q


def evaluate(f: PLHomeo, x: Fraction) -> Fraction:
    """Exact value of f at x by linear interpolation.

    Runs on f's integer kernel, built on first call: with x = p/q in lowest
    terms, x lies in the domain iff keys[0]·q <= p·d <= keys[-1]·q, and the
    value is one Fraction built from ``_kernel_step``.
    """
    if type(x) is not Fraction:
        x = Fraction(x)
    kernel = f._kernel
    d, keys, _ = kernel
    p, q = x.numerator, x.denominator
    pd = p * d
    if pd < keys[0] * q or pd > keys[-1] * q:
        raise DomainError(f"{x} outside domain [{f.lo}, {f.hi}]")
    return Fraction(*_kernel_step(kernel, p, q))


def invert(f: PLHomeo) -> PLHomeo:
    """The inverse homeomorphism (breakpoint and value lists swapped),
    built once per map."""
    return f._inverse


def compose(f: PLHomeo, g: PLHomeo) -> PLHomeo:
    """Exact composition f∘g (first g, then f).

    The walk runs in g's value space, over g's values and f's breakpoints
    in increasing order: each value u of g or breakpoint of f yields the
    breakpoint g⁻¹(u) with value f(u).  It goes by runs, not points.  A
    run of g's values strictly inside one piece of f keeps g's
    breakpoints, copied as a slice, and sends its values through that
    piece.  A run of f's breakpoints strictly inside one piece of g keeps
    f's values, copied, and sends its breakpoints through g⁻¹'s piece (g's
    lists swapped, with the slope inverted).  Both go through one run
    body, as in ``_walk_block``: each side's roles, a run's lists and a
    piece's lists with the output's slope factor (f's slope, or g's), are
    tuples fixed once per call, and the branch only picks the side.  On a
    piece from p/q with value r/s and slope a/b, the image of t = tn/td is
    (α·tn + β·td)/(γ·td) with α = a·s·q, β = r·q·b − p·a·s and γ = s·q·b,
    built once per run and reduced by one gcd per point.

    Every merged piece is affine with slope f'·g', the product of two
    stored slopes, and a point is dropped when the products on its two
    sides are equal.  Only a point where g's value is f's breakpoint can
    be: on the two sides of a run's point, one map keeps its piece and the
    other's slopes differ, because it is canonical.  So the slopes are
    compared, as integers, only at the coincident points; every run point
    is kept.  Each distinct slope product is reduced once.

    Both lists are in lowest terms, so a point is coincident when its
    pairs are equal; other abscissae are ordered by cross-multiplying.  A
    run's end is found by ``_gallop`` from the run's first point, and a
    one-point run takes the same slice and loop as a longer one.  The
    walk builds no Fraction and no inverse: the result holds only its
    integer form, and its Fraction tuples are built when first read.
    O(output + runs · log run length) operations, a coincident point
    counting as a run.
    """
    if f.domain != g.domain:
        raise DomainError(f"domain mismatch: [{f.lo}, {f.hi}] vs [{g.lo}, {g.hi}]")
    gxn, gxd, gun, gud, gsn, gsd = g._ints
    fun, fud, fyn, fyd, fsn, fsd = f._ints
    xn, xd, yn, yd = [gxn[0]], [gxd[0]], [fyn[0]], [fyd[0]]
    # a run side: its abscissae, kept coordinates and slopes, the lists it
    # keeps into and the lists its images go to
    g_run = gun, gud, gxn, gxd, gsn, gsd, xn, xd, yn, yd
    f_run = fun, fud, fyn, fyd, fsn, fsd, yn, yd, xn, xd
    # a piece side: its (p, q, r, s, a, b) and the output product's slope factor
    f_piece = fun, fud, fyn, fyd, fsn, fsd, fsn, fsd
    g_inv_piece = gun, gud, gxn, gxd, gsd, gsn, gsn, gsd
    # the lowest terms of each output piece's slope
    slopes = []
    lowest = _Lowest()
    glast, flast = len(gun) - 1, len(fun) - 1
    # slope of the output piece that ends at the next kept point
    cn, cd = fsn[0] * gsn[0], fsd[0] * gsd[0]
    # the next value of g and breakpoint of f
    i = j = 1
    while True:
        tn, td = fun[j], fud[j]
        un, ud = gun[i], gud[i]
        if un == tn and ud == td:
            if i == glast:
                break
            rn, rd = fsn[j] * gsn[i], fsd[j] * gsd[i]
            if rn * cd != cn * rd:
                xn.append(gxn[i])
                xd.append(gxd[i])
                yn.append(fyn[j])
                yd.append(fyd[j])
                slopes.append(lowest[cn, cd])
                cn, cd = rn, rd
            i, j = i + 1, j + 1
            continue
        if un * td < tn * ud:
            # g's values i, ..., e − 1 lie inside f's piece j − 1, before t
            e = _gallop(gun, gud, i, tn, td, glast, 1)
            run, piece, m0, k, i = g_run, f_piece, i, j - 1, e
        else:
            # f's breakpoints j, ..., e − 1 lie inside g⁻¹'s piece i − 1, before u
            e = _gallop(fun, fud, j, un, ud, flast, 1)
            run, piece, m0, k, j = f_run, g_inv_piece, j, i - 1, e
        pxn, pxd, pyn, pyd, psn, psd, wn, wd = piece
        p, q, r, s, a, b, w, v = pxn[k], pxd[k], pyn[k], pyd[k], psn[k], psd[k], wn[k], wd[k]
        al, be, ga = a * s * q, r * q * b - p * a * s, s * q * b
        vn, vd, kn, kd, rsn, rsd, into_n, into_d, out_n, out_d = run
        into_n += kn[m0:e]
        into_d += kd[m0:e]
        for m in range(m0, e):
            slopes.append(lowest[cn, cd])
            cn, cd = w * rsn[m], v * rsd[m]
            td = vd[m]
            n, d = al * vn[m] + be * td, ga * td
            c = gcd(n, d)
            out_n.append(n // c)
            out_d.append(d // c)
    xn.append(gxn[-1])
    xd.append(gxd[-1])
    yn.append(fyn[-1])
    yd.append(fyd[-1])
    slopes.append(lowest[cn, cd])
    sn, sd = zip(*slopes)
    return _trusted((tuple(xn), tuple(xd), tuple(yn), tuple(yd), sn, sd), g.domain)


class _Lowest(dict):
    """(n, d) → n/d in lowest terms (d > 0), reduced on first lookup: a
    composite's slopes take few distinct values."""

    def __missing__(self, pair: tuple[int, int]) -> tuple[int, int]:
        s = self[pair] = _lowest(*pair)
        return s


def _lowest(n: int, d: int) -> tuple[int, int]:
    """n/d in lowest terms, with a positive denominator."""
    c = gcd(n, d) if d > 0 else -gcd(n, d)
    return n // c, d // c


def _gallop(vn, vd, lo: int, tn: int, td: int, last: int, step: int) -> int:
    """The least e > lo with v[e] >= t = tn/td, for a strictly increasing
    list v with v[lo] < t <= v[last]: steps that start at ``step`` and
    double, then a bisection.  Abscissae are compared by cross-multiplying.
    The run walks and ``_clip`` start at step 1, so a one-point run costs
    one comparison; ``_sup_gap`` starts at its previous block end's stride."""
    hi = min(lo + step, last)
    while vn[hi] * td < tn * vd[hi]:
        lo, step = hi, 2 * step
        hi = min(lo + step, last)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if vn[mid] * td < tn * vd[mid]:
            lo = mid
        else:
            hi = mid
    return hi


def iterate(f: PLHomeo, x: Fraction, n: int) -> Fraction:
    """n-fold application of f (negative n applies the inverse)."""
    g = f if n >= 0 else invert(f)
    y = Fraction(x)
    for _ in range(abs(n)):
        y = evaluate(g, y)
    return y


# c0_distance cuts the longer list of each pair into blocks of this many
# pieces; chosen by timing the conjugated depth-9 pairs of the deep workload
_BLOCK = 16


def c0_distance(f: PLHomeo, g: PLHomeo) -> Fraction:
    """sup |f-g| and |f⁻¹-g⁻¹|, exact.

    The difference of two PL maps is PL, so each sup is attained on the
    merged breakpoint lists.  ``_sup_gap`` takes the two sups in turn, of
    the maps and of their swapped integer lists (so neither inverse is
    built), with one running maximum.  It cuts the longer list into blocks
    of ``_BLOCK`` = 16 pieces and takes both maps' exact values at every
    block end.  Both maps increase, so on a block [u, v] the gap is at most
    max(a(v) − b(u), b(v) − a(u)): a block whose bound does not exceed the
    running maximum is skipped, and any other is walked by runs.  Values,
    gaps and the maximum are integer pairs; one Fraction is built at the
    end.  In the worst case (f = g, say) every block is walked:
    O(len(f) + len(g)) operations, plus n/16 located block ends for a
    longer list of n breakpoints.
    """
    if f.domain != g.domain:
        raise DomainError(f"domain mismatch: [{f.lo}, {f.hi}] vs [{g.lo}, {g.hi}]")
    top = 0, 1
    for a, b in ((f._ints, g._ints), (_swapped(f._ints), _swapped(g._ints))):
        top = _sup_gap(a, b, *top)
    return Fraction(*top)


def _swapped(ints: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The integer form of the inverse of the map with form ``ints``."""
    xn, xd, yn, yd, sn, sd = ints
    return yn, yd, xn, xd, sd, sn


def _sup_gap(a, b, top_n: int, top_d: int) -> tuple[int, int]:
    """max(top_n/top_d, sup |a − b|) as an integer pair, for the integer
    forms a and b of two maps on one domain.

    a and b are swapped, if need be, so that a's list is the longer.
    Block ends are a's breakpoints 0, K, 2K, ... and its last.  At each,
    a's value is stored, and b's is stored or interpolated on b's piece,
    located from the previous end's by ``_gallop`` with a first step of
    the previous end's stride; where b's breakpoints are as dense as a's,
    that step mostly lands on it.  The gaps at the block ends seed the
    maximum.  Then ``_walk_block`` walks each block whose monotone bound
    exceeds the maximum so far.
    """
    if len(b[0]) > len(a[0]):
        a, b = b, a
    axn, axd, ayn, ayd = a[:4]
    bxn, bxd, byn, byd, bsn, bsd = b
    last, blast = len(axn) - 1, len(bxn) - 1
    # (e, j, qn, qd) per block end t = a[e]: b(t) = qn/qd, and the least j
    # with b[j] > t, where the walk of the block that starts at t starts
    ends = []
    j, stride = 0, 1
    for e in (*range(0, last, _BLOCK), last):
        tn, td = axn[e], axd[e]
        if bxn[j] * td < tn * bxd[j]:
            # b's last point is the domain's end, so the gallop stops there
            hi = _gallop(bxn, bxd, j, tn, td, blast, stride)
            stride, j = hi - j, hi
        if bxn[j] * td == tn * bxd[j]:
            qn, qd = byn[j], byd[j]
            j += 1
        else:
            k = j - 1
            m = bxd[k] * td * bsd[k]
            qn = byn[k] * m + byd[k] * (tn * bxd[k] - bxn[k] * td) * bsn[k]
            qd = byd[k] * m
        ends.append((e, j, qn, qd))
        pn, pd = ayn[e], ayd[e]
        n, d = abs(pn * qd - qn * pd), pd * qd
        if n * top_d > top_n * d:
            top_n, top_d = n, d
    for (e0, j0, un, ud), (e1, j1, vn, vd) in zip(ends, ends[1:]):
        # a and b increase, so on [u, v] = [a[e0], a[e1]] the gap is at most
        # max(a(v) − b(u), b(v) − a(u))
        pn, pd, rn, rd = ayn[e1], ayd[e1], ayn[e0], ayd[e0]
        if ((pn * ud - un * pd) * top_d > top_n * pd * ud
                or (vn * rd - rn * vd) * top_d > top_n * vd * rd):
            top_n, top_d = _walk_block(a, b, e0 + 1, j0, e1, j1, top_n, top_d)
    return top_n, top_d


def _walk_block(a, b, i, j, end, jend, top_n: int, top_d: int) -> tuple[int, int]:
    """max(top_n/top_d, |a − b| at each abscissa of either list inside the
    block (a[i − 1], a[end])), for ``_sup_gap``; j and jend are the least
    indices with b[j] > a[i − 1] and b[jend] > a[end].

    A coincident point compares the stored values.  Else the lower of a[i]
    and b[j] starts a run of its list inside one piece of the other, which
    ``_gallop`` ends at the other's next point or, for a run of a, at the
    block end.  The piece's (α, β, γ) is built once per run, a one-point
    run included, as in ``compose``, and each run point's stored value is
    compared with (α·tn + β·td)/(γ·td).  As |a − b| is symmetric, a run of
    either list goes through one body, with the lists swapped.
    """
    axn, axd, ayn, ayd = a[:4]
    bxn, bxd, byn, byd = b[:4]
    while True:
        tn, td, un, ud = axn[i], axd[i], bxn[j], bxd[j]
        if tn == un and td == ud:
            if i == end:
                return top_n, top_d
            pn, pd, qn, qd = ayn[i], ayd[i], byn[j], byd[j]
            n, d = abs(pn * qd - qn * pd), pd * qd
            if n * top_d > top_n * d:
                top_n, top_d = n, d
            i, j = i + 1, j + 1
            continue
        if tn * ud < un * td:
            if i == end:
                return top_n, top_d
            # a's points i, ..., e − 1 lie inside b's piece j − 1
            e = end if j == jend else i + 1
            if e < end and axn[e] * ud < un * axd[e]:
                e = _gallop(axn, axd, e, un, ud, end, 1)
            run, piece, m0, k, i = a, b, i, j - 1, e
        else:
            # b's points j, ..., e − 1 lie inside a's piece i − 1
            e = j + 1
            if bxn[e] * td < tn * bxd[e]:
                e = _gallop(bxn, bxd, e, tn, td, len(bxn) - 1, 1)
            run, piece, m0, k, j = b, a, j, i - 1, e
        xn, xd, yn, yd, sn, sd = piece
        p, q, r, s, g, h = xn[k], xd[k], yn[k], yd[k], sn[k], sd[k]
        al, be, ga = g * s * q, r * q * h - p * g * s, s * q * h
        # the run's own abscissae and stored values
        xn, xd, yn, yd = run[:4]
        for m in range(m0, e):
            td, pn, pd = xd[m], yn[m], yd[m]
            qd = ga * td
            n, d = abs(pn * qd - (al * xn[m] + be * td) * pd), pd * qd
            if n * top_d > top_n * d:
                top_n, top_d = n, d


def _composite_c0_distance(h: PLHomeo, g: PLHomeo, f: PLHomeo) -> Fraction:
    """``c0_distance(compose(h, g), f)`` for three maps on one domain,
    without building h∘g.

    On h's piece σ(u) = v0 + s·(u − u0), u in [u0, u1], let X = g⁻¹([u0,
    u1]) and ψ = σ⁻¹∘f, with σ⁻¹ extended affinely.  Then h∘g − f = s·(g −
    ψ) on X, and (h∘g)⁻¹ − f⁻¹ = g⁻¹ − ψ⁻¹ on [u0, u1].  So per piece one
    ``_sup_gap`` takes g against ψ on X, with the running maximum passed
    as top/s and scaled back, and one takes g⁻¹ against ψ⁻¹ on [u0, u1].
    ``_clip`` cuts g⁻¹ on [u0, u1], f on X and f⁻¹ on [v0, v1] as slices of
    the integer lists, and ``_pulled`` sends f's values through σ⁻¹: only
    those and the cut ends take a gcd.  Besides copying g's slices and
    walking its blocks, that is O(len(f) + len(h)·log len(g)) operations.
    """
    hxn, hxd, hyn, hyd, hsn, hsd = h._ints
    g_inv, f_inv = _swapped(g._ints), _swapped(f._ints)
    top_n, top_d = 0, 1
    for k in range(len(hxn) - 1):
        u0, u1, a, b = (hxn[k], hxd[k]), (hxn[k + 1], hxd[k + 1]), hsn[k], hsd[k]
        # σ⁻¹(y) = (α·yn + β·yd)/(γ·yd) at y = yn/yd, with slope b/a
        p, q, r, e = hyn[k], hyd[k], hxn[k], hxd[k]
        sigma = b * e * q, r * q * a - p * e * b, a * e * q, a, b
        g_k = _clip(g_inv, u0, u1)  # g⁻¹ on [u0, u1], so X is its value range
        xn, xd = g_k[2:4]
        psi = _pulled(_clip(f._ints, (xn[0], xd[0]), (xn[-1], xd[-1])), *sigma)  # ψ on X
        top_n, top_d = _sup_gap(_swapped(g_k), psi, top_n * b, top_d * a)
        top_n, top_d = _lowest(top_n * a, top_d * b)
        # ψ on f⁻¹([v0, v1]), whose swap is ψ⁻¹ on [u0, u1]
        psi = _pulled(_swapped(_clip(f_inv, (p, q), (hyn[k + 1], hyd[k + 1]))), *sigma)
        top_n, top_d = _sup_gap(g_k, _swapped(psi), top_n, top_d)
    return Fraction(top_n, top_d)


def _clip(ints: tuple, lo: tuple[int, int], hi: tuple[int, int]) -> tuple:
    """The map with integer form ``ints`` cut to [lo, hi], reduced pairs
    within its abscissae: lo, its points strictly between as slices, and
    hi, with the values at lo and hi interpolated and reduced."""
    xn, xd, yn, yd, sn, sd = ints
    last = len(xn) - 1
    (ln, ld), (un, ud) = lo, hi
    i = 0 if xn[0] * ld >= ln * xd[0] else _gallop(xn, xd, 0, ln, ld, last, 1)
    if xn[i] * ld == ln * xd[i]:
        i += 1
    j = _gallop(xn, xd, i - 1, un, ud, last, 1)
    ends = []
    for k, tn, td in ((i - 1, ln, ld), (j - 1, un, ud)):
        m = xd[k] * td * sd[k]
        ends.append(_lowest(yn[k] * m + yd[k] * (tn * xd[k] - xn[k] * td) * sn[k], yd[k] * m))
    (vn, vd), (wn, wd) = ends
    return ([ln, *xn[i:j], un], [ld, *xd[i:j], ud], [vn, *yn[i:j], wn], [vd, *yd[i:j], wd],
            sn[i - 1 : j], sd[i - 1 : j])


def _pulled(ints: tuple, al: int, be: int, ga: int, a: int, b: int) -> tuple:
    """The integer form ``ints`` with each value y = yn/yd sent through the
    affine map (α·yn + β·yd)/(γ·yd) of slope b/a, reduced."""
    xn, xd, yn, yd, sn, sd = ints
    vn, vd = zip(*[_lowest(al * n + be * d, ga * d) for n, d in zip(yn, yd)])
    return xn, xd, vn, vd, [n * b for n in sn], [d * a for d in sd]


def _fixed_and_wandering(f: PLHomeo) -> tuple[OrientedInterval, ...]:
    """f's wandering intervals, in one walk over its pieces, all on
    integers.  Each interval holds its ends as reduced integer pairs, and
    they are the only store of them: the fixed set and ``cantor``'s chain
    table are read from them.

    On each affine piece the displacement d = f(x) - x is affine, so its
    zero set is empty, a point, or the whole piece.  The sign of d at a
    breakpoint x = p/q with value y = r/e is that of r·q − p·e, read from
    f's integer form.  A piece with d = 0 at both ends extends the current
    fixed component.  Otherwise a root at the piece's right end, or
    strictly inside it where d changes sign, closes the wandering interval
    from the current component to the root and opens a new component
    there.  The inside root of a piece from (x0, y0) with slope s is
    (x0·s − y0)/(s − 1), reduced by one gcd with its denominator made
    positive.  d keeps one sign between consecutive roots, so the piece's
    left end lies in that interval and its sign gives the orientation.
    The walk builds no Fraction: each interval builds a and b when they
    are first read.
    """
    xn, xd, yn, yd, sn, sd = f._ints
    last = len(xn) - 1
    new, put = object.__new__, object.__setattr__
    wandering: list[OrientedInterval] = []
    # the current fixed component runs from ln/ld to breakpoint `right`,
    # or is the point ln/ld when `right` is None
    ln, ld, right = xn[0], xd[0], None
    d1 = 0  # lo is fixed
    for i in range(1, last + 1):
        d0, d1 = d1, yn[i] * xd[i] - xn[i] * yd[i]
        if d1 == 0:
            if d0 == 0:
                right = i
                continue
            rn, rd = xn[i], xd[i]
        elif d0 != 0 and (d0 < 0) != (d1 < 0):
            k = i - 1
            rn, rd = _lowest(xn[k] * yd[k] * sn[k] - yn[k] * xd[k] * sd[k],
                             xd[k] * yd[k] * (sn[k] - sd[k]))
        else:
            continue
        en, ed = (ln, ld) if right is None else (xn[right], xd[right])
        # an interval of a < b by the walk's order, built unchecked
        iv = new(OrientedInterval)
        put(iv, "_ends", (en, ed, rn, rd))
        put(iv, "orientation", Orientation.R if d0 > 0 else Orientation.L)
        wandering.append(iv)
        ln, ld, right = rn, rd, None
    return tuple(wandering)


def _gaps(ivs: tuple[OrientedInterval, ...], lo: tuple[int, int], hi: tuple[int, int]) -> zip:
    """The stretches around sorted, disjoint intervals on [lo, hi], as pairs
    of reduced integer pairs read from the intervals' ends: each runs from
    lo, or an interval's b, to the next interval's a, or hi."""
    ends = [lo, *[half for iv in ivs for half in (iv._ends[:2], iv._ends[2:])], hi]
    return zip(ends[::2], ends[1::2])


def fixed_set(f: PLHomeo) -> list[tuple[Fraction, Fraction]]:
    """Maximal closed intervals (possibly degenerate) where f = id, sorted.

    Always contains the two domain endpoints.  A fresh list of Fractions,
    built from the gaps around the wandering intervals cached on f.
    """
    xn, xd = f._ints[:2]
    gaps = _gaps(f._structure, (xn[0], xd[0]), (xn[-1], xd[-1]))
    return [(Fraction(*u), Fraction(*v)) for u, v in gaps]


class _MapIntervals(list):
    """The list ``wandering_intervals(f)`` returns: a plain list that also
    remembers f as ``map``."""

    __slots__ = ("map",)


def wandering_intervals(f: PLHomeo) -> list[OrientedInterval]:
    """Complement components of the fixed set, tagged R (f > id) or L (f < id).

    A fresh list, copied from the walk's tuple cached on f.  It remembers
    f, so ``cantor.best_chain_quality`` reads the chain table kept on f
    while the list still holds f's own intervals, in f's order.
    """
    ivs = _MapIntervals(f._structure)
    ivs.map = f
    return ivs


def _generator_points(a: Fraction, b: Fraction, orientation: Orientation) -> tuple[tuple, tuple]:
    """(breakpoints, values) of the canonical generator on [a, b]: for R the
    midpoint goes to (a+3b)/4, with slopes 3/2 then 1/2, so it fixes
    exactly {a, b}; L is its inverse, the same lists swapped."""
    if not a < b:
        raise ValueError("need a < b")
    xs, ys = (a, (a + b) / 2, b), (a, (a + 3 * b) / 4, b)
    return (xs, ys) if orientation is Orientation.R else (ys, xs)


def canonical_generator(a: Fraction, b: Fraction, orientation: Orientation) -> PLHomeo:
    """The fixed representative with (a, b) a wandering interval of that orientation."""
    return PLHomeo(*_generator_points(Fraction(a), Fraction(b), orientation))


def canonical_r(a: Fraction, b: Fraction) -> PLHomeo:
    return canonical_generator(a, b, Orientation.R)


def max_slope(f: PLHomeo) -> Fraction:
    """Largest segment slope, kept on f: an exact Lipschitz constant for f."""
    return f._max_slope
