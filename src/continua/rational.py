"""Exact rational scalars and their wire formats.

Every scalar in the core is a ``fractions.Fraction``: arbitrary precision,
always in lowest terms with positive denominator, with exact arithmetic and
comparison.  This module adds the serialization conventions shared by the
whole package (JSON pairs of decimal strings, "num/den" literals) and a few
exact numeric helpers (integer square roots, certified sqrt enclosures).
"""

from __future__ import annotations

import math
from fractions import Fraction

Rational = Fraction

ZERO = Fraction(0)


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational literal: "num/den" or a plain integer string."""
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator in rational literal {text!r}")
        return Fraction(int(num), d)
    return Fraction(int(s))


def format_rational(x: Fraction) -> str:
    """Render as "num/den" (or "num" when integral)."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rational_to_json(x: Fraction) -> list[str]:
    """JSON encoding: pair of decimal strings, arbitrary precision."""
    return [str(x.numerator), str(x.denominator)]


def rational_from_json(pair) -> Fraction:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"expected [num, den] pair, got {pair!r}")
    den = int(pair[1])
    if den == 0:
        raise ValueError(f"zero denominator in rational pair {pair!r}")
    return Fraction(int(pair[0]), den)


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def exact_sqrt(x: Fraction) -> Fraction | None:
    """The exact square root of ``x`` when it is rational, else None."""
    if x < 0:
        raise ValueError("square root of a negative rational")
    if is_perfect_square(x.numerator) and is_perfect_square(x.denominator):
        return Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator))
    return None


def sqrt_enclosure(x: Fraction, width: Fraction = Fraction(1, 10**6)) -> tuple[Fraction, Fraction]:
    """Certified rational bracket [lo, hi] around sqrt(x) with hi - lo < width.

    Bisection from an integer bracket; exact comparisons only.
    """
    if x < 0:
        raise ValueError("square root of a negative rational")
    if x == 0:
        return ZERO, ZERO
    r = exact_sqrt(x)
    if r is not None:
        return r, r
    lo = Fraction(math.isqrt(x.numerator // x.denominator) if x >= 1 else 0)
    hi = lo + 1
    while hi * hi < x:
        hi += 1
    while hi - lo >= width:
        mid = (lo + hi) / 2
        if mid * mid <= x:
            lo = mid
        else:
            hi = mid
    return lo, hi


def sqrt_approx(x: Fraction, width: Fraction = Fraction(1, 10**6)) -> Fraction:
    """A rational within ``width`` of sqrt(x); exact when the root is rational."""
    lo, hi = sqrt_enclosure(x, width)
    if lo == hi:
        return lo
    return (lo + hi) / 2
