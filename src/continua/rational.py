"""Exact rational scalars and their wire formats.

Every scalar in the core is a ``fractions.Fraction``: arbitrary precision,
always in lowest terms with positive denominator, with exact arithmetic and
comparison.  This module adds the serialization conventions shared by the
whole package (JSON pairs of decimal strings, "num/den" literals) and a few
exact numeric helpers (integer square roots, certified sqrt enclosures).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


def positive(x, name: str) -> Fraction:
    """``x`` as a Fraction, checked to be above 0 (else ValueError)."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError(f"{name} must be positive")
    return x


# Python refuses int/str conversions past a process-wide digit limit, which
# is at least 640 digits when set.  Longer integers are converted in halves
# of at most _DIRECT_DIGITS digits, so any length reads and writes whatever
# the limit, and the limit itself is never touched.
_DIRECT_DIGITS = 600
_DIRECT_BITS = 1993  # 2^1993 < 10^600


def _decimal(n: int) -> str:
    """``str(n)`` for an integer of any length."""
    if n.bit_length() <= _DIRECT_BITS:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 3 // 20  # about half of n's digits
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def _from_decimal(text: str) -> int:
    """``int(text)`` for an optional "-" and ASCII digits of any length."""
    if len(text) <= _DIRECT_DIGITS:
        return int(text)
    if text[0] == "-":
        return -_from_decimal(text[1:])
    k = len(text) // 2
    return _from_decimal(text[:-k]) * 10**k + _from_decimal(text[-k:])


def parse_integer(text: str) -> int:
    """An integer literal: ASCII decimal digits after an optional "-".

    The one integer rule of every wire format (flags, CSV fields, JSON pair
    parts); ``int()`` alone would also read "1_0", "+1" and non-ASCII
    digits.  Text readers strip surrounding whitespace before calling it.
    """
    if isinstance(text, str) and re.fullmatch(r"-?[0-9]+", text):
        return _from_decimal(text)
    raise ValueError(f"{text!r} is not a decimal integer")


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational literal: "num/den" or a plain integer string."""
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        d = parse_integer(den)
        if d == 0:
            raise ValueError(f"zero denominator in rational literal {text!r}")
        return Fraction(parse_integer(num), d)
    return Fraction(parse_integer(s))


def rational_to_json(x: Fraction) -> list[str]:
    """JSON encoding: pair of decimal strings, arbitrary precision."""
    return pair_to_json(x.numerator, x.denominator)


def pair_to_json(num: int, den: int) -> list[str]:
    """``rational_to_json`` of num/den, given in lowest terms with den > 0."""
    return [_decimal(num), _decimal(den)]


def _json_integer(v) -> int:
    """A pair component: an integer literal or a JSON integer (not a
    boolean)."""
    return v if type(v) is int else parse_integer(v)


def rational_from_json(pair) -> Fraction:
    """Inverse of ``rational_to_json``, which also reads JSON integers."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"expected [num, den] pair, got {pair!r}")
    den = _json_integer(pair[1])
    if den == 0:
        raise ValueError(f"zero denominator in rational pair {pair!r}")
    return Fraction(_json_integer(pair[0]), den)


def exact_sqrt(x: Fraction) -> Fraction | None:
    """The exact square root of ``x`` when it is rational, else None."""
    if x < 0:
        raise ValueError("square root of a negative rational")
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if num * num == x.numerator and den * den == x.denominator:
        return Fraction(num, den)
    return None


def sqrt_enclosure(x: Fraction) -> tuple[Fraction, Fraction]:
    """Certified rational bracket [lo, hi] around sqrt(x), of width 2^-20
    unless the root is rational (then lo = hi = sqrt(x)).

    lo is the largest multiple of 2^-20 whose square is at most x, from one
    integer square root: isqrt(⌊x·2^40⌋) = ⌊sqrt(x)·2^20⌋.
    """
    r = exact_sqrt(x)
    if r is not None:
        return r, r
    lo = Fraction(math.isqrt((x.numerator << 40) // x.denominator), 1 << 20)
    return lo, lo + Fraction(1, 1 << 20)
