"""Exact rational helpers."""

import random
from fractions import Fraction as F

import pytest

from continua.rational import (
    parse_integer,
    parse_rational,
    positive,
    rational_from_json,
    sqrt_enclosure,
)
from conftest import bisected_sqrt_enclosure


class TestJsonReader:
    @pytest.mark.parametrize(
        "pair, value",
        [(["3", "4"], F(3, 4)), (["-6", "4"], F(-3, 2)), ([3, 4], F(3, 4)), (["0", "-2"], F(0))],
    )
    def test_decimal_strings_and_integers(self, pair, value):
        assert rational_from_json(pair) == value

    @pytest.mark.parametrize(
        "component",
        [1.5, 4.0, True, False, None, float("inf"), float("nan"), [1], "1.5", "+3", " 3", "3\n",
         "0x10", "1e3", "\uff13", ""],
    )
    def test_other_components_refused(self, component):
        for pair in ([component, "4"], ["3", component]):
            with pytest.raises(ValueError, match="is not a decimal integer"):
                rational_from_json(pair)

    def test_zero_denominator_refused(self):
        with pytest.raises(ValueError, match="zero denominator"):
            rational_from_json(["1", 0])


class TestTextReader:
    @pytest.mark.parametrize("text", ["1_0", "+1", "\u0661", "1_0/3", "+1/2", "\u0661/3", "1/+2",
                                      "1/\u0663", "1 / 2", "1/", "/2", "1/2/3", "0x10", "1e3", ""])
    def test_one_integer_rule(self, text):
        with pytest.raises(ValueError, match="is not a decimal integer"):
            parse_rational(text)

    def test_parse_integer_takes_only_ascii_digits(self):
        assert parse_integer("-120") == -120
        for text in ("1_0", "+1", "\u0661", " 1", "1\n", "", "-"):
            with pytest.raises(ValueError, match="is not a decimal integer"):
                parse_integer(text)


def test_positive():
    assert positive(F(1, 3), "epsilon") == F(1, 3) and type(positive(2, "x")) is F
    for bad in (0, F(-1, 3)):
        with pytest.raises(ValueError, match="^alpha must be positive$"):
            positive(bad, "alpha")


class TestSqrtEnclosure:
    def sample(self) -> list[F]:
        rng = random.Random(120)
        xs = [F(2), F(1, 3), F(10**12 + 1), F(1, 10**12 + 1), F(4, 9), F(9), F(0)]
        for _ in range(3000):
            num = rng.randrange(0, 10 ** rng.randrange(1, 15))
            den = rng.randrange(1, 10 ** rng.randrange(1, 15))
            xs.append(F(num, den))
        for k in range(1, 200):
            xs += [F(k * k, 7) + F(1, 10**9), F(k * k) - F(1, 10**9)]
        return xs

    def test_equals_bisection_oracle(self):
        for x in self.sample():
            assert sqrt_enclosure(x) == bisected_sqrt_enclosure(x), x

    def test_bracket_of_width_two_to_minus_twenty(self):
        for x in self.sample():
            lo, hi = sqrt_enclosure(x)
            if lo == hi:
                assert lo * lo == x
            else:
                assert hi - lo == F(1, 2**20)
                assert lo * lo <= x < hi * hi
