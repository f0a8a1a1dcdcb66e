"""Exact rational helpers."""

import random
import sys
from fractions import Fraction as F

import pytest

from continua.rational import (
    parse_integer,
    parse_rational,
    positive,
    rational_from_json,
    rational_to_json,
    sqrt_enclosure,
)
from conftest import bisected_sqrt_enclosure, format_rational


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


class TestBigIntegers:
    """Library readers and writers take integers of any length, under
    whatever digit limit the caller set, and leave that limit alone."""

    @pytest.fixture(params=[640, 4300])
    def caller_limit(self, request):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no integer digit limit")
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(request.param)
        yield request.param
        sys.set_int_max_str_digits(old)

    def values(self) -> list[F]:
        rng = random.Random(121)
        xs = [F(1, 10**4400), F(-(10**4400) - 7, 3), F(2**20000 + 1, 3**9000), F(10**600),
              F(-(10**599)), F(10**600 - 1, 10**601 + 1), F(-5, 7), F(0)]
        for _ in range(40):
            xs.append(F(rng.randrange(-(10**rng.randrange(1, 6000)), 10**rng.randrange(1, 6000)),
                        rng.randrange(1, 10**rng.randrange(1, 6000))))
        return xs

    def test_round_trips_past_the_limit(self, caller_limit):
        for x in self.values():
            pair = rational_to_json(x)
            assert rational_from_json(pair) == x
            assert parse_rational(format_rational(x)) == x
            assert sys.get_int_max_str_digits() == caller_limit

    def test_writes_the_digits_str_writes(self, caller_limit):
        values = self.values()
        sys.set_int_max_str_digits(0)
        expected = [(str(x.numerator), str(x.denominator)) for x in values]
        sys.set_int_max_str_digits(caller_limit)
        for x, (num, den) in zip(values, expected):
            assert rational_to_json(x) == [num, den]
            assert format_rational(x) == (num if den == "1" else f"{num}/{den}")
            assert parse_integer(num) == x.numerator

    def test_long_text_keeps_the_integer_rule(self, caller_limit):
        digits = "9" * 5000
        for text in (digits + "_0", "+" + digits, digits + "\u0661", "-" + digits + "-"):
            with pytest.raises(ValueError, match="is not a decimal integer"):
                parse_integer(text)
        assert parse_integer("-" + "0" * 4999 + "12") == -12


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
