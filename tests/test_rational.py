"""Exact rational helpers."""

import random
from fractions import Fraction as F

from continua.rational import sqrt_approx, sqrt_enclosure
from conftest import bisected_sqrt_enclosure


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
                assert abs(sqrt_approx(x) ** 2 - x) < 2 * hi * F(1, 2**21)
