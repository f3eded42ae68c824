import math
import random
from fractions import Fraction

import pytest

from qsqrt3 import QSqrt3


def test_field_axioms_on_random_elements():
    rng = random.Random(7)
    for _ in range(50):
        x = QSqrt3(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                   Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        y = QSqrt3(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                   Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        assert x + y == y + x
        assert x * y == y * x
        assert x * (y + 1) == x * y + x
        if y:
            assert (x / y) * y == x


def test_sqrt3_squares_to_three():
    r = QSqrt3.sqrt3()
    assert r * r == QSqrt3(3)
    assert QSqrt3(1, 1) * QSqrt3(1, -1) == QSqrt3(-2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QSqrt3(1) / QSqrt3(0)


def test_exact_sign_matches_float_oracle():
    rng = random.Random(11)
    for _ in range(200):
        x = QSqrt3(Fraction(rng.randint(-20, 20), rng.randint(1, 7)),
                   Fraction(rng.randint(-20, 20), rng.randint(1, 7)))
        value = float(x.a) + float(x.b) * math.sqrt(3)
        if abs(value) > 1e-12:
            assert x.sign() == (1 if value > 0 else -1)
        assert (x < 0) == (x.sign() < 0)
        assert (x > 0) == (x.sign() > 0)


def test_comparisons_with_rationals():
    assert QSqrt3(0, 1) > Fraction(17, 10)
    assert QSqrt3(0, 1) < Fraction(18, 10)
    assert QSqrt3(2) == 2
