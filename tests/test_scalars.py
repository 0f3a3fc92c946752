from fractions import Fraction

import pytest

from symtwist.scalars import (
    I,
    ONE,
    Scalar,
    fraction_from_str,
    scalar_from_json,
    scalar_to_json,
)


def test_imaginary_unit_squares_to_minus_one():
    assert I * I == Scalar(-1)
    assert I * I == -ONE


def test_field_arithmetic_exact():
    a = Scalar(Fraction(1, 2), Fraction(1, 3))
    b = Scalar(Fraction(-2, 5), Fraction(7))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * (ONE / a) == ONE
    assert -(-a) == a


def test_denominators_normalized():
    z = Scalar(Fraction(2, 4), Fraction(-3, -9))
    assert z.re == Fraction(1, 2) and z.re.denominator == 2
    assert z.im == Fraction(1, 3) and z.im.denominator == 3
    w = Scalar(Fraction(1, 3)) / Scalar(Fraction(1, 3))
    assert w.re.denominator == 1


def test_mixed_int_fraction_operands():
    assert 2 * I == Scalar(0, 2)
    assert I + 1 == Scalar(1, 1)
    assert 1 - I == Scalar(1, -1)
    assert 1 / I == -I


def test_zero_division_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / Scalar(0)


def test_truthiness_and_equality():
    assert not Scalar(0)
    assert Scalar(0, 1)
    assert Scalar(3) == 3
    assert Scalar(3, 1) != 3


def test_hash_agrees_with_equality():
    assert 1 in {Scalar(1)}
    assert Scalar(1) in {1}
    assert Fraction(1, 2) in {Scalar(Fraction(1, 2))}
    assert hash(Scalar(-3)) == hash(-3)
    assert hash(Scalar(2, 1)) == hash(Scalar(Fraction(4, 2), Fraction(1)))


def test_fraction_from_str_rejects_bad_input():
    assert fraction_from_str(" -3/6 ") == Fraction(-1, 2)
    for bad in (5, None, "1/0", "x"):
        with pytest.raises(ValueError):
            fraction_from_str(bad)


def test_json_round_trip():
    z = Scalar(Fraction(-5, 7), Fraction(2, 3))
    enc = scalar_to_json(z)
    assert enc == {"re": "-5/7", "im": "2/3"}
    assert scalar_from_json(enc) == z
    assert scalar_to_json(Scalar(2)) == {"re": "2/1", "im": "0/1"}
