from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# Property tests: every operator against the textbook four-multiply formulas,
# on operands of each phase (zero, real, imaginary, general) and on int and
# Fraction operands on either side.
_ZERO = Fraction(0)
_rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
_nonzero = st.builds(Fraction, st.integers(-50, 50).filter(bool), st.integers(1, 12))
_scalars = st.one_of(
    st.just(Scalar(0)),
    _nonzero.map(Scalar),
    _nonzero.map(lambda f: Scalar(0, f)),
    st.tuples(_nonzero, _nonzero).map(lambda t: Scalar(*t)),
)
_plain = st.one_of(st.integers(-5, 5), _rationals)
_pairs = st.one_of(
    st.tuples(_scalars, _scalars),
    st.tuples(_scalars, _plain),
    st.tuples(_plain, _scalars),
)
_property = settings(max_examples=400, deadline=None, derandomize=True, database=None)


def _parts(x):
    if isinstance(x, Scalar):
        return x.re, x.im
    return Fraction(x), _ZERO


def _reference(op, x, y):
    a, b = _parts(x)
    c, d = _parts(y)
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


def _check(z, parts):
    assert type(z) is Scalar
    assert type(z.re) is type(z.im) is Fraction
    assert (z.re, z.im) == parts


@_property
@given(_pairs)
def test_operators_match_textbook_formulas(pair):
    x, y = pair
    _check(x + y, _reference("+", x, y))
    _check(x - y, _reference("-", x, y))
    _check(x * y, _reference("*", x, y))
    if any(_parts(y)):
        _check(x / y, _reference("/", x, y))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


@_property
@given(_scalars)
def test_negation_matches_parts(z):
    _check(-z, (-z.re, -z.im))


# Property tests for the canonical (a, b, d) representation: operands far
# beyond 2**64, ints on both sides of every operator, and after every result
# the canonical form and the agreement of == and hash with int/Fraction.
_BIG = 2**70
_wide = st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG))
_wide_nonzero = _wide.filter(bool)
_wide_scalars = st.one_of(
    _scalars,
    _wide_nonzero.map(Scalar),
    _wide_nonzero.map(lambda f: Scalar(0, f)),
    st.tuples(_wide_nonzero, _wide_nonzero).map(lambda t: Scalar(*t)),
)
_wide_plain = st.one_of(st.integers(-_BIG, _BIG), _plain, _wide)
_wide_pairs = st.one_of(
    st.tuples(_wide_scalars, _wide_scalars),
    st.tuples(_wide_scalars, _wide_plain),
    st.tuples(_wide_plain, _wide_scalars),
)


def _assert_canonical(z):
    a, b, d = z._a, z._b, z._d
    assert type(a) is type(b) is type(d) is int
    assert d > 0 and gcd(a, b, d) == 1
    if not (a or b):
        assert (a, b, d) == (0, 0, 1)
    assert (z.re, z.im) == (Fraction(a, d), Fraction(b, d))
    if not z.im:
        twins = [z.re] + ([z.re.numerator] if z.re.denominator == 1 else [])
        for twin in twins:
            assert z == twin and twin == z
            assert hash(z) == hash(twin)
            assert twin in {z} and z in {twin}


def _check_canonical(z, parts):
    _check(z, parts)
    _assert_canonical(z)


@_property
@given(_wide_pairs)
def test_wide_operands_give_canonical_results(pair):
    x, y = pair
    _check_canonical(x + y, _reference("+", x, y))
    _check_canonical(x - y, _reference("-", x, y))
    _check_canonical(x * y, _reference("*", x, y))
    if any(_parts(y)):
        _check_canonical(x / y, _reference("/", x, y))


@_property
@given(_wide_scalars, st.one_of(st.integers(-12, 12), st.integers(-_BIG, _BIG)))
def test_int_factor_on_either_side(z, k):
    # the exponent factors of the generators multiply on the right, the
    # tests and the suites on the left; both must give the same canonical value
    parts = _reference("*", z, k)
    _check_canonical(z * k, parts)
    _check_canonical(k * z, parts)


@_property
@given(_wide_scalars)
def test_construction_and_negation_are_canonical(z):
    _assert_canonical(z)
    _check_canonical(-z, (-z.re, -z.im))
    _check_canonical(Scalar(z.re, z.im), (z.re, z.im))
    assert Scalar(z.re, z.im) == z and hash(Scalar(z.re, z.im)) == hash(z)


def test_fraction_from_str_refuses_exponents():
    # "1e20000000" would build a 66-million-bit integer inside Fraction
    for bad in ("1e20000000", "1E5", "-2.5e-3", " 3e0 "):
        with pytest.raises(ValueError, match="exponent"):
            fraction_from_str(bad)
    assert fraction_from_str("0.25") == Fraction(1, 4)


def test_fraction_from_str_refuses_over_long_digit_strings():
    # the interpreter's limit on int() of a digit string turns these into
    # ValueError before any big-number work
    for bad in ("7" * 5000, "1/" + "3" * 5000, "0." + "1" * 5000):
        with pytest.raises(ValueError):
            fraction_from_str(bad)
