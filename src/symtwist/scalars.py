"""Exact Gaussian-rational arithmetic.

The single number type of the whole package: a + b*i with rational a, b.
``fractions.Fraction`` keeps numerators and denominators in lowest terms
with positive denominators after every operation, so exactness needs no
extra bookkeeping here.

Most operands in practice are pure-phase: real or purely imaginary.  The
operators have branches for those (one ``Fraction`` product or quotient per
multiply or divide, no addition of a zero part) and fall back to the general
complex formulas otherwise.  Both paths return the same ``Fraction`` values,
so the fast paths change no result.
"""

from __future__ import annotations

from fractions import Fraction


class Scalar:
    """Gaussian rational re + im*i."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.re == other and not self.im
        return NotImplemented

    def __hash__(self):
        # a real scalar equals its real part, so it must hash like it
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __neg__(self):
        return _make(-self.re, -self.im)

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return _make((a + c if a else c) if c else a, (b + d if b else d) if d else b)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return _make((a - c if a else -c) if c else a, (b - d if b else -d) if d else b)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _make(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        # pure-phase operands (real or imaginary) need one Fraction product
        if not b:
            if not d:
                return _make(a * c, _ZERO)
            if not c:
                return _make(_ZERO, a * d)
        elif not a:
            if not d:
                return _make(_ZERO, b * c)
            if not c:
                return _make(-(b * d), _ZERO)
        return _make(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        # a real or an imaginary divisor divides each part once
        if not d:
            if not c:
                raise ZeroDivisionError("division by zero Scalar")
            return _make(a / c if a else a, b / c if b else b)
        if not c:
            return _make(b / d if b else b, -a / d if a else a)
        n = c * c + d * d
        return _make((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


_ZERO = Fraction(0)
_new = object.__new__


def _make(re: Fraction, im: Fraction) -> Scalar:
    """A Scalar from two Fractions, without __init__'s conversions."""
    z = _new(Scalar)
    z.re = re
    z.im = im
    return z


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    return None


ONE = Scalar(1)
I = Scalar(0, 1)


def fraction_to_str(f: Fraction) -> str:
    # canonical "p/q" with q > 0, lowest terms (Fraction guarantees both)
    return f"{f.numerator}/{f.denominator}"


def fraction_from_str(s: str) -> Fraction:
    """Parse "p/q" (or an integer or decimal); ValueError on anything else."""
    if not isinstance(s, str):
        raise ValueError(f"a rational must be a string 'p/q', got {s!r}")
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def scalar_to_json(z: Scalar) -> dict:
    return {"re": fraction_to_str(z.re), "im": fraction_to_str(z.im)}


def scalar_from_json(obj: dict) -> Scalar:
    return Scalar(fraction_from_str(obj["re"]), fraction_from_str(obj["im"]))
