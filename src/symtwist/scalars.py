"""Exact Gaussian-rational arithmetic.

The single number type of the whole package: a + b*i with rational a, b.
``fractions.Fraction`` keeps numerators and denominators in lowest terms
with positive denominators after every operation, so exactness needs no
extra bookkeeping here.
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
        return Scalar(-self.re, -self.im)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

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
