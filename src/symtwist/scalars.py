"""Exact Gaussian-rational arithmetic.

The number type of the package's interfaces: a + b*i with rational a, b.
Symbols and reports use it.  The operator layer (``forms``,
``osp``, ``spinors``), linear algebra (``linalg``) and curvature and Ricci
tensors do not: a form holds Gaussian-integer pairs over one denominator,
an operator matrix holds Gaussian-integer rows over one denominator per
column, a curvature or Ricci tensor holds Gaussian-integer lists over one
denominator, and Scalars enter and leave them only at their boundaries
(see the forms, linalg and curvature modules).  A ``Scalar``
stores three Python ints ``(a, b, d)`` and means ``(a + b*i) / d``.  The
triple is kept canonical after every operation:

* ``d > 0``;
* ``gcd(a, b, d) == 1``;
* zero is ``(0, 0, 1)``.

Every Gaussian rational has exactly one such triple: ``d`` is the least
common denominator of the two parts, and the sign sits in ``a`` and ``b``.
So equality is equality of the three ints and the hash of the triple is a
valid hash, with no normalisation at comparison time.  The parts ``re`` and
``im`` are computed on demand as ``Fraction``s in lowest terms.

Every result is built by one normaliser, which divides out the gcd and
skips it when ``d == 1`` (the common case: operator matrices are
integer-seeded).  The coefficients stay small in practice, so the cost of
an operation is interpreter overhead, not big-number work; three ints and
no ``Fraction`` objects keep that overhead low.  Multiplying by an ``int``
(the exponent factors of the Weyl-algebra generators) goes straight to
the normaliser, with no coercion.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class Scalar:
    """Gaussian rational (a + b*i) / d in canonical form (see module doc)."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re = re if type(re) is Fraction else Fraction(re)
        im = im if type(im) is Fraction else Fraction(im)
        # d = lcm(q, s) of the two lowest-terms denominators: no prime of d
        # divides both scaled numerators, so the triple is canonical
        q, s = re.denominator, im.denominator
        d = q // gcd(q, s) * s
        self._a, self._b, self._d = re.numerator * (d // q), im.numerator * (d // s), d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        if type(other) is Scalar:
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return self._b == 0 and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (
                self._b == 0
                and self._a == other.numerator
                and self._d == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        # a real scalar equals its real part, so it must hash like it
        if self._b:
            return hash((self._a, self._b, self._d))
        return hash(Fraction(self._a, self._d))

    def __neg__(self):
        # negation keeps a canonical triple canonical: no gcd to divide out
        z = _new(Scalar)
        z._a = -self._a
        z._b = -self._b
        z._d = self._d
        return z

    def __add__(self, other):
        if type(other) is Scalar:
            c, e, f = other._a, other._b, other._d
        else:
            t = _parts(other)
            if t is None:
                return NotImplemented
            c, e, f = t
        d = self._d
        if d == f:
            return _norm(self._a + c, self._b + e, d)
        return _norm(self._a * f + c * d, self._b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Scalar:
            c, e, f = other._a, other._b, other._d
        else:
            t = _parts(other)
            if t is None:
                return NotImplemented
            c, e, f = t
        d = self._d
        if d == f:
            return _norm(self._a - c, self._b - e, d)
        return _norm(self._a * f - c * d, self._b * f - e * d, d * f)

    def __rsub__(self, other):
        t = _parts(other)
        if t is None:
            return NotImplemented
        c, e, f = t
        d = self._d
        return _norm(c * d - self._a * f, e * d - self._b * f, d * f)

    def __mul__(self, other):
        a, b, d = self._a, self._b, self._d
        if type(other) is Scalar:
            c, e, f = other._a, other._b, other._d
            if b == 0 and e == 0:
                return _norm(a * c, 0, d * f)
            return _norm(a * c - b * e, a * e + b * c, d * f)
        if type(other) is int:
            return _norm(a * other, b * other, d)
        t = _parts(other)
        if t is None:
            return NotImplemented
        c, _e, f = t
        return _norm(a * c, b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Scalar:
            c, e, f = other._a, other._b, other._d
        else:
            t = _parts(other)
            if t is None:
                return NotImplemented
            c, e, f = t
        a, b = self._a * f, self._b * f
        # (a + b i) / (c + e i) = (a + b i)(c - e i) / (c^2 + e^2), times f / d
        if e == 0:
            if c == 0:
                raise ZeroDivisionError("division by zero Scalar")
            num_re, num_im, den = a, b, c
        elif c == 0:
            num_re, num_im, den = b, -a, e
        else:
            num_re, num_im, den = a * c + b * e, b * c - a * e, c * c + e * e
        den *= self._d
        if den < 0:
            return _norm(-num_re, -num_im, -den)
        return _norm(num_re, num_im, den)

    def __rtruediv__(self, other):
        t = _parts(other)
        if t is None:
            return NotImplemented
        return _norm(*t) / self

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"


_new = object.__new__


def _norm(a: int, b: int, d: int) -> Scalar:
    """The canonical Scalar (a + b*i) / d, for any d > 0."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    z = _new(Scalar)
    z._a = a
    z._b = b
    z._d = d
    return z


# the normaliser under its public name, for the operator layer's Gaussian-
# integer pairs over a denominator
from_pair = _norm


def _parts(x):
    """The canonical triple of an int or Fraction operand, else None."""
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


ONE = Scalar(1)
I = Scalar(0, 1)


def fraction_from_str(s: str) -> Fraction:
    """Parse "p/q" (or an integer or decimal); ValueError on anything else.

    An exponent ("1e20000000") is refused: it would build an integer of
    that many digits before any check could look at it.
    """
    if not isinstance(s, str):
        raise ValueError(f"a rational must be a string 'p/q', got {s!r}")
    if "e" in s or "E" in s:
        raise ValueError(f"exponents are not accepted, write 'p/q': {s!r}")
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def _ratio_str(n: int, d: int) -> str:
    # canonical "p/q" with q > 0, lowest terms; d > 0 is given
    g = gcd(n, d)
    return f"{n // g}/{d // g}"


def scalar_to_json(z: Scalar) -> dict:
    return {"re": _ratio_str(z._a, z._d), "im": _ratio_str(z._b, z._d)}


def scalar_from_json(obj: dict) -> Scalar:
    """The Scalar of a ``{"re": "p/q", "im": "p/q"}`` object; ValueError on
    anything else."""
    if type(obj) is not dict or "re" not in obj or "im" not in obj:
        raise ValueError(f'a scalar must be an object {{"re": "p/q", "im": "p/q"}}, got {obj!r}')
    return Scalar(fraction_from_str(obj["re"]), fraction_from_str(obj["im"]))
