"""Symplectic curvature decomposition.

A curvature tensor is stored fully lowered, as Gaussian-integer lists
``re``, ``im`` over one denominator ``d``: R_{ijkm} = (re[p] + im[p] i) / d
at p = ((i n + j) n + k) n + m, n = 2l; a Ricci tensor the same way, with
sigma_{ij} at p = i n + j.  Their arithmetic runs on these ints; Scalars
are only their boundary (constructor, ``entries``, JSON).  Construction
enforces exactly the symmetry of a Ricci tensor, and the antisymmetry in
the last index pair and the first Bianchi identity over the last three
slots of a curvature tensor.  The Ricci contraction raises the FIRST slot
(conventions vary),

    sigma_{ij} = omega^{km} R_{m i k j},

and the Ricci-type part is rebuilt from sigma by

    2(l+1) st_{ijkl} = om_{il} s_{jk} - om_{ik} s_{jl} + om_{jl} s_{ik}
                       - om_{jk} s_{il} + 2 s_{ij} om_{kl},

W being the difference; a test oracle pins the reconstruction factor 1.
"""

from __future__ import annotations

import random
from itertools import chain
from math import gcd, lcm
from operator import add, sub

from .scalars import Scalar, _parts, _ratio_str, from_pair, scalar_from_json
from .symplectic import SymplecticSpace, omega_entry


class InvalidCurvatureError(ValueError):
    """A failed curvature invariant or an asymmetric Ricci contraction."""


_CURVATURE_SHAPE = "curvature entries must nest four lists of length 2l = {}"
_RICCI_SHAPE = "Ricci entries must nest two lists of length 2l = {}"
_flat = chain.from_iterable


def _nested(x, n, depth, shape):
    """The leaves of x in row-major order, x nesting ``depth`` levels of
    exactly n items, else InvalidCurvatureError(shape): nothing is cut off."""
    t = list(x) if depth == 1 else [_nested(y, n, depth - 1, shape) for y in x]
    if len(t) != n:
        raise InvalidCurvatureError(shape.format(n))
    return t if depth == 1 else list(_flat(t))


def _pairs(flat):
    """(re, im, d) of a list of Scalar, int or Fraction entries, converting
    each distinct object once."""
    keys = list(map(id, flat))
    t = {}
    for k, z in dict(zip(keys, flat)).items():
        t[k] = (z._a, z._b, z._d) if type(z) is Scalar else _parts(z)
        if t[k] is None:
            raise TypeError(f"not a Scalar, int or Fraction: {z!r}")
    d = lcm(*{e for _, _, e in t.values()})
    t = {k: (a * (d // e), b * (d // e)) for k, (a, b, e) in t.items()}
    re, im = map(list, zip(*map(t.__getitem__, keys)))
    return re, im, d


def _scaled(x, f):
    return x if f == 1 else list(map(f.__mul__, x))


def _orbit_sum(x, n, size, count):
    """x plus count - 1 successive transposes of its ``size`` blocks as
    (size/n) x n matrices: n^2 swaps k and m, n^3 gives R_{ikmj}."""
    total = y = x
    for _ in range(count - 1):
        rows = zip(*[iter(y)] * n)  # one zip per size/n rows
        y = list(_flat(_flat(map(zip, *[rows] * (size // n)))))
        total = list(map(add, total, y))
    return total


def _validate(n, re, im):
    # A failure recurs at its swapped (permuted) positions, never where j, k,
    # m repeat: the first nonzero sum is the full loop's first failure.  An
    # all-zero part passes.
    for size, count, what in (
        (n * n, 2, "curvature must be antisymmetric in the last index pair, fails at"),
        (n**3, 3, "first Bianchi identity fails at"),
    ):
        sums = [_orbit_sum(x, n, size, count) for x in (re, im) if any(x)]
        bad = [list(map(bool, x)).index(True) for x in sums if any(x)]
        if bad:
            p = min(bad)
            i, j, k, m = p // n**3, p // n**2 % n, p // n % n, p % n
            raise InvalidCurvatureError(f"{what} ({i + 1},{j + 1},{k + 1},{m + 1})")


def _view(R, make, kind):
    """R's entries as nested ``kind``s: make(a, b, d) once per distinct
    pair, one object per distinct row, block and plane."""
    keys, n = list(zip(R.re, R.im)), 2 * R.l
    made = {t: make(*t, R.d) for t in set(keys)}
    while len(keys) > 1:
        flat = list(map(made.__getitem__, keys))
        keys = list(zip(*[iter(map(id, flat))] * n))  # chunks of n ids
        made = {k: kind(c) for k, c in dict(zip(keys, zip(*[iter(flat)] * n))).items()}
    return made[keys[0]]


class _Flat:
    """The storage of both tensor kinds, from nested Scalar, int or Fraction
    ``entries`` or this module's flat (re, im, d); validated either way."""

    __slots__ = ("l", "re", "im", "d", "_entries")

    def _store(self, l, entries, flat, depth, shape):
        self.l = l
        self._entries = None
        if flat is None:
            flat = _pairs(_nested(entries, 2 * l, depth, shape))
        self.re, self.im, self.d = flat

    @property
    def entries(self):
        """Nested tuples of Scalars, one Scalar per distinct value."""
        if self._entries is None:
            self._entries = _view(self, from_pair, tuple)
        return self._entries

    def is_zero(self):
        return not (any(self.re) or any(self.im))

    def __eq__(self, other):
        if type(other) is not type(self) or self.l != other.l:
            return False
        g = gcd(self.d, other.d)  # cross-multiplied
        u, v = other.d // g, self.d // g
        return _scaled(self.re, u) == _scaled(other.re, v) and (
            _scaled(self.im, u) == _scaled(other.im, v)
        )


class RicciTensor(_Flat):
    __slots__ = ()

    def __init__(self, l, entries, flat=None):
        self._store(l, entries, flat, 2, _RICCI_SHAPE)
        n, pairs = 2 * l, list(zip(self.re, self.im))
        # the first mismatch of the transpose lies above the diagonal
        for p, z in enumerate(_flat(zip(*zip(*[iter(pairs)] * n)))):
            if z != pairs[p]:
                i, j = divmod(p, n)
                raise InvalidCurvatureError(
                    f"Ricci tensor must be symmetric, differs at ({i + 1},{j + 1})"
                )


class CurvatureTensor(_Flat):
    __slots__ = ()

    def __init__(self, l, entries, flat=None):
        self._store(l, entries, flat, 4, _CURVATURE_SHAPE)
        _validate(2 * l, self.re, self.im)

    def __sub__(self, other):
        """The elementwise difference, validated like any other tensor."""
        d = lcm(self.d, other.d)
        u, v = d // self.d, d // other.d
        re = list(map(sub, _scaled(self.re, u), _scaled(other.re, v)))
        im = list(map(sub, _scaled(self.im, u), _scaled(other.im, v)))
        return CurvatureTensor(self.l, None, (re, im, d))


def ricci_contract(sp: SymplecticSpace, R: CurvatureTensor) -> RicciTensor:
    """sigma_{ij} = sum_k R_{k+l,i,k,j} - R_{k,i,k+l,j}, rejected when
    asymmetric: R is then no symplectic curvature tensor."""
    n, l, re, im = sp.dim, sp.l, R.re, R.im
    us, vs = [], []
    for i in range(n):
        u, v = [0] * n, [0] * n
        for k in range(l):
            p, q = (((k + l) * n + i) * n + k) * n, ((k * n + i) * n + k + l) * n
            u = list(map(add, u, map(sub, re[p : p + n], re[q : q + n])))
            v = list(map(add, v, map(sub, im[p : p + n], im[q : q + n])))
        us.append(u)
        vs.append(v)
    try:
        return RicciTensor(l, None, (list(_flat(us)), list(_flat(vs)), R.d))
    except InvalidCurvatureError:
        raise InvalidCurvatureError(
            "Ricci contraction is asymmetric: input is not a symplectic curvature tensor"
        ) from None


def sigma_tilde(sp: SymplecticSpace, sigma: RicciTensor) -> CurvatureTensor:
    """The Ricci-type tensor of sigma, over 2(l+1) times sigma's
    denominator.  Each term has one omega factor om_{ab}, nonzero only for
    b = a +- l: a nonzero s_{xy} meets at most 5n entries."""
    n, l = sp.dim, sp.l
    sre, sim, ds = sigma.re, sigma.im, sigma.d  # s_{xy} at x n + y
    re, im = [0] * n**4, [0] * n**4
    for a in range(n):
        b = (a + l) % n
        f, ab = omega_entry(l, a, b), a * n + b
        signs = f, -f, f, -f, 2 * f
        for xy, (u, v) in enumerate(zip(sre, sim)):
            if u or v:
                x, y = divmod(xy, n)
                ax, xa, yb, by = (a * n + x) * n * n, (x * n + a) * n * n, y * n + b, b * n + y
                # om_{im} s_{jk}, -om_{ik} s_{jm}, om_{jm} s_{ik}, -om_{jk} s_{im}, 2 s_{ij} om_{km}
                for p, c in zip((ax + yb, ax + by, xa + yb, xa + by, xy * n * n + ab), signs):
                    re[p] += c * u
                    im[p] += c * v
    return CurvatureTensor(l, None, (re, im, 2 * (l + 1) * ds))


def weyl_part(sp: SymplecticSpace, R: CurvatureTensor) -> CurvatureTensor:
    """R minus the Ricci-type part rebuilt from its contraction."""
    return R - sigma_tilde(sp, ricci_contract(sp, R))


def is_ricci_type(sp: SymplecticSpace, R: CurvatureTensor) -> bool:
    return weyl_part(sp, R).is_zero()


def random_symmetric_ricci(sp: SymplecticSpace, seed: int) -> RicciTensor:
    """Seeded symmetric tensor with small integer entries, the same on
    every platform."""
    rng, n = random.Random(seed), sp.dim
    s = [0] * (n * n)
    for i in range(n):
        for j in range(i, n):
            s[i * n + j] = s[j * n + i] = rng.randint(-3, 3)
    return RicciTensor(sp.l, None, (s, [0] * (n * n), 1))


def random_ricci_type(sp: SymplecticSpace, seed: int) -> CurvatureTensor:
    """sigma_tilde of random_symmetric_ricci: a seeded Ricci-type tensor."""
    return sigma_tilde(sp, random_symmetric_ricci(sp, seed))


def curvature_to_json(R: CurvatureTensor) -> dict:
    # equal entries, rows, blocks and planes share one object, which the
    # report writer renders once: edit a copy, not one shared leaf
    return {"l": R.l, "entries": _view(R, _leaf, list)}


def _leaf(a, b, d):
    return {"re": _ratio_str(a, d), "im": _ratio_str(b, d)}


def curvature_from_json(obj: dict) -> CurvatureTensor:
    if not isinstance(obj, dict):
        raise ValueError("the input is not a JSON object")
    for key in ("l", "entries"):
        if key not in obj:
            raise ValueError(f"missing key {key!r}")
    l = obj["l"]
    if type(l) is not int:
        raise ValueError(f"half-dimension l must be an integer, got {l!r}")
    if l < 1:
        raise ValueError(f"half-dimension l must be >= 1, got {l}")
    n = 2 * l
    parsed, flat = {}, []

    def leaf(x):
        # one parse per distinct (re, im) string pair; anything else goes to
        # scalar_from_json, which raises its own error, and is not stored
        try:
            return parsed[x["re"], x["im"]]
        except (KeyError, TypeError):
            pass
        z = parsed[x["re"], x["im"]] = scalar_from_json(x)
        return z

    def level(x, depth):
        # every level is a list of exactly 2l items: nothing is cut off
        if type(x) is not list or len(x) != n:
            raise ValueError(_CURVATURE_SHAPE.format(n))
        if depth == 3:
            flat.extend(map(leaf, x))
        else:
            for y in x:
                level(y, depth + 1)

    level(obj["entries"], 0)
    return CurvatureTensor(l, None, _pairs(flat))


def ricci_to_json(s: RicciTensor) -> dict:
    return {"l": s.l, "entries": _view(s, _leaf, list)}
