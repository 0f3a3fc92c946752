"""Symplectic curvature decomposition.

Rank-4 curvature tensors are stored fully lowered.  Construction enforces
exactly two invariants: antisymmetry in the last index pair (the two
vector-field slots) and the first Bianchi identity over the last three
slots.  Further symmetries a connection-derived tensor would satisfy are
checked empirically by the callers, never assumed.

The trace convention is pinned here once: the Ricci contraction raises the
FIRST lowered slot,

    sigma_{ij} = omega^{km} R_{m i k j},

matching the index-raising convention of the symplectic base module
(conventions vary in the literature, so this is stated prominently).  The
Ricci-type part is rebuilt from sigma by

    2(l+1) st_{ijkl} = om_{il} s_{jk} - om_{ik} s_{jl} + om_{jl} s_{ik}
                       - om_{jk} s_{il} + 2 s_{ij} om_{kl}

and the Weyl part is the difference.  Contracting the rebuilt tensor
returns sigma with normalization factor exactly 1; the factor is pinned by
a brute-force oracle in the test suite rather than trusted.
"""

from __future__ import annotations

import random

from .scalars import Scalar, scalar_from_json, scalar_to_json
from .symplectic import SymplecticSpace, omega_entry


class InvalidCurvatureError(ValueError):
    """Input fails a curvature invariant or is not a symplectic curvature
    tensor (asymmetric Ricci contraction)."""


_CURVATURE_SHAPE = "curvature entries must nest four lists of length 2l = {}"
_RICCI_SHAPE = "Ricci entries must nest two lists of length 2l = {}"


def _nested(x, n, depth, shape):
    """x as ``depth`` levels of nested tuples, copying whole rows; every
    level must have exactly n items, else InvalidCurvatureError with the
    ``shape`` message: nothing is cut off."""
    t = tuple(x) if depth == 1 else tuple(_nested(y, n, depth - 1, shape) for y in x)
    if len(t) != n:
        raise InvalidCurvatureError(shape.format(n))
    return t


class RicciTensor:
    __slots__ = ("l", "entries")

    def __init__(self, l, entries):
        n = 2 * l
        self.l = l
        self.entries = _nested(entries, n, 2, _RICCI_SHAPE)
        for i in range(n):
            for j in range(i + 1, n):
                if self.entries[i][j] != self.entries[j][i]:
                    raise InvalidCurvatureError(
                        f"Ricci tensor must be symmetric, differs at ({i + 1},{j + 1})"
                    )

    def is_zero(self):
        return not any(any(row) for row in self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, RicciTensor)
            and self.l == other.l
            and self.entries == other.entries
        )


class CurvatureTensor:
    __slots__ = ("l", "entries")

    def __init__(self, l, entries):
        n = 2 * l
        self.l = l
        self.entries = _nested(entries, n, 4, _CURVATURE_SHAPE)
        e = self.entries
        for i in range(n):
            for j in range(n):
                eij = e[i][j]
                for k in range(n):
                    eijk = eij[k]
                    for m in range(k, n):
                        x, y = eijk[m], eij[m][k]
                        if type(x) is Scalar and type(y) is Scalar:
                            # x != -y on canonical triples, with no -y built
                            bad = x._d != y._d or x._a != -y._a or x._b != -y._b
                        else:
                            bad = x != -y
                        if bad:
                            raise InvalidCurvatureError(
                                "curvature must be antisymmetric in the last "
                                f"index pair, fails at ({i + 1},{j + 1},{k + 1},{m + 1})"
                            )
        # With the last pair antisymmetric, the cyclic sum over (j, k, m) is
        # totally antisymmetric in them and vanishes when two coincide, so
        # j < k < m covers every case.  The first failure in full-loop order
        # is the sorted triple of some failing cyclic sum, so this loop names
        # the same (i, j, k, m).
        for i in range(n):
            ei = e[i]
            for j in range(n):
                for k in range(j + 1, n):
                    for m in range(k + 1, n):
                        if ei[j][k][m] + ei[k][m][j] + ei[m][j][k]:
                            raise InvalidCurvatureError(
                                "first Bianchi identity fails at "
                                f"({i + 1},{j + 1},{k + 1},{m + 1})"
                            )

    def is_zero(self):
        return not any(
            any(any(any(row3) for row3 in row2) for row2 in row1)
            for row1 in self.entries
        )

    def __eq__(self, other):
        return (
            isinstance(other, CurvatureTensor)
            and self.l == other.l
            and self.entries == other.entries
        )

    def __sub__(self, other):
        """The elementwise difference, validated like any other tensor."""
        return CurvatureTensor(
            self.l,
            [
                [
                    [[x - y for x, y in zip(r3, o3)] for r3, o3 in zip(r2, o2)]
                    for r2, o2 in zip(r1, o1)
                ]
                for r1, o1 in zip(self.entries, other.entries)
            ],
        )


def ricci_contract(sp: SymplecticSpace, R: CurvatureTensor) -> RicciTensor:
    """sigma_{ij} = omega^{km} R_{m i k j} = sum_k R_{k+l,i,k,j} - R_{k,i,k+l,j};
    asymmetric results are rejected as not coming from a symplectic
    curvature tensor."""
    n, l = sp.dim, sp.l
    e = R.entries
    sigma = [[Scalar(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = Scalar(0)
            for k in range(l):
                acc = acc + e[k + l][i][k][j] - e[k][i][k + l][j]
            sigma[i][j] = acc
    for i in range(n):
        for j in range(i + 1, n):
            if sigma[i][j] != sigma[j][i]:
                raise InvalidCurvatureError(
                    "Ricci contraction is asymmetric: input is not a "
                    "symplectic curvature tensor"
                )
    return RicciTensor(sp.l, sigma)


def sigma_tilde(sp: SymplecticSpace, sigma: RicciTensor) -> CurvatureTensor:
    """The Ricci-type curvature tensor built linearly from sigma.

    Each of the five terms has one omega factor om_{ab}, nonzero only for
    b = a +- l.  So each nonzero s_{xy} meets 2l omega entries once per
    term: at most 5 n^3 products are scattered into their entries, and only
    the nonzero sums are divided by 2(l+1).
    """
    n, l = sp.dim, sp.l
    s = sigma.entries
    zero = Scalar(0)
    out = [[[[zero] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for a in range(n):
        b = (a + l) % n
        positive = omega_entry(l, a, b) > 0
        out_a = out[a]
        for x in range(n):
            out_x = out[x]
            for y, v in enumerate(s[x]):
                if not v:
                    continue
                p = v if positive else -v
                out_a[x][y][b] += p  # om_{im} s_{jk}
                out_a[x][b][y] -= p  # -om_{ik} s_{jm}
                out_x[a][y][b] += p  # om_{jm} s_{ik}
                out_x[a][b][y] -= p  # -om_{jk} s_{im}
                out_x[y][a][b] += p * 2  # 2 s_{ij} om_{km}
    denom = Scalar(2 * (l + 1))
    for r1 in out:
        for r2 in r1:
            for r3 in r2:
                for m, z in enumerate(r3):
                    if z:
                        r3[m] = z / denom
    return CurvatureTensor(sp.l, out)


def weyl_part(sp: SymplecticSpace, R: CurvatureTensor) -> CurvatureTensor:
    """R minus the Ricci-type part rebuilt from its contraction.

    The reconstruction factor of ricci_contract(sigma_tilde(.)) is exactly
    1 (pinned by the brute-force oracle in the tests), so no rescaling
    happens here.
    """
    return R - sigma_tilde(sp, ricci_contract(sp, R))


def is_ricci_type(sp: SymplecticSpace, R: CurvatureTensor) -> bool:
    return weyl_part(sp, R).is_zero()


def random_symmetric_ricci(sp: SymplecticSpace, seed: int) -> RicciTensor:
    """Deterministic pseudorandom symmetric tensor with small integer
    entries; same seed, same tensor, on every platform."""
    rng = random.Random(seed)
    n = sp.dim
    s = [[Scalar(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Scalar(rng.randint(-3, 3))
            s[i][j] = v
            s[j][i] = v
    return RicciTensor(sp.l, s)


def random_ricci_type(sp: SymplecticSpace, seed: int) -> CurvatureTensor:
    """sigma_tilde of a seeded random symmetric tensor: a deterministic
    generator of nontrivial Ricci-type curvature tensors."""
    return sigma_tilde(sp, random_symmetric_ricci(sp, seed))


def curvature_to_json(R: CurvatureTensor) -> dict:
    n = 2 * R.l
    # a tensor has (2l)^4 entries but few distinct values: each is rendered
    # once, and equal entries share one leaf dict (so the report writer
    # renders it once too).  Edit a copy of the result, not the result: one
    # edited leaf would change every equal entry.
    rendered = {}

    def leaf(z):
        # keyed by the canonical triple: hashing a real Scalar builds a
        # Fraction, which costs more than rendering it
        key = (z._a, z._b, z._d)
        obj = rendered.get(key)
        if obj is None:
            obj = rendered[key] = scalar_to_json(z)
        return obj

    return {
        "l": R.l,
        "entries": [
            [[[leaf(z) for z in row] for row in block] for block in plane]
            for plane in R.entries
        ],
    }


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
    parsed = {}

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
        if depth == 4:
            return leaf(x)
        if type(x) is not list or len(x) != n:
            raise ValueError(_CURVATURE_SHAPE.format(n))
        return [level(y, depth + 1) for y in x]

    return CurvatureTensor(l, level(obj["entries"], 0))


def ricci_to_json(s: RicciTensor) -> dict:
    n = 2 * s.l
    return {
        "l": s.l,
        "entries": [[scalar_to_json(s.entries[i][j]) for j in range(n)] for i in range(n)],
    }
