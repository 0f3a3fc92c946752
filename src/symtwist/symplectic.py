"""The standard symplectic vector space (V, omega) of dimension 2l.

Conventions, fixed once for the whole package:

* adapted basis e_1..e_2l; the first l vectors span the Lagrangian L, the
  last l span the complementary Lagrangian L';
* omega(e_i, e_{l+i}) = +1 for i = 1..l, every other independent pairing
  zero, i.e. the lowered matrix is [[0, I], [-I, 0]];
* the raised matrix omega^{ij} is defined by omega_{ij} omega^{kj} =
  delta_i^k, which makes it numerically equal to the lowered one;
* indices are 0-based internally and 1-based in reports and docs.

Index raising contracts with the FIRST omega slot (T^i = omega^{ic} T_c),
lowering with the SECOND (T_i = T^c omega_{ci}); raising then lowering is
the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import ONE, Scalar


@dataclass(frozen=True)
class Covector:
    """Element of V*, components against the dual basis."""

    components: tuple

    def is_zero(self):
        return not any(self.components)

    def __len__(self):
        return len(self.components)


class SymplecticSpace:
    __slots__ = ("l", "dim", "omega_lower", "omega_upper")

    def __init__(self, l, omega_lower, omega_upper):
        self.l = l
        self.dim = 2 * l
        self.omega_lower = omega_lower
        self.omega_upper = omega_upper


def standard_space(l: int) -> SymplecticSpace:
    if l < 1:
        raise ValueError("half-dimension l must be >= 1")
    n = 2 * l
    z = Scalar(0)
    lower = [[z] * n for _ in range(n)]
    for i in range(l):
        lower[i][l + i] = ONE
        lower[l + i][i] = -ONE
    lower = tuple(tuple(row) for row in lower)
    # omega_{ij} omega^{kj} = delta_i^k forces the raised matrix to equal
    # the lowered one for this block form; keep both explicitly anyway.
    return SymplecticSpace(l, lower, lower)


def basis_vector(sp: SymplecticSpace, k: int) -> tuple:
    return tuple(ONE if j == k else Scalar(0) for j in range(sp.dim))


def basis_covector(sp: SymplecticSpace, k: int) -> Covector:
    return Covector(tuple(ONE if j == k else Scalar(0) for j in range(sp.dim)))


def canonical_covector(sp: SymplecticSpace) -> Covector:
    """The covector whose sharp is e_1 (0-based: e_0): the dual of e_{l+1}."""
    return basis_covector(sp, sp.l)


def omega_value(sp: SymplecticSpace, v, w) -> Scalar:
    acc = Scalar(0)
    for i, vi in enumerate(v):
        if not vi:
            continue
        for j, wj in enumerate(w):
            if wj and sp.omega_lower[i][j]:
                acc = acc + vi * wj * sp.omega_lower[i][j]
    return acc


def sharp(sp: SymplecticSpace, alpha: Covector) -> tuple:
    """The vector alpha-sharp with alpha(w) = omega(alpha-sharp, w)."""
    n = sp.dim
    out = []
    for k in range(n):
        acc = Scalar(0)
        for j in range(n):
            if sp.omega_upper[k][j] and alpha.components[j]:
                acc = acc + sp.omega_upper[k][j] * alpha.components[j]
        out.append(acc)
    return tuple(out)
