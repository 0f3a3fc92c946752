"""The standard symplectic vector space (V, omega) of dimension 2l.

Conventions, fixed once for the whole package:

* adapted basis e_1..e_2l; the first l vectors span the Lagrangian L, the
  last l span the complementary Lagrangian L';
* omega is its index rule, omega(e_i, e_{l+i}) = +1 = -omega(e_{l+i}, e_i)
  for i = 1..l and every other pairing zero (the block form
  [[0, I], [-I, 0]]); ``omega_entry`` is that rule, and no matrix is stored;
* the raised omega^{ij}, defined by omega_{ij} omega^{kj} = delta_i^k, has
  the same entries, so ``omega_entry`` gives both;
* indices are 0-based internally and 1-based in reports and docs.

Index raising contracts with the FIRST omega slot (T^i = omega^{ic} T_c),
lowering with the SECOND (T_i = T^c omega_{ci}); raising then lowering is
the identity.
"""

from __future__ import annotations

from collections import namedtuple

from .scalars import ONE, Scalar


class Covector(namedtuple("Covector", "components")):
    """Element of V*, components against the dual basis."""

    __slots__ = ()

    def is_zero(self):
        return not any(self.components)


class SymplecticSpace:
    __slots__ = ("l", "dim", "_basis", "_cobasis", "_memo")

    def __init__(self, l):
        self.l = l
        self.dim = 2 * l
        # the adapted basis and its dual, built once: the operators of the
        # spinor-form layer ask for them on every call
        self._basis = tuple(
            tuple(ONE if j == k else Scalar(0) for j in range(self.dim))
            for k in range(self.dim)
        )
        self._cobasis = tuple(Covector(e) for e in self._basis)
        # the window tables osp derives from the space (edge and component
        # bases, Lagrange tables), each built on first use and freed with
        # the space
        self._memo = {}


def standard_space(l: int) -> SymplecticSpace:
    if l < 1:
        raise ValueError("half-dimension l must be >= 1")
    return SymplecticSpace(l)


def omega_entry(l: int, i: int, j: int) -> int:
    """omega_{ij} = omega^{ij} on 0-based indices of the 2l-dim space."""
    if j - i == l:
        return 1
    if i - j == l:
        return -1
    return 0


def basis_vector(sp: SymplecticSpace, k: int) -> tuple:
    return sp._basis[k]


def basis_covector(sp: SymplecticSpace, k: int) -> Covector:
    return sp._cobasis[k]


def canonical_covector(sp: SymplecticSpace) -> Covector:
    """The covector whose sharp is e_1 (0-based: e_0): the dual of e_{l+1}."""
    return basis_covector(sp, sp.l)


def omega_value(sp: SymplecticSpace, v, w) -> Scalar:
    """omega(v, w) = sum_k v_k w_{k+l} - v_{k+l} w_k."""
    l = sp.l
    acc = Scalar(0)
    for k in range(l):
        acc = acc + v[k] * w[k + l] - v[k + l] * w[k]
    return acc


def sharp(sp: SymplecticSpace, alpha: Covector) -> tuple:
    """The vector alpha-sharp with alpha(w) = omega(alpha-sharp, w):
    (alpha^k) = omega^{kj} alpha_j = (alpha_{l..2l-1}, -alpha_{0..l-1})."""
    c = alpha.components
    return tuple(c[sp.l:]) + tuple(-a for a in c[: sp.l])
