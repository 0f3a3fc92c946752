"""Polynomial model of symplectic spinors.

A spinor is a complex polynomial in l variables, stored as a finitely
supported map from exponent tuples to Gaussian-rational coefficients.
Vectors of the symplectic space act by the symplectic Clifford
multiplication: the first l basis vectors by i * (coordinate
multiplication), the last l by partial differentiation.  That action
satisfies v.w.s - w.v.s = -i omega(v, w) s exactly.

The model is the dense polynomial subspace of the full (Schwartz-type)
spinor space.  One consequence matters downstream: multiplication by a
vector lying entirely in the second Lagrangian (a pure derivative) has a
nonzero kernel here, so injectivity arguments are only used for vectors
with a nonzero component in the first Lagrangian.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb

from .linalg import accumulate
from .scalars import I, Scalar


class Spinor:
    """Finitely supported map exponent-tuple -> Scalar; no zero values."""

    __slots__ = ("l", "terms")

    def __init__(self, l, terms=None):
        self.l = l
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, Spinor)
            and self.l == other.l
            and self.terms == other.terms
        )

    def __add__(self, other):
        if self.l != other.l:
            raise ValueError("mixing spinors in different variable counts")
        out = dict(self.terms)
        for e, c in other.terms.items():
            accumulate(out, e, c)
        return Spinor(self.l, out)

    def __neg__(self):
        return Spinor(self.l, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, z: Scalar):
        if not z:
            return Spinor(self.l)
        return Spinor(self.l, {e: z * c for e, c in self.terms.items()})

    def __repr__(self):
        return f"Spinor(l={self.l}, {len(self.terms)} terms)"


def monomial(l, exp, coef=Scalar(1)) -> Spinor:
    return Spinor(l, {tuple(exp): coef})


def monomials_upto(l, D):
    """All exponent tuples of total degree <= D, in basis order."""
    out = []
    for d in range(D + 1):
        batch = set()
        for picks in combinations_with_replacement(range(l), d):
            e = [0] * l
            for p in picks:
                e[p] += 1
            batch.add(tuple(e))
        out.extend(sorted(batch))
    return out


class SpinorWindow:
    """Degree-truncated spinor space with an enumerated monomial basis."""

    __slots__ = ("l", "D", "basis", "index")

    def __init__(self, l, D):
        if l < 1 or D < 0:
            raise ValueError("need l >= 1 and D >= 0")
        self.l = l
        self.D = D
        self.basis = tuple(monomials_upto(l, D))
        self.index = {e: k for k, e in enumerate(self.basis)}
        assert len(self.basis) == comb(l + D, l)

    @property
    def dim(self):
        return len(self.basis)

    def element(self, k) -> Spinor:
        return monomial(self.l, self.basis[k])

    # a window is also the sequence of its basis elements
    __getitem__ = element

    def __len__(self):
        return len(self.basis)

    def __repr__(self):
        return f"SpinorWindow(l={self.l}, D={self.D})"


def _clifford_factors(l, v):
    """Nonzero components of v as (k, factor) in the order v_0, v_l, v_1,
    v_{l+1}, ...; the factor is i*v_k on the first Lagrangian, v_k on the
    second.  Computed once per action, not once per term."""
    return [(k, I * v[k] if k < l else v[k]) for kk in range(l) for k in (kk, kk + l) if v[k]]


def _clifford_terms(l, factors, e, c):
    """(exponent, coefficient) terms of the action on the monomial c x^e."""
    for k, f in factors:
        if k < l:
            # e_k . s = i x^k s
            e2 = list(e)
            e2[k] += 1
            yield tuple(e2), f * c
        elif e[k - l]:
            # e_{k+l} . s = ds/dx^k
            e2 = list(e)
            e2[k - l] -= 1
            yield tuple(e2), f * c * e[k - l]


def clifford_apply(sp, v, s: Spinor) -> Spinor:
    """Action of the vector v (2l Scalar components) on the spinor s."""
    l = sp.l
    out: dict = {}
    factors = _clifford_factors(l, v) if s.terms else []
    for e, c in s.terms.items():
        for e2, t in _clifford_terms(l, factors, e, c):
            accumulate(out, e2, t)
    return Spinor(l, out)


def commutator_defect(sp, v, w, s: Spinor) -> Spinor:
    """v.(w.s) - w.(v.s) + i omega(v, w) s; identically zero by the
    commutation relation of the Clifford action."""
    from .symplectic import omega_value

    vw = clifford_apply(sp, v, clifford_apply(sp, w, s))
    wv = clifford_apply(sp, w, clifford_apply(sp, v, s))
    corr = s.scale(I * omega_value(sp, v, w))
    return vw - wv + corr
