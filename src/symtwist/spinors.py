"""Polynomial model of symplectic spinors and their Clifford action.

A spinor is a complex polynomial in l variables.  It is stored as a
0-form: a SpinorForm whose terms are keyed ((), exponent tuple), with
Gaussian-rational coefficients; the spinor window of degree <= D is
FormWindow(l, 0, D).  Vectors of the symplectic space act by the
symplectic Clifford multiplication: the first l basis vectors by
i * (coordinate multiplication), the last l by partial differentiation.
On forms of any degree the action runs through the spinor factor and
leaves the form part fixed.  It satisfies v.w.s - w.v.s = -i omega(v, w) s
exactly.

The model is the dense polynomial subspace of the full (Schwartz-type)
spinor space.  One consequence matters downstream: multiplication by a
vector lying entirely in the second Lagrangian (a pure derivative) has a
nonzero kernel here, so injectivity arguments are only used for vectors
with a nonzero component in the first Lagrangian.
"""

from __future__ import annotations

from .forms import SpinorForm, _add, _vector_pairs
from .scalars import I
from .symplectic import omega_value


def clifford_apply(sp, v, psi: SpinorForm) -> SpinorForm:
    """Action of the vector v (2l Scalar components) on the spinor factor
    of psi; the form part is fixed."""
    l = sp.l
    out: dict = {}
    if not psi._c:
        return SpinorForm._trusted(psi.l, out, 1)
    # the nonzero components of v as pairs (p, q) over the denominator f
    comps, f = _vector_pairs(v)
    for (idx, e), (a, b) in psi._c.items():
        for k, p, q in comps:
            # the pair (a, b) (p, q) = (x, y)
            x = a * p - b * q
            y = a * q + b * p
            if k < l:
                # e_k . s = i x^k s: the pair i (x, y) = (-y, x)
                _add(out, (idx, e[:k] + (e[k] + 1,) + e[k + 1 :]), -y, x)
            else:
                # e_{k+l} . s = ds/dx^k
                k -= l
                n = e[k]
                if n:
                    _add(out, (idx, e[:k] + (n - 1,) + e[k + 1 :]), x * n, y * n)
    return SpinorForm._trusted(psi.l, out, psi._d * f)


def commutator_defect(sp, v, w, s: SpinorForm) -> SpinorForm:
    """v.(w.s) - w.(v.s) + i omega(v, w) s; identically zero by the
    commutation relation of the Clifford action."""
    vw = clifford_apply(sp, v, clifford_apply(sp, w, s))
    wv = clifford_apply(sp, w, clifford_apply(sp, v, s))
    corr = s.scale(I * omega_value(sp, v, w))
    return vw - wv + corr
