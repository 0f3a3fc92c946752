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

from .forms import SpinorForm
from .linalg import accumulate
from .scalars import I
from .symplectic import omega_value


def clifford_apply(sp, v, psi: SpinorForm) -> SpinorForm:
    """Action of the vector v (2l Scalar components) on the spinor factor
    of psi; the form part is fixed."""
    l = sp.l
    out: dict = {}
    # nonzero components of v as (k, factor) in the order v_0, v_l, v_1,
    # v_{l+1}, ...; the factor is i*v_k on the first Lagrangian, v_k on the
    # second.  Computed once per call, not once per term.
    factors = (
        [(k, I * v[k] if k < l else v[k]) for kk in range(l) for k in (kk, kk + l) if v[k]]
        if psi.terms
        else []
    )
    for (idx, e), c in psi.terms.items():
        for k, f in factors:
            if k < l:
                # e_k . s = i x^k s
                e2 = list(e)
                e2[k] += 1
                accumulate(out, (idx, tuple(e2)), f * c)
            elif e[k - l]:
                # e_{k+l} . s = ds/dx^k
                e2 = list(e)
                e2[k - l] -= 1
                accumulate(out, (idx, tuple(e2)), f * c * e[k - l])
    return SpinorForm._trusted(psi.l, out)


def commutator_defect(sp, v, w, s: SpinorForm) -> SpinorForm:
    """v.(w.s) - w.(v.s) + i omega(v, w) s; identically zero by the
    commutation relation of the Clifford action."""
    vw = clifford_apply(sp, v, clifford_apply(sp, w, s))
    wv = clifford_apply(sp, w, clifford_apply(sp, v, s))
    corr = s.scale(I * omega_value(sp, v, w))
    return vw - wv + corr
