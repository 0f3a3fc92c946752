"""Hypothesis properties of the grouped storage of a SpinorForm.

A form holds ``{idx: {e: (a, b)}}``: no empty group, no zero pair and one
form degree.  A group may be shared between forms (a wedge or contraction
by one basis (co)vector, the first summand of a sum, hands the input's
group on), so no operation may change a group in place once its form is
built.  Each case applies every operator, ``+``, ``-`` and ``scale`` to
drawn forms, feeds results that share groups with their inputs into
further sums, checks the storage invariants of every result and its
value against the Scalar ``ref_*`` operators of ``conftest``, and at the
end checks that no form's ``.terms`` changed since it was built.
"""

from fractions import Fraction

from conftest import (
    ref_add,
    ref_clifford,
    ref_combine,
    ref_contract,
    ref_lowering,
    ref_raising,
    ref_scale,
    ref_wedge,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from symtwist.forms import SpinorForm, _combine, contract, wedge
from symtwist.osp import lowering, raising
from symtwist.scalars import ONE, Scalar
from symtwist.spinors import clifford_apply
from symtwist.symplectic import Covector, standard_space

_property = settings(max_examples=150, deadline=None, derandomize=True, database=None)

_rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4]))
_scalars = st.builds(Scalar, _rationals, _rationals)
_nonzero = _scalars.filter(bool)


@st.composite
def _forms(draw, l, r):
    """An r-form of up to eight terms on few index tuples, so that groups
    hold several exponents and images meet and cancel."""
    slots = st.sets(st.integers(0, 2 * l - 1), min_size=r, max_size=r)
    tuples = draw(st.lists(slots, min_size=1, max_size=3))
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        idx = tuple(sorted(draw(st.sampled_from(tuples))))
        e = tuple(draw(st.lists(st.integers(0, 2), min_size=l, max_size=l)))
        terms[(idx, e)] = draw(_scalars)
    return SpinorForm(l, terms)


@st.composite
def _vectors(draw, l):
    """A basis vector (whose wedge or contraction shares groups), a
    multiple of one, or a general vector."""
    kind = draw(st.sampled_from(["basis", "multiple", "general"]))
    if kind == "general":
        return tuple(draw(_scalars) for _ in range(2 * l))
    k = draw(st.integers(0, 2 * l - 1))
    multiples = [Scalar(-1), Scalar(0, 1), Scalar(Fraction(1, 2))]
    z = ONE if kind == "basis" else draw(st.sampled_from(multiples))
    return tuple(z if j == k else Scalar(0) for j in range(2 * l))


@st.composite
def _cases(draw):
    l = draw(st.integers(1, 3))
    r = draw(st.integers(0, 2 * l))
    return (
        l,
        draw(_forms(l, r)),
        draw(_forms(l, r)),
        draw(_vectors(l)),
        Covector(draw(_vectors(l))),
        draw(_nonzero),
    )


def _assert_stored(psi):
    groups = psi._c
    assert type(groups) is dict
    assert all(type(g) is dict and g for g in groups.values()), "empty group"
    assert all(a or b for g in groups.values() for a, b in g.values()), "zero pair"
    assert len({len(idx) for idx in groups}) <= 1, "more than one form degree"
    assert type(psi._d) is int and psi._d > 0


@_property
@given(_cases())
def test_every_result_keeps_the_storage_and_changes_no_input(case):
    l, psi, phi, v, xi, z = case
    sp = standard_space(l)
    t, u = psi.terms, phi.terms
    built = []

    def check(out, want):
        _assert_stored(out)
        assert out.terms == want
        built.append((out, out.terms))
        return out

    check(psi, t)
    check(phi, u)
    xw = check(wedge(xi, psi), ref_wedge(xi.components, t))
    yw = check(wedge(xi, phi), ref_wedge(xi.components, u))
    xc = check(contract(sp, v, psi), ref_contract(v, t))
    yc = check(contract(sp, v, phi), ref_contract(v, u))
    check(clifford_apply(sp, v, psi), ref_clifford(l, v, t))
    check(raising(sp, psi), ref_raising(l, t))
    check(lowering(sp, psi), ref_lowering(l, t))
    check(psi + phi, ref_add(t, u))
    check(psi - phi, ref_add(t, ref_scale(Scalar(-1), u)))
    check(-psi, ref_scale(Scalar(-1), t))
    check(psi.scale(z), ref_scale(z, t))
    check(psi - psi, {})
    # results that may hold the groups of psi and phi, merged and scaled
    check(xw + yw, ref_add(xw.terms, yw.terms))
    check(xw - yw.scale(z), ref_add(xw.terms, ref_scale(-z, yw.terms)))
    check(xc + yc, ref_add(xc.terms, yc.terms))
    check(yc - xc, ref_add(yc.terms, ref_scale(Scalar(-1), xc.terms)))
    check(wedge(xi, xw) + xw.scale(z).scale(Scalar(0)), {})
    check(_combine(l, [psi, phi], [(0, ONE), (1, z)]), ref_combine([t, u], [(0, ONE), (1, z)]))
    check(_combine(l, [xw, yw], [(0, ONE), (1, ONE)]), ref_add(xw.terms, yw.terms))
    for out, terms in built:
        assert out.terms == terms
