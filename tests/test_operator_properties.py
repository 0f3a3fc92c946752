"""Hypothesis properties of the spinor-form operators on random
homogeneous forms with l <= 3.

The operators wrap their results unchecked (``SpinorForm._trusted``), so
the first group checks that every result is what the checking
constructor would build from the same terms: no zero coefficient, one
form degree.  Applying wedge or contract twice with the same argument
cancels every term, which exercises the zero dropping.  The second group
checks the sign rules of wedge and contraction on random strictly
increasing index tuples and general (co)vectors.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtwist.forms import SpinorForm, contract, wedge
from symtwist.osp import lowering, raising
from symtwist.scalars import Scalar
from symtwist.spinors import clifford_apply
from symtwist.symplectic import Covector, standard_space

_property = settings(max_examples=100, deadline=None, derandomize=True, database=None)

_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
_scalars = st.builds(Scalar, _rationals, _rationals)
_nonzero_scalars = _scalars.filter(bool)


@st.composite
def _forms(draw, l, r=None):
    """A homogeneous r-form with up to five terms; the exponents are kept
    small so that images of different terms meet and can cancel."""
    if r is None:
        r = draw(st.integers(0, 2 * l))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        idx = tuple(sorted(draw(st.sets(st.integers(0, 2 * l - 1), min_size=r, max_size=r))))
        e = tuple(draw(st.lists(st.integers(0, 2), min_size=l, max_size=l)))
        terms[(idx, e)] = draw(_scalars)
    return SpinorForm(l, terms)


def _vectors(l):
    return st.tuples(*[_scalars] * (2 * l))


@st.composite
def _cases(draw):
    """(l, sp, psi, phi, v, w, xi, eta, z) with psi and phi of one degree."""
    l = draw(st.integers(1, 3))
    r = draw(st.integers(0, 2 * l))
    psi = draw(_forms(l, r))
    phi = draw(_forms(l, r))
    v, w = draw(_vectors(l)), draw(_vectors(l))
    xi, eta = Covector(draw(_vectors(l))), Covector(draw(_vectors(l)))
    return l, standard_space(l), psi, phi, v, w, xi, eta, draw(_nonzero_scalars)


def _assert_valid(out, l):
    assert type(out) is SpinorForm
    assert out.l == l
    assert all(out.terms.values())
    assert len({len(idx) for (idx, _e) in out.terms}) <= 1
    assert out == SpinorForm(l, dict(out.terms))


@_property
@given(_cases())
def test_operator_outputs_are_valid_forms(case):
    l, sp, psi, phi, v, w, xi, eta, z = case
    outputs = [
        raising(sp, psi),
        lowering(sp, psi),
        raising(sp, raising(sp, psi)),
        lowering(sp, lowering(sp, psi)),
        wedge(xi, psi),
        wedge(xi, wedge(xi, psi)),
        contract(sp, v, psi),
        contract(sp, v, contract(sp, v, psi)),
        clifford_apply(sp, v, psi),
        clifford_apply(sp, v, clifford_apply(sp, w, psi)),
        psi.scale(z),
        psi.scale(Scalar(0)),
        -psi,
        psi + phi,
        psi + (-psi),
        psi - phi.scale(z),
        SpinorForm(l) + psi,
    ]
    for out in outputs:
        _assert_valid(out, l)
    assert wedge(xi, wedge(xi, psi)).is_zero()
    assert contract(sp, v, contract(sp, v, psi)).is_zero()
    assert (psi + (-psi)).is_zero()


def _pairing(xi, v):
    acc = Scalar(0)
    for a, b in zip(xi.components, v):
        acc = acc + a * b
    return acc


@_property
@given(_cases())
def test_contraction_is_an_antiderivation_of_wedge(case):
    _l, sp, psi, _phi, v, _w, xi, _eta, _z = case
    lhs = contract(sp, v, wedge(xi, psi)) + wedge(xi, contract(sp, v, psi))
    assert lhs == psi.scale(_pairing(xi, v))


@_property
@given(_cases())
def test_wedges_anticommute(case):
    _l, _sp, psi, _phi, _v, _w, xi, eta, _z = case
    assert wedge(xi, wedge(eta, psi)) == -wedge(eta, wedge(xi, psi))


@_property
@given(_cases())
def test_contractions_anticommute_on_general_vectors(case):
    _l, sp, psi, _phi, v, w, _xi, _eta, _z = case
    assert contract(sp, v, contract(sp, w, psi)) == -contract(sp, w, contract(sp, v, psi))


def test_sum_of_different_degrees_rejected():
    one = Scalar(1)
    zero_form = SpinorForm(1, {((), (0,)): one})
    one_form = SpinorForm(1, {((0,), (0,)): one})
    with pytest.raises(ValueError):
        zero_form + one_form
    with pytest.raises(ValueError):
        one_form - zero_form
    # the zero value has no degree and adds to any form
    assert SpinorForm(1) + one_form == one_form
    assert one_form + SpinorForm(1) == one_form
