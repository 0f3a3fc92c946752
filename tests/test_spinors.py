from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import window_index
from symtwist.forms import FormWindow, SpinorForm, basis_form, contract, operator_matrix, wedge
from symtwist.linalg import kernel_basis
from symtwist.scalars import I, ONE, Scalar
from symtwist.spinors import clifford_apply, commutator_defect
from symtwist.symplectic import Covector, basis_vector, omega_value, standard_space


@pytest.fixture
def sp1():
    return standard_space(1)


def _clifford_kernel(sp, v, win):
    """Kernel of s -> v.s on the window."""
    return kernel_basis(operator_matrix(lambda s: clifford_apply(sp, v, s), win))


def test_generator_rules(sp1):
    x = basis_form(1, (), (1,))
    assert clifford_apply(sp1, basis_vector(sp1, 0), x) == basis_form(1, (), (2,), I)
    assert clifford_apply(sp1, basis_vector(sp1, 1), x) == basis_form(1, (), (0,))
    one = basis_form(1, (), (0,))
    assert clifford_apply(sp1, basis_vector(sp1, 1), one).is_zero()


def test_action_is_linear_in_vector(sp1):
    v = (Scalar(2), I)
    s = basis_form(1, (), (2,), Scalar(Fraction(1, 3)))
    direct = clifford_apply(sp1, v, s)
    split = clifford_apply(sp1, (Scalar(2), Scalar(0)), s) + clifford_apply(
        sp1, (Scalar(0), I), s
    )
    assert direct == split


@pytest.mark.parametrize("l", [1, 2, 3])
def test_commutation_relation_all_pairs(l):
    sp = standard_space(l)
    win = FormWindow(l, 0, 3)
    for a in range(2 * l):
        for b in range(2 * l):
            va, vb = basis_vector(sp, a), basis_vector(sp, b)
            for s in win:
                assert commutator_defect(sp, va, vb, s).is_zero()


def test_commutator_value_matches_form(sp1):
    # v.w.s - w.v.s must equal -i omega(v,w) s on the nose
    v, w = basis_vector(sp1, 0), basis_vector(sp1, 1)
    s = basis_form(1, (), (2,))
    lhs = clifford_apply(sp1, v, clifford_apply(sp1, w, s)) - clifford_apply(
        sp1, w, clifford_apply(sp1, v, s)
    )
    assert lhs == s.scale(-I * omega_value(sp1, v, w))


def test_degree_changes_by_at_most_one(sp1):
    s = SpinorForm(1, {((), (0,)): ONE, ((), (3,)): I})
    for k in (0, 1):
        img = clifford_apply(sp1, basis_vector(sp1, k), s)
        assert img.spinor_degree() <= s.spinor_degree() + 1


def test_window_dimension():
    win = FormWindow(2, 0, 3)
    assert win.dim == 10  # C(2+3, 2)
    assert win.basis[0] == ((), (0, 0))
    assert ((), (1, 2)) in window_index(win)


def test_kernel_multiplication_injective(sp1):
    win = FormWindow(1, 0, 3)
    assert _clifford_kernel(sp1, basis_vector(sp1, 0), win) == []
    mixed = tuple(a + b for a, b in zip(basis_vector(sp1, 0), basis_vector(sp1, 1)))
    assert _clifford_kernel(sp1, mixed, win) == []


def test_kernel_pure_derivative(sp1):
    win = FormWindow(1, 0, 3)
    ker = _clifford_kernel(sp1, basis_vector(sp1, 1), win)
    assert ker == [{window_index(win)[((), (0,))]: ONE}]  # the constants


@pytest.mark.parametrize("l,D", [(1, 6), (2, 4), (3, 3)])
def test_kernel_empty_whenever_first_lagrangian_touched(l, D):
    sp = standard_space(l)
    win = FormWindow(l, 0, D)
    v = list(basis_vector(sp, 0))
    v[l] = ONE  # add a derivative part on top of the multiplication part
    assert _clifford_kernel(sp, tuple(v), win) == []


def test_clifford_reverses_parity(sp1):
    for e in ((0,), (1,), (2,)):
        s = basis_form(1, (), e)
        for k in (0, 1):
            img = clifford_apply(sp1, basis_vector(sp1, k), s)
            for _idx, e2 in img.terms:
                assert (sum(e2) - sum(e)) % 2 == 1


# The one Clifford action on forms of every degree, at non-basis vectors and
# on sums of terms: entries (a/2) + (b/3)i with a, b in -3..3.
_gauss = st.builds(
    lambda a, b: Scalar(Fraction(a, 2), Fraction(b, 3)), st.integers(-3, 3), st.integers(-3, 3)
)


@st.composite
def _clifford_cases(draw):
    l = draw(st.integers(1, 3))
    vector = st.tuples(*[_gauss] * (2 * l))
    v, w = draw(vector), draw(vector)
    r = draw(st.integers(0, 2 * l))
    idx = st.permutations(range(2 * l)).map(lambda p: tuple(sorted(p[:r])))
    exp = st.tuples(*[st.integers(0, 3)] * l)
    terms = draw(st.lists(st.tuples(idx, exp, _gauss), min_size=1, max_size=4))
    psi = sum((basis_form(l, i, e, c) for i, e, c in terms), SpinorForm(l))
    return standard_space(l), v, w, psi


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_clifford_cases())
def test_clifford_action_on_forms_properties(case):
    sp, v, w, psi = case
    vw = clifford_apply(sp, v, clifford_apply(sp, w, psi))
    wv = clifford_apply(sp, w, clifford_apply(sp, v, psi))
    assert vw - wv == psi.scale(-I * omega_value(sp, v, w))
    assert contract(sp, w, clifford_apply(sp, v, psi)) == clifford_apply(
        sp, v, contract(sp, w, psi)
    )
    xi = Covector(w)
    assert wedge(xi, clifford_apply(sp, v, psi)) == clifford_apply(sp, v, wedge(xi, psi))
