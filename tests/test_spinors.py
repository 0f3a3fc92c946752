from fractions import Fraction

import pytest

from symtwist.forms import operator_matrix
from symtwist.linalg import kernel_basis
from symtwist.scalars import I, ONE, Scalar
from symtwist.spinors import (
    Spinor,
    SpinorWindow,
    clifford_apply,
    commutator_defect,
    monomial,
)
from symtwist.symplectic import basis_vector, omega_value, standard_space


@pytest.fixture
def sp1():
    return standard_space(1)


def _clifford_kernel(sp, v, win):
    """Kernel of s -> v.s on the window (target one degree up)."""
    cowin = SpinorWindow(win.l, win.D + 1)
    return kernel_basis(operator_matrix(lambda s: clifford_apply(sp, v, s), win, cowin))


def test_generator_rules(sp1):
    x = monomial(1, (1,))
    assert clifford_apply(sp1, basis_vector(sp1, 0), x) == Spinor(1, {(2,): I})
    assert clifford_apply(sp1, basis_vector(sp1, 1), x) == Spinor(1, {(0,): ONE})
    one = monomial(1, (0,))
    assert clifford_apply(sp1, basis_vector(sp1, 1), one).is_zero()


def test_action_is_linear_in_vector(sp1):
    v = (Scalar(2), I)
    s = monomial(1, (2,), Scalar(Fraction(1, 3)))
    direct = clifford_apply(sp1, v, s)
    split = clifford_apply(sp1, (Scalar(2), Scalar(0)), s) + clifford_apply(
        sp1, (Scalar(0), I), s
    )
    assert direct == split


@pytest.mark.parametrize("l", [1, 2, 3])
def test_commutation_relation_all_pairs(l):
    sp = standard_space(l)
    win = SpinorWindow(l, 3)
    for a in range(2 * l):
        for b in range(2 * l):
            va, vb = basis_vector(sp, a), basis_vector(sp, b)
            for e in win.basis:
                assert commutator_defect(sp, va, vb, monomial(l, e)).is_zero()


def test_commutator_value_matches_form(sp1):
    # v.w.s - w.v.s must equal -i omega(v,w) s on the nose
    v, w = basis_vector(sp1, 0), basis_vector(sp1, 1)
    s = monomial(1, (2,))
    lhs = clifford_apply(sp1, v, clifford_apply(sp1, w, s)) - clifford_apply(
        sp1, w, clifford_apply(sp1, v, s)
    )
    assert lhs == s.scale(-I * omega_value(sp1, v, w))


def test_degree_changes_by_at_most_one(sp1):
    s = Spinor(1, {(0,): ONE, (3,): I})
    for k in (0, 1):
        img = clifford_apply(sp1, basis_vector(sp1, k), s)
        assert max(map(sum, img.terms)) <= max(map(sum, s.terms)) + 1


def test_window_dimension():
    win = SpinorWindow(2, 3)
    assert win.dim == 10  # C(2+3, 2)
    assert win.basis[0] == (0, 0)
    assert win.index[(1, 2)] is not None


def test_kernel_multiplication_injective(sp1):
    win = SpinorWindow(1, 3)
    assert _clifford_kernel(sp1, basis_vector(sp1, 0), win) == []
    mixed = tuple(a + b for a, b in zip(basis_vector(sp1, 0), basis_vector(sp1, 1)))
    assert _clifford_kernel(sp1, mixed, win) == []


def test_kernel_pure_derivative(sp1):
    win = SpinorWindow(1, 3)
    ker = _clifford_kernel(sp1, basis_vector(sp1, 1), win)
    assert ker == [{win.index[(0,)]: ONE}]  # the constants


@pytest.mark.parametrize("l,D", [(1, 6), (2, 4), (3, 3)])
def test_kernel_empty_whenever_first_lagrangian_touched(l, D):
    sp = standard_space(l)
    win = SpinorWindow(l, D)
    v = list(basis_vector(sp, 0))
    v[l] = ONE  # add a derivative part on top of the multiplication part
    assert _clifford_kernel(sp, tuple(v), win) == []


def test_clifford_reverses_parity(sp1):
    for e in ((0,), (1,), (2,)):
        s = monomial(1, e)
        for k in (0, 1):
            img = clifford_apply(sp1, basis_vector(sp1, k), s)
            for e2 in img.terms:
                assert (sum(e2) - sum(e)) % 2 == 1
