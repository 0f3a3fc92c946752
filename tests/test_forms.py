import pytest

from conftest import matvec
from symtwist.forms import (
    FormWindow,
    SpinorForm,
    basis_form,
    contract,
    coords_to_form,
    form_to_coords,
    operator_matrix,
    wedge,
)
from symtwist.scalars import I, ONE
from symtwist.spinors import clifford_apply
from symtwist.symplectic import basis_covector, basis_vector, standard_space


@pytest.fixture
def sp1():
    return standard_space(1)


@pytest.fixture
def sp2():
    return standard_space(2)


def test_homogeneity_enforced():
    with pytest.raises(ValueError):
        SpinorForm(1, {((0,), (0,)): ONE, ((), (0,)): ONE})


def test_wedge_inserts_with_sign(sp1):
    psi = basis_form(1, (1,), (0,))  # second dual basis covector
    w = wedge(basis_covector(sp1, 0), psi)
    assert w == basis_form(1, (0, 1), (0,))
    w2 = wedge(basis_covector(sp1, 1), basis_form(1, (0,), (0,)))
    assert w2 == basis_form(1, (0, 1), (0,), -ONE)


def test_wedge_repeated_factor_zero(sp1):
    psi = basis_form(1, (0,), (1,))
    assert wedge(basis_covector(sp1, 0), psi).is_zero()


def test_wedge_on_zero_forms_is_tensoring(sp1):
    xi = basis_covector(sp1, 0)
    comps = tuple(a + b for a, b in zip(xi.components, basis_covector(sp1, 1).components))
    from symtwist.symplectic import Covector

    both = Covector(comps)
    psi = basis_form(1, (), (1,))
    w = wedge(both, psi)
    assert w == SpinorForm(1, {((0,), (1,)): ONE, ((1,), (1,)): ONE})


def test_contract_duality(sp1):
    psi = basis_form(1, (0,), (2,))
    assert contract(sp1, basis_vector(sp1, 0), psi) == basis_form(1, (), (2,))
    assert contract(sp1, basis_vector(sp1, 1), psi).is_zero()


def test_contract_derivation_rule(sp1):
    psi = basis_form(1, (0, 1), (0,))
    out = contract(sp1, basis_vector(sp1, 0), psi)
    assert out == basis_form(1, (1,), (0,))
    out2 = contract(sp1, basis_vector(sp1, 1), psi)
    assert out2 == basis_form(1, (0,), (0,), -ONE)


@pytest.mark.parametrize("l,D", [(1, 3), (2, 2), (3, 2)])
def test_contractions_anticommute(l, D):
    sp = standard_space(l)
    for r in range(2 * l + 1):
        win = FormWindow(l, r, D)
        for k in range(win.dim):
            psi = win.element(k)
            for a in range(2 * l):
                for b in range(2 * l):
                    va, vb = basis_vector(sp, a), basis_vector(sp, b)
                    anti = contract(sp, va, contract(sp, vb, psi)) + contract(
                        sp, vb, contract(sp, va, psi)
                    )
                    assert anti.is_zero()


def test_wedge_squared_zero_as_matrix(sp2):
    xi = basis_covector(sp2, 1)
    dom = FormWindow(2, 1, 1)
    mid = FormWindow(2, 2, 1)
    cod = FormWindow(2, 3, 1)
    m1 = operator_matrix(lambda p: wedge(xi, p), dom, mid)
    m2 = operator_matrix(lambda p: wedge(xi, p), mid, cod)
    composite = {}
    for col in range(dom.dim):
        img = matvec(m2, matvec(m1, {col: ONE}))
        for rr, v in img.items():
            composite[(rr, col)] = v
    assert not composite


def test_clifford_on_form_examples(sp1):
    psi = basis_form(1, (0,), (1,))
    out = clifford_apply(sp1, basis_vector(sp1, 0), psi)
    assert out == basis_form(1, (0,), (2,), I)
    assert clifford_apply(sp1, basis_vector(sp1, 1), basis_form(1, (0,), (0,))).is_zero()
    mixed = tuple(a + b for a, b in zip(basis_vector(sp1, 0), basis_vector(sp1, 1)))
    out3 = clifford_apply(sp1, mixed, basis_form(1, (), (1,)))
    assert out3 == SpinorForm(1, {((), (2,)): I, ((), (0,)): ONE})


def test_contract_commutes_with_clifford(sp2):
    for r in (1, 2):
        win = FormWindow(2, r, 1)
        for k in range(win.dim):
            psi = win.element(k)
            for a in range(4):
                for b in range(4):
                    va, vb = basis_vector(sp2, a), basis_vector(sp2, b)
                    assert contract(sp2, va, clifford_apply(sp2, vb, psi)) == clifford_apply(
                        sp2, vb, contract(sp2, va, psi)
                    )


def test_window_enumeration_and_dims():
    win = FormWindow(1, 1, 0)
    assert win.basis == (((0,), (0,)), ((1,), (0,)))
    assert win.dim == 2
    assert FormWindow(1, 2, 1).dim == 2
    assert FormWindow(2, 2, 2).dim == 36
    with pytest.raises(ValueError):
        FormWindow(1, 3, 0)


def test_operator_matrix_rejects_overflow(sp1):
    dom = FormWindow(1, 0, 1)
    cod = FormWindow(1, 0, 1)  # too small: clifford raises degree to 2
    with pytest.raises(ValueError):
        operator_matrix(
            lambda p: clifford_apply(sp1, basis_vector(sp1, 0), p), dom, cod
        )


def test_coords_round_trip(sp2):
    win = FormWindow(2, 1, 1)
    psi = win.element(3) + win.element(5).scale(I)
    coords = form_to_coords(psi, win)
    assert coords_to_form(coords, win) == psi
