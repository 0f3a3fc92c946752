from math import comb

import pytest

from conftest import matvec, window_index, window_matrix
from symtwist.forms import (
    FormWindow,
    SpinorForm,
    _combine,
    basis_form,
    contract,
    form_to_coords,
    operator_matrix,
    wedge,
)
from symtwist.linalg import kernel_basis, rank, solve
from symtwist.scalars import I, ONE, Scalar
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
    m1 = window_matrix(lambda p: wedge(xi, p), dom, mid)
    m2 = window_matrix(lambda p: wedge(xi, p), mid, cod)
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


def test_window_is_every_key_in_the_documented_order():
    for l in range(1, 4):
        for r in range(2 * l + 1):
            for D in range(4):
                basis = FormWindow(l, r, D).basis
                assert len(basis) == comb(2 * l, r) * comb(l + D, l)
                assert len(set(basis)) == len(basis)
                assert all(
                    len(idx) == r and list(idx) == sorted(set(idx)) and sum(e) <= D
                    for idx, e in basis
                )
                # form tuples lexicographically, then (total degree, exponents)
                assert list(basis) == sorted(basis, key=lambda k: (k[0], sum(k[1]), k[1]))
                every = range(-2 * l, D + 2 * l + 1)
                assert FormWindow(l, r, D, every).basis == basis


def test_coords_round_trip(sp2):
    win = FormWindow(2, 1, 1)
    psi = win.element(3) + win.element(5).scale(I)
    coords = form_to_coords(psi, window_index(win))
    assert _combine(win.l, win, coords.items()) == psi
    assert form_to_coords(psi, window_index(FormWindow(2, 1, 0))) is None


def _package_matrices():
    """(fn, domain, codomain window) of matrices the package builds: F- and
    F+ on the edge windows at l=2 and l=3, F-F+ - c at l=2, the l=2 symbol
    matrices at the canonical covector and at (0, 0, 1, 1), and the block
    matrix [xi ^ . | F-] of the untruncated diagnostic at l=2, i=3.  Each
    codomain window is the one the package used to number the rows."""
    from symtwist.osp import component_scalar, edge_basis, ff_plus, lowering, raising
    from symtwist.symbols import symbol_apply
    from symtwist.symplectic import Covector, canonical_covector

    out = []
    for l in (2, 3):
        sp = standard_space(l)
        for r in range(1, 2 * l):
            op, dr = (lowering, -1) if r < l else (raising, 1)
            out.append((lambda p, sp=sp, op=op: op(sp, p), FormWindow(l, r, 1), FormWindow(l, r + dr, 2)))
    sp = standard_space(2)
    c = component_scalar(2, 2, 1)
    out.append((lambda p: ff_plus(sp, p) - p.scale(c), FormWindow(2, 2, 1), FormWindow(2, 2, 3)))
    xis = (canonical_covector(sp), Covector((Scalar(0), Scalar(0), ONE, ONE)))
    for xi in xis:
        for i in range(4):
            fn = lambda p, i=i, xi=xi: symbol_apply(sp, i, xi, p)  # noqa: E731
            out.append((fn, edge_basis(sp, i, 1), FormWindow(2, i + 1, 3)))
    # i = 3, D + slack = 1, Dq = 2: columns p in (2-forms, degree <= 1), then q
    block = lambda b: wedge(xis[0], b) if b.form_degree() == 2 else lowering(sp, b)  # noqa: E731
    out.append((block, list(FormWindow(2, 2, 1)) + list(FormWindow(2, 4, 2)), FormWindow(2, 3, 3)))
    return out


def test_operator_matrix_rows_are_the_sorted_image_keys():
    for fn, domain, cod in _package_matrices():
        mat = operator_matrix(fn, domain)
        images = [fn(b).terms for b in domain]
        keys = sorted({key for t in images for key in t})
        assert mat.row_index == {key: k for k, key in enumerate(keys)}
        assert (mat.rows, mat.cols) == (len(keys), len(domain))
        assert {r for r, _c in mat.entries} == set(range(mat.rows))  # no empty row
        by_key = {(keys[r], c): v for (r, c), v in mat.entries.items()}
        assert by_key == {(key, c): v for c, t in enumerate(images) for key, v in t.items()}
        # the window-rowed matrix holds the same entries on its own rows
        ref = window_matrix(fn, domain, cod)
        assert by_key == {(cod.basis[r], c): v for (r, c), v in ref.entries.items()}


def _solve_on_rows(mat, phi):
    rhs = form_to_coords(phi, mat.row_index)
    return None if rhs is None else solve(mat, rhs)


def test_image_rows_and_window_rows_give_one_answer():
    # rank, kernel and every solve agree between the two builders; the
    # targets are an image, a few window basis forms, a term that no image
    # reaches and a term outside the window
    unreached = 0
    for fn, domain, cod in _package_matrices():
        mat, ref = operator_matrix(fn, domain), window_matrix(fn, domain, cod)
        assert rank(mat) == rank(ref)
        assert kernel_basis(mat) == kernel_basis(ref)
        targets = [fn(domain[0]) + fn(domain[-1]).scale(I)]
        targets += [cod[k] for k in range(0, cod.dim, max(1, cod.dim // 5))]
        gaps = [key for key in cod.basis if key not in mat.row_index]
        if gaps:
            unreached += 1
            targets.append(targets[0] + SpinorForm(cod.l, {gaps[0]: ONE}))
        targets.append(basis_form(cod.l, cod.basis[0][0], (cod.D + 1,) + (0,) * (cod.l - 1)))
        for phi in targets:
            assert _solve_on_rows(mat, phi) == _solve_on_rows(ref, phi)
        assert _solve_on_rows(mat, targets[0]) is not None
        assert _solve_on_rows(mat, targets[-1]) is None
    assert unreached > 0
