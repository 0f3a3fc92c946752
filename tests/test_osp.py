from fractions import Fraction

import pytest

from symtwist.forms import FormWindow, basis_form, wedge
from symtwist.linalg import OperatorMatrix, solve
from symtwist.osp import (
    chain_model,
    component_basis,
    component_scalar,
    component_scalars_row,
    edge_basis,
    edge_projector,
    ff_plus,
    grading,
    in_triangle,
    lowering,
    m_index,
    omega_trace,
    project_component,
    project_wedge,
    raising,
    triangle_labels,
)
from symtwist.scalars import I, Scalar
from symtwist.symplectic import basis_covector, canonical_covector, standard_space
from symtwist.forms import form_to_coords


@pytest.fixture
def sp1():
    return standard_space(1)


@pytest.fixture
def sp2():
    return standard_space(2)


def test_triangle_bounds():
    assert m_index(3, 2) == 2 and m_index(3, 4) == 2 and m_index(3, 6) == 0
    assert in_triangle(2, 3, 1) and not in_triangle(2, 3, 2)
    assert len(triangle_labels(3)) == 16  # 1+2+3+4+3+2+1


def test_raising_hand_value(sp1):
    # on the constant spinor: -(1/2) eps^1 (x) x
    out = raising(sp1, basis_form(1, (), (0,)))
    assert out == basis_form(1, (0,), (1,), Scalar(Fraction(-1, 2)))


def test_grading_scalar_hand_value(sp1):
    one = basis_form(1, (), (0,))
    assert grading(sp1, one) == one.scale(Scalar(Fraction(-1, 2)))


def test_omega_trace_needs_two_form_indices(sp1):
    assert omega_trace(sp1, basis_form(1, (), (1,))).is_zero()
    assert omega_trace(sp1, basis_form(1, (0,), (0,))).is_zero()


def test_component_scalar_table_hand_values():
    # odd sum: (1 + i - j)/8 ; even sum: (i + j - 2l)/8
    assert component_scalar(2, 1, 0) == Scalar(Fraction(1, 4))
    assert component_scalar(2, 1, 1) == Scalar(Fraction(-1, 4))
    assert component_scalar(3, 2, 0) == Scalar(Fraction(-1, 2))
    assert component_scalar(3, 2, 1) == Scalar(Fraction(1, 4))
    assert component_scalar(3, 2, 2) == Scalar(Fraction(-1, 4))
    assert component_scalar(1, 0, 0) == Scalar(Fraction(-1, 4))
    # the even-sum formula vanishes on the whole right edge, including the
    # degenerate l=1 edge value
    assert component_scalar(1, 1, 1) == Scalar(0)
    with pytest.raises(ValueError):
        component_scalar(2, 3, 2)


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 6])
def test_component_scalars_pairwise_distinct(l):
    for r in range(2 * l + 1):
        row = component_scalars_row(l, r)
        vals = [(c.re, c.im) for c in row.values()]
        assert len(set(vals)) == len(vals)


def test_primitive_basis_hand_value(sp1):
    pb = edge_basis(sp1, 1, 0)
    assert pb == [basis_form(1, (0,), (0,))]
    # degree 0 primitives: the whole spinor window
    pb0 = edge_basis(sp1, 0, 2)
    assert len(pb0) == 3
    with pytest.raises(ValueError):
        edge_basis(sp1, 3, 0)


def test_component_basis_eigen_property(sp2):
    for (r, j) in triangle_labels(2):
        c = component_scalar(2, r, j)
        for b in component_basis(sp2, r, j, 2):
            assert (ff_plus(sp2, b) - b.scale(c)).is_zero()
    with pytest.raises(ValueError):
        component_basis(sp2, 1, 2, 1)


def test_primitive_and_eigen_characterizations_agree(sp2):
    # cross-oracle: ker(F-) and the eigen-kernel cut out the same window
    # subspace on the halfway edge
    for j in (1, 2):
        for D in (1, 3):
            prim = edge_basis(sp2, j, D)
            eig = component_basis(sp2, j, j, D)
            assert len(prim) == len(eig)
            win = FormWindow(2, j, D)
            cols = {}
            for cc, b in enumerate(eig):
                for key, val in b.terms.items():
                    cols[(win.index[key], cc)] = val
            mat = OperatorMatrix(win.dim, len(eig), cols)
            for v in prim:
                assert solve(mat, form_to_coords(v, win)) is not None


def test_edge_kernel_agrees_above_halfway(sp2):
    # ker(F+) from the halfway degree on has the eigen-kernel's dimension
    for r in (2, 3, 4):
        assert len(edge_basis(sp2, r, 2)) == len(
            component_basis(sp2, r, m_index(2, r), 2)
        )


@pytest.mark.parametrize("l,Dmax", [(1, 3), (2, 3), (3, 2)])
def test_edge_basis_equals_eigen_kernel(l, Dmax):
    # cross-oracle: the first-order kernels (ker F- below the halfway
    # degree, ker F+ from it on) and the second-order eigen-kernel of
    # F-F+ - c give the same normalised basis, element for element
    sp = standard_space(l)
    for r in range(2 * l + 1):
        for D in range(Dmax + 1):
            assert edge_basis(sp, r, D) == component_basis(sp, r, m_index(l, r), D)


def test_component_zero_forms_full_window(sp2):
    cb = component_basis(sp2, 0, 0, 2)
    assert len(cb) == FormWindow(2, 0, 2).dim


def test_edge_projector_l1_window(sp1):
    edge = basis_form(1, (0,), (0,))
    assert edge_projector(sp1, 1, edge) == edge
    other = raising(sp1, basis_form(1, (), (0,)))  # sits in (1, 0)
    assert edge_projector(sp1, 1, other).is_zero()


def test_projectors_fix_and_separate(sp2):
    for (r, j) in triangle_labels(2):
        for b in component_basis(sp2, r, j, 1):
            assert project_component(sp2, r, j, b) == b
            for k in range(m_index(2, r) + 1):
                if k != j:
                    assert project_component(sp2, r, k, b).is_zero()


def test_chain_model_l1_hand_counts(sp1):
    cm = chain_model(sp1, 0)
    assert cm.primitive_dims == {0: 1, 1: 1}
    sizes = {key: len(v) for key, v in cm.chains.items()}
    assert sizes == {(0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 0): 1}
    assert all(cm.certificate.values())
    # the top of the degree-0 chain: (F+)^2 applied to the constant
    top = cm.chains[(2, 0)][0]
    assert top == basis_form(1, (0, 1), (0,), I * Scalar(Fraction(1, 4)))


@pytest.mark.parametrize("l,D", [(1, 2), (2, 1)])
def test_chain_model_certificate(l, D):
    sp = standard_space(l)
    cm = chain_model(sp, D)
    assert all(cm.certificate.values())
    for (r, j), vecs in cm.chains.items():
        assert len(vecs) == cm.primitive_dims[j]


def test_raised_primitives_live_in_component_windows(sp2):
    prim = edge_basis(sp2, 1, 1)
    target = component_basis(sp2, 3, 1, 3)
    win = FormWindow(2, 3, 3)
    cols = {}
    for cc, b in enumerate(target):
        for key, val in b.terms.items():
            cols[(win.index[key], cc)] = val
    mat = OperatorMatrix(win.dim, len(target), cols)
    for v in prim:
        w = raising(sp2, raising(sp2, v))
        assert solve(mat, form_to_coords(w, win)) is not None


def test_project_wedge_equals_spectral_projection(sp2):
    xi = canonical_covector(sp2)
    for i in range(4):
        for psi in component_basis(sp2, i, m_index(2, i), 1):
            assert project_wedge(sp2, i, xi, psi) == edge_projector(
                sp2, i + 1, wedge(xi, psi)
            )


def test_project_wedge_plain_above_halfway(sp2):
    xi = basis_covector(sp2, 0)
    for i in (2, 3):
        for psi in component_basis(sp2, i, m_index(2, i), 1):
            assert project_wedge(sp2, i, xi, psi) == wedge(xi, psi)
    with pytest.raises(ValueError):
        project_wedge(sp2, 4, xi, basis_form(2, (0, 1, 2, 3), (0, 0)))


def test_project_wedge_lowering_cancellation(sp1):
    # the projected wedge of an edge element is itself annihilated by the
    # lowering operator: the correction term cancels the wedge's part
    xi = canonical_covector(sp1)
    for e in ((0,), (1,), (2,)):
        pw = project_wedge(sp1, 0, xi, basis_form(1, (), e))
        assert lowering(sp1, pw).is_zero()
