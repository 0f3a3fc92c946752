import random
from fractions import Fraction

import pytest

from conftest import window_index, window_matrix
from symtwist.forms import FormWindow, SpinorForm, basis_form, fits_window, form_to_coords, wedge
from symtwist.linalg import solve
from symtwist.osp import (
    _lagrange_table,
    chain_model,
    column_projections,
    component_basis,
    component_scalar,
    edge_basis,
    edge_projector,
    ff_plus,
    in_triangle,
    lowering,
    m_index,
    omega_trace,
    passes_component_screen,
    project_wedge,
    raising,
    triangle_labels,
)
from symtwist.scalars import I, Scalar
from symtwist.symplectic import basis_covector, canonical_covector, standard_space


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


def grading(sp, psi):
    """H = 2{F+, F-}; the relations suite computes it inline."""
    return (raising(sp, lowering(sp, psi)) + lowering(sp, raising(sp, psi))).scale(Scalar(2))


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
        row = _column_scalars(l, r)
        vals = [(c.re, c.im) for c in row]
        assert len(set(vals)) == len(vals)


def _column_scalars(l, r):
    return [component_scalar(l, r, j) for j in range(m_index(l, r) + 1)]


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 6])
def test_lagrange_table_interpolates_the_column_scalars(l):
    # direct oracle for the projector coefficients, with no F-F+: row j,
    # evaluated at c_k, is exactly delta_jk, and the rows sum to the
    # constant polynomial 1
    for r in range(2 * l + 1):
        scalars = _column_scalars(l, r)
        table = _lagrange_table(scalars)
        assert len(table) == len(scalars)
        for j, row in enumerate(table):
            assert len(row) == len(scalars)
            for k, c in enumerate(scalars):
                value = Scalar(0)
                for a in reversed(row):
                    value = value * c + a
                assert value == (Scalar(1) if j == k else Scalar(0))
        sums = [sum((row[n] for row in table), Scalar(0)) for n in range(len(scalars))]
        assert sums == [Scalar(1)] + [Scalar(0)] * (len(scalars) - 1)


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
            mat = window_matrix(lambda v: v, eig, win)
            for v in prim:
                assert solve(mat, form_to_coords(v, window_index(win))) is not None


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
            proj = column_projections(sp2, r, b)
            assert proj[j] == b
            for k in range(m_index(2, r) + 1):
                if k != j:
                    assert proj[k].is_zero()


def _horner_projection(sp, r, j, psi):
    """Oracle: the product of (F-F+ - c_{r j'}) over j' != j, applied factor
    by factor, divided by the product of the scalar differences."""
    row = _column_scalars(sp.l, r)
    cur, denom = psi, Scalar(1)
    for jp, c in enumerate(row):
        if jp != j:
            cur = ff_plus(sp, cur) - cur.scale(c)
            denom = denom * (row[j] - c)
    return cur.scale(Scalar(1) / denom)


def _random_integer_form(rng, win, terms):
    out = SpinorForm(win.l)
    for k in rng.sample(range(win.dim), min(terms, win.dim)):
        idx, e = win.basis[k]
        out = out + basis_form(win.l, idx, e, Scalar(rng.randint(-3, 3)) + I * Scalar(rng.randint(-3, 3)))
    return out


@pytest.mark.parametrize("l,D", [(2, 1), (3, 1)])
def test_krylov_projections_equal_horner_oracle(l, D):
    sp = standard_space(l)
    rng = random.Random(l * 10 + D)
    for r in range(2 * l + 1):
        win = FormWindow(l, r, D)
        randoms = [_random_integer_form(rng, FormWindow(l, r, D + 1), 6) for _ in range(4)]
        for v in [win.element(k) for k in range(win.dim)] + randoms:
            proj = column_projections(sp, r, v)
            assert len(proj) == m_index(l, r) + 1
            for j, pv in enumerate(proj):
                oracle = _horner_projection(sp, r, j, v)
                assert pv == oracle
            assert edge_projector(sp, r, v) == proj[-1]


@pytest.mark.parametrize("l", [2, 3])
def test_component_screen_passes_clean_wedges_and_fails_far_ones(l):
    sp = standard_space(l)
    covectors = [basis_covector(sp, k) for k in range(2 * l)]
    screened = 0
    for (i, j) in triangle_labels(l):
        if i == 2 * l:
            continue
        targets = range(m_index(l, i + 1) + 1)
        near = [k for k in targets if abs(k - j) <= 1]
        far = [k for k in targets if abs(k - j) > 1]
        far_vectors = [b for k in far for b in component_basis(sp, i + 1, k, 1)[:1]]
        for psi in component_basis(sp, i, j, 1)[:3]:
            for xi in covectors:
                w = wedge(xi, psi)
                assert passes_component_screen(sp, i + 1, near, w)
                for b in far_vectors:
                    bad = w + b
                    assert not passes_component_screen(sp, i + 1, near, bad)
                    assert any(not _horner_projection(sp, i + 1, k, bad).is_zero() for k in far)
                    screened += 1
    assert screened > 0


def test_span_by_definition_agrees_with_window_solve(sp2):
    # the decompose span check reads "w fits the window and F-F+ w = c w";
    # the oracle solves for w in the component basis on that window
    cm = chain_model(sp2, 1)
    stranger = basis_form(2, (0, 1, 2), (0, 0))
    tested = 0
    for (r, j), raised in sorted(cm.chains.items()):
        if r == j:
            continue
        DD = 1 + (r - j)
        c = component_scalar(2, r, j)
        win = FormWindow(2, r, DD)
        mat = window_matrix(lambda v: v, component_basis(sp2, r, j, DD), win)
        index = window_index(win)
        for w in raised:
            candidates = [w]
            if r == 3:
                candidates.append(w + stranger)
            for v in candidates:
                by_definition = fits_window(v, r, DD) and ff_plus(sp2, v) == v.scale(c)
                assert by_definition == (solve(mat, form_to_coords(v, index)) is not None)
                tested += 1
            # one spinor degree too many: outside the window, not an error
            high = w + basis_form(2, tuple(range(r)), (DD + 1, 0))
            assert not fits_window(high, r, DD)
            assert form_to_coords(high, index) is None
    assert tested > 0


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
    mat = window_matrix(lambda v: v, target, win)
    for v in prim:
        w = raising(sp2, raising(sp2, v))
        assert solve(mat, form_to_coords(w, window_index(win))) is not None


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
