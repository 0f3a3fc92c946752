import functools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symtwist.forms import SpinorForm, basis_form, contract, wedge
from symtwist.osp import component_basis, omega_trace
from symtwist.scalars import I, Scalar
from symtwist.symbols import (
    check_complex,
    check_exactness,
    symbol_apply,
    xi_regime,
)
from symtwist.symplectic import (
    Covector,
    basis_covector,
    canonical_covector,
    sharp,
    standard_space,
)


@pytest.fixture
def sp2():
    return standard_space(2)


def test_symbol_rejects_zero_covector(sp2):
    zero = Covector(tuple(Scalar(0) for _ in range(4)))
    with pytest.raises(ValueError):
        symbol_apply(sp2, 0, zero, basis_form(2, (), (0, 0)))
    with pytest.raises(ValueError):
        check_complex(sp2, 1, zero)
    with pytest.raises(ValueError):
        check_exactness(sp2, 1, zero)


def test_symbol_is_plain_wedge_above_halfway(sp2):
    xi = canonical_covector(sp2)
    for psi in component_basis(sp2, 2, 2, 1):
        assert symbol_apply(sp2, 2, xi, psi) == wedge(xi, psi)


def test_symbol_zero_form_formula(sp2):
    # position 0: xi (x) s  - (2/l) F+(xi-sharp . s)
    from symtwist.osp import raising
    from symtwist.spinors import clifford_apply

    xi = canonical_covector(sp2)
    xs = sharp(sp2, xi)
    psi = basis_form(2, (), (1, 1))
    expected = wedge(xi, psi) + raising(
        sp2, clifford_apply(sp2, xs, psi)
    ).scale(Scalar(Fraction(-2, 2)))
    assert symbol_apply(sp2, 0, xi, psi) == expected


def test_regime_flag(sp2):
    assert xi_regime(sp2, canonical_covector(sp2)) == "standard"
    # dual of a first-Lagrangian vector has a pure second-Lagrangian sharp
    assert "pure-derivative" in xi_regime(sp2, basis_covector(sp2, 0))


def test_check_complex_exact_zero(sp2):
    rep = check_complex(sp2, 2, canonical_covector(sp2))
    assert rep["status"] == "pass"
    assert [e["i"] for e in rep["composites"]] == [0, 2, 3]
    assert all(e["nonzero_composites"] == 0 for e in rep["composites"])


def test_round_trip_images_are_kernel_vectors(sp2):
    # anything of the form sigma_{i-1}(x) lies in ker sigma_i and the
    # preimage search succeeds on it by construction
    xi = canonical_covector(sp2)
    rng = random.Random(5)
    basis = component_basis(sp2, 2, 2, 1)
    x = SpinorForm(2)
    for b in basis:
        x = x + b.scale(Scalar(rng.randint(-2, 2)))
    img = symbol_apply(sp2, 2, xi, x)
    nxt = symbol_apply(sp2, 3, xi, img)
    assert nxt.is_zero()


def test_exactness_l2_report_shape(sp2):
    rep = check_exactness(sp2, 1, canonical_covector(sp2), 4)
    sides = {(p["i"], p["side"]) for p in rep["positions"]}
    assert sides == {(0, "left"), (3, "right"), (4, "right")}
    p0 = next(p for p in rep["positions"] if p["i"] == 0)
    assert p0["dim_kernel"] == 0 and p0["status"] == "pass"
    top = next(p for p in rep["positions"] if p["i"] == 4)
    assert top["preimages_found"] == top["dim_kernel"]
    assert top["status"] == "pass"


def test_exactness_junction_position_documented_failure(sp2):
    # The first right position (one past the halfway degree) is NOT exact on
    # this model: kernel vectors of the wedge on the edge need not come from
    # the previous edge component, only from the full form space.  The
    # minimal counterexample lives at D=2 already; the report must flag it
    # while showing that untruncated preimages exist.
    rep = check_exactness(sp2, 2, canonical_covector(sp2), 4)
    p3 = next(p for p in rep["positions"] if p["i"] == 3)
    assert p3["status"] == "fail"
    assert p3["preimages_found"] < p3["dim_kernel"]
    assert p3["preimages_from_untruncated_domain"] == p3["dim_kernel"]
    assert rep["status"] == "fail"


def test_junction_counterexample_by_hand(sp2):
    # phi = eps^1 ^ eps^2 ^ eps^3 (x) x^1 is an edge 3-form killed by the
    # canonical wedge; a preimage x in the edge 2-component would need a
    # spinor coefficient with 1 + i x^1 s = 0, impossible for polynomials.
    xi = canonical_covector(sp2)
    phi = basis_form(2, (0, 1, 2), (1, 0))
    from symtwist.osp import raising

    assert raising(sp2, phi).is_zero()  # sits in the edge component
    assert wedge(xi, phi).is_zero()


def test_trace_of_wedge_on_edge_inputs():
    # E-(xi ^ psi) = +i * iota_{xi-sharp} psi on edge inputs.  The plus sign
    # is what makes the would-be derivation of the kernel contraction
    # identity collapse to 0 = 0, so that identity is not a consequence of
    # the projected-wedge kernel condition (and it does fail on actual
    # kernel vectors once the window is large enough; see the acceptance
    # suite notes).
    sp3 = standard_space(3)
    xi = canonical_covector(sp3)
    xs = sharp(sp3, xi)
    for i in (1, 2):
        for psi in component_basis(sp3, i, i, 2):
            lhs = omega_trace(sp3, wedge(xi, psi))
            assert lhs == contract(sp3, xs, psi).scale(I)


# The untruncated diagnostic solves xi ^ p + F-(q) = phi instead of
# phi = E(xi ^ p) with the spectral edge projector E.  Oracle: the
# projector form, one solve on the matrix of E(xi ^ .), on every edge basis
# vector of the right-side positions (not only kernel vectors, so that "no"
# answers occur), at target degrees up to D + slack + 2.


def _projector_oracle(sp, i, D, xi, slack):
    from symtwist.forms import FormWindow, form_to_coords, operator_matrix
    from symtwist.linalg import solve
    from symtwist.osp import edge_projector

    dom = FormWindow(sp.l, i - 1, D + slack)
    cod = FormWindow(sp.l, i, D + slack + 2)
    mat = operator_matrix(lambda p: edge_projector(sp, i, wedge(xi, p)), dom, cod)

    def attempt(phi):
        try:
            rhs = form_to_coords(phi, cod)
        except ValueError:
            return False
        return solve(mat, rhs) is not None

    return attempt


@pytest.mark.parametrize(
    "l, D, slack, target_degree",
    [(2, 1, 0, 1), (2, 1, 0, 2), (2, 1, 0, 3), (2, 2, 0, 2), (2, 1, 1, 3), (3, 1, 0, 1)],
)
def test_untruncated_diagnostic_matches_projector_oracle(l, D, slack, target_degree):
    from symtwist.osp import edge_basis
    from symtwist.symbols import _untruncated_solver

    sp = standard_space(l)
    xi = canonical_covector(sp)
    answers = []
    for i in range(l + 1, 2 * l + 1):
        solver = _untruncated_solver(sp, i, D, xi, slack)
        oracle = _projector_oracle(sp, i, D, xi, slack)
        for phi in edge_basis(sp, i, target_degree):
            got = solver(phi)
            assert got == oracle(phi), (i, phi)
            answers.append(got)
    assert False in answers
    if target_degree <= D:
        assert True in answers


def test_exactness_l1_vacuous_left_and_degenerate_top():
    sp1 = standard_space(1)
    rep = check_exactness(sp1, 1, canonical_covector(sp1), 4)
    left = [p for p in rep["positions"] if p["side"] == "left"]
    assert len(left) == 1 and left[0]["status"] == "vacuous" and left[0]["i"] is None
    top = next(p for p in rep["positions"] if p["i"] == 2)
    # the single right position coincides with the junction and is not
    # surjective on the polynomial model
    assert top["status"] == "fail"
    assert top["preimages_from_untruncated_domain"] == top["dim_kernel"]



# GL(l) symmetry oracle: GL(l) inside Sp(2l) acts on the polynomial model by
# linear substitution, which keeps every degree window.  It moves the
# covector (0, ..., 0, u) (sharp = u in the first Lagrangian) to the
# canonical one, so the dimensions and verdicts of the symbol-check reports
# must be the same at each nonzero u.  The nonzero-composite counts are
# compared too (zero exactly when the composite vanishes).  Preimage counts,
# slack and violation counts are left out: they depend on the kernel basis.


def _invariants(sp, D, xi):
    cx = check_complex(sp, D, xi)
    ex = check_exactness(sp, D, xi)
    return (
        [(c["i"], c["dim_domain"], c["nonzero_composites"], c["status"]) for c in cx["composites"]],
        [(p["i"], p["dim_domain"], p["dim_kernel"], p["status"]) for p in ex["positions"]],
    )


def _first_lagrangian(sp, u):
    return Covector(tuple(Scalar(0) for _ in range(sp.l)) + tuple(Scalar(x) for x in u))


@functools.lru_cache(maxsize=None)
def _canonical_invariants(l, D):
    sp = standard_space(l)
    return _invariants(sp, D, canonical_covector(sp))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(any), st.sampled_from([1, 2]))
@example((0, 7), 1)
@example((0, 7), 2)
@example((1, -3), 2)
@example((2, 5), 2)
def test_gl_symmetry_of_symbol_invariants(u, D):
    sp = standard_space(2)
    assert _invariants(sp, D, _first_lagrangian(sp, u)) == _canonical_invariants(2, D)


def test_gl_symmetry_of_symbol_invariants_l3():
    sp = standard_space(3)
    xi = _first_lagrangian(sp, (2, -1, 3))
    assert _invariants(sp, 1, xi) == _canonical_invariants(3, 1)
