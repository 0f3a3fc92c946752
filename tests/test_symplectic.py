from fractions import Fraction

import pytest
from conftest import omega_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from symtwist.linalg import OperatorMatrix, rank
from symtwist.scalars import ONE, Scalar
from symtwist.symplectic import (
    Covector,
    basis_covector,
    basis_vector,
    canonical_covector,
    omega_entry,
    omega_value,
    sharp,
    standard_space,
)


def test_rejects_zero_half_dimension():
    with pytest.raises(ValueError):
        standard_space(0)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_omega_matrices(l):
    om = omega_matrix(l)
    n = 2 * l
    for i in range(n):
        for j in range(n):
            assert om[i][j] in (-1, 0, 1)
            assert om[i][j] == -om[j][i]
    # defining identity omega_{ij} omega^{kj} = delta_i^k
    for i in range(n):
        for k in range(n):
            assert sum(om[i][j] * om[k][j] for j in range(n)) == (1 if i == k else 0)


def test_standard_pairings():
    om = omega_matrix(2)
    assert om[0][2] == 1 and om[1][3] == 1
    assert om[2][0] == -1
    assert om[0][1] == 0
    assert omega_matrix(1) == [[0, 1], [-1, 0]]
    sp = standard_space(2)
    for i in range(4):
        for j in range(4):
            ei, ej = basis_vector(sp, i), basis_vector(sp, j)
            assert omega_value(sp, ei, ej) == omega_entry(2, i, j)


def test_sharp_hand_values():
    sp = standard_space(1)
    # dual of e_1 maps to -e_2; dual of e_2 maps to e_1
    assert sharp(sp, basis_covector(sp, 0)) == (Scalar(0), -ONE)
    assert sharp(sp, basis_covector(sp, 1)) == (ONE, Scalar(0))
    zero = Covector((Scalar(0), Scalar(0)))
    assert sharp(sp, zero) == (Scalar(0), Scalar(0))


def _pairing(alpha, v):
    """The value alpha(v) of a covector on a vector."""
    return sum((a * x for a, x in zip(alpha.components, v)), Scalar(0))


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_sharp_defining_property_and_bijectivity(l):
    sp = standard_space(l)
    n = 2 * l
    cols = {}
    for k in range(n):
        alpha = basis_covector(sp, k)
        s = sharp(sp, alpha)
        for w in range(n):
            assert _pairing(alpha, basis_vector(sp, w)) == omega_value(
                sp, s, basis_vector(sp, w)
            )
        for r, v in enumerate(s):
            if v:
                cols[(r, k)] = v
    assert rank(OperatorMatrix(n, n, cols)) == n


def test_canonical_covector_sharp_is_first_basis_vector():
    for l in (1, 2, 3):
        sp = standard_space(l)
        assert sharp(sp, canonical_covector(sp)) == basis_vector(sp, 0)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_raise_then_lower_is_identity(l):
    # sharp raises with the first omega slot; lowering with the second,
    # T_i = T^c omega_{ci}, inverts it on both sides
    sp = standard_space(l)
    n = 2 * l
    om = omega_matrix(l)

    def lower(comps):
        return tuple(
            sum((comps[c] * om[c][i] for c in range(n)), Scalar(0))
            for i in range(n)
        )

    for k in range(n):
        comps = tuple(ONE if j == k else Scalar(0) for j in range(n))
        assert lower(sharp(sp, Covector(comps))) == comps
        assert sharp(sp, Covector(lower(comps))) == comps


_property = settings(max_examples=100, deadline=None, derandomize=True, database=None)

_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
_scalars = st.builds(Scalar, _rationals, _rationals)


@st.composite
def _vector_pairs(draw):
    """(l, v, w): two random Gaussian-rational 2l-tuples, l = 1..4."""
    l = draw(st.integers(1, 4))
    vectors = st.tuples(*[_scalars] * (2 * l))
    return l, draw(vectors), draw(vectors)


@_property
@given(_vector_pairs())
def test_omega_value_is_the_dense_form(case):
    # omega(v, w) = v^T omega w
    l, v, w = case
    om = omega_matrix(l)
    n = 2 * l
    expected = sum((v[i] * om[i][j] * w[j] for i in range(n) for j in range(n)), Scalar(0))
    assert omega_value(standard_space(l), v, w) == expected


@_property
@given(_vector_pairs())
def test_sharp_is_the_dense_raising(case):
    # (alpha-sharp)^k = omega^{kj} alpha_j
    l, alpha, _ = case
    om = omega_matrix(l)
    n = 2 * l
    expected = tuple(sum((om[k][j] * alpha[j] for j in range(n)), Scalar(0)) for k in range(n))
    assert sharp(standard_space(l), Covector(alpha)) == expected
