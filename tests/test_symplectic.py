import pytest

from symtwist.linalg import OperatorMatrix, rank
from symtwist.scalars import ONE, Scalar
from symtwist.symplectic import (
    Covector,
    basis_covector,
    basis_vector,
    canonical_covector,
    evaluate,
    omega_value,
    sharp,
    standard_space,
)


def test_rejects_zero_half_dimension():
    with pytest.raises(ValueError):
        standard_space(0)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_omega_matrices(l):
    sp = standard_space(l)
    n = 2 * l
    for i in range(n):
        for j in range(n):
            assert sp.omega_lower[i][j] == -sp.omega_lower[j][i]
            assert sp.omega_upper[i][j] == -sp.omega_upper[j][i]
    # defining identity omega_{ij} omega^{kj} = delta_i^k
    for i in range(n):
        for k in range(n):
            acc = Scalar(0)
            for j in range(n):
                acc = acc + sp.omega_lower[i][j] * sp.omega_upper[k][j]
            assert acc == (ONE if i == k else Scalar(0))


def test_standard_pairings():
    sp = standard_space(2)
    assert sp.omega_lower[0][2] == ONE and sp.omega_lower[1][3] == ONE
    assert sp.omega_lower[2][0] == -ONE
    assert sp.omega_lower[0][1] == Scalar(0)
    sp1 = standard_space(1)
    assert sp1.omega_upper[0][1] == ONE and sp1.omega_upper[1][0] == -ONE


def test_sharp_hand_values():
    sp = standard_space(1)
    # dual of e_1 maps to -e_2; dual of e_2 maps to e_1
    assert sharp(sp, basis_covector(sp, 0)) == (Scalar(0), -ONE)
    assert sharp(sp, basis_covector(sp, 1)) == (ONE, Scalar(0))
    zero = Covector((Scalar(0), Scalar(0)))
    assert sharp(sp, zero) == (Scalar(0), Scalar(0))


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_sharp_defining_property_and_bijectivity(l):
    sp = standard_space(l)
    n = 2 * l
    cols = {}
    for k in range(n):
        alpha = basis_covector(sp, k)
        s = sharp(sp, alpha)
        for w in range(n):
            assert evaluate(alpha, basis_vector(sp, w)) == omega_value(
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

    def lower(comps):
        return tuple(
            sum((comps[c] * sp.omega_lower[c][i] for c in range(n)), Scalar(0))
            for i in range(n)
        )

    for k in range(n):
        comps = tuple(ONE if j == k else Scalar(0) for j in range(n))
        assert lower(sharp(sp, Covector(comps))) == comps
        assert sharp(sp, Covector(lower(comps))) == comps
