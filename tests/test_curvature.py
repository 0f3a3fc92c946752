import pytest

from symtwist.curvature import (
    CurvatureTensor,
    InvalidCurvatureError,
    RicciTensor,
    curvature_from_json,
    curvature_to_json,
    is_ricci_type,
    random_ricci_type,
    random_symmetric_ricci,
    ricci_contract,
    sigma_tilde,
    weyl_part,
)
from symtwist.linalg import OperatorMatrix, kernel_basis
from symtwist.scalars import Scalar
from symtwist.symplectic import standard_space


def zero_curvature(sp):
    n = sp.dim
    z = Scalar(0)
    return CurvatureTensor(sp.l, [[[[z] * n for _ in range(n)] for _ in range(n)] for _ in range(n)])


@pytest.fixture
def sp1():
    return standard_space(1)


@pytest.fixture
def sp2():
    return standard_space(2)


def _unit_sigma(l, a, b):
    n = 2 * l
    s = [[Scalar(0)] * n for _ in range(n)]
    s[a][b] = Scalar(1)
    s[b][a] = Scalar(1)
    return RicciTensor(l, s)


def test_ricci_symmetry_enforced():
    with pytest.raises(InvalidCurvatureError):
        RicciTensor(1, [[Scalar(0), Scalar(1)], [Scalar(0), Scalar(0)]])


def test_curvature_invariants_enforced(sp1):
    n = 2
    bad = [[[[Scalar(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    bad[0][0][0][1] = Scalar(1)  # not antisymmetric without the mirror entry
    with pytest.raises(InvalidCurvatureError):
        CurvatureTensor(1, bad)


def test_sigma_tilde_hand_value(sp1):
    st = sigma_tilde(sp1, _unit_sigma(1, 0, 0))
    assert st.entries[0][0][0][1] == Scalar(1)
    assert st.entries[0][0][1][0] == Scalar(-1)


def test_sigma_tilde_zero(sp1):
    z = RicciTensor(1, [[Scalar(0)] * 2 for _ in range(2)])
    assert sigma_tilde(sp1, z).is_zero()


@pytest.mark.parametrize("l", [1, 2, 3])
def test_sigma_tilde_output_satisfies_invariants_random(l):
    # constructor re-checks antisymmetry and the Bianchi identity
    sp = standard_space(l)
    for seed in range(12):
        R = random_ricci_type(sp, seed)
        assert isinstance(R, CurvatureTensor)


def test_reconstruction_factor_is_one_brute_force(sp2):
    # oracle: contract the rebuilt tensor on every basis sigma
    n = 4
    for a in range(n):
        for b in range(a, n):
            sig = _unit_sigma(2, a, b)
            assert ricci_contract(sp2, sigma_tilde(sp2, sig)) == sig


def test_linearity(sp2):
    s1 = random_symmetric_ricci(sp2, 3)
    n = 4
    doubled = RicciTensor(
        2, [[s1.entries[i][j] * Scalar(2) for j in range(n)] for i in range(n)]
    )
    t1 = sigma_tilde(sp2, s1)
    t2 = sigma_tilde(sp2, doubled)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for m in range(n):
                    assert t2.entries[i][j][k][m] == Scalar(2) * t1.entries[i][j][k][m]


def test_weyl_of_ricci_type_zero(sp2):
    for seed in range(8):
        R = random_ricci_type(sp2, seed)
        assert weyl_part(sp2, R).is_zero()
        assert is_ricci_type(sp2, R)


def test_zero_tensor_is_ricci_type(sp2):
    assert is_ricci_type(sp2, zero_curvature(sp2))
    assert ricci_contract(sp2, zero_curvature(sp2)).is_zero()


def test_l1_valid_tensors_always_ricci_type(sp1):
    # solve the invariant constraints at l=1 and check every solution with a
    # symmetric contraction classifies Ricci-type
    for seed in range(20):
        R = random_ricci_type(sp1, seed)
        assert is_ricci_type(sp1, R)


def _bianchi_antisym_solutions_l2():
    """Basis of tensors over the 4-dim space satisfying both stored
    invariants, parametrized by entries with k < m (antisymmetry built in)."""
    n = 4
    pos = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for m in range(k + 1, n):
                    pos[(i, j, k, m)] = len(pos)
    rows = {}
    nrow = 0

    def var(i, j, k, m):
        # value of R_{ijkm} as +-variable, using antisymmetry
        if k == m:
            return None, 0
        if k < m:
            return pos[(i, j, k, m)], 1
        return pos[(i, j, m, k)], -1

    entries = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for m in range(n):
                    # Bianchi over the last three slots
                    acc = {}
                    for (a, b, c) in ((j, k, m), (k, m, j), (m, j, k)):
                        idx, sgn = var(i, a, b, c)
                        if idx is not None and sgn:
                            acc[idx] = acc.get(idx, 0) + sgn
                    acc = {kk: v for kk, v in acc.items() if v}
                    if acc:
                        for kk, v in acc.items():
                            entries[(nrow, kk)] = Scalar(v)
                        nrow += 1
    mat = OperatorMatrix(max(nrow, 1), len(pos), entries)
    return pos, kernel_basis(mat)


def test_ricci_type_false_for_weyl_direction(sp2):
    # build a valid tensor with zero Ricci contraction, add it to a
    # Ricci-type tensor: the classifier must say no
    n = 4
    pos, sols = _bianchi_antisym_solutions_l2()

    def vec_to_tensor(vec):
        ent = [[[[Scalar(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for (i, j, k, m), col in pos.items():
            v = vec.get(col)
            if v:
                ent[i][j][k][m] = v
                ent[i][j][m][k] = -v
        return CurvatureTensor(2, ent)

    B = None
    for vec in sols:
        cand = vec_to_tensor(vec)
        try:
            sig = ricci_contract(sp2, cand)
        except InvalidCurvatureError:
            continue
        if sig.is_zero() and not cand.is_zero():
            B = cand
            break
    assert B is not None, "no trace-free invariant-satisfying direction found"
    base = random_ricci_type(sp2, 11)
    mixed_entries = [
        [
            [
                [base.entries[i][j][k][m] + B.entries[i][j][k][m] for m in range(n)]
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]
    mixed = CurvatureTensor(2, mixed_entries)
    assert not is_ricci_type(sp2, mixed)
    assert weyl_part(sp2, mixed) == B


def test_asymmetric_contraction_diagnosed():
    # an invariant-satisfying tensor need not come from a symplectic
    # connection; the contraction flags those inputs
    n = 2
    ent = [[[[Scalar(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    ent[0][1][0][1] = Scalar(1)
    ent[0][1][1][0] = Scalar(-1)
    R = CurvatureTensor(1, ent)
    sp1 = standard_space(1)
    with pytest.raises(InvalidCurvatureError):
        ricci_contract(sp1, R)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_scalar_curvature_vanishes(l):
    # no symplectic scalar curvature: the Ricci contraction is symmetric, so
    # its omega-trace sigma^{ij} omega_{ij} is zero
    sp = standard_space(l)
    n = 2 * l
    om = sp.omega_upper
    for seed in (0, 1):
        s = ricci_contract(sp, random_ricci_type(sp, seed)).entries
        trace = Scalar(0)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for m in range(n):
                        trace = trace + om[i][k] * om[j][m] * s[k][m] * sp.omega_lower[i][j]
        assert trace == Scalar(0)


def test_generator_deterministic(sp2):
    assert random_ricci_type(sp2, 9) == random_ricci_type(sp2, 9)
    assert random_ricci_type(sp2, 9) != random_ricci_type(sp2, 10)


def test_json_round_trips(sp2):
    R = random_ricci_type(sp2, 4)
    assert curvature_from_json(curvature_to_json(R)) == R
