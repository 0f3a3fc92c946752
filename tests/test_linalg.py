import random
from fractions import Fraction

import pytest
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from symtwist.linalg import OperatorMatrix, kernel_basis, rank, solve
from symtwist.scalars import I, ONE, Scalar


def M(rows, cols, entries):
    return OperatorMatrix(rows, cols, entries)


def identity(n):
    return M(n, n, {(k, k): ONE for k in range(n)})


def test_rank_identity_and_zero():
    assert rank(identity(2)) == 2
    assert rank(M(3, 5, {})) == 0


def test_rank_dependent_rows():
    # second row is i times the first
    m = M(2, 2, {(0, 0): ONE, (0, 1): I, (1, 0): I, (1, 1): -ONE})
    assert rank(m) == 1


def test_kernel_identity_empty():
    assert kernel_basis(identity(3)) == []


def test_kernel_zero_matrix_standard_basis():
    vecs = kernel_basis(M(2, 2, {}))
    assert vecs == [{0: ONE}, {1: ONE}]


def test_kernel_single_row():
    # x + i y = 0
    m = M(1, 2, {(0, 0): ONE, (0, 1): I})
    vecs = kernel_basis(m)
    assert len(vecs) == 1
    v = vecs[0]
    assert m.apply(v) == {}
    # canonical form: free coordinate (column 1) pinned to one
    assert v[1] == ONE and v[0] == -I


def test_solve_identity_and_zero():
    assert solve(identity(2), {0: ONE, 1: I}) == {0: ONE, 1: I}
    assert solve(M(2, 2, {}), {0: ONE}) is None
    assert solve(M(1, 1, {(0, 0): Scalar(2)}), {0: ONE}) == {0: Scalar(1) / Scalar(2)}


def test_solve_rhs_index_out_of_range():
    with pytest.raises(ValueError):
        solve(identity(2), {5: ONE})


SMALL = [Scalar(0), ONE, I, -ONE]


def _random_matrix(rng, rows, cols):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            v = rng.choice(SMALL)
            if v:
                entries[(r, c)] = v
    return M(rows, cols, entries)


def test_rank_nullity_and_kernel_exactness_random():
    rng = random.Random(0)
    for _ in range(120):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        vecs = kernel_basis(m)
        assert rank(m) + len(vecs) == cols
        for v in vecs:
            assert m.apply(v) == {}


def test_solve_iff_augmented_rank_matches():
    rng = random.Random(1)
    for _ in range(150):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = _random_matrix(rng, rows, cols)
        b = {r: rng.choice(SMALL) for r in range(rows)}
        b = {r: v for r, v in b.items() if v}
        aug_entries = dict(m.entries)
        for r, v in b.items():
            aug_entries[(r, cols)] = v
        aug = M(rows, cols + 1, aug_entries)
        x = solve(m, b)
        if x is None:
            assert rank(aug) == rank(m) + 1
        else:
            assert rank(aug) == rank(m)
            residual = m.apply(x)
            for r in range(rows):
                assert residual.get(r, Scalar(0)) == b.get(r, Scalar(0))


def _to_qqi(z: Scalar):
    return QQ_I(QQ(z.re.numerator, z.re.denominator), QQ(z.im.numerator, z.im.denominator))


def _from_qqi(z) -> Scalar:
    return Scalar(
        Fraction(int(z.x.numerator), int(z.x.denominator)),
        Fraction(int(z.y.numerator), int(z.y.denominator)),
    )


def _oracle_rref(m, b=None):
    """SymPy's reduced row echelon form of m (augmented by the column b when
    given) over QQ_I, as (dense rows of Scalars, pivot columns)."""
    rows: dict = {}
    for (r, c), v in m.entries.items():
        rows.setdefault(r, {})[c] = _to_qqi(v)
    cols = m.cols
    if b is not None:
        for r, v in b.items():
            rows.setdefault(r, {})[cols] = _to_qqi(v)
        cols += 1
    red, pivots = DomainMatrix(rows, (m.rows, cols), QQ_I).rref()
    return [[_from_qqi(z) for z in row] for row in red.to_list()], pivots


def _oracle_kernel(cols, red, pivots):
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        v = {f: ONE}
        for k, p in enumerate(pivots):
            if red[k][f]:
                v[p] = -red[k][f]
        basis.append(v)
    return basis


def _oracle_solve(m, b):
    red, pivots = _oracle_rref(m, b)
    if m.cols in pivots:
        return None
    return {p: red[k][m.cols] for k, p in enumerate(pivots) if red[k][m.cols]}


def _interleaved_blocks(rng):
    nblocks = rng.randint(1, 4)
    # blocks may have no rows or no columns
    sizes = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(nblocks)]
    row_blk = [blk for blk, (rows, _) in enumerate(sizes) for _ in range(rows)]
    col_blk = [blk for blk, (_, cols) in enumerate(sizes) for _ in range(cols)]
    rng.shuffle(row_blk)
    rng.shuffle(col_blk)
    entries = {}
    for r, rb in enumerate(row_blk):
        for c, cb in enumerate(col_blk):
            v = rng.choice(SMALL)
            if rb == cb and v:
                entries[(r, c)] = v
    return M(len(row_blk), len(col_blk), entries), row_blk


def _dense(rng):
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    entries = {}
    for r in range(rows):
        for c in range(cols):
            entries[(r, c)] = Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))
    return M(rows, cols, entries)


def _l2_matrices():
    from symtwist.forms import FormWindow, operator_matrix
    from symtwist.osp import component_basis, component_scalar, ff_plus, m_index
    from symtwist.symbols import symbol_apply
    from symtwist.symplectic import Covector, canonical_covector, standard_space

    sp = standard_space(2)
    mats = []
    general = Covector((Scalar(0), Scalar(0), ONE, ONE))
    for xi in (canonical_covector(sp), general):
        for i in range(4):
            basis = component_basis(sp, i, m_index(2, i), 2)
            cod = FormWindow(2, i + 1, 4)
            mats.append(operator_matrix(lambda p: symbol_apply(sp, i, xi, p), basis, cod))
    c = component_scalar(2, 2, 1)
    win, cowin = FormWindow(2, 2, 1), FormWindow(2, 2, 3)
    mats.append(operator_matrix(lambda p: ff_plus(sp, p) - p.scale(c), win, cowin))
    return mats


def test_matches_sympy_oracle():
    rng = random.Random(2)
    cases = [_interleaved_blocks(rng)[0] for _ in range(120)]
    cases += [_dense(rng) for _ in range(40)]
    cases += _l2_matrices()
    for m in cases:
        red, pivots = _oracle_rref(m)
        assert rank(m) == len(pivots)
        assert kernel_basis(m) == _oracle_kernel(m.cols, red, pivots)
        # one right-hand side in the image and one drawn at random
        x0 = {c: rng.choice(SMALL) for c in range(m.cols)}
        for b in (m.apply(x0), {r: rng.choice(SMALL) for r in range(m.rows)}):
            b = {r: v for r, v in b.items() if v}
            assert solve(m, b) == _oracle_solve(m, b)


def _three_components():
    """Rows 0-1 and columns 0-1 form a rank-1 component (row 1 = i * row 0),
    row 2 and column 2 a second one, row 3 is a zero row and column 3 a zero
    column."""
    return M(4, 4, {(0, 0): ONE, (0, 1): I, (1, 0): I, (1, 1): -ONE, (2, 2): Scalar(2)})


def test_rhs_local_solves_match_sympy_oracle():
    m = _three_components()
    half = Scalar(Fraction(1, 2))
    cases = [
        ({}, {}),
        # one component touched; the untouched one keeps a dependent row
        # and the zero row stays untouched, so the solve is consistent
        ({2: ONE}, {2: half}),
        ({0: ONE, 1: I}, {0: ONE}),
        ({0: ONE, 1: I, 2: ONE}, {0: ONE, 2: half}),
        # b hits a row that eliminates to zero (row 1) or the empty row 3
        ({1: ONE}, None),
        ({3: ONE}, None),
        ({2: ONE, 3: ONE}, None),
    ]
    for b, expected in cases:
        assert solve(m, b) == expected == _oracle_solve(m, b), b
    rng = random.Random(3)
    for _ in range(120):
        m, row_blk = _interleaved_blocks(rng)
        assert solve(m, {}) == {}
        # b supported on the rows of one block
        blk = rng.choice(row_blk) if row_blk else None
        x0 = {c: rng.choice(SMALL) for c in range(m.cols)}
        image = m.apply(x0)
        for b in (
            {r: v for r, v in image.items() if row_blk[r] == blk},
            {r: ONE for r in range(m.rows) if row_blk[r] == blk},
        ):
            assert solve(m, b) == _oracle_solve(m, b)


def test_repeated_solves_on_one_matrix_reuse_its_split():
    # the first solve stores the split on the matrix; later solves on the
    # same matrix must see the input rows, not rows an earlier solve
    # eliminated
    rng = random.Random(4)
    cases = [_interleaved_blocks(rng)[0] for _ in range(60)] + _l2_matrices()
    for m in cases:
        rhs = []
        for _ in range(4):
            x0 = {c: rng.choice(SMALL) for c in range(m.cols)}
            rhs.append(m.apply(x0))
            rhs.append({r: v for r in range(m.rows) if (v := rng.choice(SMALL))})
        for b in rhs:
            fresh = M(m.rows, m.cols, m.entries)
            assert solve(m, b) == solve(fresh, b) == _oracle_solve(m, b)
