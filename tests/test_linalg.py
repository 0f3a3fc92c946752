import random

import pytest

from symtwist.linalg import (
    OperatorMatrix,
    kernel_basis,
    matrix_from_json,
    matrix_to_json,
    rank,
    solve,
)
from symtwist.scalars import I, ONE, Scalar


def M(rows, cols, entries):
    return OperatorMatrix(rows, cols, entries)


def test_rank_identity_and_zero():
    assert rank(OperatorMatrix.identity(2)) == 2
    assert rank(OperatorMatrix.zero(3, 5)) == 0


def test_rank_dependent_rows():
    # second row is i times the first
    m = M(2, 2, {(0, 0): ONE, (0, 1): I, (1, 0): I, (1, 1): -ONE})
    assert rank(m) == 1


def test_kernel_identity_empty():
    assert kernel_basis(OperatorMatrix.identity(3)) == []


def test_kernel_zero_matrix_standard_basis():
    vecs = kernel_basis(OperatorMatrix.zero(2, 2))
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
    ident = OperatorMatrix.identity(2)
    assert solve(ident, {0: ONE, 1: I}) == {0: ONE, 1: I}
    assert solve(OperatorMatrix.zero(2, 2), {0: ONE}) is None
    assert solve(M(1, 1, {(0, 0): Scalar(2)}), {0: ONE}) == {0: Scalar(1) / Scalar(2)}


def test_solve_rhs_index_out_of_range():
    with pytest.raises(ValueError):
        solve(OperatorMatrix.identity(2), {5: ONE})


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


def test_blocked_paths_match_plain():
    rng = random.Random(2)
    for trial in range(120):
        nblocks = rng.randint(1, 4)
        # blocks may have no rows or no columns
        sizes = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(nblocks)]
        row_slots = [(blk, r) for blk, (rows, _) in enumerate(sizes) for r in range(rows)]
        col_slots = [(blk, c) for blk, (_, cols) in enumerate(sizes) for c in range(cols)]
        if trial % 2:
            # interleaved keys, as the weight grading produces them
            rng.shuffle(row_slots)
            rng.shuffle(col_slots)
        row_keys = [(blk, -blk) for blk, _ in row_slots]
        col_keys = [(blk, -blk) for blk, _ in col_slots]
        entries = {}
        for r, (rblk, _) in enumerate(row_slots):
            for c, (cblk, _) in enumerate(col_slots):
                v = rng.choice(SMALL)
                if rblk == cblk and v:
                    entries[(r, c)] = v
        m = M(len(row_keys), len(col_keys), entries)
        kernel = kernel_basis(m, row_keys=row_keys, col_keys=col_keys)
        assert kernel == kernel_basis(m)
        assert rank(m) == m.cols - len(kernel)
        b = {r: rng.choice(SMALL) for r in range(m.rows)}
        b = {r: v for r, v in b.items() if v}
        xb = solve(m, b, row_keys=row_keys, col_keys=col_keys)
        xp = solve(m, b)
        assert (xb is None) == (xp is None)
        if xb is not None:
            assert xb == xp


def test_blocked_rejects_coupling_entries():
    m = M(2, 2, {(0, 1): ONE})
    with pytest.raises(ValueError):
        kernel_basis(m, row_keys=[0, 1], col_keys=[0, 1])


def test_matrix_json_round_trip():
    m = M(2, 3, {(0, 0): I, (1, 2): Scalar(-1)})
    obj = matrix_to_json(m)
    assert obj["rows"] == 2 and obj["cols"] == 3
    assert matrix_from_json(obj) == m


def test_vector_json_round_trip():
    from symtwist.linalg import vector_from_json, vector_to_json

    v = {0: I, 2: Scalar(3)}
    arr = vector_to_json(v, 4)
    assert len(arr) == 4 and arr[1] == {"re": "0/1", "im": "0/1"}
    assert vector_from_json(arr) == v
