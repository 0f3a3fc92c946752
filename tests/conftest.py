"""The CLI tests start ``python -m symtwist`` in subprocesses; put the
source tree on their import path too, so that a bare ``pytest`` tests the
checkout without an install (pyproject's ``pythonpath`` covers only the
test process itself)."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def omega_matrix(l):
    """The dense 2l x 2l matrix of omega, built entry by entry from
    ``omega_entry``; lowered and raised omega have the same entries.  The
    tests compare the package's index-rule sums against it."""
    from symtwist.symplectic import omega_entry

    n = 2 * l
    return [[omega_entry(l, i, j) for j in range(n)] for i in range(n)]


def matvec(m, x: dict) -> dict:
    """The sparse product of an ``OperatorMatrix`` with a {col: Scalar}
    vector, as a {row: Scalar} dict without zero entries."""
    out: dict = {}
    for (r, c), v in m.entries.items():
        if x.get(c):
            out[r] = out[r] + v * x[c] if r in out else v * x[c]
    return {r: v for r, v in out.items() if v}


def window_index(win):
    """The key -> position map of a ``FormWindow``'s basis."""
    return {key: k for k, key in enumerate(win.basis)}


def window_matrix(fn, domain, codomain):
    """Reference builder of an operator matrix whose rows are the basis of
    the window ``codomain``: one row per window basis element, reached by
    an image or not.  Raises when an image term lies outside the window.
    ``forms.operator_matrix`` takes its rows from the images instead; the
    tests compare the two, and compose or solve against named windows
    with this one."""
    from symtwist.linalg import OperatorMatrix

    index = window_index(codomain)
    entries = {}
    for col, b in enumerate(domain):
        for key, c in fn(b).terms.items():
            row = index.get(key)
            if row is None:
                raise ValueError(f"image term {key} not contained in codomain window {codomain!r}")
            entries[(row, col)] = c
    return OperatorMatrix(codomain.dim, len(domain), entries, index)


def bianchi_solutions_l2():
    """Basis of tensors over the 4-dim space satisfying both stored
    curvature invariants, parametrized by entries with k < m (antisymmetry
    built in); returns the entry positions and the kernel basis."""
    from symtwist.linalg import OperatorMatrix, kernel_basis
    from symtwist.scalars import Scalar

    n = 4
    pos = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for m in range(k + 1, n):
                    pos[(i, j, k, m)] = len(pos)
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


def ricci_type_plus_weyl_l2():
    """``(mixed, B)``: B is the first nonzero invariant-satisfying l=2
    tensor of ``bianchi_solutions_l2`` with zero Ricci contraction, and
    ``mixed`` is ``random_ricci_type(l=2, seed 11) + B``, a symplectic
    curvature tensor that is not of Ricci type."""
    from symtwist.curvature import (
        CurvatureTensor,
        InvalidCurvatureError,
        random_ricci_type,
        ricci_contract,
    )
    from symtwist.scalars import Scalar
    from symtwist.symplectic import standard_space

    sp2 = standard_space(2)
    n = 4
    pos, sols = bianchi_solutions_l2()

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
    return CurvatureTensor(2, mixed_entries), B


def asymmetric_contraction_l1():
    """An l=1 tensor with both stored invariants whose Ricci contraction is
    asymmetric: it does not come from a symplectic connection."""
    from symtwist.curvature import CurvatureTensor
    from symtwist.scalars import Scalar

    n = 2
    ent = [[[[Scalar(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    ent[0][1][0][1] = Scalar(1)
    ent[0][1][1][0] = Scalar(-1)
    return CurvatureTensor(1, ent)
