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


def commutator_entries(l, gamma):
    """R_{ijkm} = omega^{ab} (G_{ika} G_{bmj} - G_{ima} G_{bkj}) for a fully
    symmetric 3-tensor G (a {sorted index triple: Scalar} dict), as nested
    lists of Scalars computed in Scalar arithmetic: the curvature
    [G_X, G_Y] of the connection d + G on V.  It is symmetric in (i, j), so
    its contraction is symmetric, and it satisfies both stored invariants;
    for l >= 2 it is in general not of Ricci type."""
    from itertools import permutations

    from symtwist.scalars import Scalar

    om = omega_matrix(l)
    n = 2 * l
    g = {}
    for idx, c in gamma.items():
        for x, y, a in set(permutations(idx)):
            g.setdefault((x, y), {})[a] = c

    def p(i, k, m, j):
        acc = Scalar(0)
        for a, u in g.get((i, k), {}).items():
            for b, v in g.get((m, j), {}).items():
                if om[a][b]:
                    acc = acc + u * v * om[a][b]
        return acc

    return [
        [[[p(i, k, m, j) - p(i, m, k, j) for m in range(n)] for k in range(n)] for j in range(n)]
        for i in range(n)
    ]


def commutator_curvature(l, gamma):
    """The ``CurvatureTensor`` of ``commutator_entries(l, gamma)``."""
    from symtwist.curvature import CurvatureTensor

    return CurvatureTensor(l, commutator_entries(l, gamma))


def commutator_curvature_l3():
    """The l=3 commutator tensor of the golden ``curvature --input`` case:
    not of Ricci type, so its Weyl part is nonzero."""
    from symtwist.scalars import Scalar

    return commutator_curvature(3, {(0, 0, 1): Scalar(1), (0, 3, 4): Scalar(2, 1)})


def commutator_curvature_l3_mixed():
    """An l=3 commutator tensor whose entries mix the denominators 4, 3, 5
    and their products, Gaussian ones included: its input, sigma-tilde and
    W are held over denominators other than 1 and 2(l+1)."""
    from fractions import Fraction

    from symtwist.scalars import Scalar

    return commutator_curvature(
        3,
        {
            (0, 0, 1): Scalar(Fraction(1, 2)),
            (0, 3, 4): Scalar(Fraction(2, 3), Fraction(1, 5)),
        },
    )


def dense_sigma_tilde_entries(l, sigma):
    """Reference Ricci-type tensor, as nested lists of Scalars: all five
    omega-sigma products of

        2(l+1) st_{ijkm} = om_{im} s_{jk} - om_{ik} s_{jm} + om_{jm} s_{ik}
                           - om_{jk} s_{im} + 2 s_{ij} om_{km}

    for each of the n^4 entries, in Scalar arithmetic with the dense omega
    matrix.  The package scatters only the products with a nonzero omega
    factor, in integers over one denominator; the tests compare the two."""
    from symtwist.scalars import Scalar

    n = 2 * l
    om = omega_matrix(l)
    s = sigma.entries
    denom = Scalar(2 * (l + 1))
    out = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for m in range(n):
                    acc = (
                        s[j][k] * om[i][m]
                        - s[j][m] * om[i][k]
                        + s[i][k] * om[j][m]
                        - s[i][m] * om[j][k]
                        + s[i][j] * (2 * om[k][m])
                    )
                    out[i][j][k][m] = acc / denom
    return out


def dense_sigma_tilde(l, sigma):
    """The ``CurvatureTensor`` of ``dense_sigma_tilde_entries(l, sigma)``."""
    from symtwist.curvature import CurvatureTensor

    return CurvatureTensor(l, dense_sigma_tilde_entries(l, sigma))


# ---------------------------------------------------------------------------
# The Scalar curvature path: the reference for the Gaussian-integer lists of
# ``symtwist.curvature``.  Each function reads nested Scalar entries (a
# tensor's ``entries``, or the nested lists it was built from) and computes
# entry by entry in Scalar arithmetic.


def brute_ricci(l, e):
    """sigma_{ij} = sum over all (k, m) of omega^{km} R_{m i k j}, with the
    dense omega matrix, as nested lists."""
    from symtwist.scalars import Scalar

    om = omega_matrix(l)
    n = 2 * l
    return [
        [
            sum((e[m][i][k][j] * om[k][m] for k in range(n) for m in range(n)), Scalar(0))
            for j in range(n)
        ]
        for i in range(n)
    ]


def ref_difference(e, f):
    """The elementwise difference x - y of two nested entry lists."""
    return [
        [[[x - y for x, y in zip(r3, o3)] for r3, o3 in zip(r2, o2)] for r2, o2 in zip(r1, o1)]
        for r1, o1 in zip(e, f)
    ]


def ref_curvature_json(l, e):
    """The JSON object of a tensor, one ``scalar_to_json`` leaf per entry."""
    from symtwist.scalars import scalar_to_json

    return {
        "l": l,
        "entries": [[[[scalar_to_json(z) for z in r3] for r3 in r2] for r2 in r1] for r1 in e],
    }


# ---------------------------------------------------------------------------
# The Scalar operator layer: the reference for the Gaussian-integer pairs of
# ``symtwist.forms``.  Each function reads and returns ``{key: Scalar}``
# term dicts without zero values, and computes term by term in Scalar
# arithmetic; a vector is a tuple of 2l Scalars.


def _ref_accumulate(out, key, c):
    s = c if key not in out else out[key] + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def _ref_insert(idx, k):
    """Sorted insertion with sign; (None, 0) when k is already present."""
    if k in idx:
        return None, 0
    pos = sum(1 for j in idx if j < k)
    return idx[:pos] + (k,) + idx[pos:], -1 if pos % 2 else 1


def _ref_remove(idx, k):
    if k not in idx:
        return None, 0
    pos = idx.index(k)
    return idx[:pos] + idx[pos + 1 :], -1 if pos % 2 else 1


def _shift(e, k, by):
    e2 = list(e)
    e2[k] += by
    return tuple(e2)


def ref_wedge(components, terms):
    out = {}
    for (idx, e), c in terms.items():
        for k, xk in enumerate(components):
            nidx, sign = _ref_insert(idx, k)
            if xk and nidx is not None:
                _ref_accumulate(out, (nidx, e), xk * c * sign)
    return out


def ref_contract(v, terms):
    out = {}
    for (idx, e), c in terms.items():
        for k, vk in enumerate(v):
            nidx, sign = _ref_remove(idx, k)
            if vk and nidx is not None:
                _ref_accumulate(out, (nidx, e), vk * c * sign)
    return out


def ref_clifford(l, v, terms):
    """e_k acts by i x^k for k < l and by d/dx^(k-l) from l on."""
    from symtwist.scalars import I

    out = {}
    for (idx, e), c in terms.items():
        for k, vk in enumerate(v):
            if not vk:
                continue
            if k < l:
                _ref_accumulate(out, (idx, _shift(e, k, 1)), I * vk * c)
            elif e[k - l]:
                _ref_accumulate(out, (idx, _shift(e, k - l, -1)), vk * c * e[k - l])
    return out


def ref_raising(l, terms):
    """F+ = (i/2) sum_k eps^k ^ (x) e_k."""
    from fractions import Fraction

    from symtwist.scalars import I, Scalar

    half_i = I * Scalar(Fraction(1, 2))
    out = {}
    for (idx, e), c in terms.items():
        for k in range(2 * l):
            nidx, sign = _ref_insert(idx, k)
            if nidx is None:
                continue
            if k < l:
                _ref_accumulate(out, (nidx, _shift(e, k, 1)), half_i * I * c * sign)
            elif e[k - l]:
                _ref_accumulate(out, (nidx, _shift(e, k - l, -1)), half_i * c * (sign * e[k - l]))
    return out


def ref_lowering(l, terms):
    """F- = (1/2) sum_k [iota_{e_k} (x) d/dx^k - iota_{e_{k+l}} (x) i x^k]."""
    from fractions import Fraction

    from symtwist.scalars import I, Scalar

    half = Scalar(Fraction(1, 2))
    out = {}
    for (idx, e), c in terms.items():
        for k in range(l):
            nidx, sign = _ref_remove(idx, k)
            if nidx is not None and e[k]:
                _ref_accumulate(out, (nidx, _shift(e, k, -1)), half * c * (sign * e[k]))
            nidx, sign = _ref_remove(idx, k + l)
            if nidx is not None:
                _ref_accumulate(out, (nidx, _shift(e, k, 1)), -(half * I * c * sign))
    return out


def _unit(l, k):
    from symtwist.scalars import Scalar

    return tuple(Scalar(1 if j == k else 0) for j in range(2 * l))


def ref_omega_wedge(l, terms):
    """E+ = i sum_k eps^k ^ eps^(k+l) ^."""
    from symtwist.scalars import I

    out = {}
    for k in range(l):
        inner = ref_wedge(_unit(l, k + l), terms)
        for key, c in ref_wedge(_unit(l, k), inner).items():
            _ref_accumulate(out, key, c)
    return ref_scale(I, out)


def ref_omega_trace(l, terms):
    """E- = i sum_k iota_{e_k} iota_{e_(k+l)}."""
    from symtwist.scalars import I

    out = {}
    for k in range(l):
        inner = ref_contract(_unit(l, k + l), terms)
        for key, c in ref_contract(_unit(l, k), inner).items():
            _ref_accumulate(out, key, c)
    return ref_scale(I, out)


def ref_scale(z, terms):
    return {key: z * c for key, c in terms.items()} if z else {}


def ref_add(terms, other):
    out = dict(terms)
    for key, c in other.items():
        _ref_accumulate(out, key, c)
    return out


def ref_combine(vectors, coeffs):
    """The sum of c * vectors[k] over the (k, c) pairs of ``coeffs``."""
    out = {}
    for k, a in coeffs:
        for key, c in vectors[k].items():
            if a:
                _ref_accumulate(out, key, a * c)
    return out


# ---------------------------------------------------------------------------
# Scalar linear algebra: the reference for the Gaussian-integer rows of
# ``symtwist.linalg``.  The same pivot rule (columns left to right, the
# first unused row with an entry), plain Gaussian elimination on
# ``{col: Scalar}`` rows read from ``m.entries``, one division per row
# update, and no factorisation kept between calls.


def ref_partition(m):
    """Connected components of the nonzero pattern of m, as a list of
    [global rows, global cols, local rows] with ``{local col: Scalar}``
    rows, found by a union-find over the entries; components in order of
    first appearance among the columns, then among the rows."""
    entries = m.entries
    parent = list(range(m.rows + m.cols))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r, c in entries:
        a, b = find(r), find(m.rows + c)
        if a != b:
            parent[b] = a
    groups: dict = {}
    col_pos = []
    for c in range(m.cols):
        cols = groups.setdefault(find(m.rows + c), ([], []))[1]
        col_pos.append(len(cols))
        cols.append(c)
    for r in range(m.rows):
        groups.setdefault(find(r), ([], []))[0].append(r)
    rows = [dict() for _ in range(m.rows)]
    for (r, c), v in entries.items():
        rows[r][col_pos[c]] = v
    return [[rsel, csel, [rows[r] for r in rsel]] for rsel, csel in groups.values()]


def ref_eliminate(rows, ncols):
    """Forward elimination of the ``{col: Scalar}`` rows in place; returns
    (pivots, free_cols, ops) with ops as (row, pivot row, multiplier)."""
    nrows = len(rows)
    used = [False] * nrows
    pivots, free_cols, ops = [], [], []
    for col in range(ncols):
        prow = next((r for r in range(nrows) if not used[r] and col in rows[r]), None)
        if prow is None:
            free_cols.append(col)
            continue
        used[prow] = True
        pivots.append((prow, col))
        piv = rows[prow][col]
        for r in range(prow + 1, nrows):
            row = rows[r]
            if used[r] or col not in row:
                continue
            mult = row.pop(col) / piv
            for c, v in rows[prow].items():
                if c != col:
                    _ref_accumulate(row, c, -(mult * v))
            ops.append((r, prow, mult))
    return pivots, free_cols, ops


def ref_back_substitute(rows, pivots, x, rhs=None):
    """Fill in the pivot coordinates of x so that every eliminated row meets
    its entry of the eliminated right-hand side (zero when None)."""
    from symtwist.scalars import Scalar

    for prow, pcol in reversed(pivots):
        acc = Scalar(0) if rhs is None else rhs[prow]
        for c, coef in rows[prow].items():
            if c != pcol and c in x:
                acc = acc - coef * x[c]
        if acc:
            x[pcol] = acc / rows[prow][pcol]
    return x


def _ref_factored(m):
    parts = ref_partition(m)
    for part in parts:
        part.extend(ref_eliminate(part[2], len(part[1])))
    return parts


def ref_rank(m) -> int:
    return sum(len(pivots) for _rsel, _csel, _rows, pivots, _free, _ops in _ref_factored(m))


def ref_kernel_basis(m):
    """The kernel vectors with a 1 at their own free column and 0 at every
    other, ordered by that column."""
    from symtwist.scalars import ONE

    tagged = []
    for _rsel, csel, rows, pivots, free_cols, _ops in _ref_factored(m):
        for f in free_cols:
            v = ref_back_substitute(rows, pivots, {f: ONE})
            tagged.append((csel[f], {csel[c]: x for c, x in v.items()}))
    tagged.sort(key=lambda t: t[0])
    return [v for _, v in tagged]


def ref_solve(m, b):
    """The solution of m@x = b with every free variable 0, or None."""
    from symtwist.scalars import Scalar

    x: dict = {}
    for rsel, csel, rows, pivots, _free, ops in _ref_factored(m):
        rhs = [b.get(r, Scalar(0)) for r in rsel]
        for r, prow, mult in ops:
            rhs[r] = rhs[r] - mult * rhs[prow]
        pivot_rows = {pr for pr, _ in pivots}
        if any(rhs[r] for r in range(len(rows)) if r not in pivot_rows):
            return None
        for c, v in ref_back_substitute(rows, pivots, {}, rhs).items():
            x[csel[c]] = v
    return x


# ---------------------------------------------------------------------------
# The relations suite one basis form at a time: the reference for
# ``suites.run_relations``, which checks each relation once per window.


def ref_form_defects(sp, psi, key, half_rl, vectors, covectors, bad) -> None:
    """Add 1 to ``bad[name]`` for each relation that fails on the basis
    form psi, whose key is ``key`` and whose H eigenvalue is ``half_rl``
    ((r - l)/2); contraction_anticommutation counts each failing ordered
    pair (a, b).  The operators are read from their modules on each call,
    so a fault patched into them reaches every check."""
    from fractions import Fraction

    from symtwist import forms, osp, spinors
    from symtwist.scalars import I, Scalar

    raising, lowering = osp.raising, osp.lowering
    omega_wedge, omega_trace = osp.omega_wedge, osp.omega_trace
    contract, clifford_apply, wedge = forms.contract, spinors.clifford_apply, forms.wedge
    half_i = I * Scalar(Fraction(1, 2))
    fplus = raising(sp, psi)
    fminus = lowering(sp, psi)
    eplus = omega_wedge(sp, psi)
    eminus = omega_trace(sp, psi)
    h = (raising(sp, fminus) + lowering(sp, fplus)).scale(Scalar(2))
    iota = [contract(sp, v, psi) for v in vectors]
    cliff = [clifford_apply(sp, v, psi) for v in vectors]
    # iota2[a][b] = iota_{e_a} iota_{e_b} psi
    iota2 = [[contract(sp, v, iw) for iw in iota] for v in vectors]
    lhs = omega_wedge(sp, eminus) - omega_trace(sp, eplus)
    if lhs != h.scale(Scalar(2)):
        bad["quadratic_commutator_is_twice_grading"] += 1
    lhs = omega_trace(sp, fplus) - raising(sp, eminus)
    if lhs != fminus.scale(Scalar(-1)):
        bad["trace_raising_commutator"] += 1
    if h != psi.scale(half_rl):
        bad["grading_scalar"] += 1
    if eplus != raising(sp, fplus).scale(Scalar(4)):
        bad["omega_wedge_closed_form"] += 1
    if eminus != lowering(sp, fminus).scale(Scalar(-4)):
        bad["omega_trace_closed_form"] += 1
    par = sum(key[1]) % 2
    for img in (fplus, fminus):
        if any((sum(e2) - par) % 2 == 0 for (_i2, e2) in img.keys()):
            bad["parity_reversal"] += 1
            break
    for a, v in enumerate(vectors):
        lhs = raising(sp, iota[a]) + contract(sp, v, fplus)
        if lhs != cliff[a].scale(half_i):
            bad["raising_contraction_anticommutator"] += 1
        lhs = lowering(sp, cliff[a]) - clifford_apply(sp, v, fminus)
        if lhs != iota[a].scale(half_i):
            bad["lowering_clifford_commutator"] += 1
        # the ordered pairs (a, b) and (b, a) share one sum, and (a, a)
        # fails exactly when iota_a iota_a psi is nonzero
        if not iota2[a][a].is_zero():
            bad["contraction_anticommutation"] += 1
        for b in range(a + 1, len(vectors)):
            if not (iota2[a][b] + iota2[b][a]).is_zero():
                bad["contraction_anticommutation"] += 2
        for b, w in enumerate(vectors):
            if contract(sp, v, cliff[b]) != clifford_apply(sp, w, iota[a]):
                bad["contraction_clifford_commute"] += 1
    for xi in covectors:
        if not wedge(xi, wedge(xi, psi)).is_zero():
            bad["wedge_square_zero"] += 1
