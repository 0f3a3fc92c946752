"""Sparse exact linear algebra over Gaussian rationals.

Matrices are maps between explicitly enumerated finite bases, stored as
``{(row, col): Scalar}`` with no zero entries.  Rank, kernel bases and
linear solving all run through one path: the matrix is split into the
connected components of its nonzero pattern (rows and columns are the
nodes, every nonzero entry an edge), found in one pass over the entries,
and one fraction-free (Bareiss-style) forward elimination with exact
division runs on each component.  Since the scalars form a field, every
division is exact, and the cross-multiplied update keeps intermediate
fractions close to minors of the input on integer-seeded data.

Pivoting is deterministic: columns are scanned left to right and the first
not-yet-used row with a nonzero entry wins.  A column is a pivot exactly
when it is not in the span of the columns before it, which a direct-sum
split does not change, so the free columns are the same for any split.
Kernel vectors are the unique solutions with one free coordinate set to 1
and the other free coordinates set to 0, and a solve fixes every free
variable to 0, so the output does not depend on the components either.
A solve eliminates only the components its right-hand side touches: on an
untouched component the right-hand side is zero, which is consistent and
gives that component's part of the solution as zero.
"""

from __future__ import annotations

from .scalars import ONE, Scalar


def accumulate(out: dict, key, c) -> None:
    """Add c to the sparse map ``out`` at ``key``; a zero sum drops the key."""
    acc = out.get(key)
    s = c if acc is None else acc + c
    if s:
        out[key] = s
    elif acc is not None:
        del out[key]


class OperatorMatrix:
    """Exact sparse matrix between two enumerated bases."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        self.rows = rows
        self.cols = cols
        # drop explicit zeros so equality of maps is equality of dicts
        self.entries = {rc: v for rc, v in entries.items() if v}
        for (r, c) in self.entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry index {(r, c)} outside {rows}x{cols}")

    def is_zero(self):
        return not self.entries

    def apply(self, vec: dict) -> dict:
        """Matrix-vector product on a sparse {col: Scalar} vector."""
        out: dict = {}
        by_col: dict = {}
        for (r, c), v in self.entries.items():
            by_col.setdefault(c, []).append((r, v))
        for c, x in vec.items():
            if not x:
                continue
            for r, v in by_col.get(c, ()):
                acc = out.get(r)
                out[r] = v * x if acc is None else acc + v * x
        return {r: v for r, v in out.items() if v}

    def __eq__(self, other):
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"OperatorMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


def _partition(m: OperatorMatrix):
    """Connected components of the nonzero pattern of m, as
    (global rows, global cols, local rows) triples.

    Rows are the nodes ``0..rows-1`` and columns ``rows..rows+cols-1`` of a
    union-find; each nonzero joins its row and column.  The local rows are
    ``{local col: Scalar}`` dicts.  A row or column without nonzeros is a
    component of its own.  Components come in order of first appearance
    among the columns, then among the rows, each with ascending indices.
    """
    parent = list(range(m.rows + m.cols))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r, c in m.entries:
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
    for (r, c), v in m.entries.items():
        rows[r][col_pos[c]] = v
    return [(rsel, csel, [rows[r] for r in rsel]) for rsel, csel in groups.values()]


def _eliminate(rows, ncols, rhs=None):
    """Forward elimination in place.

    Returns (pivots, free_cols) where pivots is a list of (row, col) in
    ascending column order.  ``rhs`` (a dense list) is carried through the
    same row operations when given.  Rows never chosen as pivots end up as
    zero rows (their residual rhs decides consistency).
    """
    nrows = len(rows)
    used = [False] * nrows
    prev = [ONE] * nrows  # last pivot folded into each row (Bareiss bookkeeping)
    pivots = []
    free_cols = []
    for col in range(ncols):
        prow = None
        for r in range(nrows):
            if not used[r] and rows[r].get(col):
                prow = r
                break
        if prow is None:
            free_cols.append(col)
            continue
        used[prow] = True
        pivots.append((prow, col))
        piv = rows[prow][col]
        prow_items = list(rows[prow].items())
        for r in range(nrows):
            if used[r]:
                continue
            fac = rows[r].get(col)
            if not fac:
                continue
            d = prev[r]
            nfac = -fac
            new = {}
            for c, v in rows[r].items():
                if c == col:
                    continue
                new[c] = piv * v / d
            for c, v in prow_items:
                if c == col:
                    continue
                accumulate(new, c, nfac * v / d)
            rows[r] = new
            if rhs is not None:
                rhs[r] = (piv * rhs[r] - fac * rhs[prow]) / d
            prev[r] = piv
    return pivots, free_cols


def rank(m: OperatorMatrix) -> int:
    return sum(len(_eliminate(rows, len(csel))[0]) for _rsel, csel, rows in _partition(m))


def kernel_basis(m: OperatorMatrix):
    """Exact basis of ker(m) as sparse {col: Scalar} vectors.

    Each basis vector has value 1 at "its" free column and 0 at every other
    free column; the list is ordered by that free column.  This makes the
    basis unique, independent of elimination details and of the components.
    """
    tagged = []
    for _rsel, csel, rows in _partition(m):
        pivots, free_cols = _eliminate(rows, len(csel))
        for f in free_cols:
            v = {f: ONE}
            for prow, pcol in reversed(pivots):
                acc = None
                for c, coef in rows[prow].items():
                    if c == pcol:
                        continue
                    x = v.get(c)
                    if x is None:
                        continue
                    t = coef * x
                    acc = t if acc is None else acc + t
                if acc is not None and acc:
                    v[pcol] = -acc / rows[prow][pcol]
            tagged.append((csel[f], {csel[c]: x for c, x in v.items()}))
    tagged.sort(key=lambda t: t[0])
    return [v for _, v in tagged]


def solve(m: OperatorMatrix, b):
    """A particular x with m@x = b, or None when inconsistent.

    ``b`` is a sparse {row: Scalar} dict (missing = zero).  Free variables
    are fixed to zero, which makes the returned solution deterministic.
    Only the components holding a row of ``b`` are eliminated; every other
    component is consistent and contributes nothing to x.
    """
    for r in b:
        if not (0 <= r < m.rows):
            raise ValueError(f"rhs index {r} outside {m.rows} rows")
    parts = _partition(m)
    owner = [0] * m.rows
    for k, (rsel, _csel, _rows) in enumerate(parts):
        for r in rsel:
            owner[r] = k
    x: dict = {}
    for k in sorted({owner[r] for r in b}):
        rsel, csel, rows = parts[k]
        rhs = [b.get(r, Scalar(0)) for r in rsel]
        pivots, _ = _eliminate(rows, len(csel), rhs)
        pivot_rows = {pr for pr, _ in pivots}
        for r in range(len(rows)):
            if r not in pivot_rows and rhs[r]:
                return None
        sx: dict = {}
        for prow, pcol in reversed(pivots):
            acc = rhs[prow]
            for c, coef in rows[prow].items():
                if c == pcol:
                    continue
                xv = sx.get(c)
                if xv is not None:
                    acc = acc - coef * xv
            if acc:
                sx[pcol] = acc / rows[prow][pcol]
        for c, v in sx.items():
            x[csel[c]] = v
    return x
