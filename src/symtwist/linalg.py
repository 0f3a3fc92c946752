"""Sparse exact linear algebra over Gaussian rationals.

Matrices are maps between explicitly enumerated finite bases, stored as
``{(row, col): Scalar}`` with no zero entries.  Rank, kernel bases and
linear solving all read one factorisation of the matrix.  The matrix is
split into the connected components of its nonzero pattern (rows and
columns are the nodes, every nonzero entry an edge), found in one pass
over the entries, and each component is reduced by one forward Gaussian
elimination: each row update subtracts one multiple of the pivot row,
with one division for the multiplier.  The scalars form a field and keep
every result in lowest terms, so no fraction-free scheme is needed.

The factorisation is lazy and kept on the matrix: the first call of
``rank``, ``kernel_basis`` or ``solve`` splits it, and each component is
eliminated on its first use and never again.  The elimination records
its row operations, so a solve replays them on its right-hand side
instead of eliminating again, and kernel vectors and solutions come from
one back-substitution over the eliminated rows.  A solve factors only
the components its right-hand side touches: on an untouched component
the right-hand side is zero, which is consistent and gives that
component's part of the solution as zero.

Pivoting is deterministic: columns are scanned left to right and the first
not-yet-used row with a nonzero entry wins.  A column is a pivot exactly
when it is not in the span of the columns before it, which a direct-sum
split does not change, so the free columns are the same for any split.
Kernel vectors are the unique solutions with one free coordinate set to 1
and the other free coordinates set to 0, and a solve fixes every free
variable to 0, so the output does not depend on the components either.
"""

from __future__ import annotations

from .scalars import ONE, Scalar

_ZERO = Scalar(0)


class OperatorMatrix:
    """Exact sparse matrix between two enumerated bases; ``row_index`` maps
    the basis key of each row to the row, when the rows have keys."""

    __slots__ = ("rows", "cols", "entries", "row_index", "_parts", "_owner")

    def __init__(self, rows, cols, entries, row_index=None):
        self.rows = rows
        self.cols = cols
        self.row_index = row_index
        self.entries = {rc: v for rc, v in entries.items() if v}
        for (r, c) in self.entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry index {(r, c)} outside {rows}x{cols}")
        # components and row -> component, filled on first use by _factored
        self._parts = self._owner = None

    def __repr__(self):
        return f"OperatorMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


def _partition(m: OperatorMatrix):
    """Connected components of the nonzero pattern of m, as a list of
    [global rows, global cols, local rows] and the component of each row.

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
    parts, owner = [], [0] * m.rows
    for k, (rsel, csel) in enumerate(groups.values()):
        parts.append([rsel, csel, [rows[r] for r in rsel]])
        for r in rsel:
            owner[r] = k
    return parts, owner


def _eliminate(rows, ncols):
    """Forward elimination of the ``{col: Scalar}`` dicts ``rows`` in place.

    Returns (pivots, free_cols, ops): pivots is a list of (row, col) in
    ascending column order, and ops lists every row update, in order, as
    (row, pivot row, multiplier); the update took row to row - multiplier *
    pivot row.  Rows never chosen as pivots end up as zero rows.
    """
    nrows = len(rows)
    used = [False] * nrows
    pivots = []
    free_cols = []
    ops = []
    for col in range(ncols):
        prow = None
        for r in range(nrows):
            if not used[r] and col in rows[r]:
                prow = r
                break
        if prow is None:
            free_cols.append(col)
            continue
        used[prow] = True
        pivots.append((prow, col))
        piv = rows[prow][col]
        prow_items = [(c, v) for c, v in rows[prow].items() if c != col]
        # unused rows above prow hold no entry in col: the search passed them
        for r in range(prow + 1, nrows):
            row = rows[r]
            if used[r] or col not in row:
                continue
            mult = row.pop(col) / piv
            nmult = -mult
            for c, v in prow_items:
                s = row.get(c)
                s = nmult * v if s is None else s + nmult * v
                if s:
                    row[c] = s
                else:
                    del row[c]
            ops.append((r, prow, mult))
    return pivots, free_cols, ops


def _factored(m: OperatorMatrix, touching=None):
    """The components of m that hold a row of ``touching`` (every component
    when None), in order, as [global rows, global cols, eliminated rows,
    pivots, free cols, ops].  m is split on the first call, and each
    component is eliminated on its first use; both are kept on m."""
    if m._parts is None:
        m._parts, m._owner = _partition(m)
    if touching is None:
        ks = range(len(m._parts))
    else:
        ks = sorted({m._owner[r] for r in touching})
    out = []
    for k in ks:
        part = m._parts[k]
        if len(part) == 3:  # not eliminated yet
            part.extend(_eliminate(part[2], len(part[1])))
        out.append(part)
    return out


def _back_substitute(rows, pivots, x, rhs=None):
    """Fill in the pivot coordinates of the local vector x, whose free
    coordinates are set, so that every eliminated row meets its entry of
    the eliminated right-hand side ``rhs`` (zero when None)."""
    for prow, pcol in reversed(pivots):
        acc = _ZERO if rhs is None else rhs[prow]
        for c, coef in rows[prow].items():
            if c != pcol:
                xv = x.get(c)
                if xv is not None:
                    acc = acc - coef * xv
        if acc:
            x[pcol] = acc / rows[prow][pcol]
    return x


def rank(m: OperatorMatrix) -> int:
    return sum(len(pivots) for _rsel, _csel, _rows, pivots, _free, _ops in _factored(m))


def kernel_basis(m: OperatorMatrix):
    """Exact basis of ker(m) as sparse {col: Scalar} vectors.

    Each basis vector has value 1 at "its" free column and 0 at every other
    free column; the list is ordered by that free column.  This makes the
    basis unique, independent of elimination details and of the components.
    """
    tagged = []
    for _rsel, csel, rows, pivots, free_cols, _ops in _factored(m):
        for f in free_cols:
            v = _back_substitute(rows, pivots, {f: ONE})
            tagged.append((csel[f], {csel[c]: x for c, x in v.items()}))
    tagged.sort(key=lambda t: t[0])
    return [v for _, v in tagged]


def solve(m: OperatorMatrix, b):
    """A particular x with m@x = b, or None when inconsistent.

    ``b`` is a sparse {row: Scalar} dict (missing = zero).  Free variables
    are fixed to zero, which makes the returned solution deterministic.
    Only the components holding a row of ``b`` are read; every other
    component is consistent and contributes nothing to x.
    """
    for r in b:
        if not (0 <= r < m.rows):
            raise ValueError(f"rhs index {r} outside {m.rows} rows")
    x: dict = {}
    for rsel, csel, rows, pivots, _free, ops in _factored(m, b):
        rhs = [b.get(r, _ZERO) for r in rsel]
        for r, prow, mult in ops:
            if rhs[prow]:
                rhs[r] = rhs[r] - mult * rhs[prow]
        pivot_rows = {pr for pr, _ in pivots}
        if any(rhs[r] for r in range(len(rows)) if r not in pivot_rows):
            return None
        for c, v in _back_substitute(rows, pivots, {}, rhs).items():
            x[csel[c]] = v
    return x
