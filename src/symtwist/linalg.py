"""Sparse exact linear algebra over Gaussian rationals.

Matrices are maps between explicitly enumerated finite bases.  A matrix
stores one sparse row ``{col: (a, b)}`` of Gaussian integers per row and
one positive int ``d_c`` per column: the entry at (row, col) is
(a + b*i) / d_col.  ``forms.operator_matrix`` fills the rows straight from
the pairs of the column images, whose denominator is d_col.  Neither the
pairs nor the column denominators are reduced, and no row holds a zero
pair.  The matrix is A·diag(1/d), with A the Gaussian-integer matrix of the
pairs, so it has the rank and the pivot columns of A, its kernel vectors are
the kernel vectors y of A scaled to x_c = d_c·y_c, and a solve of A y = b
gives the solution x_c = d_c·y_c.

Rank, kernel bases and linear solving all read one factorisation of the
matrix.  The matrix is split into the connected components of its nonzero
pattern (rows and columns are the nodes, every nonzero entry an edge),
found by one breadth-first search, and each component is reduced by one
fraction-free forward elimination on copies of its rows: each row update
is

    row <- P*row - F*pivot row,

where P is the pivot and F the row's entry in the pivot column, both first
divided by their common integer content, and F then divided by P when P
is a unit (1, -1, i or -i), which makes P = 1.  The updated row is then
divided by the integer content g of its components (the gcd of every
real and imaginary part).  The update is recorded as ``(row, pivot row,
P, F, g)``, the pairs P and F flattened into the tuple.  Back-substitution
computes Gaussian-integer pairs over one running denominator, multiplied
up only when a pivot division is not exact.

``Scalar``s enter and leave only at the boundary: the public constructor
``OperatorMatrix(rows, cols, {(row, col): Scalar})`` converts its entries
once to the row form, ``.entries`` derives the Scalar entries on access,
``solve`` takes its right-hand side as Scalars, and ``kernel_basis`` and
``solve`` undo the column scaling and return canonical ``{col: Scalar}``
vectors.  Partition, elimination and back-substitution compute with
``int``s only.

The factorisation is lazy and kept on the matrix: the first call of
``rank``, ``kernel_basis`` or ``solve`` splits it, and each component is
eliminated on its first use and never again.  A solve replays the recorded
row operations on its right-hand side instead of eliminating again; the
replayed right-hand side holds one Gaussian-integer pair and one
denominator per row, and each replayed update divides the pair by the
part of g that divides it and multiplies the denominator by the rest.
Kernel vectors and solutions come from one back-substitution over the
eliminated rows.  A solve factors only the components its right-hand side
touches: on an untouched component the right-hand side is zero, which is
consistent and gives that component's part of the solution as zero.

Pivoting is deterministic: columns are scanned left to right and the first
not-yet-used row with a nonzero entry wins.  A column is a pivot exactly
when it is not in the span of the columns before it, which a direct-sum
split and the column scaling do not change, so the free columns are the
same for any split.  Kernel vectors are the unique solutions with one free
coordinate set to 1 and the other free coordinates set to 0, and a solve
fixes every free variable to 0, so the output depends neither on the
components nor on the representation of the entries.
"""

from __future__ import annotations

from math import gcd

from .scalars import from_pair


class OperatorMatrix:
    """Exact sparse matrix between two enumerated bases; ``row_index`` maps
    the basis key of each row to the row, when the rows have keys."""

    __slots__ = ("rows", "cols", "row_index", "_rows", "_dens", "_parts", "_owner")

    def __init__(self, rows, cols, entries, row_index=None):
        """The matrix with the ``{(row, col): Scalar}`` entries; zero
        entries are dropped.  Each column's denominator is the least common
        multiple of its entries' denominators."""
        nonzero = []
        dens = [1] * cols
        for (r, c), v in entries.items():
            if not v:
                continue
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry index {(r, c)} outside {rows}x{cols}")
            nonzero.append((r, c, v))
            d = dens[c]
            if d % v._d:
                dens[c] = d * v._d // gcd(d, v._d)
        pairs = [{} for _ in range(rows)]
        for r, c, v in nonzero:
            m = dens[c] // v._d
            pairs[r][c] = (v._a * m, v._b * m)
        self._init(rows, cols, pairs, dens, row_index)

    def _init(self, rows, cols, pairs, dens, row_index):
        self.rows = rows
        self.cols = cols
        self.row_index = row_index
        self._rows = pairs
        self._dens = dens
        # components and row -> component, filled on first use by _factored
        self._parts = self._owner = None

    @classmethod
    def _trusted(cls, rows, cols, pairs, dens, row_index=None):
        """Wrap the ``rows`` sparse rows ``{col: (a, b)}`` over the column
        denominators ``dens`` as they are, unchecked and uncopied; the
        caller guarantees no zero pair and every index in range.  The
        matrix owns the row dicts from then on."""
        self = object.__new__(cls)
        self._init(rows, cols, pairs, dens, row_index)
        return self

    @property
    def entries(self) -> dict:
        """The entries as a new ``{(row, col): Scalar}`` dict of canonical,
        nonzero Scalars; changing it does not change the matrix."""
        dens = self._dens
        return {
            (r, c): from_pair(a, b, dens[c])
            for r, row in enumerate(self._rows)
            for c, (a, b) in row.items()
        }

    def __repr__(self):
        nnz = sum(len(row) for row in self._rows)
        return f"OperatorMatrix({self.rows}x{self.cols}, nnz={nnz})"


def _partition(m: OperatorMatrix):
    """Connected components of the nonzero pattern of m, as a list of
    [global rows, global cols] and the component of each row.

    A breadth-first search from each column not yet reached collects its
    component, alternating between a column's rows and a row's columns.
    A row or column without nonzeros is a component of its own.
    Components come in order of first appearance among the columns, then
    among the rows, each with ascending indices.
    """
    pairs = m._rows
    col_rows = [[] for _ in range(m.cols)]
    for r, row in enumerate(pairs):
        for c in row:
            col_rows[c].append(r)
    owner = [-1] * m.rows
    reached = [False] * m.cols
    parts = []
    for c0 in range(m.cols):
        if reached[c0]:
            continue
        k = len(parts)
        reached[c0] = True
        csel = [c0]
        rsel = []
        # csel grows while it is read: each column is read once
        for c in csel:
            for r in col_rows[c]:
                if owner[r] < 0:
                    owner[r] = k
                    rsel.append(r)
                    for c2 in pairs[r]:
                        if not reached[c2]:
                            reached[c2] = True
                            csel.append(c2)
        csel.sort()
        rsel.sort()
        parts.append([rsel, csel])
    for r in range(m.rows):
        if owner[r] < 0:
            owner[r] = len(parts)
            parts.append([[r], []])
    return parts, owner


def _eliminate(rows, cols):
    """Fraction-free forward elimination of the ``{col: (a, b)}`` dicts
    ``rows`` in place, over the ascending column list ``cols``.

    Returns (pivots, free_cols, ops): pivots is a list of (row, col) in
    ascending column order, and ops lists every row update, in order, as
    (row, pivot row, Pa, Pb, Fa, Fb, g); the update took row to (P * row -
    F * pivot row) / g, with the Gaussian integers P = Pa + Pb*i and
    F = Fa + Fb*i and g the positive integer content of P * row - F * pivot
    row (1 for a zero row).  Rows never chosen as pivots end up as zero
    rows.
    """
    unused = list(range(len(rows)))
    pivots = []
    free_cols = []
    ops = []
    for col in cols:
        for k, prow in enumerate(unused):
            if col in rows[prow]:
                break
        else:
            free_cols.append(col)
            continue
        del unused[k]
        pivots.append((prow, col))
        pa, pb = rows[prow][col]
        prow_items = [(c, v) for c, v in rows[prow].items() if c != col]
        # unused rows above prow hold no entry in col: the search passed them
        for r in unused[k:]:
            row = rows[r]
            if col not in row:
                continue
            fa, fb = row.pop(col)
            h = gcd(pa, pb, fa, fb)
            Pa, Pb, Fa, Fb = pa // h, pb // h, fa // h, fb // h
            if Pa * Pa + Pb * Pb == 1:
                # a unit P: divide the update by it, F / P = F * conj(P)
                Fa, Fb, Pa, Pb = Fa * Pa + Fb * Pb, Fb * Pa - Fa * Pb, 1, 0
            if Pb or Pa != 1:
                for c, (a, b) in row.items():
                    row[c] = (Pa * a - Pb * b, Pa * b + Pb * a)
            for c, (a, b) in prow_items:
                ua, ub = Fa * a - Fb * b, Fa * b + Fb * a
                s = row.get(c)
                if s is None:
                    row[c] = (-ua, -ub)
                else:
                    ua, ub = s[0] - ua, s[1] - ub
                    if ua or ub:
                        row[c] = (ua, ub)
                    else:
                        del row[c]
            g = 0
            for a, b in row.values():
                g = gcd(g, a, b)
                if g == 1:
                    break
            if g > 1:
                for c, (a, b) in row.items():
                    row[c] = (a // g, b // g)
            else:
                g = 1
            ops.append((r, prow, Pa, Pb, Fa, Fb, g))
    return pivots, free_cols, ops


def _factored(m: OperatorMatrix, touching=None):
    """The components of m that hold a row of ``touching`` (every component
    when None), in order, as [global rows, global cols, eliminated rows,
    pivots, free cols, ops].  m is split on the first call, and each
    component is eliminated, on copies of its rows that keep the global
    column indices, on its first use; both are kept on m."""
    if m._parts is None:
        m._parts, m._owner = _partition(m)
    if touching is None:
        ks = range(len(m._parts))
    else:
        ks = sorted({m._owner[r] for r in touching})
    out = []
    for k in ks:
        part = m._parts[k]
        if len(part) == 2:  # not eliminated yet
            rows = [dict(m._rows[r]) for r in part[0]]
            part.append(rows)
            part.extend(_eliminate(rows, part[1]))
        out.append(part)
    return out


def _back_substitute(rows, pivots, x, rhs=None):
    """Fill in the pivot coordinates of the vector x, a ``{col: (a, b)}``
    dict of Gaussian integers whose free coordinates are set, so that every
    eliminated row meets its entry of the eliminated right-hand side
    ``rhs``, a list of ``(a, b, s)`` meaning (a + b*i) / s (zero when None).

    Returns (x, delta): the solution is x / delta.  x starts over the
    denominator 1; when a pivot division is not exact, every coordinate
    already set and delta are multiplied by the missing factor."""
    delta = 1
    for prow, pcol in reversed(pivots):
        row = rows[prow]
        sa = sb = 0
        # x holds no entry at pcol yet: each pivot column is filled once
        for c, v in row.items():
            xv = x.get(c)
            if xv is not None:
                ca, cb = v
                xa, xb = xv
                sa += ca * xa - cb * xb
                sb += ca * xb + cb * xa
        if rhs is None:
            na, nb, s = -sa, -sb, 1
        else:
            ra, rb, s = rhs[prow]
            na, nb = ra * delta - s * sa, rb * delta - s * sb
        if not (na or nb):
            continue
        # x[pcol] / delta = (na + nb i) / (s * delta * piv), and 1 / piv is
        # conj(piv) / |piv|^2
        pa, pb = row[pcol]
        qa, qb, den = na * pa + nb * pb, nb * pa - na * pb, s * (pa * pa + pb * pb)
        if den != 1:
            k = gcd(qa, qb, den)
            qa //= k
            qb //= k
            mult = den // k
            if mult != 1:
                delta *= mult
                for c, (a, b) in x.items():
                    x[c] = (a * mult, b * mult)
        x[pcol] = (qa, qb)
    return x, delta


def rank(m: OperatorMatrix) -> int:
    return sum(len(pivots) for _rsel, _csel, _rows, pivots, _free, _ops in _factored(m))


def kernel_basis(m: OperatorMatrix):
    """Exact basis of ker(m) as sparse {col: Scalar} vectors.

    Each basis vector has value 1 at "its" free column and 0 at every other
    free column; the list is ordered by that free column.  This makes the
    basis unique, independent of elimination details and of the components.
    """
    dens = m._dens
    tagged = []
    for _rsel, _csel, rows, pivots, free_cols, _ops in _factored(m):
        for f in free_cols:
            # y = x / delta solves the pair rows with y_f = 1; the kernel
            # vector of m is d_c * y_c / d_f
            x, delta = _back_substitute(rows, pivots, {f: (1, 0)})
            den = delta * dens[f]
            v = {c: from_pair(a * dens[c], b * dens[c], den) for c, (a, b) in x.items()}
            tagged.append((f, v))
    tagged.sort(key=lambda t: t[0])
    return [v for _, v in tagged]


def _replay(ops, rhs):
    """Apply the recorded row updates to the right-hand side ``rhs``, a list
    of ``(a, b, s)`` meaning (a + b*i) / s, in place."""
    for r, p, Pa, Pb, Fa, Fb, g in ops:
        ra, rb, s = rhs[r]
        pa, pb, ps = rhs[p]
        if not (ra or rb or pa or pb):
            continue
        if s != ps:
            # both over the least common multiple of the two denominators
            k = gcd(s, ps)
            ra, rb, pa, pb = ra * (ps // k), rb * (ps // k), pa * (s // k), pb * (s // k)
            s = s // k * ps
        na = Pa * ra - Pb * rb - Fa * pa + Fb * pb
        nb = Pa * rb + Pb * ra - Fa * pb - Fb * pa
        if g != 1:
            k = gcd(na, nb, g)
            na //= k
            nb //= k
            s *= g // k
        rhs[r] = (na, nb, s)


def solve(m: OperatorMatrix, b):
    """A particular x with m@x = b, or None when inconsistent.

    ``b`` is a sparse {row: Scalar} dict (missing = zero).  Free variables
    are fixed to zero, which makes the returned solution deterministic.
    Only the components holding a row of ``b`` are read; every other
    component is consistent and contributes nothing to x.
    """
    # b as Gaussian-integer pairs over one common denominator bd, each over
    # its own row denominator 1 for the replay
    bd = 1
    for r, z in b.items():
        if not (0 <= r < m.rows):
            raise ValueError(f"rhs index {r} outside {m.rows} rows")
        if bd % z._d:
            bd = z._d if z._d % bd == 0 else bd * z._d
    scaled = {r: (z._a * (bd // z._d), z._b * (bd // z._d), 1) for r, z in b.items()}
    dens = m._dens
    x: dict = {}
    for rsel, _csel, rows, pivots, _free, ops in _factored(m, b):
        rhs = [scaled.get(r, (0, 0, 1)) for r in rsel]
        _replay(ops, rhs)
        pivot_rows = {pr for pr, _ in pivots}
        if any(rhs[r][0] or rhs[r][1] for r in range(len(rows)) if r not in pivot_rows):
            return None
        y, delta = _back_substitute(rows, pivots, {}, rhs)
        den = delta * bd
        for c, (a, bb) in y.items():
            x[c] = from_pair(a * dens[c], bb * dens[c], den)
    return x
