"""Spinor-valued exterior forms: the tensor space Lambda V* (x) S.

Terms are keyed by (form index tuple, monomial exponent tuple) with the
form tuple kept strictly increasing; wedge and contraction compute the
permutation sign on insertion/removal, so every key has one canonical
form.  A SpinorForm is homogeneous in form degree.  A spinor is a 0-form,
its terms keyed ((), exponent tuple); the Clifford action on the spinor
factor lives in the spinors module.  Every operator here and in osp and
spinors reads and changes only exponent entries 0..l-1 and carries later
ones, which the relations suite uses as passive labels.

A SpinorForm holds its coefficients as Gaussian-integer pairs over one
denominator: a dict ``{(idx, e): (a, b)}`` and a positive int ``d``, the
term at (idx, e) being (a + b*i) / d.  Neither the pairs nor d are
reduced, so one value has many representations, and equality
cross-multiplies by the two denominators.  The operators of this module
and of osp and spinors run on the pairs with ``int`` arithmetic only:

* F+ and F- double d, and a factor i swaps a pair and changes one sign;
* a vector, covector or scale factor enters as Gaussian-integer pairs
  over its own denominator, which multiplies d;
* a sum takes the larger denominator when one divides the other and
  their product otherwise, so no operation needs a gcd.

``Scalar``s enter and leave only at the boundary.  The public constructor
``SpinorForm(l, {key: Scalar})`` and ``basis_form`` take them, as does
``scale``.  ``_combine`` is the one way in from linalg's kernel and solve
vectors: ``_combine(l, win, vec.items())`` is the form with the
coordinates ``vec`` on the window ``win``.  The read-only ``.terms`` view
and ``form_to_coords`` give canonical Scalars.  ``operator_matrix`` hands
the pairs of each image to linalg as they are, over the image's
denominator.

Every SpinorForm holds no zero pair and one form degree; the constructor
checks both.  The operators build their results with the unchecked
``SpinorForm._trusted``: each result dict is either built by ``_add``,
which drops every zero sum, from the terms of valid inputs with every
index tuple changed in length by the same amount, or is a term-wise
product with a nonzero Gaussian integer, which has no zero term.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations, combinations_with_replacement
from math import lcm

from .linalg import OperatorMatrix
from .scalars import ONE, Scalar, from_pair
from .symplectic import Covector, SymplecticSpace


class SpinorForm:
    """Finitely supported map (index tuple, exponent tuple) -> Gaussian
    rational, held as Gaussian-integer pairs over one denominator."""

    __slots__ = ("l", "_c", "_d")

    def __init__(self, l, terms=None):
        """The form with the ``{key: Scalar}`` terms (ints and Fractions
        are accepted too); zero coefficients are dropped."""
        self.l = l
        clean = {}
        degree = None
        d = 1
        for (idx, e), c in (terms or {}).items():
            if type(c) is not Scalar:
                c = Scalar(c)
            if not c:
                continue
            if degree is None:
                degree = len(idx)
            elif len(idx) != degree:
                raise ValueError("SpinorForm terms must share one form degree")
            clean[(idx, e)] = c
            d = lcm(d, c._d)
        self._c = {key: (c._a * (d // c._d), c._b * (d // c._d)) for key, c in clean.items()}
        self._d = d

    @classmethod
    def _trusted(cls, l, pairs, d):
        """Wrap ``pairs`` over the denominator ``d`` as it is, unchecked
        and uncopied; the caller guarantees no zero pair and one form
        degree."""
        self = object.__new__(cls)
        self.l = l
        self._c = pairs
        self._d = d
        return self

    @property
    def terms(self) -> dict:
        """The terms as a new ``{key: Scalar}`` dict of canonical, nonzero
        Scalars; changing it does not change the form."""
        d = self._d
        return {key: from_pair(a, b, d) for key, (a, b) in self._c.items()}

    def keys(self):
        """The basis keys (index tuple, exponent tuple) of the terms."""
        return self._c.keys()

    def is_zero(self):
        return not self._c

    def form_degree(self):
        """Common length of the index tuples; None for the zero value."""
        for (idx, _e) in self._c:
            return len(idx)
        return None

    def spinor_degree(self):
        if not self._c:
            return float("-inf")
        return max(sum(e) for (_idx, e) in self._c)

    def __eq__(self, other):
        if not isinstance(other, SpinorForm) or self.l != other.l:
            return False
        mine, theirs = self._c, other._c
        d, f = self._d, other._d
        if d == f or not mine:
            return mine == theirs
        if len(mine) != len(theirs):
            return False
        # (a + b i)/d == (a' + b' i)/f  <=>  a f == a' d and b f == b' d
        for key, (a, b) in mine.items():
            t = theirs.get(key)
            if t is None or a * f != t[0] * d or b * f != t[1] * d:
                return False
        return True

    def _plus(self, other, sign):
        if self.l != other.l:
            raise ValueError("mixing forms over different spaces")
        r, r_other = self.form_degree(), other.form_degree()
        if r is None:
            return other if sign == 1 else -other
        if r_other is None:
            return self
        if r != r_other:
            raise ValueError("SpinorForm terms must share one form degree")
        d, m, n = _common(self._d, other._d)
        out = dict(self._c) if m == 1 else {k: (a * m, b * m) for k, (a, b) in self._c.items()}
        n *= sign
        for key, (a, b) in other._c.items():
            _add(out, key, a * n, b * n)
        return SpinorForm._trusted(self.l, out, d)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return SpinorForm._trusted(self.l, {k: (-a, -b) for k, (a, b) in self._c.items()}, self._d)

    def scale(self, z):
        """z times the form, for a Scalar (or int or Fraction) z."""
        if type(z) is not Scalar:
            z = Scalar(z)
        p, q = z._a, z._b
        if not (p or q):
            return SpinorForm._trusted(self.l, {}, 1)
        if not q:
            out = {k: (a * p, b * p) for k, (a, b) in self._c.items()}
        elif not p:
            out = {k: (-b * q, a * q) for k, (a, b) in self._c.items()}
        else:
            out = {k: (a * p - b * q, a * q + b * p) for k, (a, b) in self._c.items()}
        return SpinorForm._trusted(self.l, out, self._d * z._d)

    def __repr__(self):
        return f"SpinorForm(l={self.l}, r={self.form_degree()}, {len(self._c)} terms)"


def basis_form(l, idx, exp, coef=ONE) -> SpinorForm:
    return SpinorForm(l, {(tuple(idx), tuple(exp)): coef})


def _add(out: dict, key, a: int, b: int) -> None:
    """Add the pair (a, b) to the sparse map ``out`` at ``key``; a zero sum
    drops the key.  (a, b) is not (0, 0)."""
    old = out.get(key)
    if old is None:
        out[key] = (a, b)
        return
    a += old[0]
    b += old[1]
    if a or b:
        out[key] = (a, b)
    else:
        del out[key]


def _common(d: int, f: int):
    """(m, m // d, m // f) for two denominators d and f: m is a common
    multiple, found by a divisibility test rather than a gcd."""
    if d == f:
        return d, 1, 1
    if f % d == 0:
        return f, f // d, 1
    if d % f == 0:
        return d, 1, d // f
    return d * f, f, d


# the pairs of the vector and covector tuples met last, by identity: the
# suites pass the same basis tuples many thousands of times.  An entry holds
# its tuple, so no other object can take that id while the entry is kept;
# a list is never kept, since it could change.
_VECTOR_PAIRS: dict = {}


def _vector_pairs(components):
    """The nonzero Scalar components of a vector or covector as a list of
    (k, a, b), Gaussian-integer pairs over one denominator, and that
    denominator."""
    hit = _VECTOR_PAIRS.get(id(components))
    if hit is not None:
        return hit[0], hit[1]
    nonzero = [(k, x) for k, x in enumerate(components) if x._a or x._b]
    d = 1
    for _k, x in nonzero:
        if d % x._d:
            d = x._d if x._d % d == 0 else d * x._d
    pairs = [(k, x._a * (d // x._d), x._b * (d // x._d)) for k, x in nonzero]
    if type(components) is tuple:
        if len(_VECTOR_PAIRS) >= 64:
            _VECTOR_PAIRS.clear()
        _VECTOR_PAIRS[id(components)] = (pairs, d, components)
    return pairs, d


class _Moves(dict):
    """idx -> (insertions, removals) for index tuples over range(n): the
    insertions map each k in range(n) not in idx to (idx with k inserted,
    sign), the removals each k in idx to (idx without k, sign), both in
    ascending k; the sign is -1 for an odd slot of k.  Each entry is built
    on its first lookup."""

    def __init__(self, n):
        super().__init__()
        self.n = n

    def __missing__(self, idx):
        out = ({}, {})
        for k in range(self.n):
            pos = bisect_left(idx, k)
            s = -1 if pos % 2 else 1
            if pos < len(idx) and idx[pos] == k:
                out[1][k] = (idx[:pos] + idx[pos + 1 :], s)
            else:
                out[0][k] = (idx[:pos] + (k,) + idx[pos:], s)
        self[idx] = out
        return out


# the signed moves of every index tuple met so far, one table per n: there
# are C(n, r) tuples of each degree r, so the tables stay small
_MOVES: dict = {}


def _moves(n: int) -> _Moves:
    """The insertion and removal table for index tuples over range(n)."""
    table = _MOVES.get(n)
    if table is None:
        table = _MOVES[n] = _Moves(n)
    return table


def _move_indices(psi: SpinorForm, components, removal: int) -> SpinorForm:
    """Sum over k of the k-th component times the signed insertion
    (``removal`` 0) or removal (``removal`` 1) of the index k in each term
    of psi."""
    out: dict = {}
    if not psi._c:
        return SpinorForm._trusted(psi.l, out, 1)
    comps, f = _vector_pairs(components)
    table = _moves(len(components))
    for (idx, e), (a, b) in psi._c.items():
        row = table[idx][removal]
        for k, p, q in comps:
            t = row.get(k)
            if t is not None:
                nidx, s = t
                _add(out, (nidx, e), s * (a * p - b * q), s * (a * q + b * p))
    return SpinorForm._trusted(psi.l, out, psi._d * f)


def wedge(xi: Covector, psi: SpinorForm) -> SpinorForm:
    """Left exterior multiplication by the covector xi."""
    return _move_indices(psi, xi.components, 0)


def contract(sp: SymplecticSpace, v, psi: SpinorForm) -> SpinorForm:
    """Interior product by the vector v (graded derivation of degree -1)."""
    return _move_indices(psi, v, 1)


def weight(l, key) -> int:
    """The weight |e| - #first + #second of the basis key (idx, e): its
    spinor degree, minus its form indices below l (the first Lagrangian
    half), plus those from l on.  F+, F- and every spectral projector keep
    it, and at a covector in one half every symbol map moves it by the
    same +1 or -1."""
    idx, e = key
    return sum(e) + len(idx) - 2 * bisect_left(idx, l)


def monomials_by_degree(l, D):
    """The exponent tuples of each total degree d <= D, one sorted list
    per d."""
    out = []
    for d in range(D + 1):
        batch = set()
        for picks in combinations_with_replacement(range(l), d):
            e = [0] * l
            for p in picks:
                e[p] += 1
            batch.add(tuple(e))
        out.append(sorted(batch))
    return out


class FormWindow:
    """Both-ways enumerated basis of (r-forms) x (monomials of degree <= D),
    or, when a set ``weights`` is given, of its keys whose weight is in it.

    Order: form tuples lexicographically major, then monomials by
    (total degree, lexicographic exponents); stable across runs.  A
    weight-restricted window keeps the relative order of its keys.
    """

    __slots__ = ("l", "r", "D", "basis")

    def __init__(self, l, r, D, weights=None):
        if not (0 <= r <= 2 * l):
            raise ValueError(f"form degree {r} out of range 0..{2 * l}")
        if D < 0:
            raise ValueError("degree bound must be >= 0")
        self.l = l
        self.r = r
        self.D = D
        by_degree = monomials_by_degree(l, D)
        # (idx, e) has the weight w exactly when |e| = w - r + 2f, f the
        # number of indices of idx below l; kept[f] lists those monomials
        # for every w asked (every degree without weights), in window order
        kept = []
        for f in range(r + 1):
            if weights is None:
                degrees = range(D + 1)
            else:
                degrees = sorted(d for d in {w - r + 2 * f for w in weights} if 0 <= d <= D)
            kept.append([e for d in degrees for e in by_degree[d]])
        tuples = combinations(range(2 * l), r)
        self.basis = tuple((idx, e) for idx in tuples for e in kept[bisect_left(idx, l)])

    @property
    def dim(self):
        return len(self.basis)

    def element(self, k) -> SpinorForm:
        return SpinorForm._trusted(self.l, {self.basis[k]: (1, 0)}, 1)

    # a window is also the sequence of its basis elements
    __getitem__ = element

    def __len__(self):
        return len(self.basis)

    def __repr__(self):
        return f"FormWindow(l={self.l}, r={self.r}, D={self.D})"


def form_to_coords(psi: SpinorForm, rows: dict) -> dict | None:
    """Coordinates of psi on the ``rows`` of an operator matrix, a key ->
    row map, as a solve right-hand side of canonical Scalars; None when a
    term of psi lies on no row, since no column combination can reach it."""
    coords = {}
    d = psi._d
    for key, (a, b) in psi._c.items():
        k = rows.get(key)
        if k is None:
            return None
        coords[k] = from_pair(a, b, d)
    return coords


def fits_window(psi: SpinorForm, r: int, D: int) -> bool:
    """Whether psi lies in FormWindow(psi.l, r, D), read from its terms
    without enumerating the window."""
    return all(len(idx) == r and sum(e) <= D for (idx, e) in psi._c)


def _combine(l, vectors, coeffs) -> SpinorForm:
    """The sum of c * vectors[k] over the (k, c) pairs of ``coeffs``, a
    sparse ``dict.items()`` or a dense ``enumerate`` of Scalars; the vectors
    share one form degree, and pairs with c = 0 are skipped."""
    scaled = []
    d = 1
    for k, z in coeffs:
        if z:
            v = vectors[k]
            f = z._d * v._d
            scaled.append((v._c, z._a, z._b, f))
            if d % f:
                d = f if f % d == 0 else d * f
    out: dict = {}
    for terms, p, q, f in scaled:
        m = d // f
        p *= m
        q *= m
        for key, (a, b) in terms.items():
            _add(out, key, a * p - b * q, a * q + b * p)
    return SpinorForm._trusted(l, out, d)


def operator_matrix(fn, domain) -> OperatorMatrix:
    """Matrix of a linear map, built column by column from the images of an
    explicit domain basis.

    ``domain`` is any sequence of domain vectors, a window included.  The
    rows are the distinct basis keys of the images, in sorted order, so no
    row is empty and nothing is cut off; the key -> row map is kept on the
    matrix as ``row_index``, for ``form_to_coords``.  Each row holds the
    images' Gaussian-integer pairs as they are, and each column the
    denominator of its image (see the linalg module), with no Scalar and no
    gcd.
    """
    by_key: dict = {}
    dens = []
    for col, b in enumerate(domain):
        img = fn(b)
        dens.append(img._d)
        for key, pair in img._c.items():
            row = by_key.get(key)
            if row is None:
                by_key[key] = {col: pair}
            else:
                row[col] = pair
    # rows in sorted key order: the elimination takes the first unused row
    # as pivot, and in order of appearance its fill-in made one symbol
    # check 2.3 times slower
    keys = sorted(by_key)
    row_index = {key: k for k, key in enumerate(keys)}
    return OperatorMatrix._trusted(len(keys), len(dens), [by_key[k] for k in keys], dens, row_index)
