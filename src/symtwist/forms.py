"""Spinor-valued exterior forms: the tensor space Lambda V* (x) S.

Terms are keyed by (form index tuple, monomial exponent tuple) with the
form tuple kept strictly increasing; wedge and contraction compute the
permutation sign on insertion/removal, so every key has one canonical
form.  A SpinorForm is homogeneous in form degree.  A spinor is a 0-form,
its terms keyed ((), exponent tuple); the Clifford action on the spinor
factor lives in the spinors module.  Every operator here and in osp and
spinors reads and changes only exponent entries 0..l-1 and carries later
ones, which serve as passive labels (see below).

A SpinorForm holds its coefficients as Gaussian-integer pairs over one
denominator, grouped by form index tuple: a dict ``{idx: {e: (a, b)}}``
and a positive int ``d``, the term at (idx, e) being (a + b*i) / d.
Neither the pairs nor d are reduced, so one value has many
representations, and equality cross-multiplies by the two denominators.
The operators of this module and of osp and spinors run on the pairs with
``int`` arithmetic only:

* F+ and F- double d, and a factor i swaps a pair and changes one sign;
* a vector, covector or scale factor enters as Gaussian-integer pairs
  over its own denominator, which multiplies d;
* a sum takes the larger denominator when one divides the other and
  their product otherwise, so no operation needs a gcd.

The operators work a group at a time.  A wedge or contraction by one
component moves each group whole to its new index tuple, a Clifford
action by one component maps each group by one comprehension (its
exponent map is one-to-one), and F+ and F- map each group once per
inserted or removed index and merge the result into the target group.
Several components merge the moved groups.

A group may be shared between forms: a result whose factor on a group is
1 (a wedge by one basis covector, the first summand of a sum) holds the
input's group itself.  So no group is ever changed after its form is
built: code that merges into a group of another form copies it first,
and the operators merge only into groups they have just built.

``Scalar``s enter and leave only at the boundary.  The public constructor
``SpinorForm(l, {key: Scalar})`` and ``basis_form`` take them, as does
``scale``.  ``_combine`` is the one way in from linalg's kernel and solve
vectors: ``_combine(l, win, vec.items())`` is the form with the
coordinates ``vec`` on the window ``win``.  The read-only ``.terms`` view,
``.keys()`` and ``form_to_coords`` give flat (idx, e) keys and canonical
Scalars.

Many vectors go through one operator application as a labelled batch:
``_labelled(l, vectors)`` is the sum of vectors[c] y^c, vector c held
under its keys with c appended to the exponents, over one common
denominator.  No operator reads the label, so the y^c part of an image
is the image of vectors[c]; ``_labels``, ``_differing`` and ``_split``
read a batch label by label.  ``operator_matrix`` applies its
map once to the labelled sum of its domain and reads column c from the
label c, handing the pairs to linalg as they are, over the image's
denominator.

Every SpinorForm holds no empty group, no zero pair and one form degree;
the constructor checks the degree.  The operators build their results
with the unchecked ``SpinorForm._trusted``: each result group is either
built by ``_merge``, with every zero sum and then every empty group
dropped, or is a group of a valid input times a nonzero Gaussian
integer, which has no zero term, and every index tuple changes in length
by the same amount.
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
    rational, held as Gaussian-integer pairs over one denominator and
    grouped by index tuple."""

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
        groups: dict = {}
        for (idx, e), c in clean.items():
            m = d // c._d
            groups.setdefault(idx, {})[e] = (c._a * m, c._b * m)
        self._c = groups
        self._d = d

    @classmethod
    def _trusted(cls, l, groups, d):
        """Wrap the ``{idx: {e: (a, b)}}`` groups over the denominator ``d``
        as they are, unchecked and uncopied; the caller guarantees no empty
        group, no zero pair and one form degree."""
        self = object.__new__(cls)
        self.l = l
        self._c = groups
        self._d = d
        return self

    @property
    def terms(self) -> dict:
        """The terms as a new ``{key: Scalar}`` dict of canonical, nonzero
        Scalars; changing it does not change the form."""
        d = self._d
        return {(idx, e): from_pair(a, b, d) for idx, g in self._c.items() for e, (a, b) in g.items()}

    def keys(self) -> list:
        """The basis keys (index tuple, exponent tuple) of the terms."""
        return [(idx, e) for idx, g in self._c.items() for e in g]

    def is_zero(self):
        return not self._c

    def form_degree(self):
        """Common length of the index tuples; None for the zero value."""
        for idx in self._c:
            return len(idx)
        return None

    def spinor_degree(self):
        if not self._c:
            return float("-inf")
        return max(sum(e) for g in self._c.values() for e in g)

    def __eq__(self, other):
        if not isinstance(other, SpinorForm) or self.l != other.l:
            return False
        mine, theirs = self._c, other._c
        d, f = self._d, other._d
        if d == f or not mine:
            return mine == theirs
        if mine.keys() != theirs.keys():
            return False
        # (a + b i)/d == (a' + b' i)/f  <=>  a f == a' d and b f == b' d
        for idx, g in mine.items():
            h = theirs[idx]
            if len(g) != len(h):
                return False
            for e, (a, b) in g.items():
                t = h.get(e)
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
        # with m == 1 the groups of self are shared, so a merge copies first
        out = dict(self._c) if m == 1 else {idx: _times(g, m, 0) for idx, g in self._c.items()}
        n *= sign
        for idx, g in other._c.items():
            t = out.get(idx)
            if t is None:
                out[idx] = _times(g, n, 0) if n != 1 else g
                continue
            if m == 1:
                t = dict(t)
            _merge(t, g, n, 0)
            if t:
                out[idx] = t
            else:
                del out[idx]
        return SpinorForm._trusted(self.l, out, d)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return SpinorForm._trusted(self.l, {idx: _times(g, -1, 0) for idx, g in self._c.items()}, self._d)

    def scale(self, z):
        """z times the form, for a Scalar (or int or Fraction) z."""
        if type(z) is not Scalar:
            z = Scalar(z)
        p, q = z._a, z._b
        if not (p or q):
            return SpinorForm._trusted(self.l, {}, 1)
        out = {idx: _times(g, p, q) for idx, g in self._c.items()}
        return SpinorForm._trusted(self.l, out, self._d * z._d)

    def __repr__(self):
        n = sum(len(g) for g in self._c.values())
        return f"SpinorForm(l={self.l}, r={self.form_degree()}, {n} terms)"


def basis_form(l, idx, exp, coef=ONE) -> SpinorForm:
    return SpinorForm(l, {(tuple(idx), tuple(exp)): coef})


def _times(g: dict, p: int, q: int) -> dict:
    """A new group: the group g times the nonzero Gaussian integer p + q i."""
    if not q:
        if p == -1:
            return {e: (-a, -b) for e, (a, b) in g.items()}
        return {e: (a * p, b * p) for e, (a, b) in g.items()}
    if not p:
        return {e: (-b * q, a * q) for e, (a, b) in g.items()}
    return {e: (a * p - b * q, a * q + b * p) for e, (a, b) in g.items()}


def _merge(t: dict, g: dict, p: int, q: int) -> None:
    """Add the group g times the nonzero Gaussian integer p + q i into the
    group t, which the caller owns; zero sums drop their exponents.  Groups
    without a common exponent are joined by ``dict.update``."""
    if p != 1 or q:
        g = _times(g, p, q)
    if t.keys().isdisjoint(g):
        t.update(g)
        return
    for e, pair in g.items():
        old = t.get(e)
        if old is None:
            t[e] = pair
            continue
        a = old[0] + pair[0]
        b = old[1] + pair[1]
        if a or b:
            t[e] = (a, b)
        else:
            del t[e]


def _gather(out: dict, idx, new: dict) -> None:
    """Merge the group ``new``, which the caller has just built, into
    ``out`` at idx: the smaller of it and the group there goes into the
    larger.  A group left empty stays; ``_nonempty`` drops it."""
    t = out.get(idx)
    if t is None:
        out[idx] = new
        return
    if len(t) < len(new):
        out[idx] = new
        t, new = new, t
    _merge(t, new, 1, 0)


def _nonempty(out: dict) -> dict:
    """``out`` without its empty groups."""
    if all(out.values()):
        return out
    return {idx: g for idx, g in out.items() if g}


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
    of psi.  Insertion and removal of one k are one-to-one on index
    tuples, so with one component every group moves whole, shared as it is
    where its factor is 1."""
    out: dict = {}
    if not psi._c:
        return SpinorForm._trusted(psi.l, out, 1)
    comps, f = _vector_pairs(components)
    table = _moves(len(components))
    if len(comps) == 1:
        ((k, p, q),) = comps
        for idx, g in psi._c.items():
            t = table[idx][removal].get(k)
            if t is not None:
                nidx, s = t
                out[nidx] = g if s * p == 1 and not q else _times(g, s * p, s * q)
    else:
        for idx, g in psi._c.items():
            row = table[idx][removal]
            for k, p, q in comps:
                t = row.get(k)
                if t is not None:
                    nidx, s = t
                    _gather(out, nidx, _times(g, s * p, s * q))
        out = _nonempty(out)
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
        idx, e = self.basis[k]
        return SpinorForm._trusted(self.l, {idx: {e: (1, 0)}}, 1)

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
    for idx, g in psi._c.items():
        for e, (a, b) in g.items():
            k = rows.get((idx, e))
            if k is None:
                return None
            coords[k] = from_pair(a, b, d)
    return coords


def fits_window(psi: SpinorForm, r: int, D: int) -> bool:
    """Whether psi lies in FormWindow(psi.l, r, D), read from its terms
    without enumerating the window."""
    return all(len(idx) == r and all(sum(e) <= D for e in g) for idx, g in psi._c.items())


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
    for groups, p, q, f in scaled:
        m = d // f
        p *= m
        q *= m
        for idx, g in groups.items():
            t = out.get(idx)
            if t is None:
                out[idx] = _times(g, p, q) if p != 1 or q else dict(g)
            else:
                _merge(t, g, p, q)
    return SpinorForm._trusted(l, _nonempty(out), d)


# ---------------------------------------------------------------------------
# labelled batches


def _labelled(l, vectors, labels=None) -> SpinorForm:
    """The sum over c of vectors[c] y^c, y a passive variable: vector c held
    under its keys with c appended to the exponents, over one common
    denominator.  ``vectors`` is a window, read from its basis keys, or a
    sequence of forms of one form degree (zero forms allowed).  With
    ``labels``, vectors[k] takes the label labels[k] instead of k."""
    out: dict = {}
    if labels is None:
        labels = range(len(vectors))
    if isinstance(vectors, FormWindow):
        for c, (idx, e) in zip(labels, vectors.basis):
            g = out.get(idx)
            if g is None:
                g = out[idx] = {}
            g[e + (c,)] = (1, 0)
        return SpinorForm._trusted(l, out, 1)
    d = 1
    for v in vectors:
        if d % v._d:
            d = lcm(d, v._d)
    for c, v in zip(labels, vectors):
        m = d // v._d
        for idx, g in v._c.items():
            t = out.get(idx)
            if t is None:
                t = out[idx] = {}
            if m == 1:
                for e, pair in g.items():
                    t[e + (c,)] = pair
            else:
                for e, (a, b) in g.items():
                    t[e + (c,)] = (a * m, b * m)
    return SpinorForm._trusted(l, out, d)


def _labels(x: SpinorForm) -> set:
    """The labels of the labelled form x that hold a term."""
    return {e[-1] for g in x._c.values() for e in g}


def _differing(x: SpinorForm, y: SpinorForm) -> set:
    """The labels on which the labelled forms x and y differ: each group is
    brought to the common denominator and compared whole, and only the
    groups that differ are compared label by label."""
    _d, m, n = _common(x._d, y._d)
    mine, theirs = x._c, y._c
    out = set()
    for idx in mine.keys() | theirs.keys():
        g, h = mine.get(idx, {}), theirs.get(idx, {})
        if m != 1:
            g = _times(g, m, 0)
        if n != 1:
            h = _times(h, n, 0)
        if g != h:
            out.update(e[-1] for e in g.keys() ^ h.keys())
            out.update(e[-1] for e, pair in g.items() if h.get(e, pair) != pair)
    return out


def _split(x: SpinorForm, n: int) -> list:
    """The y^0, ..., y^(n-1) parts of the labelled form x, as n forms
    without the label, over the denominator of x."""
    parts = [{} for _ in range(n)]
    for idx, g in x._c.items():
        for e, pair in g.items():
            t = parts[e[-1]]
            h = t.get(idx)
            if h is None:
                h = t[idx] = {}
            h[e[:-1]] = pair
    return [SpinorForm._trusted(x.l, t, x._d) for t in parts]


def operator_matrix(fn, domain) -> OperatorMatrix:
    """Matrix of a linear map from the images of an explicit domain basis,
    with the map applied to the ``_labelled`` sum of the domain.

    ``domain`` is a window, a tuple of windows (their direct sum, columns
    in window order) or a sequence of forms.  ``fn`` is called once per
    window, or once per form degree of a sequence of forms, on the labelled
    sum of those domain vectors, and column c is read from the label c of
    its image.  The rows are the distinct basis keys of the images, in
    sorted order, so no row is empty and nothing is cut off; the key -> row
    map is kept on the matrix as ``row_index``, for ``form_to_coords``.
    Each row holds the images' Gaussian-integer pairs as they are, and each
    column the denominator of the image it was read from (see the linalg
    module), with no Scalar and no gcd.
    """
    if isinstance(domain, FormWindow):
        domain = (domain,)
    parts = []
    n = 0
    if domain and isinstance(domain[0], FormWindow):
        for win in domain:
            parts.append((win, range(n, n + win.dim)))
            n += win.dim
    else:
        n = len(domain)
        by_degree: dict = {}
        for c, v in enumerate(domain):
            by_degree.setdefault(v.form_degree(), []).append(c)
        by_degree.pop(None, None)
        parts = [([domain[c] for c in cols], cols) for cols in by_degree.values()]
    by_key: dict = {}
    dens = [1] * n
    for vectors, cols in parts:
        if not cols:
            continue
        img = fn(_labelled(vectors[0].l, vectors, cols))
        for c in cols:
            dens[c] = img._d
        for idx, g in img._c.items():
            for e, pair in g.items():
                key = (idx, e[:-1])
                row = by_key.get(key)
                if row is None:
                    by_key[key] = {e[-1]: pair}
                else:
                    row[e[-1]] = pair
    # rows in sorted key order: the elimination takes the first unused row
    # as pivot, and in order of appearance its fill-in made one symbol
    # check 2.3 times slower
    keys = sorted(by_key)
    row_index = {key: k for k, key in enumerate(keys)}
    return OperatorMatrix._trusted(len(keys), n, [by_key[k] for k in keys], dens, row_index)
