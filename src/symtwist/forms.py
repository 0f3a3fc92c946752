"""Spinor-valued exterior forms: the tensor space Lambda V* (x) S.

Terms are keyed by (form index tuple, monomial exponent tuple) with the
form tuple kept strictly increasing; wedge and contraction compute the
permutation sign on insertion/removal, so every value has one canonical
representation and equality is dict equality.  A single SpinorForm is
homogeneous in form degree; non-homogeneous data is handled as sequences
of homogeneous pieces.  A spinor is a 0-form, its terms keyed
((), exponent tuple); the Clifford action on the spinor factor lives in
the spinors module.

Every SpinorForm holds no zero coefficient and one form degree.  The
constructor checks both on whatever it is given.  The operators of this
layer and of osp and spinors build their results with
``SpinorForm._trusted``, which checks nothing: each result dict comes
from ``linalg.accumulate``, which drops every zero sum, applied to the
terms of valid inputs with every index tuple changed in length by the
same amount, or is a term-wise product with a nonzero scalar, which over
a field has no zero term.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations, combinations_with_replacement
from math import comb

from .linalg import OperatorMatrix, accumulate
from .scalars import Scalar
from .symplectic import Covector, SymplecticSpace


class SpinorForm:
    """Finitely supported map (index tuple, exponent tuple) -> Scalar."""

    __slots__ = ("l", "terms")

    def __init__(self, l, terms=None):
        self.l = l
        clean = {}
        degree = None
        for (idx, e), c in (terms or {}).items():
            if not c:
                continue
            if degree is None:
                degree = len(idx)
            elif len(idx) != degree:
                raise ValueError("SpinorForm terms must share one form degree")
            clean[(idx, e)] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, l, terms):
        """Wrap ``terms`` as it is, unchecked and uncopied; the caller
        guarantees no zero coefficient and one form degree."""
        self = object.__new__(cls)
        self.l = l
        self.terms = terms
        return self

    def is_zero(self):
        return not self.terms

    def form_degree(self):
        """Common length of the index tuples; None for the zero value."""
        for (idx, _e) in self.terms:
            return len(idx)
        return None

    def spinor_degree(self):
        if not self.terms:
            return float("-inf")
        return max(sum(e) for (_idx, e) in self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, SpinorForm)
            and self.l == other.l
            and self.terms == other.terms
        )

    def __add__(self, other):
        if self.l != other.l:
            raise ValueError("mixing forms over different spaces")
        r, r_other = self.form_degree(), other.form_degree()
        if r is not None and r_other is not None and r != r_other:
            raise ValueError("SpinorForm terms must share one form degree")
        out = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(out, k, c)
        return SpinorForm._trusted(self.l, out)

    def __neg__(self):
        return SpinorForm._trusted(self.l, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, z: Scalar):
        if not z:
            return SpinorForm._trusted(self.l, {})
        return SpinorForm._trusted(self.l, {k: z * c for k, c in self.terms.items()})

    def __repr__(self):
        return f"SpinorForm(l={self.l}, r={self.form_degree()}, {len(self.terms)} terms)"


def basis_form(l, idx, exp, coef=Scalar(1)) -> SpinorForm:
    return SpinorForm(l, {(tuple(idx), tuple(exp)): coef})


def _insert(idx: tuple, k: int):
    """Sorted insertion with sign; None when k already present."""
    pos = bisect_left(idx, k)
    if pos < len(idx) and idx[pos] == k:
        return None, 0
    return idx[:pos] + (k,) + idx[pos:], -1 if pos % 2 else 1


def _remove(idx: tuple, k: int):
    pos = bisect_left(idx, k)
    if pos >= len(idx) or idx[pos] != k:
        return None, 0
    return idx[:pos] + idx[pos + 1 :], -1 if pos % 2 else 1


def wedge(xi: Covector, psi: SpinorForm) -> SpinorForm:
    """Left exterior multiplication by the covector xi."""
    out: dict = {}
    # zero tests once per call, not once per term (none for an empty psi)
    nonzero = [(k, xk) for k, xk in enumerate(xi.components) if xk] if psi.terms else []
    for (idx, e), c in psi.terms.items():
        for k, xk in nonzero:
            nidx, sign = _insert(idx, k)
            if nidx is None:
                continue
            accumulate(out, (nidx, e), xk * c if sign == 1 else -(xk * c))
    return SpinorForm._trusted(psi.l, out)


def contract(sp: SymplecticSpace, v, psi: SpinorForm) -> SpinorForm:
    """Interior product by the vector v (graded derivation of degree -1)."""
    out: dict = {}
    nonzero = [(k, vk) for k, vk in enumerate(v) if vk] if psi.terms else []
    for (idx, e), c in psi.terms.items():
        for k, vk in nonzero:
            nidx, sign = _remove(idx, k)
            if nidx is None:
                continue
            accumulate(out, (nidx, e), vk * c if sign == 1 else -(vk * c))
    return SpinorForm._trusted(psi.l, out)


def monomials_upto(l, D):
    """All exponent tuples of total degree <= D, in basis order."""
    out = []
    for d in range(D + 1):
        batch = set()
        for picks in combinations_with_replacement(range(l), d):
            e = [0] * l
            for p in picks:
                e[p] += 1
            batch.add(tuple(e))
        out.extend(sorted(batch))
    return out


class FormWindow:
    """Both-ways enumerated basis of (r-forms) x (monomials of degree <= D).

    Order: form tuples lexicographically major, then monomials by
    (total degree, lexicographic exponents); stable across runs.
    """

    __slots__ = ("l", "r", "D", "basis")

    def __init__(self, l, r, D):
        if not (0 <= r <= 2 * l):
            raise ValueError(f"form degree {r} out of range 0..{2 * l}")
        if D < 0:
            raise ValueError("degree bound must be >= 0")
        self.l = l
        self.r = r
        self.D = D
        monos = monomials_upto(l, D)
        self.basis = tuple(
            (idx, e) for idx in combinations(range(2 * l), r) for e in monos
        )
        assert len(self.basis) == comb(2 * l, r) * comb(l + D, l)

    @property
    def dim(self):
        return len(self.basis)

    def element(self, k) -> SpinorForm:
        idx, e = self.basis[k]
        return basis_form(self.l, idx, e)

    # a window is also the sequence of its basis elements
    __getitem__ = element

    def __len__(self):
        return len(self.basis)

    def __repr__(self):
        return f"FormWindow(l={self.l}, r={self.r}, D={self.D})"


def form_to_coords(psi: SpinorForm, rows: dict) -> dict | None:
    """Coordinates of psi on the ``rows`` of an operator matrix, a key ->
    row map, as a solve right-hand side; None when a term of psi lies on no
    row, since no column combination can reach it."""
    coords = {}
    for key, c in psi.terms.items():
        k = rows.get(key)
        if k is None:
            return None
        coords[k] = c
    return coords


def fits_window(psi: SpinorForm, r: int, D: int) -> bool:
    """Whether psi lies in FormWindow(psi.l, r, D), read from its terms
    without enumerating the window."""
    return all(len(idx) == r and sum(e) <= D for (idx, e) in psi.terms)


def coords_to_form(coords: dict, win: FormWindow) -> SpinorForm:
    terms = {win.basis[k]: c for k, c in coords.items()}
    return SpinorForm(win.l, terms)


def _combine(l, vectors, coeffs) -> SpinorForm:
    """The sum of c * vectors[k] over the (k, c) pairs of ``coeffs``, a
    sparse ``dict.items()`` or a dense ``enumerate``; the vectors share one
    form degree, and pairs with c = 0 are skipped."""
    out: dict = {}
    for k, a in coeffs:
        if a:
            for key, c in vectors[k].terms.items():
                accumulate(out, key, a * c)
    return SpinorForm._trusted(l, out)


def operator_matrix(fn, domain) -> OperatorMatrix:
    """Matrix of a linear map, built column by column from the images of an
    explicit domain basis.

    ``domain`` is any sequence of domain vectors, a window included.  The
    rows are the distinct basis keys of the images, in sorted order, so no
    row is empty and nothing is cut off; the key -> row map is kept on the
    matrix as ``row_index``, for ``form_to_coords``.
    """
    rows: dict = {}
    entries = {}
    for col, b in enumerate(domain):
        for key, c in fn(b).terms.items():
            entries[(rows.setdefault(key, len(rows)), col)] = c
    # renumber the rows from order of appearance to sorted key order: the
    # elimination takes the first unused row as pivot, and in order of
    # appearance its fill-in made one symbol check 2.3 times slower
    perm = [0] * len(rows)
    for k, key in enumerate(sorted(rows)):
        perm[rows[key]] = k
        rows[key] = k
    entries = {(perm[r], col): c for (r, col), c in entries.items()}
    return OperatorMatrix(len(rows), len(domain), entries, rows)
