"""The Howe-dual operator algebra on spinor-valued forms.

Five operators act on Lambda V* (x) S and satisfy the ortho-symplectic
super-algebra relations; we use the standard generator labels:

* F+  raising: form degree +1, Clifford-twisted
      F+(a (x) s) = (i/2) sum_k  eps^k ^ a (x) e_k.s
* F-  lowering: form degree -1
      F-(a (x) s) = (1/2) sum omega^{kj} iota_{e_k} a (x) e_j.s
* H   grading = 2{F+, F-}; acts on r-forms by (r - l)/2
* E+  = +2{F+, F+} = i * (symplectic 2-form) ^ .   (form part only)
* E-  = -2{F-, F-} = i * sum_k iota_{e_k} iota_{e_{k+l}}   (form part only)

For each form degree r the space splits into distinct irreducible
components labelled by j = 0..m_r with m_r = min(r, 2l - r); the labels
(r, j) fill a triangle.  F-F+ acts on the (r, j) component by a scalar
c_{rj} that separates the js of a fixed column, so spectral polynomials in
F-F+ recover each component and in particular the "edge" component
E^{r, m_r} hosting the twistor symbol maps.

All component bases here are exact kernels of explicit operator matrices
on degree-truncated windows.  The edge bases are first-order kernels:
ker(F-) below the halfway degree and ker(F+) from it on; the eigen-kernel
of F-F+ - c_{rj} serves every other component and checks the edge.  The
chain model spans the F+-orbits of primitive vectors (the edges up to the
halfway degree) and is the smallest window-sized subspace closed under
the whole algebra.  Every matrix comes from ``forms.operator_matrix``
and every kernel vector becomes a form through ``forms._combine``, so no
code here reads a matrix's rows.  The space keeps every basis it is asked
for, so a window kernel is eliminated once per space.

The spectral projectors are Sylvester's Frobenius covariants of A = F-F+:
the projector onto (r, j) is the Lagrange polynomial prod_{j' != j}
(A - c_{r j'}) / (c_{r j} - c_{r j'}).  ``column_projections`` is the one
path that applies them: it applies the exact coefficients of every label
to the Krylov sequence psi, A psi, ..., A^{m_r} psi, so all projections of
one vector cost m_r applications of A (``edge_projector`` reads the edge
row alone).  The space keeps the coefficient table of each column,
expanded on the column's first projection.  The product of (A - c_{r k}) over
a set of labels is a factor of every projector outside the set, so when
it kills psi, every projection of psi outside the set is zero
(``passes_component_screen``).
"""

from __future__ import annotations

from .forms import (
    FormWindow,
    SpinorForm,
    _add,
    _combine,
    _moves,
    contract,
    operator_matrix,
    wedge,
)
from .linalg import kernel_basis
from .scalars import I, ONE, Scalar, from_pair
from .spinors import clifford_apply
from .symplectic import SymplecticSpace, basis_covector, basis_vector, sharp


# ---------------------------------------------------------------------------
# the five generators


def raising(sp: SymplecticSpace, psi: SpinorForm) -> SpinorForm:
    """F+: (i/2) sum_k eps^k ^ psi-form (x) e_k . psi-spinor."""
    l = sp.l
    out: dict = {}
    table = _moves(2 * l)
    for (idx, e), (a, b) in psi._c.items():
        for k, (nidx, s) in table[idx][0].items():
            if k < l:
                # (i/2) i x^k: the pair -(a, b), over 2d
                _add(out, (nidx, e[:k] + (e[k] + 1,) + e[k + 1 :]), -s * a, -s * b)
            else:
                k -= l
                n = e[k]
                if n:
                    # (i/2) d/dx^k: the pair i (a, b) n = (-b n, a n), over 2d
                    n *= s
                    _add(out, (nidx, e[:k] + (e[k] - 1,) + e[k + 1 :]), -b * n, a * n)
    return SpinorForm._trusted(psi.l, out, 2 * psi._d)


def lowering(sp: SymplecticSpace, psi: SpinorForm) -> SpinorForm:
    """F-: (1/2) sum_k [iota_{e_k} (x) d/dx^k  -  iota_{e_{k+l}} (x) i x^k]."""
    l = sp.l
    out: dict = {}
    table = _moves(2 * l)
    for (idx, e), (a, b) in psi._c.items():
        for k, (nidx, s) in table[idx][1].items():
            if k < l:
                n = e[k]
                if n:
                    # (1/2) d/dx^k: the pair (a, b) n, over 2d
                    n *= s
                    _add(out, (nidx, e[:k] + (e[k] - 1,) + e[k + 1 :]), a * n, b * n)
            else:
                k -= l
                # -(i/2) x^k: the pair -i (a, b) = (b, -a), over 2d
                _add(out, (nidx, e[:k] + (e[k] + 1,) + e[k + 1 :]), s * b, -s * a)
    return SpinorForm._trusted(psi.l, out, 2 * psi._d)


def omega_wedge(sp: SymplecticSpace, psi: SpinorForm) -> SpinorForm:
    """E+ = 2{F+, F+} evaluated in closed form: i * omega-2-form ^ psi."""
    l = sp.l
    pairs = [wedge(basis_covector(sp, k), wedge(basis_covector(sp, k + l), psi)) for k in range(l)]
    return _combine(psi.l, pairs, [(k, I) for k in range(l)])


def omega_trace(sp: SymplecticSpace, psi: SpinorForm) -> SpinorForm:
    """E- = -2{F-, F-} evaluated in closed form: the double contraction
    i * sum_k iota_{e_k} iota_{e_{k+l}} on the form part."""
    l = sp.l
    pairs = [
        contract(sp, basis_vector(sp, k), contract(sp, basis_vector(sp, k + l), psi))
        for k in range(l)
    ]
    return _combine(psi.l, pairs, [(k, I) for k in range(l)])


def ff_plus(sp: SymplecticSpace, psi: SpinorForm) -> SpinorForm:
    """The component-separating operator F-F+."""
    return lowering(sp, raising(sp, psi))


# ---------------------------------------------------------------------------
# triangle bookkeeping and the component scalar table


def m_index(l: int, i: int) -> int:
    return i if i <= l else 2 * l - i


def in_triangle(l: int, i: int, j: int) -> bool:
    return 0 <= i <= 2 * l and 0 <= j <= m_index(l, i)


def triangle_labels(l: int):
    return [(i, j) for i in range(2 * l + 1) for j in range(m_index(l, i) + 1)]


def component_scalar(l: int, i: int, j: int) -> Scalar:
    """Eigenvalue of F-F+ on the (i, j) component.

    (1 + i - j)/8 when i + j is odd, (i + j - 2l)/8 when even.
    """
    if not in_triangle(l, i, j):
        raise ValueError(f"(i, j)=({i}, {j}) outside the component triangle")
    return from_pair(1 + i - j if (i + j) % 2 else i + j - 2 * l, 0, 8)


# ---------------------------------------------------------------------------
# spectral projectors


def _kept(sp: SymplecticSpace, key, build):
    """The table the space keeps under key, built by build() on first use."""
    table = sp._memo.get(key)
    if table is None:
        table = sp._memo[key] = build()
    return table


def _lagrange_table(scalars: list) -> list:
    """Row j: the coefficients, lowest degree first, of Sylvester's
    Lagrange polynomial prod_{k != j} (x - c_k) / (c_j - c_k) on the
    column's scalars c_0, ..., c_m."""
    table = []
    for j, cj in enumerate(scalars):
        poly, denom = [ONE], ONE
        for k, c in enumerate(scalars):
            if k != j:
                # poly * (x - c)
                poly = [a - c * b for a, b in zip([0] + poly, poly + [0])]
                denom = denom * (cj - c)
        table.append([a / denom for a in poly])
    return table


def _krylov(sp: SymplecticSpace, r: int, psi: SpinorForm):
    """The Lagrange table of column r, kept on the space, and the Krylov
    sequence psi, A psi, ..., A^{m_r} psi of A = F-F+."""
    scalars = (component_scalar(sp.l, r, j) for j in range(m_index(sp.l, r) + 1))
    table = _kept(sp, ("lagrange", r), lambda: _lagrange_table(list(scalars)))
    seq = [psi]
    for _ in range(len(table) - 1):
        seq.append(ff_plus(sp, seq[-1]))
    return table, seq


def column_projections(sp: SymplecticSpace, r: int, psi: SpinorForm) -> list:
    """Every spectral projection of a homogeneous r-form, [P_0 psi, ...,
    P_{m_r} psi], from one Krylov sequence psi, A psi, ..., A^{m_r} psi."""
    table, seq = _krylov(sp, r, psi)
    return [_combine(sp.l, seq, enumerate(row)) for row in table]


def passes_component_screen(sp: SymplecticSpace, r: int, js, psi: SpinorForm) -> bool:
    """Whether prod_{k in js} (F-F+ - c_{r k}) kills the r-form psi.

    When it does, the projection of psi onto every (r, k) with k not in js
    is zero: each such projector has the product as a factor, and the
    factors are polynomials in one linear operator, so they commute.  That
    holds for any linear F-F+, a faulty one included.  The converse needs
    psi to be a sum of eigenvectors, so a psi that fails the screen still
    has to be projected."""
    cur = psi
    for k in js:
        cur = ff_plus(sp, cur) - cur.scale(component_scalar(sp.l, r, k))
    return cur.is_zero()


def edge_projector(sp: SymplecticSpace, r: int, psi: SpinorForm) -> SpinorForm:
    """Projector onto the edge component (r, m_r): the edge row of the
    Lagrange table on the Krylov sequence of ``column_projections``."""
    table, seq = _krylov(sp, r, psi)
    return _combine(sp.l, seq, enumerate(table[-1]))


# ---------------------------------------------------------------------------
# exact bases of the edge and of general components on windows


def edge_basis(sp: SymplecticSpace, r: int, D: int, weights=None):
    """Exact basis of the edge component (r, m_r) on the (r, D) window, as a
    first-order kernel; the space keeps the list, under the weight set too,
    and callers only read it.

    Below the halfway degree (0 < r < l) the edge (r, r) is the primitive
    part ker(F-): F+F- acts on (r, j) for j < r by c_{r-1, j}, which is
    never zero.  From the halfway degree on (l <= r < 2l) the edge is
    ker(F+): it tops its F+-chain, and F-F+ = c_{r j} is zero only on the
    edge.  At r = 0 and r = 2l the whole window is one component.  A
    normalised kernel basis depends only on the subspace, so this is the
    basis of component_basis(sp, r, m_r, D), element for element.

    With a set ``weights``, only the window keys of those weights (see
    forms.weight) are columns of the kernel.  F+ and F- keep the weight, so
    their matrix is block-diagonal by weight: each basis vector lies in one
    weight, a column is free exactly when it is on the whole window, and
    the result is the whole-window basis filtered to those weights, element
    for element.  None takes the whole window.
    """
    if weights is not None:
        weights = frozenset(weights)
    return _kept(sp, ("edge", r, D, weights), lambda: _edge_kernel(sp, r, D, weights))


def _edge_kernel(sp: SymplecticSpace, r: int, D: int, weights):
    l = sp.l
    win = FormWindow(l, r, D, weights)
    if r == 0 or r == 2 * l:
        return list(win)
    op = lowering if r < l else raising
    mat = operator_matrix(lambda p: op(sp, p), win)
    return [_combine(l, win, v.items()) for v in kernel_basis(mat)]


def component_basis(sp: SymplecticSpace, r: int, j: int, D: int):
    """Exact basis of the (r, j) component intersected with the window:
    kernel of F-F+ - c_{rj} (the distinct scalars make the eigenvalue a
    faithful label).

    The space keeps the bases of every label of the column (r, D), built
    together on the first label asked; callers only read the lists."""
    if not in_triangle(sp.l, r, j):
        raise ValueError(f"(r, j)=({r}, {j}) outside the component triangle")
    return _kept(sp, ("component", r, D), lambda: _column_bases(sp, r, D))[j]


def _column_bases(sp: SymplecticSpace, r: int, D: int):
    """The component bases of every label of column r on the (r, D) window.

    The F-F+ image of each window element is built once for the column;
    the matrix of label j has the columns images[k] - c_{rj} e_k, built by
    operator_matrix like every other operator matrix."""
    l = sp.l
    win = FormWindow(l, r, D)
    images = [ff_plus(sp, b) for b in win]
    bases = []
    for j in range(m_index(l, r) + 1):
        c = component_scalar(l, r, j)
        mat = operator_matrix(lambda k: images[k] - win[k].scale(c), range(win.dim))
        bases.append([_combine(l, win, v.items()) for v in kernel_basis(mat)])
    return bases


# ---------------------------------------------------------------------------
# the chain model


class ChainModel:
    """F+-chains over degree-truncated primitive vectors.

    chains[(r, j)] holds the vectors (F+)^(r-j) v for v in the degree-D
    primitive basis of (j, j); the spanned space is exactly closed under
    the five operators.  The certificate records the machine-checked
    closure facts."""

    def __init__(self, l: int, D: int, primitive_dims: dict, chains: dict, certificate: dict):
        self.l = l
        self.D = D
        self.primitive_dims = primitive_dims
        self.chains = chains
        self.certificate = certificate

    def degree_slice(self, r):
        return [(j, v) for (rr, j), vec in sorted(self.chains.items()) if rr == r for v in vec]


def chain_model(sp: SymplecticSpace, D: int) -> ChainModel:
    l = sp.l
    chains: dict = {}
    primitive_dims = {}
    lower_in_span = True
    tops_vanish = True
    primitives_primitive = True
    for j in range(l + 1):
        prim = edge_basis(sp, j, D)
        primitive_dims[j] = len(prim)
        for v in prim:
            if not lowering(sp, v).is_zero():
                primitives_primitive = False
        vectors = prim
        for k in range(2 * l - 2 * j + 1):
            chains.setdefault((j + k, j), []).extend(vectors)
            nxt = [raising(sp, w) for w in vectors]
            if k < 2 * l - 2 * j:
                # interior chain step: F- must step back with the component
                # scalar of the level it came from
                c = component_scalar(l, j + k, j)
                for w, wn in zip(vectors, nxt):
                    if not (lowering(sp, wn) - w.scale(c)).is_zero():
                        lower_in_span = False
                vectors = nxt
            else:
                for wn in nxt:
                    if not wn.is_zero():
                        tops_vanish = False
    cert = {
        "primitives_in_lowering_kernel": primitives_primitive,
        "lowering_steps_back_along_chain": lower_in_span,
        "raising_exits_triangle_at_tops": tops_vanish,
    }
    return ChainModel(l, D, primitive_dims, chains, cert)


# ---------------------------------------------------------------------------
# closed-form edge projection of a wedge


def project_wedge(sp: SymplecticSpace, i: int, xi, psi: SpinorForm) -> SpinorForm:
    """Edge projection of xi ^ psi for psi in the edge component of
    i-forms, in closed form.

    Below the halfway degree (i <= l - 1):

        xi ^ psi  +  (2/(i-l)) F+(xi-sharp . psi)
                  +  (i/(i-l)) E+(iota_{xi-sharp} psi)

    and from i >= l on the wedge lands in the edge already, so the
    projection is the wedge itself.  Agrees with edge_projector(i+1,
    wedge(xi, psi)) exactly; the agreement is one of the verified checks,
    not an assumption.
    """
    l = sp.l
    if not (0 <= i <= 2 * l - 1):
        raise ValueError(f"form degree {i} out of range 0..{2 * l - 1}")
    w = wedge(xi, psi)
    if i >= l:
        return w
    xs = sharp(sp, xi)
    beta = from_pair(-2, 0, l - i)  # 2/(i-l)
    gamma = from_pair(0, -1, l - i)  # i/(i-l)
    t1 = raising(sp, clifford_apply(sp, xs, psi)).scale(beta)
    t2 = omega_wedge(sp, contract(sp, xs, psi)).scale(gamma)
    return w + t1 + t2
