"""Symbol maps of the twistor operators and the desk-scale exactness check.

The symbol of the r-th twistor operator at a covector xi is the edge
projection of (xi ^ .) restricted to the edge component, computed here in
the closed form of project_wedge.  Two truncated sequences are checked:

* left:   positions 0 .. l-2   (trivial kernel at 0, constructed
          preimages at the interior positions),
* right:  positions l+1 .. 2l  (preimages at the interior positions,
          surjectivity onto the top window at position 2l).

Every check is an exact kernel or an exact linear solve on explicit
windows; failures become report entries, never exceptions.  _position
makes the record of every position, and every solve is in _solutions.
Preimages are searched inside the edge component of a window enlarged by
a configurable slack, because a kernel vector of spinor degree <= D may
only have preimages of a slightly higher degree; the report records how
much slack a position actually used.

A right-side kernel vector with no preimage in the edge component is also
tried against all spinor-valued (i-1)-forms of that window (the junction
diagnostic, a count).  That is a solve on the first-order block matrix
[xi ^ . | F-], with no spectral projector: from the halfway degree on,
the non-edge part of the i-forms is the image of F-, and F+ and F- keep a
weight that bounds the degree of the F- preimage needed, which makes the
window exact (see _untruncated_count).

The weight |e| - #first + #second of a term (forms.weight) grades both
sequences: F+ and F- keep it, and at a covector in one Lagrangian half
every symbol map moves it by the same step (see _weight_step).  There
both the preimage search and the junction diagnostic eliminate only the
window columns whose weight can reach their targets.  Their matrices are
block-diagonal by weight, so every witness, and every report byte, is
the one the whole windows give.

The default covector is the one whose sharp is the first Lagrangian basis
vector.  For covectors whose sharp lies entirely in the second Lagrangian,
Clifford multiplication is not injective on the polynomial spinor model,
so results are flagged as outside the model's injectivity regime.
"""

from __future__ import annotations

from .forms import (
    FormWindow,
    SpinorForm,
    _combine,
    _differing,
    _labelled,
    _labels,
    contract,
    form_to_coords,
    operator_matrix,
    wedge,
    weight,
)
from .linalg import kernel_basis, solve
from .osp import edge_basis, lowering, project_wedge
from .spinors import clifford_apply
from .symplectic import Covector, SymplecticSpace, sharp


def symbol_apply(sp: SymplecticSpace, i: int, xi: Covector, psi: SpinorForm) -> SpinorForm:
    """Symbol map at position i applied to an edge-component element."""
    if xi.is_zero():
        raise ValueError("symbol maps need a nonzero covector")
    return project_wedge(sp, i, xi, psi)


def xi_regime(sp: SymplecticSpace, xi: Covector) -> str:
    xs = sharp(sp, xi)
    if any(xs[: sp.l]):
        return "standard"
    return "pure-derivative (outside polynomial-model injectivity)"


def check_complex(sp: SymplecticSpace, D: int, xi: Covector, xi_label=None) -> dict:
    """Exact zero test of every consecutive symbol composite."""
    if xi.is_zero():
        raise ValueError("need a nonzero covector")
    l = sp.l
    entries = []
    positions = list(range(0, l - 1)) + list(range(l, 2 * l))
    for i in positions:
        note = None
        basis = edge_basis(sp, i, D)
        nonzero = 0
        if i == 2 * l - 1:
            # the next symbol is zero by convention, composite trivially zero
            note = "upper symbol is zero by convention"
        elif basis:
            # every composite at once, basis vector c under the label c
            psi = _labelled(l, basis)
            nonzero = len(_labels(symbol_apply(sp, i + 1, xi, symbol_apply(sp, i, xi, psi))))
        rec = {
            "i": i,
            "side": "left" if i <= l - 2 else "right",
            "dim_domain": len(basis),
            "nonzero_composites": nonzero,
            "status": "pass" if nonzero == 0 else "fail",
        }
        if note:
            rec["note"] = note
        entries.append(rec)
    status = "pass" if all(e["status"] == "pass" for e in entries) else "fail"
    return {
        "l": l,
        "D": D,
        "xi": xi_label if xi_label is not None else describe_covector(xi),
        "xi_regime": xi_regime(sp, xi),
        "composites": entries,
        "status": status,
    }


def check_exactness(sp: SymplecticSpace, D: int, xi: Covector, slack: int = 4, xi_label=None) -> dict:
    """Constructive exactness report for the truncated symbol sequences."""
    if xi.is_zero():
        raise ValueError("need a nonzero covector")
    l = sp.l
    xs = sharp(sp, xi)
    positions = []
    if l == 1:
        positions.append(
            {
                "i": None,
                "side": "left",
                "dim_domain": 0,
                "dim_kernel": 0,
                "preimages_found": 0,
                "status": "vacuous",
                "note": "left truncated sequence has no checkable position",
            }
        )
    for i in [*range(0, l - 1), *range(l + 1, 2 * l + 1)]:
        positions.append(_position(sp, i, D, xi, xs, slack))
    ok = all(p["status"] in ("pass", "vacuous") for p in positions)
    return {
        "l": l,
        "D": D,
        "slack": slack,
        "xi": xi_label if xi_label is not None else describe_covector(xi),
        "xi_regime": xi_regime(sp, xi),
        "positions": positions,
        "status": "pass" if ok else "fail",
    }


def _kernel_forms(sp, i, D, xi):
    basis = edge_basis(sp, i, D)
    mat = operator_matrix(lambda b: symbol_apply(sp, i, xi, b), basis)
    return basis, [_combine(sp.l, basis, v.items()) for v in kernel_basis(mat)]


def _weight_step(sp, xi):
    """How far every symbol map at xi moves the weight (forms.weight): +1
    when xi is a combination of eps^l..eps^{2l-1}, whose sharp lies in the
    first Lagrangian half, -1 when of eps^0..eps^{l-1}, and None when xi
    meets both halves, where the symbol mixes weights.

    Every term of project_wedge moves it alike: the wedge inserts one index
    of xi's half, the Clifford action of the sharp multiplies (+1) or
    differentiates (-1), its contraction removes an index of the other
    half, and F+ and E+ keep the weight."""
    comps = xi.components
    if not any(comps[: sp.l]):
        return 1
    if not any(comps[sp.l :]):
        return -1
    return None


def _solutions(mat, targets):
    """For each target form, a solution x of mat x = target, or None."""
    for phi in targets:
        rhs = form_to_coords(phi, mat.row_index)
        yield None if rhs is None else solve(mat, rhs)


def _preimage_degrees(sp, i_prev, Dbig, xi, targets):
    """Solve sigma_{i_prev}(x) = phi over the edge window at degree Dbig for
    each phi in targets, all on one symbol matrix; returns the spinor degree
    of each witness, None for a target without one.

    When xi lies in one half, the symbol matrix is block-diagonal by weight
    and moves it by the step, so only edge vectors of a target's weights
    minus the step can reach a target.  The columns are those vectors, the
    rest of the window is never eliminated, and each witness is the one the
    whole window gives: the pivots of the kept weights do not change."""
    step = _weight_step(sp, xi)
    weights = None
    if step is not None:
        weights = {weight(sp.l, key) - step for phi in targets for key in phi.keys()}
    basis = edge_basis(sp, i_prev, Dbig, weights)
    mat = operator_matrix(lambda b: symbol_apply(sp, i_prev, xi, b), basis)
    witnesses = [None if x is None else _combine(sp.l, basis, x.items()) for x in _solutions(mat, targets)]
    found = [t for t, w in enumerate(witnesses) if w is not None]
    degrees = [None] * len(targets)
    if found:
        # belt and braces: re-apply the symbol to every witness at once,
        # witness n of found under the label n
        image = symbol_apply(sp, i_prev, xi, _labelled(sp.l, [witnesses[t] for t in found]))
        wrong = _differing(image, _labelled(sp.l, [targets[t] for t in found]))
        for n, t in enumerate(found):
            if n not in wrong:
                degrees[t] = witnesses[t].spinor_degree()
    return degrees


def _position(sp, i, D, xi, xs, slack):
    """The record of position i, left or right: the kernel of the symbol map
    at i, its preimages under the map before, and the left identity counts
    or the right junction diagnostic."""
    l = sp.l
    rec = {"i": i, "side": "left" if i < l else "right"}
    if i == 2 * l:
        # the top window is one component: each basis vector needs a preimage
        kernel = list(FormWindow(l, 2 * l, D))
        rec["dim_domain"] = len(kernel)
        rec["note"] = "top position: upper symbol is zero, kernel is the whole window"
    else:
        basis, kernel = _kernel_forms(sp, i, D, xi)
        rec["dim_domain"] = len(basis)
    rec["dim_kernel"] = len(kernel)
    if i < l:
        # counts, not in the status: they can fail on vectors with
        # preimages; every kernel vector at once, vector c under the label c
        psi = _labelled(l, kernel)
        rec["kernel_contraction_violations"] = len(_labels(contract(sp, xs, psi)))
        squared = clifford_apply(sp, xs, clifford_apply(sp, xs, psi))
        rec["kernel_clifford_square_violations"] = len(_labels(squared))
    if i == 0:
        rec["preimages_found"] = 0
        rec["status"] = "pass" if not kernel else "fail"
        if kernel:
            rec["note"] = "kernel of the first symbol map should be trivial"
        return rec
    degrees = _preimage_degrees(sp, i - 1, D + slack, xi, kernel)
    found = [d for d in degrees if d is not None]
    max_deg = max(found, default=None)
    rec["preimages_found"] = len(found)
    rec["max_preimage_degree"] = max_deg
    rec["slack_used"] = None if max_deg is None else max(0, int(max_deg) - D)
    rec["status"] = "pass" if len(found) == len(kernel) else "fail"
    unreachable = [phi for phi, d in zip(kernel, degrees) if d is None]
    if i > l and unreachable:
        # the junction: preimages among ALL (i-1)-forms, not just the edge
        count = _untruncated_count(sp, i, D, xi, slack, unreachable)
        rec["preimages_from_untruncated_domain"] = len(found) + count
    return rec


def _untruncated_count(sp, i, D, xi, slack, targets):
    """How many of the edge i-forms phi in targets (l < i <= 2l) are
    E(xi ^ p) for some (i-1)-form p of degree <= D + slack, E the edge
    projector.

    From the halfway degree on, the non-edge part of the i-forms is
    F-(Lambda^{i+1} (x) S): F- maps the (i+1, j) component into (i, j) and
    j <= m_{i+1} < m_i, so E F- = 0; and F-F+ acts on each non-edge (i, j)
    by the nonzero scalar c_{ij}, so x = F-(F+ x / c_{ij}) there.  Hence
    phi = E(xi ^ p) exactly when xi ^ p + F-(q) = phi for some (i+1)-form
    q, a solve on the block matrix [xi ^ . | F-] with no projector.  At
    i = 2l the edge is everything and there is no F- block.

    Any solution is a certificate (apply E to both sides), at any degree
    bound Dq on q.  For "no" the window must hold every q that could be
    needed.  F+ and F- keep the weight |e| - #first + #second of a term (its
    spinor degree, minus its form indices in the first Lagrangian half,
    plus those in the second), and so does every spectral projector.  If
    phi = E(xi ^ p), then x = phi - xi ^ p has the weights of xi ^ p, an
    i-form of degree <= D + slack, so weights <= D + slack + 2l - i.
    Weight by weight, x = F-(q) with q = sum_j F+(x_j) / c_{ij} of the same
    weights, and an (i+1)-form of weight w has degree <= w + 2l - i - 1.
    So Dq = D + slack + 2(2l - i) - 1 makes the answer exact.  All targets
    are solved first at Dq = D + slack + 1: its matrix is smaller, and every
    target with a solution found so far had one there, so the exact window
    only confirms the "no" of the targets left.  A solution counts when the
    block map takes its halves, on the (i-1)- and the (i+1)-forms, to phi;
    the halves of every solution are mapped at once, as labelled sums.  The
    columns are the two windows' labelled sums (see
    ``forms.operator_matrix``), and no column form is held beside the
    matrix: holding them raised the peak memory.

    When xi lies in one half, xi ^ . moves the weight by its step (see
    _weight_step) and F- keeps it, so the block matrix is block-diagonal by
    weight: the p of the targets' weights minus the step and the q of their
    weights give the answers of the whole windows, which other xi take.
    """
    l = sp.l
    step = _weight_step(sp, xi)
    first, exact = D + slack + 1, D + slack + 2 * (2 * l - i) - 1
    left = targets
    for Dq in [first] if exact <= first else [first, exact]:
        weights = shifted = None
        if step is not None:
            weights = {weight(l, key) for phi in left for key in phi.keys()}
            shifted = {w - step for w in weights}
        p_win = FormWindow(l, i - 1, D + slack, shifted)
        domain = (p_win,) if i == 2 * l else (p_win, FormWindow(l, i + 1, Dq, weights))
        mat = operator_matrix(lambda psi: _block_image(sp, i, xi, psi), domain)
        xs = list(_solutions(mat, left))
        found = [t for t, x in enumerate(xs) if x is not None]
        # a solution counts when the block map takes its halves to phi;
        # every solution at once, the halves of found[k] under the label k
        n = p_win.dim
        p = [_combine(l, p_win, [(c, z) for c, z in xs[t].items() if c < n]) for t in found]
        q = [_combine(l, domain[-1], [(c - n, z) for c, z in xs[t].items() if c >= n]) for t in found]
        image = wedge(xi, _labelled(l, p)) + lowering(sp, _labelled(l, q))
        wrong = _differing(image, _labelled(l, [left[t] for t in found]))
        ok = {t for k, t in enumerate(found) if k not in wrong}
        left = [phi for t, phi in enumerate(left) if t not in ok]
        if not left:
            break
    return len(targets) - len(left)


def _block_image(sp, i, xi, psi):
    """[xi ^ . | F-] on an (i-1)-form (xi ^ psi) or an (i+1)-form (F- psi)."""
    return wedge(xi, psi) if psi.form_degree() == i - 1 else lowering(sp, psi)


def describe_covector(xi: Covector) -> list:
    return [str(c) for c in xi.components]
