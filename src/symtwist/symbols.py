"""Symbol maps of the twistor operators and the desk-scale exactness check.

The symbol of the r-th twistor operator at a covector xi is the edge
projection of (xi ^ .) restricted to the edge component, computed here in
the closed form of project_wedge.  Two truncated sequences are checked:

* left:   positions 0 .. l-2   (trivial kernel at 0, constructed
          preimages at the interior positions),
* right:  positions l+1 .. 2l  (preimages at the interior positions,
          surjectivity onto the top window at position 2l).

Every check is an exact kernel or an exact linear solve on explicit
windows; failures become report entries, never exceptions.  Preimages are
searched inside the edge component of a window enlarged by a configurable
slack, because a kernel vector of spinor degree <= D may only have
preimages of a slightly higher degree; the report records how much slack a
position actually used.

The default covector is the one whose sharp is the first Lagrangian basis
vector.  For covectors whose sharp lies entirely in the second Lagrangian,
Clifford multiplication is not injective on the polynomial spinor model,
so results are flagged as outside the model's injectivity regime.
"""

from __future__ import annotations

from .forms import (
    FormWindow,
    SpinorForm,
    clifford_on_form,
    contract,
    coords_to_form,
    covector_weight_shift,
    form_to_coords,
    operator_matrix,
    wedge,
    weight,
    window_weights,
)
from .linalg import accumulate, kernel_basis, solve
from .osp import component_basis, m_index, project_wedge
from .symplectic import Covector, SymplecticSpace, sharp


def symbol_apply(sp: SymplecticSpace, i: int, xi: Covector, psi: SpinorForm) -> SpinorForm:
    """Symbol map at position i applied to an edge-component element."""
    if xi.is_zero():
        raise ValueError("symbol maps need a nonzero covector")
    return project_wedge(sp, i, xi, psi)


def xi_basis_index(xi: Covector):
    """Index k when xi is a scalar multiple of the k-th basis covector,
    else None.  Single-index covectors unlock the weight-blocked solves."""
    nz = [k for k, c in enumerate(xi.components) if c]
    return nz[0] if len(nz) == 1 else None


def xi_regime(sp: SymplecticSpace, xi: Covector) -> str:
    xs = sharp(sp, xi)
    if any(xs[: sp.l]):
        return "standard"
    return "pure-derivative (outside polynomial-model injectivity)"


def _form_weight(psi: SpinorForm):
    ws = {weight(psi.l, idx, e) for (idx, e) in psi.terms}
    if len(ws) != 1:
        return None
    return ws.pop()


def _wedge_matrix(sp, fn, xi, domain, codomain: FormWindow):
    """Matrix of a map that raises the weight like wedging with xi, with the
    row/col weight keys that block it.

    The keys exist when xi is a multiple of a single basis covector and
    every domain vector has one weight: columns then carry that weight
    shifted by the covector, rows the codomain weights.  Otherwise both key
    lists are None and the matrix is one block.
    """
    mat = operator_matrix(fn, domain, codomain)
    k = xi_basis_index(xi)
    if k is None:
        return mat, None, None
    shift = covector_weight_shift(sp.l, k)
    col_keys = []
    for b in domain:
        w = _form_weight(b)
        if w is None:
            return mat, None, None
        col_keys.append(tuple(a + s for a, s in zip(w, shift)))
    return mat, window_weights(codomain), col_keys


def _symbol_matrix(sp, i, xi, basis, codomain: FormWindow):
    """Matrix of the symbol map over an explicit edge basis, with its keys."""
    return _wedge_matrix(sp, lambda b: symbol_apply(sp, i, xi, b), xi, basis, codomain)


def _combine(basis, coeffs: dict, l) -> SpinorForm:
    out: dict = {}
    for k, c in coeffs.items():
        for key, v in basis[k].terms.items():
            accumulate(out, key, c * v)
    return SpinorForm(l, out)


def _edge_basis(sp, i, D, cache):
    key = (i, D)
    if key not in cache:
        cache[key] = component_basis(sp, i, m_index(sp.l, i), D)
    return cache[key]


def check_complex(sp: SymplecticSpace, D: int, xi: Covector, xi_label=None, _cache=None) -> dict:
    """Exact zero test of every consecutive symbol composite."""
    if xi.is_zero():
        raise ValueError("need a nonzero covector")
    l = sp.l
    cache = {} if _cache is None else _cache
    entries = []
    positions = list(range(0, l - 1)) + list(range(l, 2 * l))
    for i in positions:
        note = None
        if i == 2 * l - 1:
            # the next symbol is zero by convention, composite trivially zero
            nonzero = 0
            note = "upper symbol is zero by convention"
            dim = len(_edge_basis(sp, i, D, cache))
        else:
            basis = _edge_basis(sp, i, D, cache)
            dim = len(basis)
            nonzero = 0
            for b in basis:
                comp = symbol_apply(sp, i + 1, xi, symbol_apply(sp, i, xi, b))
                if not comp.is_zero():
                    nonzero += 1
        rec = {
            "i": i,
            "side": "left" if i <= l - 2 else "right",
            "dim_domain": dim,
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


def check_exactness(sp: SymplecticSpace, D: int, xi: Covector, slack: int = 4, xi_label=None, _cache=None) -> dict:
    """Constructive exactness report for the truncated symbol sequences."""
    if xi.is_zero():
        raise ValueError("need a nonzero covector")
    l = sp.l
    cache = {} if _cache is None else _cache
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
    for i in range(0, l - 1):
        positions.append(_left_position(sp, i, D, xi, xs, slack, cache))
    for i in range(l + 1, 2 * l + 1):
        positions.append(_right_position(sp, i, D, xi, slack, cache))

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


def _kernel_forms(sp, i, D, xi, cache):
    basis = _edge_basis(sp, i, D, cache)
    codomain = FormWindow(sp.l, i + 1, D + 2)
    mat, row_keys, col_keys = _symbol_matrix(sp, i, xi, basis, codomain)
    vecs = kernel_basis(mat, row_keys=row_keys, col_keys=col_keys)
    return basis, [_combine(basis, v, sp.l) for v in vecs]


def _preimage(sp, i_prev, Dbig, xi, phi: SpinorForm, cache):
    """Solve sigma_{i_prev}(x) = phi over the edge window at degree Dbig;
    returns the witness or None."""
    basis = _edge_basis(sp, i_prev, Dbig, cache)
    codomain = FormWindow(sp.l, i_prev + 1, Dbig + 2)
    mat, row_keys, col_keys = _symbol_matrix(sp, i_prev, xi, basis, codomain)
    rhs = {}
    for key, c in phi.terms.items():
        row = codomain.index.get(key)
        if row is None:
            return None
        rhs[row] = c
    x = solve(mat, rhs, row_keys=row_keys, col_keys=col_keys)
    if x is None:
        return None
    witness = _combine(basis, x, sp.l)
    # belt and braces: re-apply the symbol to the witness
    if not (symbol_apply(sp, i_prev, xi, witness) - phi).is_zero():
        return None
    return witness


def _left_position(sp, i, D, xi, xs, slack, cache):
    basis, kernel = _kernel_forms(sp, i, D, xi, cache)
    rec = {
        "i": i,
        "side": "left",
        "dim_domain": len(basis),
        "dim_kernel": len(kernel),
    }
    contraction_violations = 0
    clifford_sq_violations = 0
    for phi in kernel:
        if not contract(sp, xs, phi).is_zero():
            contraction_violations += 1
        if not clifford_on_form(sp, xs, clifford_on_form(sp, xs, phi)).is_zero():
            clifford_sq_violations += 1
    rec["kernel_contraction_violations"] = contraction_violations
    rec["kernel_clifford_square_violations"] = clifford_sq_violations
    if i == 0:
        rec["preimages_found"] = 0
        rec["status"] = "pass" if not kernel else "fail"
        if kernel:
            rec["note"] = "kernel of the first symbol map should be trivial"
        return rec
    found = 0
    max_deg = None
    for phi in kernel:
        w = _preimage(sp, i - 1, D + slack, xi, phi, cache)
        if w is not None:
            found += 1
            d = w.spinor_degree()
            if max_deg is None or d > max_deg:
                max_deg = d
    rec["preimages_found"] = found
    rec["max_preimage_degree"] = max_deg
    rec["slack_used"] = None if max_deg is None else max(0, int(max_deg) - D)
    # status reflects constructed preimages only; the contraction identity
    # of the kernel vectors is reported as its own count (it can fail on
    # kernel vectors that nevertheless have preimages)
    rec["status"] = "pass" if found == len(kernel) else "fail"
    return rec


def _right_position(sp, i, D, xi, slack, cache):
    l = sp.l
    if i == 2 * l:
        # surjectivity onto the top window: every top basis vector needs a
        # preimage (the whole top space is one component)
        top = FormWindow(l, 2 * l, D)
        targets = [top.element(k) for k in range(top.dim)]
        rec = {
            "i": i,
            "side": "right",
            "dim_domain": top.dim,
            "dim_kernel": top.dim,
            "note": "top position: upper symbol is zero, kernel is the whole window",
        }
    else:
        basis, targets = _kernel_forms(sp, i, D, xi, cache)
        rec = {
            "i": i,
            "side": "right",
            "dim_domain": len(basis),
            "dim_kernel": len(targets),
        }
    found = 0
    max_deg = None
    unreachable = []
    for phi in targets:
        w = _preimage(sp, i - 1, D + slack, xi, phi, cache)
        if w is not None:
            found += 1
            d = w.spinor_degree()
            if max_deg is None or d > max_deg:
                max_deg = d
        else:
            unreachable.append(phi)
    rec["preimages_found"] = found
    rec["max_preimage_degree"] = max_deg
    rec["slack_used"] = None if max_deg is None else max(0, int(max_deg) - D)
    rec["status"] = "pass" if found == rec["dim_kernel"] else "fail"
    if unreachable:
        # Diagnostic for the junction phenomenon: kernel vectors typically do
        # have preimages under the projected wedge acting on ALL spinor-valued
        # (i-1)-forms; what fails is reachability from the edge component the
        # preceding twistor operator is actually defined on.
        solver = _untruncated_solver(sp, i, D, xi, slack, cache)
        rec["preimages_from_untruncated_domain"] = found + sum(
            1 for phi in unreachable if solver(phi)
        )
    return rec


def _untruncated_solver(sp, i, D, xi, slack, cache):
    from .osp import edge_projector

    key = ("untruncated", i, D + slack)
    if key not in cache:
        dom = FormWindow(sp.l, i - 1, D + slack)
        cod = FormWindow(sp.l, i, D + slack + 2)
        mat, row_keys, col_keys = _wedge_matrix(
            sp, lambda p: edge_projector(sp, i, wedge(xi, p)), xi, dom, cod
        )
        cache[key] = (mat, cod, row_keys, col_keys)
    mat, cod, row_keys, col_keys = cache[key]

    def attempt(phi):
        rhs = {}
        for kk, c in phi.terms.items():
            row = cod.index.get(kk)
            if row is None:
                return False
            rhs[row] = c
        return solve(mat, rhs, row_keys=row_keys, col_keys=col_keys) is not None

    return attempt


def cartan_preimage(sp: SymplecticSpace, xi: Covector, omega: SpinorForm) -> SpinorForm:
    """Some beta with xi ^ beta = omega, given xi != 0 and xi ^ omega = 0.

    Pure exterior-algebra division: the spinor coefficients ride along
    untouched, so the solve runs degree slice by degree slice.
    """
    if xi.is_zero():
        raise ValueError("need a nonzero covector")
    if not wedge(xi, omega).is_zero():
        raise ValueError("omega is not annihilated by wedging with xi")
    if omega.is_zero():
        return SpinorForm(sp.l)
    r = omega.form_degree()
    if r < 1:
        raise ValueError("need a form of degree >= 1")
    sd = int(omega.spinor_degree())
    dom = FormWindow(sp.l, r - 1, sd)
    cod = FormWindow(sp.l, r, sd)
    mat, row_keys, col_keys = _wedge_matrix(sp, lambda p: wedge(xi, p), xi, dom, cod)
    rhs = form_to_coords(omega, cod)
    x = solve(mat, rhs, row_keys=row_keys, col_keys=col_keys)
    if x is None:
        raise ArithmeticError("exterior division failed; input violates the Cartan condition")
    return coords_to_form(x, dom)


def describe_covector(xi: Covector) -> list:
    return [str(c) for c in xi.components]
