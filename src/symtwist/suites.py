"""Report-producing verification suites.

Each suite returns a plain dict: deterministic key order, scalars as
strings, an overall "status" that is "pass" exactly when every enclosed
check passed.  The CLI serializes these unchanged; the acceptance tests
assert on them directly.
"""

from __future__ import annotations

from fractions import Fraction

from .forms import (
    FormWindow,
    contract,
    fits_window,
    operator_matrix,
    wedge,
)
from .linalg import rank
from .osp import (
    chain_model,
    column_projections,
    component_basis,
    component_scalar,
    edge_basis,
    edge_projector,
    ff_plus,
    lowering,
    m_index,
    omega_trace,
    omega_wedge,
    passes_component_screen,
    project_wedge,
    raising,
    triangle_labels,
)
from .scalars import I, Scalar
from .spinors import clifford_apply, commutator_defect
from .symplectic import (
    SymplecticSpace,
    basis_covector,
    basis_vector,
    canonical_covector,
)


def _check(name, ok, **info):
    rec = {"name": name, "status": "pass" if ok else "fail"}
    rec.update(info)
    return rec


def _finish(report, checks):
    report["checks"] = checks
    report["status"] = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    return report


# ---------------------------------------------------------------------------
# relations: the commutation framework


def run_relations(sp: SymplecticSpace, D: int) -> dict:
    l = sp.l
    checks = []

    defects = 0
    pairs = 0
    win = FormWindow(l, 0, D)
    for a in range(2 * l):
        va = basis_vector(sp, a)
        for b in range(2 * l):
            vb = basis_vector(sp, b)
            pairs += 1
            for s in win:
                if not commutator_defect(sp, va, vb, s).is_zero():
                    defects += 1
    checks.append(
        _check("clifford_commutation", defects == 0, basis_pairs=pairs, defects=defects)
    )

    bad = {
        "quadratic_commutator_is_twice_grading": 0,
        "trace_raising_commutator": 0,
        "grading_scalar": 0,
        "omega_wedge_closed_form": 0,
        "omega_trace_closed_form": 0,
        "raising_contraction_anticommutator": 0,
        "lowering_clifford_commutator": 0,
        "wedge_square_zero": 0,
        "contraction_anticommutation": 0,
        "contraction_clifford_commute": 0,
        "parity_reversal": 0,
    }
    half_i = I * Scalar(Fraction(1, 2))
    vectors = [basis_vector(sp, k) for k in range(2 * l)]
    covectors = [basis_covector(sp, k) for k in range(2 * l)]
    total = 0
    for r in range(2 * l + 1):
        fwin = FormWindow(l, r, D)
        half_rl = Scalar(Fraction(r - l, 2))
        for k in range(fwin.dim):
            psi = fwin.element(k)
            total += 1
            # every operator value is computed once per psi and read by
            # each check that needs it; the operators are pure, so each
            # check compares the same two values as a fresh evaluation
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
            (idx, e) = fwin.basis[k]
            par = sum(e) % 2
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
                for b, w in enumerate(vectors):
                    if not (iota2[a][b] + iota2[b][a]).is_zero():
                        bad["contraction_anticommutation"] += 1
                    if contract(sp, v, cliff[b]) != clifford_apply(sp, w, iota[a]):
                        bad["contraction_clifford_commute"] += 1
            for xi in covectors:
                if not wedge(xi, wedge(xi, psi)).is_zero():
                    bad["wedge_square_zero"] += 1
    for name, count in bad.items():
        checks.append(_check(name, count == 0, defects=count, vectors_checked=total))
    return _finish({"suite": "relations", "l": l, "D": D}, checks)


# ---------------------------------------------------------------------------
# decompose: triangle decomposition, scalar table, chain model


def run_decompose(sp: SymplecticSpace, D: int) -> dict:
    l = sp.l
    checks = []
    labels = triangle_labels(l)

    table = {}
    distinct_ok = True
    for r in range(2 * l + 1):
        seen = set()
        for j in range(m_index(l, r) + 1):
            c = component_scalar(l, r, j)
            table[f"({r},{j})"] = str(c)
            if c in seen:
                distinct_ok = False
            seen.add(c)
    checks.append(_check("component_scalars_distinct_per_column", distinct_ok))

    dims = {}
    eigen_bad = 0
    for (r, j) in labels:
        cb = component_basis(sp, r, j, D)
        dims[f"({r},{j})"] = len(cb)
        c = component_scalar(l, r, j)
        for b in cb:
            if not (ff_plus(sp, b) - b.scale(c)).is_zero():
                eigen_bad += 1
    checks.append(_check("eigenvalue_action_on_component_bases", eigen_bad == 0, defects=eigen_bad))

    agree = True
    edge_dims = {}
    for r in range(l, 2 * l + 1):
        kd = len(edge_basis(sp, r, D))
        cd = dims[f"({r},{m_index(l, r)})"]
        edge_dims[str(r)] = {"raising_kernel": kd, "component": cd}
        if kd != cd:
            agree = False
    checks.append(
        _check("edge_equals_raising_kernel_above_halfway", agree, dims=edge_dims)
    )

    cm = chain_model(sp, D)
    for name, ok in cm.certificate.items():
        checks.append(_check(f"chain_{name}", ok))

    indep_ok = True
    resolve_bad = 0
    ortho_bad = 0
    count_ok = True
    chain_dims = {}
    for r in range(2 * l + 1):
        slice_vectors = cm.degree_slice(r)
        if not slice_vectors:
            continue
        mat = operator_matrix(lambda v: v, [v for _j, v in slice_vectors])
        if rank(mat) != len(slice_vectors):
            indep_ok = False
        for (rr, j), vecs in sorted(cm.chains.items()):
            if rr != r:
                continue
            chain_dims[f"({r},{j})"] = len(vecs)
            if len(vecs) != cm.primitive_dims[j]:
                count_ok = False
        for (_j, v) in slice_vectors:
            acc = None
            for j2, pv in enumerate(column_projections(sp, r, v)):
                acc = pv if acc is None else acc + pv
                if j2 != _j and not pv.is_zero():
                    ortho_bad += 1
                if j2 == _j and pv != v:
                    ortho_bad += 1
            if acc != v:
                resolve_bad += 1
    checks.append(_check("chain_vectors_independent", indep_ok))
    checks.append(_check("chain_dims_match_primitives", count_ok, dims=chain_dims))
    checks.append(_check("projectors_resolve_identity_on_chains", resolve_bad == 0, defects=resolve_bad))
    checks.append(_check("projectors_separate_components_on_chains", ortho_bad == 0, defects=ortho_bad))

    # component_basis(sp, r, j, DD) is a kernel basis of F-F+ - c_{rj} on
    # the degree-DD window, so w lies in its span exactly when w fits that
    # window and F-F+ w = c_{rj} w
    span_ok = True
    for (r, j), raised in sorted(cm.chains.items()):
        if r == j:
            continue
        DD = D + (r - j)
        c = component_scalar(l, r, j)
        for w in raised:
            if not fits_window(w, r, DD) or ff_plus(sp, w) != w.scale(c):
                span_ok = False
    checks.append(_check("raised_primitives_inside_component_bases", span_ok))

    covectors = [basis_covector(sp, k) for k in range(2 * l)]
    transfer_bad = 0
    transfer_total = 0
    for (i, j) in labels:
        if i == 2 * l:
            continue
        targets = range(m_index(l, i + 1) + 1)
        near = [k for k in targets if abs(k - j) <= 1]
        far = [k for k in targets if abs(k - j) > 1]
        if not far:
            continue
        for psi in component_basis(sp, i, j, D):
            for xi in covectors:
                w = wedge(xi, psi)
                transfer_total += len(far)
                # a w that passes the screen has no far projection; any
                # other w is projected onto each far label
                if passes_component_screen(sp, i + 1, near, w):
                    continue
                proj = column_projections(sp, i + 1, w)
                transfer_bad += sum(1 for k in far if not proj[k].is_zero())
    checks.append(
        _check(
            "wedge_transfers_to_adjacent_components_only",
            transfer_bad == 0,
            projections_checked=transfer_total,
            defects=transfer_bad,
        )
    )

    report = {
        "suite": "decompose",
        "l": l,
        "D": D,
        "component_scalars": table,
        "component_dims": dims,
        "primitive_dims": {str(j): n for j, n in cm.primitive_dims.items()},
    }
    return _finish(report, checks)


# ---------------------------------------------------------------------------
# project: the closed-form edge projection of a wedge


def run_project(sp: SymplecticSpace, D: int) -> dict:
    l = sp.l
    checks = []
    coeffs = {}
    covectors = [canonical_covector(sp)] + [basis_covector(sp, k) for k in range(2 * l)]
    closed_bad = 0
    normal_bad = 0
    plain_bad = 0
    inputs = 0
    for i in range(2 * l):
        eb = edge_basis(sp, i, D)
        if i <= l - 1:
            a1 = Scalar(Fraction(4, l - i))
            a2 = Scalar(Fraction(16, l - i))
            beta = Scalar(Fraction(2, i - l))
            gamma = I * Scalar(Fraction(1, i - l))
            # closed-form coefficients are fixed multiples of the
            # second-order expansion coefficients; record both
            coeffs[str(i)] = {
                "alpha1": str(a1),
                "alpha2": str(a2),
                "beta": str(beta),
                "gamma": str(gamma),
                "beta_equals_minus_half_alpha1": beta == -(a1 * Scalar(Fraction(1, 2))),
                "gamma_equals_minus_i_alpha2_over_16": gamma == -(I * a2 * Scalar(Fraction(1, 16))),
            }
        for xi in covectors:
            for psi in eb:
                inputs += 1
                a = project_wedge(sp, i, xi, psi)
                w = wedge(xi, psi)
                if a != edge_projector(sp, i + 1, w):
                    closed_bad += 1
                if i <= l - 1:
                    nf = (
                        w
                        + raising(sp, lowering(sp, w)).scale(a1)
                        + raising(sp, raising(sp, lowering(sp, lowering(sp, w)))).scale(a2)
                    )
                    if a != nf:
                        normal_bad += 1
                else:
                    if a != w:
                        plain_bad += 1
    checks.append(
        _check("closed_form_equals_spectral_projection", closed_bad == 0, inputs=inputs, defects=closed_bad)
    )
    checks.append(
        _check("second_order_normal_form_below_halfway", normal_bad == 0, defects=normal_bad)
    )
    checks.append(
        _check("plain_wedge_from_halfway_up", plain_bad == 0, defects=plain_bad)
    )
    coeff_flags = all(
        c["beta_equals_minus_half_alpha1"] and c["gamma_equals_minus_i_alpha2_over_16"]
        for c in coeffs.values()
    )
    checks.append(_check("correction_coefficients_consistent", coeff_flags))
    report = {"suite": "project", "l": l, "D": D, "coefficients": coeffs}
    return _finish(report, checks)
