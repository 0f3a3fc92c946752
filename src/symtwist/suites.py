"""Report-producing verification suites.

Each suite returns a plain dict: deterministic key order, scalars as
strings, an overall "status" that is "pass" exactly when every enclosed
check passed.  The CLI serializes these unchanged; the acceptance tests
assert on them directly.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .forms import (
    FormWindow,
    SpinorForm,
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

# the relations checked on every basis form, in report order
_RELATIONS = (
    "quadratic_commutator_is_twice_grading",
    "trace_raising_commutator",
    "grading_scalar",
    "omega_wedge_closed_form",
    "omega_trace_closed_form",
    "raising_contraction_anticommutator",
    "lowering_clifford_commutator",
    "wedge_square_zero",
    "contraction_anticommutation",
    "contraction_clifford_commute",
    "parity_reversal",
)
_HALF_I = I * Scalar(Fraction(1, 2))


def _labelled(win, cols) -> SpinorForm:
    """The sum over c in cols of the window's basis form c, held under its
    key with c appended to the exponents: psi_c y^c, y a passive variable."""
    return SpinorForm._trusted(win.l, {(i, e + (c,)): (1, 0) for c in cols for i, e in [win.basis[c]]}, 1)


def _columns(x) -> set:
    """The columns of the labelled form x that hold a term."""
    return {e[-1] for (_idx, e) in x.keys()}


def _differ(x, y) -> int:
    """On how many columns the labelled forms x and y differ, compared per
    key and cross-multiplied, as ``SpinorForm.__eq__`` does."""
    mine, theirs, d, f = x._c, y._c, x._d, y._d
    out = {e[-1] for (_idx, e) in mine.keys() ^ theirs.keys()}
    for key, (a, b) in mine.items():
        t = theirs.get(key)
        if t is not None and (a * f != t[0] * d or b * f != t[1] * d):
            out.add(key[1][-1])
    return len(out)


def _window_defects(sp, win, cols, vectors, covectors, bad) -> None:
    """Add to ``bad[name]`` on how many of the window's columns in cols each
    relation fails, checked once on their ``_labelled`` sum (the y^c part of
    a side is that side on psi_c); each failing ordered pair (a, b) counts."""
    psi = _labelled(win, cols)
    fplus = raising(sp, psi)
    fminus = lowering(sp, psi)
    eplus = omega_wedge(sp, psi)
    eminus = omega_trace(sp, psi)
    h = (raising(sp, fminus) + lowering(sp, fplus)).scale(2)
    iota = [contract(sp, v, psi) for v in vectors]
    cliff = [clifford_apply(sp, v, psi) for v in vectors]
    lhs = omega_wedge(sp, eminus) - omega_trace(sp, eplus)
    bad["quadratic_commutator_is_twice_grading"] += _differ(lhs, h.scale(2))
    bad["trace_raising_commutator"] += _differ(omega_trace(sp, fplus) - raising(sp, eminus), -fminus)
    bad["grading_scalar"] += _differ(h, psi.scale(Fraction(win.r - win.l, 2)))
    bad["omega_wedge_closed_form"] += _differ(eplus, raising(sp, fplus).scale(4))
    bad["omega_trace_closed_form"] += _differ(eminus, lowering(sp, fminus).scale(-4))
    # a column fails when F+ or F- gives it a term of its own parity
    bad["parity_reversal"] += len({
        e[-1] for img in (fplus, fminus) for (_i, e) in img.keys()
        if (sum(e[:-1]) - sum(win.basis[e[-1]][1])) % 2 == 0
    })
    for a, v in enumerate(vectors):
        lhs = raising(sp, iota[a]) + contract(sp, v, fplus)
        bad["raising_contraction_anticommutator"] += _differ(lhs, cliff[a].scale(_HALF_I))
        lhs = lowering(sp, cliff[a]) - clifford_apply(sp, v, fminus)
        bad["lowering_clifford_commutator"] += _differ(lhs, iota[a].scale(_HALF_I))
        # iota_a iota_a psi, then the sums of (a, b) and (b, a), pair by pair
        bad["contraction_anticommutation"] += len(_columns(contract(sp, v, iota[a])))
        for b in range(a + 1, len(vectors)):
            both = contract(sp, v, iota[b]) + contract(sp, vectors[b], iota[a])
            bad["contraction_anticommutation"] += 2 * len(_columns(both))
        for b, w in enumerate(vectors):
            rhs = clifford_apply(sp, w, iota[a])
            bad["contraction_clifford_commute"] += _differ(contract(sp, v, cliff[b]), rhs)
    for xi in covectors:
        bad["wedge_square_zero"] += len(_columns(wedge(xi, wedge(xi, psi))))


def run_relations(sp: SymplecticSpace, D: int) -> dict:
    """The commutation identities on every basis form of the degree-D
    windows, each checked once per window on the labelled sum of the basis
    forms of a share (``_share_count``, ``_in_shares``); the counts are
    sums, so the report does not depend on the split.  No labelled form
    leaves: weight, fits_window and spinor_degree would misread one."""
    l = sp.l
    vectors = [basis_vector(sp, k) for k in range(2 * l)]
    covectors = [basis_covector(sp, k) for k in range(2 * l)]
    pairs = [(v, w) for v in vectors for w in vectors]
    spinors = FormWindow(l, 0, D)
    # the windows of form degree 0..2l hold 4^l times the spinor window's forms
    shares = _share_count(spinors.dim << (2 * l))

    def work(share):
        spin = _labelled(spinors, range(spinors.dim))
        clifford = sum(len(_columns(commutator_defect(sp, v, w, spin))) for v, w in pairs[share::shares])
        bad = dict.fromkeys(_RELATIONS, 0)
        before = checked = 0  # the forms of the earlier windows; the forms this share checks
        for r in range(2 * l + 1):
            win = FormWindow(l, r, D)
            # this share takes every shares-th form of the windows in turn
            cols = range((share - before) % shares, win.dim, shares)
            before += win.dim
            checked += len(cols)
            if cols:
                _window_defects(sp, win, cols, vectors, covectors, bad)
        return {"clifford_commutation": clifford, "relations": bad, "vectors_checked": checked}

    results = _in_shares(work, shares)
    clifford = sum(res["clifford_commutation"] for res in results)
    total = sum(res["vectors_checked"] for res in results)
    checks = [_check("clifford_commutation", clifford == 0, basis_pairs=len(pairs), defects=clifford)]
    for name in _RELATIONS:
        count = sum(res["relations"][name] for res in results)
        checks.append(_check(name, count == 0, defects=count, vectors_checked=total))
    return _finish({"suite": "relations", "l": l, "D": D}, checks)


# the most shares one call splits into, however many CPUs the host has:
# each child costs a fork and a copy of the pages its share writes
_MAX_SHARES = 8
# SIGKILL, the same number on every POSIX system; the CLI does not load the
# signal module
_SIGKILL = 9


def _share_count(n: int) -> int:
    """Into how many shares to split n independent checks: one per CPU
    this process may use, at most n and _MAX_SHARES, and 1 without
    ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n, _MAX_SHARES))


def _in_shares(work, n: int) -> list:
    """[work(0), ..., work(n - 1)] in some order, for a ``work(share)``
    that returns JSON data.  Share 0 runs here and every other share in a
    forked child, which sends its result back over a pipe, up to the first
    share whose pipe or fork fails: it and the later ones run here too.  A
    child that raises or exits nonzero makes this raise RuntimeError naming
    its share; if a share here raises, the children are killed first.  No
    child outlives the call.  The package starts no thread, so a child
    inherits no lock that another thread holds."""
    pids = {}  # share -> pid, until reaped
    fds = {}  # share -> read end of its pipe, until closed
    try:
        for share in range(1, n):
            try:
                fds[share], w = os.pipe()
                try:
                    pid = os.fork()
                    if pid == 0:
                        _reply(work, share, w)
                finally:
                    os.close(w)
            except OSError:
                break  # this share and the later ones run here; its read end closes below
            pids[share] = pid
        results = [work(share) for share in (0, *range(len(pids) + 1, n))]
        for share in sorted(pids):
            with open(fds.pop(share), "rb") as fh:
                data = fh.read()
            status = os.waitpid(pids.pop(share), 0)[1]
            if status:
                why = data.decode(errors="replace") or f"wait status {status}"
                raise RuntimeError(f"relations share {share} of {n} failed: {why}")
            results.append(json.loads(data))
        return results
    finally:
        for r in fds.values():
            os.close(r)
        for pid in pids.values():
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)


def _reply(work, share: int, fd: int) -> None:
    """In a forked child: write work(share) as JSON to fd, or the exception
    it raised, and leave through ``os._exit``, so that no exit handler or
    pending cleanup of the parent's stack runs twice."""
    status = 1
    try:
        try:
            data, ok = json.dumps(work(share)), True
        except Exception as exc:
            data, ok = f"{type(exc).__name__}: {exc}", False
        data = data.encode()
        while data:
            data = data[os.write(fd, data) :]
        status = 0 if ok else 1
    finally:
        os._exit(status)


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
