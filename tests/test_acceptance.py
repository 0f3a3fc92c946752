"""Acceptance suite: one test per acceptance criterion, exact tolerances.

Every check here is exact arithmetic (zero defect / exact rank equality /
byte equality); the only numeric knobs are window sizes, fixed below.
Each test prints one summary line so a verbose run reads as a checklist.

Criterion 7 (symbol sequences) is asserted in full faithfulness and is
expected to FAIL in two sub-clauses on this model; the failure is
reproducible, hand-checkable, and analysed in detail in the repository
notes: the first right position past the halfway form degree is not exact
relative to the edge component (a minimal counterexample is
eps^1^eps^2^eps^3 (x) x^1 at l=2), and the kernel contraction identity is
not implied by the kernel condition (its would-be derivation collapses to
0 = 0; concrete violating kernel vectors exist at l=3, D=3).
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

from conftest import window_matrix
from symtwist.forms import FormWindow, wedge
from symtwist.linalg import rank
from symtwist.osp import (
    chain_model,
    column_projections,
    component_basis,
    component_scalar,
    ff_plus,
    m_index,
    triangle_labels,
)
from symtwist.scalars import Scalar
from symtwist.spinors import commutator_defect
from symtwist.suites import run_project, run_relations
from symtwist.symbols import check_complex, check_exactness
from symtwist.symplectic import (
    basis_covector,
    basis_vector,
    canonical_covector,
    standard_space,
)


def _report(name, ok, seconds, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] {name}: {status} in {seconds:.1f}s (budget {budget}s)"
    if detail:
        line += f" -- {detail}"
    print(line)
    return line


def test_criterion_1_clifford_commutation():
    t0 = time.time()
    defects = 0
    for l in (1, 2, 3):
        sp = standard_space(l)
        win = FormWindow(l, 0, 6)
        vecs = [basis_vector(sp, k) for k in range(2 * l)]
        for va in vecs:
            for vb in vecs:
                for s in win:
                    if not commutator_defect(sp, va, vb, s).is_zero():
                        defects += 1
    dt = time.time() - t0
    line = _report("1 clifford commutation", defects == 0 and dt < 10, dt, 10)
    assert defects == 0, line
    assert dt < 10, line


def test_criterion_2_operator_identities():
    # identities on every window basis vector subsume all smaller degree
    # bounds, so one run at the top bound covers D <= 3.  The commutator of
    # the two quadratic operators equals TWICE the grading operator; that is
    # the relation the operator definitions actually satisfy (it is also the
    # form used inside the exactness argument), see notes.
    t0 = time.time()
    bad = []
    for l in (2, 3):
        rep = run_relations(standard_space(l), 3)
        for c in rep["checks"]:
            if c["status"] != "pass":
                bad.append((l, c["name"]))
    dt = time.time() - t0
    line = _report("2 operator identities", not bad and dt < 60, dt, 60, str(bad))
    assert not bad, line
    assert dt < 60, line


def test_criterion_3_component_scalar_table():
    t0 = time.time()
    for l in range(1, 7):
        for r in range(2 * l + 1):
            row = [component_scalar(l, r, j) for j in range(m_index(l, r) + 1)]
            vals = [(c.re, c.im) for c in row]
            assert len(set(vals)) == len(vals), (l, r)
    eigen_bad = 0
    for l in (2, 3):
        sp = standard_space(l)
        for (r, j) in triangle_labels(l):
            c = component_scalar(l, r, j)
            for b in component_basis(sp, r, j, 2):
                if not (ff_plus(sp, b) - b.scale(c)).is_zero():
                    eigen_bad += 1
    dt = time.time() - t0
    line = _report("3 component scalar table", eigen_bad == 0 and dt < 60, dt, 60)
    assert eigen_bad == 0, line
    assert dt < 60, line


def test_criterion_4_chain_model_resolution():
    t0 = time.time()
    problems = []
    for l in (2, 3):
        sp = standard_space(l)
        for D in (0, 1, 2):
            cm = chain_model(sp, D)
            if not all(cm.certificate.values()):
                problems.append((l, D, "certificate"))
            for (r, j), vecs in cm.chains.items():
                if len(vecs) != cm.primitive_dims[j]:
                    problems.append((l, D, f"count ({r},{j})"))
            for r in range(2 * l + 1):
                sl = cm.degree_slice(r)
                if not sl:
                    continue
                win = FormWindow(l, r, D + r)
                if rank(window_matrix(lambda v: v, [v for _j, v in sl], win)) != len(sl):
                    problems.append((l, D, f"rank at degree {r}"))
                for (j, v) in sl:
                    acc = None
                    for k, pv in enumerate(column_projections(sp, r, v)):
                        acc = pv if acc is None else acc + pv
                        if (k == j) != (pv == v) and not (k != j and pv.is_zero()):
                            problems.append((l, D, f"projector ({r},{j},{k})"))
                    if acc != v:
                        problems.append((l, D, f"resolution ({r},{j})"))
    dt = time.time() - t0
    line = _report("4 chain model and projectors", not problems and dt < 120, dt, 120, str(problems[:4]))
    assert not problems, line
    assert dt < 120, line


def test_criterion_5_adjacent_component_transfer():
    t0 = time.time()
    bad = 0
    total = 0
    for l in (2, 3):
        sp = standard_space(l)
        covs = [basis_covector(sp, k) for k in range(2 * l)]
        for (i, j) in triangle_labels(l):
            if i == 2 * l:
                continue
            for psi in component_basis(sp, i, j, 2):
                for xi in covs:
                    w = wedge(xi, psi)
                    for k, pk in enumerate(column_projections(sp, i + 1, w)):
                        if abs(k - j) <= 1:
                            continue
                        total += 1
                        if not pk.is_zero():
                            bad += 1
    dt = time.time() - t0
    line = _report(
        "5 wedge lands in adjacent components", bad == 0 and dt < 120, dt, 120,
        f"{total} projections",
    )
    assert bad == 0, line
    assert dt < 120, line


def test_criterion_6_closed_form_projection():
    t0 = time.time()
    bad = []
    for l in (2, 3):
        rep = run_project(standard_space(l), 2)
        for c in rep["checks"]:
            if c["status"] != "pass":
                bad.append((l, c["name"]))
        for i_str, co in rep["coefficients"].items():
            i = int(i_str)
            assert co["alpha1"] == str(Scalar(Fraction(4, l - i)))
            assert co["alpha2"] == str(Scalar(Fraction(16, l - i)))
            assert co["beta"] == str(Scalar(Fraction(2, i - l)))
            assert co["beta_equals_minus_half_alpha1"] is True
            assert co["gamma_equals_minus_i_alpha2_over_16"] is True
    dt = time.time() - t0
    line = _report("6 closed-form edge projection", not bad and dt < 120, dt, 120, str(bad))
    assert not bad, line
    assert dt < 120, line


def test_criterion_7_symbol_sequences():
    # Faithful rendering of the headline criterion.  KNOWN RED, twice over,
    # with machine-verified counterexamples (see the module docstring and
    # the repository notes); the assertions below state the criterion as
    # specified and are expected to fail until the underlying statement is
    # repaired (truncating the right sequence by one more term would fix
    # the first failure mode).
    t0 = time.time()
    failures = []
    for l in (2, 3):
        sp = standard_space(l)
        xi = canonical_covector(sp)
        for D in range(0, 4):
            cc = check_complex(sp, D, xi)
            if cc["status"] != "pass":
                failures.append(f"l={l} D={D}: nonzero composite")
            ce = check_exactness(sp, D, xi, 4)
            for p in ce["positions"]:
                if p["status"] not in ("pass", "vacuous"):
                    failures.append(
                        f"l={l} D={D}: position {p['i']} ({p['side']}) "
                        f"{p['preimages_found']}/{p['dim_kernel']} preimages"
                    )
                if p["side"] == "left" and p.get("kernel_contraction_violations"):
                    failures.append(
                        f"l={l} D={D}: position {p['i']} contraction identity "
                        f"violated by {p['kernel_contraction_violations']} kernel vectors"
                    )
    dt = time.time() - t0
    line = _report("7 symbol sequence exactness", not failures, dt, 600, "; ".join(failures))
    assert dt < 600, line
    assert not failures, line


# (i, side, status, preimages_found, dim_kernel, kernel_contraction_violations)
# of every position at the canonical covector, slack 4: criterion 7's red
# result, pinned so that a drift in either direction shows.
CRITERION_7_POSITIONS = {
    (2, 1): [(0, "left", "pass", 0, 0, 0), (3, "right", "fail", 1, 3, None),
             (4, "right", "pass", 3, 3, None)],
    (2, 2): [(0, "left", "pass", 0, 0, 0), (3, "right", "fail", 5, 8, None),
             (4, "right", "pass", 6, 6, None)],
    (2, 3): [(0, "left", "pass", 0, 0, 0), (3, "right", "fail", 10, 15, None),
             (4, "right", "pass", 10, 10, None)],
    (3, 1): [(0, "left", "pass", 0, 0, 0), (1, "left", "pass", 0, 0, 0),
             (4, "right", "fail", 1, 6, None), (5, "right", "pass", 10, 10, None),
             (6, "right", "pass", 4, 4, None)],
    (3, 2): [(0, "left", "pass", 0, 0, 0), (1, "left", "pass", 1, 1, 1),
             (4, "right", "fail", 12, 25, None), (5, "right", "pass", 30, 30, None),
             (6, "right", "pass", 10, 10, None)],
    (3, 3): [(0, "left", "pass", 0, 0, 0), (1, "left", "pass", 4, 4, 4),
             (4, "right", "fail", 33, 61, None), (5, "right", "pass", 65, 65, None),
             (6, "right", "pass", 20, 20, None)],
}


def test_criterion_7_red_result_pinned():
    for (l, D), expected in CRITERION_7_POSITIONS.items():
        sp = standard_space(l)
        ce = check_exactness(sp, D, canonical_covector(sp), 4)
        got = [
            (p["i"], p["side"], p["status"], p["preimages_found"], p["dim_kernel"],
             p.get("kernel_contraction_violations"))
            for p in ce["positions"]
        ]
        assert got == expected, (l, D)


def test_criterion_8_curvature_split():
    from symtwist.curvature import (
        random_symmetric_ricci,
        ricci_contract,
        sigma_tilde,
        weyl_part,
    )

    t0 = time.time()
    for l in (1, 2, 3):
        sp = standard_space(l)
        seeds = range(100) if l < 3 else range(25)
        for seed in seeds:
            sig = random_symmetric_ricci(sp, seed)
            R = sigma_tilde(sp, sig)  # constructor re-checks both invariants
            assert weyl_part(sp, R).is_zero(), (l, seed)
            if l == 1:
                from symtwist.curvature import is_ricci_type

                assert is_ricci_type(sp, R), seed
    sp2 = standard_space(2)
    for seed in range(100):
        sig = random_symmetric_ricci(sp2, seed)
        assert ricci_contract(sp2, sigma_tilde(sp2, sig)) == sig, seed
    dt = time.time() - t0
    line = _report("8 curvature split", dt < 30, dt, 30, "reconstruction factor 1 stable")
    assert dt < 30, line


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "symtwist", *args], capture_output=True, text=True
    )


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.time()
    configs = [
        ("relations", "--l", "2", "--degree", "2"),
        ("decompose", "--l", "2", "--degree", "1"),
        ("symbol-check", "--l", "2", "--degree", "1", "--slack", "4"),
        ("gen-curvature", "--l", "3", "--seed", "11"),
    ]
    for cfg in configs:
        a = _run_cli(*cfg)
        b = _run_cli(*cfg)
        assert a.stdout == b.stdout and a.returncode == b.returncode, cfg
        json.loads(a.stdout)  # every report is valid JSON
    dt = time.time() - t0
    _report("9 CLI determinism", True, dt, 120)
