"""The relations suite against its per-form reference.

``run_relations`` checks each relation on whole windows of basis forms.
The first test compares its defect counts with ``ref_form_defects``
summed over every basis form, with and without the faults of
``test_relations_faults``, at one, two and three shares.  The next ones
check the split: the shares partition each window's basis forms into
whole index-tuple groups, and the split is sized by index tuples.  The second checks
what the batching rests on: every operator the suite applies reads and
changes only the first l exponent entries of a key and carries the rest.
The last pins how many operator calls one run makes.
"""

from fractions import Fraction

import pytest
from conftest import _patch_everywhere, ref_form_defects
from test_relations_faults import FAULTS

from symtwist import spinors, suites
from symtwist.forms import FormWindow, SpinorForm, contract, wedge
from symtwist.osp import lowering, omega_trace, omega_wedge, raising
from symtwist.scalars import Scalar
from symtwist.spinors import clifford_apply, commutator_defect
from symtwist.suites import run_relations
from symtwist.symplectic import Covector, basis_covector, basis_vector, standard_space


def _reference_counts(sp, D):
    """check name -> defect count, one basis form and one spinor at a time."""
    l = sp.l
    vectors = [basis_vector(sp, k) for k in range(2 * l)]
    covectors = [basis_covector(sp, k) for k in range(2 * l)]
    clifford = 0
    for v in vectors:
        for w in vectors:
            for s in FormWindow(l, 0, D):
                if not spinors.commutator_defect(sp, v, w, s).is_zero():
                    clifford += 1
    bad = dict.fromkeys(suites._RELATIONS, 0)
    for r in range(2 * l + 1):
        win = FormWindow(l, r, D)
        half_rl = Scalar(Fraction(r - l, 2))
        for k in range(win.dim):
            ref_form_defects(sp, win.element(k), win.basis[k], half_rl, vectors, covectors, bad)
    return {"clifford_commutation": clifford, **bad}


@pytest.mark.parametrize("fault", [None, *sorted(FAULTS)])
@pytest.mark.parametrize("l, D", [(2, 0), (2, 1), (2, 2), (3, 1)])
def test_window_counts_match_the_per_form_reference(monkeypatch, l, D, fault):
    if fault is not None:
        original, make = FAULTS[fault]
        _patch_everywhere(monkeypatch, original, make(original))
    sp = standard_space(l)
    want = _reference_counts(sp, D)
    forms_checked = sum(FormWindow(l, r, D).dim for r in range(2 * l + 1))
    for shares in (1, 2, 3):
        monkeypatch.setattr(suites, "_share_count", lambda n, shares=shares: shares)
        checks = run_relations(sp, D)["checks"]
        assert {c["name"]: c["defects"] for c in checks} == want, shares
        assert checks[0]["basis_pairs"] == (2 * l) ** 2
        assert {c["vectors_checked"] for c in checks[1:]} == {forms_checked}


@pytest.mark.parametrize("shares", [1, 2, 3, 5])
@pytest.mark.parametrize("l, D", [(1, 2), (2, 1), (3, 2)])
def test_shares_partition_each_window_into_whole_index_groups(l, D, shares):
    split = [list(suites._share_windows(l, D, s, shares)) for s in range(shares)]
    tuples = [0] * shares  # index tuples per share, over all windows
    for r in range(2 * l + 1):
        win = FormWindow(l, r, D)
        group = {}  # index tuple -> the columns of its basis forms
        for c, (idx, _e) in enumerate(win.basis):
            group.setdefault(idx, set()).add(c)
        taken = []
        for s in range(shares):
            w, psi = split[s][r]
            assert w.basis == win.basis
            # each term is basis form c of the window, under the label c
            assert all(win.basis[e[-1]] == (idx, e[:-1]) for idx, e in psi.keys())
            labels = [e[-1] for _idx, e in psi.keys()]
            held = {idx for idx, _e in psi.keys()}
            assert sorted(labels) == sorted(c for idx in held for c in group[idx])
            taken += labels
            tuples[s] += len(held)
        assert sorted(taken) == list(range(win.dim)), r
    # every shares-th tuple of the windows in turn: the tuple counts differ by
    # at most one, and all 4^l tuples are taken
    assert max(tuples) - min(tuples) <= 1
    assert sum(tuples) == 4**l


def test_the_split_is_sized_by_index_tuples(monkeypatch):
    asked = []
    monkeypatch.setattr(suites, "_share_count", lambda n: asked.append(n) or 1)
    for l in (1, 2, 3):
        run_relations(standard_space(l), 1)
    assert asked == [4, 16, 64]


def _operators(sp):
    """(name, psi -> form) for every operator the suite applies, on the
    basis vectors and covectors and on one vector with a component in
    each Lagrangian half, one of them Gaussian."""
    l = sp.l
    odd = [Scalar(0)] * (2 * l)
    odd[0], odd[-1] = Scalar(2), Scalar(Fraction(1, 2), Fraction(-1, 3))
    vectors = [basis_vector(sp, k) for k in range(2 * l)] + [tuple(odd)]
    covectors = [basis_covector(sp, k) for k in range(2 * l)] + [Covector(tuple(odd))]
    ops = [(f.__name__, lambda psi, f=f: f(sp, psi)) for f in (raising, lowering, omega_wedge, omega_trace)]
    for a, v in enumerate(vectors):
        ops.append((f"contract[{a}]", lambda psi, v=v: contract(sp, v, psi)))
        ops.append((f"clifford_apply[{a}]", lambda psi, v=v: clifford_apply(sp, v, psi)))
        ops.extend(
            (f"commutator_defect[{a},{b}]", lambda psi, v=v, w=w: commutator_defect(sp, v, w, psi))
            for b, w in enumerate(vectors)
        )
    for a, xi in enumerate(covectors):
        ops.append((f"wedge[{a}]", lambda psi, xi=xi: wedge(xi, psi)))
    return ops


@pytest.mark.parametrize("l, D", [(l, D) for l in (1, 2, 3) for D in (0, 1, 2)])
def test_operators_carry_a_passive_label(l, D):
    # the basis form c of a window, held under its key with c appended to
    # the exponents, is psi_c y^c in a variable y no operator reads: each
    # operator on the sum of the labelled forms is the labelled sum of its
    # images of the single forms
    sp = standard_space(l)
    ops = _operators(sp)
    for r in range(2 * l + 1):
        win = FormWindow(l, r, D)
        labelled = SpinorForm(l, {(idx, e + (c,)): 1 for c, (idx, e) in enumerate(win.basis)})
        for name, op in ops:
            if name.startswith("commutator_defect") and r:
                continue
            want = {}
            for c in range(win.dim):
                want.update(((idx, e + (c,)), z) for (idx, e), z in op(win.element(c)).terms.items())
            assert op(labelled) == SpinorForm(l, want), (r, name)


def test_operator_calls_per_window(monkeypatch):
    # each relation is evaluated once per window and the Clifford relation
    # once per vector pair: one share at l=3, D=2 makes 102 contractions,
    # 48 Clifford actions and 10 raisings per window (seven windows), and
    # 4 Clifford actions per pair (36 pairs); one evaluation per basis form
    # made 65,280 contractions
    monkeypatch.setattr(suites, "_share_count", lambda n: 1)
    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        calls[name] = 0
        return wrapper

    for fn in (contract, clifford_apply, raising):
        assert _patch_everywhere(monkeypatch, fn, counted(fn.__name__, fn)) >= 2
    assert run_relations(standard_space(3), 2)["status"] == "pass"
    assert calls == {"contract": 714, "clifford_apply": 480, "raising": 70}
