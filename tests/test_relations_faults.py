"""Fault injection into the relations suite.

Each case replaces one operator by a wrong one, in every ``symtwist``
module that binds it, runs ``run_relations`` at l=2, D=1 and compares the
failing checks and their defect counts with values recorded once, with
the checks run in one share and in two.  A rewrite of the suite that
reuses operator values must fail exactly the same checks, with the same
counts: a check that stops seeing a fault has become vacuous.  The
recorded values are not to be rewritten to make a change pass.

The last tests fail an operator in a forked share or in the calling
process and check that the failure is reported and no child is left, and
fail a pipe or a fork and check that its share runs in the calling
process.
"""

import errno
import os
import sys

import pytest

from symtwist import forms, osp, spinors, suites
from symtwist.forms import SpinorForm, basis_form
from symtwist.scalars import I, Scalar
from symtwist.suites import run_relations
from symtwist.symplectic import standard_space


def _contract_sign_flipped(contract):
    def faulty(sp, v, psi):
        return -contract(sp, v, psi)

    return faulty


def _contract_unsigned(contract):
    """iota_v without the sign of the removed slot; the sign rule is what
    makes contractions anticommute."""

    def faulty(sp, v, psi):
        out = SpinorForm(psi.l)
        for (idx, e), c in psi.terms.items():
            for k, vk in enumerate(v):
                if vk and k in idx:
                    rest = tuple(j for j in idx if j != k)
                    out = out + basis_form(psi.l, rest, e, vk * c)
        return out

    return faulty


def _clifford_drops_i(clifford_apply):
    """e_k . s = x^k s on the first Lagrangian instead of i x^k s."""

    def faulty(sp, v, psi):
        l = sp.l
        zero = Scalar(0)
        first = tuple(c if k < l else zero for k, c in enumerate(v))
        second = tuple(zero if k < l else c for k, c in enumerate(v))
        return clifford_apply(sp, first, psi).scale(-I) + clifford_apply(sp, second, psi)

    return faulty


def _raising_drops_half(raising):
    """F+ with the factor i where i/2 belongs."""

    def faulty(sp, psi):
        return raising(sp, psi).scale(Scalar(2))

    return faulty


FAULTS = {
    "contract-sign": (forms.contract, _contract_sign_flipped),
    "contract-unsigned": (forms.contract, _contract_unsigned),
    "clifford-drops-i": (spinors.clifford_apply, _clifford_drops_i),
    "raising-drops-half": (osp.raising, _raising_drops_half),
}

# failing check -> defect count under each fault, recorded once
EXPECTED = {
    "contract-sign": {
        "lowering_clifford_commutator": 96,
        "raising_contraction_anticommutator": 128,
    },
    "contract-unsigned": {
        "contraction_anticommutation": 144,
        "lowering_clifford_commutator": 36,
        "omega_trace_closed_form": 12,
        "quadratic_commutator_is_twice_grading": 21,
        "raising_contraction_anticommutator": 82,
        "trace_raising_commutator": 27,
    },
    "clifford-drops-i": {
        "clifford_commutation": 12,
        "lowering_clifford_commutator": 48,
        "raising_contraction_anticommutator": 96,
    },
    "raising-drops-half": {
        "grading_scalar": 30,
        "omega_wedge_closed_form": 21,
        "quadratic_commutator_is_twice_grading": 30,
        "raising_contraction_anticommutator": 128,
        "trace_raising_commutator": 40,
    },
}


def _patch_everywhere(monkeypatch, original, replacement):
    patched = 0
    for name, mod in list(sys.modules.items()):
        if name != "symtwist" and not name.startswith("symtwist."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                monkeypatch.setattr(mod, attr, replacement)
                patched += 1
    return patched


def _failing(report):
    return {c["name"]: c["defects"] for c in report["checks"] if c["status"] == "fail"}


@pytest.mark.parametrize(
    "fault, shares",
    [
        pytest.param(fault, shares, id=fault if shares == 1 else f"{fault}-{shares}-shares")
        for shares in (1, 2)
        for fault in sorted(FAULTS)
    ],
)
def test_injected_fault_fails_the_recorded_checks(monkeypatch, fault, shares):
    # with two shares, the forms of share 1 are checked in a forked child:
    # a fault seen only there must still reach the report
    monkeypatch.setattr(suites, "_share_count", lambda n: shares)
    original, make = FAULTS[fault]
    assert _patch_everywhere(monkeypatch, original, make(original)) >= 2
    report = run_relations(standard_space(2), 1)
    assert report["status"] == "fail"
    assert _failing(report) == EXPECTED[fault]


class _ParentFault(Exception):
    pass


def _fail_in_child(raising, how):
    parent = os.getpid()

    def faulty(sp, psi):
        if os.getpid() != parent:
            if how == "exit":
                os._exit(3)
            raise ValueError("raising failed in a child")
        return raising(sp, psi)

    return faulty


def _fail_in_parent(sp, psi):
    raise _ParentFault


def _assert_no_child_left():
    # waitpid(-1) raises only when this process has no child at all, not
    # even an unreaped one
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("how", ["raise", "exit"])
def test_a_failing_child_share_raises_runtime_error(monkeypatch, how):
    monkeypatch.setattr(suites, "_share_count", lambda n: 2)
    _patch_everywhere(monkeypatch, osp.raising, _fail_in_child(osp.raising, how))
    with pytest.raises(RuntimeError, match="relations share 1 of 2 failed"):
        run_relations(standard_space(2), 1)
    _assert_no_child_left()


def test_a_failing_parent_share_raises_its_own_error(monkeypatch):
    monkeypatch.setattr(suites, "_share_count", lambda n: 3)
    _patch_everywhere(monkeypatch, osp.raising, _fail_in_parent)
    with pytest.raises(_ParentFault):
        run_relations(standard_space(2), 1)
    _assert_no_child_left()


def test_a_passing_run_leaves_no_child(monkeypatch):
    monkeypatch.setattr(suites, "_share_count", lambda n: 2)
    assert run_relations(standard_space(2), 1)["status"] == "pass"
    _assert_no_child_left()


@pytest.mark.parametrize("call, failing", [("fork", 1), ("fork", 2), ("pipe", 2)])
def test_a_failed_pipe_or_fork_runs_the_share_in_the_process(monkeypatch, tmp_path, call, failing):
    # call number ``failing`` of os.fork or os.pipe in a 3-share run fails
    # as under a process or descriptor limit; that share and every later
    # one run in this process instead
    from symtwist.cli import main

    args = ["relations", "--l", "2", "--degree", "1", "--out"]
    monkeypatch.setattr(suites, "_share_count", lambda n: 1)
    assert main([*args, str(tmp_path / "one.json")]) == 0
    real, calls = getattr(os, call), []

    def flaky():
        calls.append(None)
        if len(calls) == failing:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return real()

    monkeypatch.setattr(os, call, flaky)
    monkeypatch.setattr(suites, "_share_count", lambda n: 3)
    assert main([*args, str(tmp_path / "three.json")]) == 0
    assert len(calls) == failing
    assert (tmp_path / "three.json").read_bytes() == (tmp_path / "one.json").read_bytes()
    _assert_no_child_left()
