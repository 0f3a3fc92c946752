"""Fault injection into the relations suite.

Each case replaces one operator by a wrong one, in every ``symtwist``
module that binds it, runs ``run_relations`` at l=2, D=1 and compares the
failing checks and their defect counts with values recorded once.  A
rewrite of the suite that reuses operator values must fail exactly the
same checks, with the same counts: a check that stops seeing a fault has
become vacuous.  The recorded values are not to be rewritten to make a
change pass.
"""

import sys

import pytest

from symtwist import forms, osp, spinors
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


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_injected_fault_fails_the_recorded_checks(monkeypatch, fault):
    original, make = FAULTS[fault]
    assert _patch_everywhere(monkeypatch, original, make(original)) >= 2
    report = run_relations(standard_space(2), 1)
    assert report["status"] == "fail"
    assert _failing(report) == EXPECTED[fault]
