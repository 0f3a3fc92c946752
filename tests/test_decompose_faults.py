"""Fault injection into the decompose suite.

Each case replaces one function by a wrong one, in every ``symtwist``
module that binds it, runs ``run_decompose`` on a small window and compares
the failing checks and their defect counts (``None`` for a check that
counts none) with values recorded once.  The span check, the projector
checks and the transfer check can each be computed in more than one way; a
rewrite that stops seeing one of these faults has made its check vacuous.
The recorded values are not to be rewritten to make a change pass.
"""

from fractions import Fraction

import pytest
from conftest import _failing, _patch_everywhere

from symtwist import forms, osp
from symtwist.forms import SpinorForm, basis_form
from symtwist.scalars import Scalar
from symtwist.suites import run_decompose
from symtwist.symplectic import standard_space


def _raising_doubled(raising):
    """F+ with the factor i where i/2 belongs: every F-F+ scalar doubles."""

    def faulty(sp, psi):
        return raising(sp, psi).scale(Scalar(2))

    return faulty


def _scalar_shifted(component_scalar):
    """c_{21} off by 1/16: the (2, 1) label no longer names an eigenvalue."""

    def faulty(l, i, j):
        c = component_scalar(l, i, j)
        return c + Scalar(Fraction(1, 16)) if (i, j) == (2, 1) else c

    return faulty


def _wedge_unsigned(wedge):
    """xi ^ psi without the sign of the inserted slot; it still raises the
    form degree by one, but no longer moves a component to its neighbours."""

    def faulty(xi, psi):
        out = SpinorForm(psi.l)
        for (idx, e), c in psi.terms.items():
            for k, xk in enumerate(xi.components):
                if xk and k not in idx:
                    out = out + basis_form(psi.l, tuple(sorted(idx + (k,))), e, xk * c)
        return out

    return faulty


# fault -> (original, fault factory, (l, D))
FAULTS = {
    "raising-doubled": (osp.raising, _raising_doubled, (2, 1)),
    "scalar-shifted-21": (osp.component_scalar, _scalar_shifted, (2, 1)),
    # at D=1 every l=2 wedge still transfers to adjacent labels only
    "wedge-unsigned": (forms.wedge, _wedge_unsigned, (2, 2)),
}

# failing check -> defect count under each fault, recorded once
EXPECTED = {
    "raising-doubled": {
        "chain_lowering_steps_back_along_chain": None,
        "projectors_separate_components_on_chains": 51,
        "raised_primitives_inside_component_bases": None,
    },
    "scalar-shifted-21": {
        "chain_lowering_steps_back_along_chain": None,
        "projectors_separate_components_on_chains": 18,
        "raised_primitives_inside_component_bases": None,
        "wedge_transfers_to_adjacent_components_only": 4,
    },
    "wedge-unsigned": {
        "wedge_transfers_to_adjacent_components_only": 6,
    },
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_injected_fault_fails_the_recorded_checks(monkeypatch, fault):
    original, make, (l, D) = FAULTS[fault]
    assert _patch_everywhere(monkeypatch, original, make(original)) >= 2
    report = run_decompose(standard_space(l), D)
    assert report["status"] == "fail"
    assert _failing(report) == EXPECTED[fault]


def test_clean_run_fails_nothing():
    for l, D in sorted({cfg for _o, _m, cfg in FAULTS.values()}):
        assert _failing(run_decompose(standard_space(l), D)) == {}
