"""The weight grading and the weight-restricted symbol-check paths.

Every basis key (idx, e) has the weight |e| - #first + #second
(``forms.weight``).  F+, F- and the spectral projectors keep it, and at a
covector in one Lagrangian half every symbol map moves it by the same step.
``edge_basis`` with a weight set and the preimage search lean on both
facts; these tests check the facts on small windows and the restricted
paths against the whole-window ones.
"""

import pytest

from symtwist import forms, osp, symbols
from symtwist.forms import FormWindow, weight
from symtwist.osp import column_projections, edge_basis, lowering, raising
from symtwist.scalars import Scalar
from symtwist.symbols import _kernel_forms, _preimage_degrees, _weight_step, symbol_apply
from symtwist.symplectic import Covector, basis_covector, canonical_covector, standard_space


def _weights(psi):
    return {weight(psi.l, key) for key in psi.keys()}


def _covector(*comps):
    return Covector(tuple(Scalar(c) for c in comps))


def test_weight_hand_values():
    # l = 2: indices 0, 1 are the first half, 2, 3 the second
    assert weight(2, ((), (0, 0))) == 0
    assert weight(2, ((), (2, 1))) == 3
    assert weight(2, ((0,), (1, 0))) == 0
    assert weight(2, ((3,), (0, 0))) == 1
    assert weight(2, ((0, 1, 2), (0, 1))) == 0
    assert weight(2, ((0, 1, 2, 3), (1, 1))) == 2


@pytest.mark.parametrize("l", [1, 2, 3])
def test_operators_keep_the_weight(l):
    sp = standard_space(l)
    for r in range(2 * l + 1):
        win = FormWindow(l, r, 2)
        for b in win:
            (w,) = _weights(b)
            for image in [raising(sp, b), lowering(sp, b), *column_projections(sp, r, b)]:
                assert _weights(image) <= {w}


def test_weight_step_of_covectors():
    sp = standard_space(3)
    assert _weight_step(sp, canonical_covector(sp)) == 1
    assert _weight_step(sp, _covector(0, 0, 0, 1, -2, "1/2")) == 1
    assert _weight_step(sp, _covector(0, 1, 0, 0, 0, 0)) == -1
    assert _weight_step(sp, _covector(3, 0, -1, 0, 0, 0)) == -1
    assert _weight_step(sp, _covector(1, 0, 0, 0, 0, 1)) is None
    assert [_weight_step(sp, basis_covector(sp, k)) for k in range(6)] == [-1] * 3 + [1] * 3


ONE_HALF_COVECTORS = {
    2: [(0, 0, 1, 0), (0, 0, 1, -3), (1, 0, 0, 0), (2, "1/2", 0, 0)],
    3: [(0, 0, 0, 1, 0, 0), (0, 0, 0, 1, -2, "1/2"), (0, 1, 0, 0, 0, 0), (1, 0, 2, 0, 0, 0)],
}


@pytest.mark.parametrize("l, D", [(2, 2), (3, 1)])
def test_symbol_moves_the_weight_by_its_step(l, D):
    sp = standard_space(l)
    for comps in ONE_HALF_COVECTORS[l]:
        xi = _covector(*comps)
        step = _weight_step(sp, xi)
        for i in range(2 * l):
            for b in edge_basis(sp, i, D):
                (w,) = _weights(b)  # an edge basis vector lies in one weight
                image = symbol_apply(sp, i, xi, b)
                assert _weights(image) <= {w + step}, (comps, i)


def test_symbol_mixes_weights_off_the_halves():
    sp = standard_space(2)
    xi = _covector(1, 0, 0, 1)
    assert _weight_step(sp, xi) is None
    mixed = [symbol_apply(sp, 1, xi, b) for b in edge_basis(sp, 1, 1)]
    assert any(len(_weights(image)) > 1 for image in mixed)


def test_weight_restricted_window_keeps_the_order():
    for l, r, D in [(2, 1, 2), (3, 3, 2), (3, 0, 1), (3, 6, 1)]:
        whole = FormWindow(l, r, D)
        for ws in ({0}, {-1, 2}, {D + r}, set(), set(range(-r, D + r + 1))):
            part = FormWindow(l, r, D, ws)
            assert part.basis == tuple(k for k in whole.basis if weight(l, k) in ws)


@pytest.mark.parametrize("l, D", [(1, 2), (2, 2), (3, 2)])
def test_weighted_edge_basis_is_the_filtered_whole_basis(l, D):
    sp = standard_space(l)
    for r in range(2 * l + 1):
        whole = edge_basis(sp, r, D)
        present = sorted({w for b in whole for w in _weights(b)})
        choices = [{w} for w in present] + [set(present[::2]), {present[0] - 1, present[-1]}, set()]
        for ws in choices:
            assert edge_basis(sp, r, D, ws) == [b for b in whole if _weights(b) <= ws], (r, ws)
        assert edge_basis(sp, r, D, present) == whole


@pytest.mark.parametrize(
    "l, D, comps",
    [
        (2, 1, (0, 0, 1, 0)),
        (2, 2, (0, 1, 0, 0)),
        (2, 2, (0, 0, 1, -3)),
        (3, 1, (0, 0, 0, 1, 0, 0)),
        (3, 1, (0, 1, 0, 0, 0, 0)),
    ],
)
def test_preimage_degrees_match_the_whole_window(monkeypatch, l, D, comps):
    xi = _covector(*comps)
    slack = 2
    cases = []
    for i in list(range(1, l - 1)) + list(range(l + 1, 2 * l)):
        sp = standard_space(l)
        _basis, targets = _kernel_forms(sp, i, D, xi)
        cases.append((i, targets, _preimage_degrees(sp, i - 1, D + slack, xi, targets)))
    monkeypatch.setattr(symbols, "_weight_step", lambda sp, xi: None)
    found = 0
    for i, targets, degrees in cases:
        whole = _preimage_degrees(standard_space(l), i - 1, D + slack, xi, targets)
        assert degrees == whole, i
        found += sum(d is not None for d in degrees)
    assert found > 0


def _column_widths(monkeypatch):
    widths = []
    build = forms.operator_matrix

    def counted(fn, domain):
        mat = build(fn, domain)
        widths.append(mat.cols)
        return mat

    monkeypatch.setattr(osp, "operator_matrix", counted)
    monkeypatch.setattr(symbols, "operator_matrix", counted)
    return widths


def test_symbol_check_builds_only_the_reachable_columns(monkeypatch):
    # the whole windows take 7,814 columns at l=3, D=2, slack 4, the widest
    # 2,400; the weight-restricted preimage and diagnostic matrices 2,315
    sp = standard_space(3)
    xi = canonical_covector(sp)
    widths = _column_widths(monkeypatch)
    symbols.check_complex(sp, 2, xi)
    symbols.check_exactness(sp, 2, xi, 4)
    assert sum(widths) <= 3000
    assert max(widths) <= 1000


def test_off_the_halves_the_preimage_search_takes_the_whole_window(monkeypatch):
    sp = standard_space(2)
    xi = _covector(1, 0, 0, 1)
    widths = _column_widths(monkeypatch)
    _basis, targets = _kernel_forms(sp, 3, 1, xi)
    _preimage_degrees(sp, 2, 3, xi, targets)
    assert widths[-1] == len(edge_basis(sp, 2, 3))
