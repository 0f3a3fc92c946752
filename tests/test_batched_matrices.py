"""The batched operator matrices against the column-at-a-time builder.

``forms.operator_matrix`` applies its map once to the labelled sum of
the domain and reads column c from the label c; ``ref_operator_matrix``
in ``conftest`` applies the map to each domain form on its own.  On every
window with l <= 2 and D <= 2 the two must give the same ``.entries``
(canonical Scalars, so the column denominators do not matter) and the
same ``row_index``, for F+, F- and F-F+ - c as ``osp`` builds them, for
the symbol maps at three covectors and for both halves of the block
matrix of the untruncated diagnostic.
"""

from fractions import Fraction

import pytest
from conftest import ref_operator_matrix

from symtwist import osp, symbols
from symtwist.forms import FormWindow, operator_matrix, wedge
from symtwist.osp import component_basis, component_scalar, ff_plus, lowering, m_index, raising
from symtwist.scalars import Scalar
from symtwist.symbols import check_complex, check_exactness
from symtwist.symplectic import Covector, canonical_covector, standard_space

WINDOWS = [(l, D) for l in (1, 2) for D in (0, 1, 2)]


def _assert_same(mat, ref):
    assert mat.entries == ref.entries
    assert mat.row_index == ref.row_index
    assert (mat.rows, mat.cols) == (ref.rows, ref.cols)


def _flat(domain):
    """The forms of a domain, a tuple of windows taken in turn."""
    if isinstance(domain, tuple):
        return [b for win in domain for b in win]
    return list(domain)


@pytest.mark.parametrize("l, D", WINDOWS)
def test_generator_matrices_match_the_column_builder(l, D):
    sp = standard_space(l)
    for r in range(2 * l + 1):
        win = FormWindow(l, r, D)
        for op in (raising, lowering):
            fn = lambda psi, op=op: op(sp, psi)  # noqa: E731
            _assert_same(operator_matrix(fn, win), ref_operator_matrix(fn, list(win)))


@pytest.mark.parametrize("l, D", WINDOWS)
def test_component_label_matrices_match_the_column_builder(monkeypatch, l, D):
    # _column_bases applies F-F+ once to the labelled window and builds the
    # matrix of each label from that image; the reference applies
    # F-F+ - c_rj to each window element on its own
    sp = standard_space(l)
    built = []
    build = osp.operator_matrix

    def kept(fn, domain):
        mat = build(fn, domain)
        built.append(mat)
        return mat

    monkeypatch.setattr(osp, "operator_matrix", kept)
    for r in range(2 * l + 1):
        del built[:]
        component_basis(sp, r, 0, D)
        win = FormWindow(l, r, D)
        assert len(built) == m_index(l, r) + 1
        for j, mat in enumerate(built):
            c = component_scalar(l, r, j)
            ref = ref_operator_matrix(lambda psi, c=c: ff_plus(sp, psi) - psi.scale(c), list(win))
            _assert_same(mat, ref)


def _covectors(l):
    """The canonical covector, one in the first Lagrangian half and one
    that meets both halves, with non-unit denominators."""
    half = Scalar(Fraction(-1, 2))
    first = [Scalar(0)] * (2 * l)
    first[l - 1] = half
    mixed = [Scalar(0)] * (2 * l)
    mixed[0], mixed[-1] = Scalar(Fraction(1, 3)), Scalar(2, -1)
    sp = standard_space(l)
    return {
        "canonical": canonical_covector(sp),
        "first-half": Covector(tuple(first)),
        "mixed": Covector(tuple(mixed)),
    }


@pytest.mark.parametrize("xi_name", ["canonical", "first-half", "mixed"])
@pytest.mark.parametrize("l, D", WINDOWS)
def test_symbol_and_block_matrices_match_the_column_builder(monkeypatch, l, D, xi_name):
    # every matrix a symbol check builds (the symbol maps, the preimage
    # maps and the block matrix [xi ^ . | F-]) is compared with the
    # column-at-a-time builder on the same map and domain
    xi = _covectors(l)[xi_name]
    build = symbols.operator_matrix
    seen = {"symbol": 0, "wedge half": 0, "lowering half": 0}

    def compared(fn, domain):
        mat = build(fn, domain)
        _assert_same(mat, ref_operator_matrix(fn, _flat(domain)))
        if isinstance(domain, tuple):
            seen["wedge half"] += 1
            seen["lowering half"] += len(domain) == 2
        else:
            seen["symbol"] += 1
        return mat

    monkeypatch.setattr(symbols, "operator_matrix", compared)
    sp = standard_space(l)
    check_complex(sp, D, xi)
    check_exactness(sp, D, xi, 1)
    assert seen["symbol"] > 0
    if (l, D) in [(2, 1), (2, 2)]:
        # kernel vectors at position l + 1 reach the diagnostic there
        assert seen["wedge half"] and seen["lowering half"]


@pytest.mark.parametrize("xi_name", ["canonical", "first-half", "mixed"])
@pytest.mark.parametrize("l, D", WINDOWS)
def test_both_block_halves_match_the_column_builder(l, D, xi_name):
    # the untruncated diagnostic's block matrix on whole windows, its
    # (i-1)-form half alone at i = 2l and both halves below
    xi = _covectors(l)[xi_name]
    sp = standard_space(l)
    for i in range(l + 1, 2 * l + 1):
        domain = (FormWindow(l, i - 1, D),)
        if i < 2 * l:
            domain += (FormWindow(l, i + 1, D + 1),)
        fn = lambda psi, i=i: symbols._block_image(sp, i, xi, psi)  # noqa: E731
        ref = ref_operator_matrix(
            lambda b, i=i: wedge(xi, b) if b.form_degree() == i - 1 else lowering(sp, b), _flat(domain)
        )
        _assert_same(operator_matrix(fn, domain), ref)
