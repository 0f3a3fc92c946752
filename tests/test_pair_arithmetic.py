"""The Gaussian-integer operator layer against the Scalar reference.

A SpinorForm holds its coefficients as Gaussian-integer pairs over one
unreduced denominator, and its operators compute with ints only.  The
Scalar operators in ``conftest`` compute the same values term by term.
Derandomized Hypothesis cases at l = 1..3 compare the two on forms with
Gaussian-rational coefficients of odd and even denominators, with terms
that cancel to zero, with empty forms and with sums over different
denominators.  Vectors and covectors have fractional components.  Every
value is compared through the ``.terms`` view, and that view must hold
canonical, nonzero Scalars.
"""

from fractions import Fraction
from math import gcd

from conftest import (
    ref_add,
    ref_clifford,
    ref_combine,
    ref_contract,
    ref_lowering,
    ref_omega_trace,
    ref_omega_wedge,
    ref_raising,
    ref_scale,
    ref_wedge,
    window_index,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from symtwist.forms import (
    FormWindow,
    SpinorForm,
    _combine,
    basis_form,
    contract,
    form_to_coords,
    operator_matrix,
    wedge,
)
from symtwist.osp import ff_plus, lowering, omega_trace, omega_wedge, raising
from symtwist.scalars import I, Scalar
from symtwist.spinors import clifford_apply
from symtwist.symplectic import Covector, standard_space

_property = settings(max_examples=150, deadline=None, derandomize=True, database=None)

_rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 12]))
_scalars = st.builds(Scalar, _rationals, _rationals)
# denominators 1, 2 and 4 only, as F+ and F- make them
_dyadic = st.builds(
    Scalar,
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 4])),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 4])),
)


@st.composite
def _forms(draw, l, r):
    """An r-form of up to five terms, exponents below 3, plus (sometimes) a
    form over another denominator that cancels some of its terms."""
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        idx = tuple(sorted(draw(st.sets(st.integers(0, 2 * l - 1), min_size=r, max_size=r))))
        e = tuple(draw(st.lists(st.integers(0, 2), min_size=l, max_size=l)))
        terms[(idx, e)] = draw(_scalars)
    psi = SpinorForm(l, terms)
    keys = sorted(psi.terms)
    if keys and draw(st.booleans()):
        gone = draw(st.lists(st.sampled_from(keys), unique=True, min_size=1))
        three = Scalar(3)
        cancel = SpinorForm(l, {k: -(psi.terms[k] * three) for k in gone})
        psi = psi + cancel.scale(Scalar(Fraction(1, 3)))
    return psi


@st.composite
def _cases(draw):
    """(l, psi, phi, v, xi, z): psi and phi of one form degree, v a vector,
    xi a covector and z a Scalar."""
    l = draw(st.integers(1, 3))
    r = draw(st.integers(0, 2 * l))
    vector = st.tuples(*[draw(st.sampled_from([_scalars, _dyadic]))] * (2 * l))
    return (
        l,
        draw(_forms(l, r)),
        draw(_forms(l, r)),
        draw(vector),
        Covector(draw(vector)),
        draw(_scalars),
    )


def _canonical(z):
    return type(z) is Scalar and z._d > 0 and gcd(z._a, z._b, z._d) == 1


def _assert_terms(form, expected):
    terms = form.terms
    assert terms == expected
    assert all(_canonical(c) and c for c in terms.values())


@_property
@given(_cases())
def test_operators_equal_the_scalar_reference(case):
    l, psi, phi, v, xi, z = case
    sp = standard_space(l)
    t, u = psi.terms, phi.terms
    _assert_terms(psi, t)
    _assert_terms(raising(sp, psi), ref_raising(l, t))
    _assert_terms(lowering(sp, psi), ref_lowering(l, t))
    _assert_terms(raising(sp, raising(sp, psi)), ref_raising(l, ref_raising(l, t)))
    _assert_terms(ff_plus(sp, psi), ref_lowering(l, ref_raising(l, t)))
    _assert_terms(wedge(xi, psi), ref_wedge(xi.components, t))
    _assert_terms(contract(sp, v, psi), ref_contract(v, t))
    _assert_terms(clifford_apply(sp, v, psi), ref_clifford(l, v, t))
    _assert_terms(omega_wedge(sp, psi), ref_omega_wedge(l, t))
    _assert_terms(omega_trace(sp, psi), ref_omega_trace(l, t))
    _assert_terms(psi.scale(z), ref_scale(z, t))
    _assert_terms(psi.scale(Scalar(0)), {})
    _assert_terms(psi + phi, ref_add(t, u))
    _assert_terms(psi - phi, ref_add(t, ref_scale(Scalar(-1), u)))
    _assert_terms(-psi, ref_scale(Scalar(-1), t))
    _assert_terms(psi - psi.scale(z), ref_add(t, ref_scale(-z, t)))
    # the mixed-denominator sum of a form and its own rescaled negative
    _assert_terms(psi.scale(z) - psi.scale(z * Scalar(Fraction(6, 5))).scale(Scalar(Fraction(5, 6))), {})


@_property
@given(_cases())
def test_equality_is_equality_of_the_values(case):
    l, psi, phi, _v, _xi, z = case
    assert (psi == phi) == (psi.terms == phi.terms)
    assert psi == SpinorForm(l, psi.terms)
    assert (psi.scale(z) == psi) == (psi.is_zero() or z == Scalar(1))
    if z:
        # the same value over a larger denominator
        assert psi.scale(z).scale(Scalar(1) / z) == psi
    for key in list(psi.terms)[:2]:
        # one imaginary part changed, over another denominator
        nudged = psi + SpinorForm(l, {key: Scalar(0, Fraction(1, 7))})
        assert nudged != psi and psi != nudged
        assert nudged - SpinorForm(l, {key: Scalar(0, Fraction(1, 7))}) == psi


def test_equality_cross_multiplies_the_denominators():
    key = ((0,), (1,))
    half = SpinorForm(1, {key: Scalar(1, 1)}).scale(Scalar(Fraction(1, 2)))
    quarter = SpinorForm(1, {key: Scalar(2, 2)}).scale(Scalar(Fraction(1, 4)))
    third = SpinorForm(1, {key: Scalar(1, 1)}).scale(Scalar(Fraction(1, 3)))
    assert half._d != quarter._d
    assert half == quarter and quarter == half
    assert half != third
    assert half.terms == quarter.terms == {key: Scalar(Fraction(1, 2), Fraction(1, 2))}
    assert (half - quarter).is_zero()
    assert half.scale(0).is_zero() and half.scale(Scalar(0)) == SpinorForm(1)
    assert half != basis_form(1, (1,), (1,), Scalar(Fraction(1, 2), Fraction(1, 2)))


@st.composite
def _combinations(draw):
    l = draw(st.integers(1, 3))
    r = draw(st.integers(0, 2 * l))
    vectors = [draw(_forms(l, r)) for _ in range(draw(st.integers(1, 4)))]
    coeffs = {k: draw(st.one_of(st.just(Scalar(0)), _scalars)) for k in range(len(vectors))}
    return l, vectors, coeffs


@_property
@given(_combinations())
def test_combine_equals_the_scalar_reference(case):
    l, vectors, coeffs = case
    terms = [v.terms for v in vectors]
    expected = ref_combine(terms, coeffs.items())
    _assert_terms(_combine(l, vectors, coeffs.items()), expected)
    _assert_terms(_combine(l, vectors, enumerate(coeffs.values())), expected)


@_property
@given(_cases())
def test_matrix_entries_and_coordinates_are_the_scalar_values(case):
    l, psi, phi, v, _xi, _z = case
    sp = standard_space(l)
    domain = [psi, phi, psi + phi, raising(sp, psi)]
    fn = lambda b: clifford_apply(sp, v, b)  # noqa: E731
    mat = operator_matrix(fn, domain)
    keys = {row: key for key, row in mat.row_index.items()}
    expected = {
        (key, col): c for col, b in enumerate(domain) for key, c in ref_clifford(l, v, b.terms).items()
    }
    assert {(keys[row], col): c for (row, col), c in mat.entries.items()} == expected
    assert all(_canonical(c) for c in mat.entries.values())
    # psi and phi lie in the window of their degree with every exponent <= 2
    r = psi.form_degree() if psi.form_degree() is not None else phi.form_degree()
    if r is None:
        return
    win = FormWindow(l, r, 2 * l)
    for form in (psi, phi, psi - phi.scale(I)):
        coords = form_to_coords(form, window_index(win))
        assert coords == {window_index(win)[key]: c for key, c in form.terms.items()}
        assert all(_canonical(c) for c in coords.values())
        assert _combine(win.l, win, coords.items()) == form
