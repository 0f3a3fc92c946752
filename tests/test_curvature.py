import json
from fractions import Fraction
from itertools import product

import pytest
from conftest import (
    asymmetric_contraction_l1,
    brute_ricci,
    commutator_curvature,
    commutator_entries,
    dense_sigma_tilde,
    dense_sigma_tilde_entries,
    omega_matrix,
    ref_curvature_json,
    ref_difference,
    ricci_type_plus_weyl_l2,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from symtwist.curvature import (
    CurvatureTensor,
    InvalidCurvatureError,
    RicciTensor,
    curvature_from_json,
    curvature_to_json,
    is_ricci_type,
    random_ricci_type,
    random_symmetric_ricci,
    ricci_contract,
    ricci_to_json,
    sigma_tilde,
    weyl_part,
)
from symtwist.scalars import Scalar, scalar_to_json
from symtwist.symplectic import standard_space


def zero_curvature(sp):
    n = sp.dim
    z = Scalar(0)
    return CurvatureTensor(sp.l, [[[[z] * n for _ in range(n)] for _ in range(n)] for _ in range(n)])


@pytest.fixture
def sp1():
    return standard_space(1)


@pytest.fixture
def sp2():
    return standard_space(2)


def _unit_sigma(l, a, b):
    n = 2 * l
    s = [[Scalar(0)] * n for _ in range(n)]
    s[a][b] = Scalar(1)
    s[b][a] = Scalar(1)
    return RicciTensor(l, s)


def test_ricci_symmetry_enforced():
    with pytest.raises(InvalidCurvatureError):
        RicciTensor(1, [[Scalar(0), Scalar(1)], [Scalar(0), Scalar(0)]])


def _zero_rows(n):
    return [[Scalar(0)] * n for _ in range(n)]


def test_ricci_symmetry_error_text_pinned():
    message = "Ricci tensor must be symmetric, differs at ({},{})"
    # several pairs differ: the first pair (i, j), i < j, in row-major order
    s = _zero_rows(4)
    s[2][1], s[1][3], s[3][0] = Scalar(1), Scalar(2), Scalar(5)
    with pytest.raises(InvalidCurvatureError) as exc:
        RicciTensor(2, s)
    assert str(exc.value) == message.format(1, 4)
    # a pair that differs in its imaginary part only
    s = _zero_rows(2)
    s[0][1], s[1][0] = Scalar(3, 1), Scalar(3)
    with pytest.raises(InvalidCurvatureError) as exc:
        RicciTensor(1, s)
    assert str(exc.value) == message.format(1, 2)
    # equal values given as different types over different denominators
    RicciTensor(1, [[1, Fraction(2, 4)], [Scalar(Fraction(1, 2)), Scalar(0, 1)]])


def test_curvature_invariants_enforced(sp1):
    n = 2
    bad = [[[[Scalar(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    bad[0][0][0][1] = Scalar(1)  # not antisymmetric without the mirror entry
    with pytest.raises(InvalidCurvatureError):
        CurvatureTensor(1, bad)


def _nest(leaf, n, depth, level, items):
    """``depth`` levels of nested lists of n items ending in ``leaf``,
    except that the lists at ``level`` have ``items`` items."""
    count = items if level == 0 else n
    if depth == 1:
        return [leaf] * count
    return [_nest(leaf, n, depth - 1, level - 1, items) for _ in range(count)]


@pytest.mark.parametrize("level", range(4))
@pytest.mark.parametrize("items", [1, 3])
def test_curvature_of_the_wrong_shape_refused(level, items):
    # a level longer than 2l is refused, not cut to 2l, with the message
    # that curvature_from_json gives for the same nesting
    message = "curvature entries must nest four lists of length 2l = 2"
    with pytest.raises(InvalidCurvatureError) as exc:
        CurvatureTensor(1, _nest(Scalar(0), 2, 4, level, items))
    assert str(exc.value) == message
    leaf = {"re": "0", "im": "0"}
    with pytest.raises(ValueError) as exc:
        curvature_from_json({"l": 1, "entries": _nest(leaf, 2, 4, level, items)})
    assert str(exc.value) == message


@pytest.mark.parametrize("level", range(2))
@pytest.mark.parametrize("items", [1, 3])
def test_ricci_of_the_wrong_shape_refused(level, items):
    with pytest.raises(InvalidCurvatureError) as exc:
        RicciTensor(1, _nest(Scalar(0), 2, 2, level, items))
    assert str(exc.value) == "Ricci entries must nest two lists of length 2l = 2"


def test_sigma_tilde_hand_value(sp1):
    st = sigma_tilde(sp1, _unit_sigma(1, 0, 0))
    assert st.entries[0][0][0][1] == Scalar(1)
    assert st.entries[0][0][1][0] == Scalar(-1)


def test_sigma_tilde_zero(sp1):
    z = RicciTensor(1, [[Scalar(0)] * 2 for _ in range(2)])
    assert sigma_tilde(sp1, z).is_zero()


@pytest.mark.parametrize("l", [1, 2, 3])
def test_sigma_tilde_output_satisfies_invariants_random(l):
    # constructor re-checks antisymmetry and the Bianchi identity
    sp = standard_space(l)
    for seed in range(12):
        R = random_ricci_type(sp, seed)
        assert isinstance(R, CurvatureTensor)


def test_reconstruction_factor_is_one_brute_force(sp2):
    # oracle: contract the rebuilt tensor on every basis sigma
    n = 4
    for a in range(n):
        for b in range(a, n):
            sig = _unit_sigma(2, a, b)
            rebuilt = sigma_tilde(sp2, sig)
            assert ricci_contract(sp2, rebuilt) == sig
            assert tuple(map(tuple, brute_ricci(2, rebuilt.entries))) == sig.entries


def test_linearity(sp2):
    s1 = random_symmetric_ricci(sp2, 3)
    n = 4
    doubled = RicciTensor(
        2, [[s1.entries[i][j] * Scalar(2) for j in range(n)] for i in range(n)]
    )
    t1 = sigma_tilde(sp2, s1)
    t2 = sigma_tilde(sp2, doubled)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for m in range(n):
                    assert t2.entries[i][j][k][m] == Scalar(2) * t1.entries[i][j][k][m]


def test_weyl_of_ricci_type_zero(sp2):
    for seed in range(8):
        R = random_ricci_type(sp2, seed)
        assert weyl_part(sp2, R).is_zero()
        assert is_ricci_type(sp2, R)


def test_zero_tensor_is_ricci_type(sp2):
    assert is_ricci_type(sp2, zero_curvature(sp2))
    assert ricci_contract(sp2, zero_curvature(sp2)).is_zero()


def test_l1_valid_tensors_always_ricci_type(sp1):
    # solve the invariant constraints at l=1 and check every solution with a
    # symmetric contraction classifies Ricci-type
    for seed in range(20):
        R = random_ricci_type(sp1, seed)
        assert is_ricci_type(sp1, R)


def test_ricci_type_false_for_weyl_direction(sp2):
    # a valid tensor with zero Ricci contraction, added to a Ricci-type
    # tensor: the classifier must say no
    mixed, B = ricci_type_plus_weyl_l2()
    assert not is_ricci_type(sp2, mixed)
    assert weyl_part(sp2, mixed) == B
    for R in (mixed, B):
        assert ricci_contract(sp2, R).entries == tuple(map(tuple, brute_ricci(2, R.entries)))


def test_asymmetric_contraction_diagnosed():
    # an invariant-satisfying tensor need not come from a symplectic
    # connection; the contraction flags those inputs
    with pytest.raises(InvalidCurvatureError):
        ricci_contract(standard_space(1), asymmetric_contraction_l1())


@pytest.mark.parametrize("l", [1, 2, 3])
def test_scalar_curvature_vanishes(l):
    # no symplectic scalar curvature: the Ricci contraction is symmetric, so
    # its omega-trace sigma^{ij} omega_{ij} is zero
    sp = standard_space(l)
    n = 2 * l
    om = omega_matrix(l)
    for seed in (0, 1):
        s = ricci_contract(sp, random_ricci_type(sp, seed)).entries
        trace = Scalar(0)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for m in range(n):
                        trace = trace + s[k][m] * (om[i][k] * om[j][m] * om[i][j])
        assert trace == Scalar(0)


def test_generator_deterministic(sp2):
    assert random_ricci_type(sp2, 9) == random_ricci_type(sp2, 9)
    assert random_ricci_type(sp2, 9) != random_ricci_type(sp2, 10)


def test_json_round_trips(sp2):
    R = random_ricci_type(sp2, 4)
    assert curvature_from_json(curvature_to_json(R)) == R


def _leaves(node):
    if isinstance(node, (list, tuple)):
        for x in node:
            yield from _leaves(x)
    else:
        yield node


def _contraction(sp, seed):
    # held over 2(l+1) times the denominator of the generated sigma
    return ricci_contract(sp, random_ricci_type(sp, seed))


@pytest.mark.parametrize(
    "make, to_json, depth",
    [(random_ricci_type, curvature_to_json, 4), (_contraction, ricci_to_json, 2)],
    ids=["curvature", "ricci"],
)
def test_equal_entries_share_one_json_leaf(sp2, make, to_json, depth):
    T = make(sp2, 7)
    leaves = {}
    pairs = list(zip(_leaves(T.entries), _leaves(to_json(T)["entries"])))
    assert len(pairs) == 4**depth
    for z, x in pairs:
        assert leaves.setdefault((z._a, z._b, z._d), x) is x
    assert 1 < len(leaves) < 4**depth


def test_repeated_strings_parse_to_equal_scalars(sp2):
    obj = curvature_to_json(random_ricci_type(sp2, 4))
    R = curvature_from_json(obj)
    values = {}
    for leaf, z in zip(_leaves(obj["entries"]), _leaves(R.entries)):
        assert values.setdefault((leaf["re"], leaf["im"]), z) == z
    assert len(values) < 4**4  # some pairs repeat
    # differently spelled zeros, each repeated many times
    spellings = [{"re": "0", "im": "0/1"}, {"re": " -0/7 ", "im": "0"}]
    obj["entries"] = [
        [[[spellings[(j + m) % 2] for m in range(4)] for _ in range(4)] for j in range(4)]
        for _ in range(4)
    ]
    assert curvature_from_json(obj).is_zero()


def test_curvature_command_splits_each_tensor_once(tmp_path, monkeypatch):
    # one contraction, one rebuild and three validated tensors (the input,
    # sigma-tilde and W) per ``curvature --input`` run
    from symtwist import cli, curvature

    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(curvature_to_json(ricci_type_plus_weyl_l2()[0])))
    calls = {"ricci_contract": 0, "sigma_tilde": 0, "CurvatureTensor": 0}
    for name in ("ricci_contract", "sigma_tilde"):

        def counted(*args, _name=name, _original=getattr(curvature, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(curvature, name, counted)
        monkeypatch.setattr(cli, name, counted)
    init = CurvatureTensor.__init__

    def counted_init(self, *args):
        calls["CurvatureTensor"] += 1
        init(self, *args)

    monkeypatch.setattr(CurvatureTensor, "__init__", counted_init)
    assert cli.main(["curvature", "--input", str(path), "--out", str(tmp_path / "r.json")]) == 0
    assert calls == {"ricci_contract": 1, "sigma_tilde": 1, "CurvatureTensor": 3}


_property = settings(max_examples=40, deadline=None, derandomize=True, database=None)

_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
_scalars = st.builds(Scalar, _rationals, _rationals)


@st.composite
def _symplectic_curvatures(draw):
    """(l, R) with R = [G_X, G_Y] for a random G with three to eight terms."""
    l = draw(st.integers(1, 4))
    index = st.integers(0, 2 * l - 1)
    gamma = {}
    for _ in range(draw(st.integers(3, 8))):
        idx = tuple(sorted(draw(st.tuples(index, index, index))))
        gamma[idx] = draw(_scalars)
    return l, commutator_curvature(l, gamma)


@_property
@given(_symplectic_curvatures())
def test_ricci_contract_is_the_dense_contraction(case):
    l, R = case
    sigma = ricci_contract(standard_space(l), R)
    assert sigma.entries == tuple(map(tuple, brute_ricci(l, R.entries)))


@st.composite
def _bianchi_tensors(draw):
    """(l, R) with R = T - Alt(T) for a random T antisymmetric in its last
    index pair: every such R satisfies both stored invariants, and its
    contraction is in general asymmetric."""
    l = draw(st.integers(1, 4))
    n = 2 * l
    index = st.integers(0, n - 1)
    t = {}
    for _ in range(draw(st.integers(2, 8))):
        i, j, k, m = draw(st.tuples(index, index, index, index))
        if k != m:
            c = draw(_scalars)
            t[(i, j, k, m)] = t.get((i, j, k, m), Scalar(0)) + c
            t[(i, j, m, k)] = t.get((i, j, m, k), Scalar(0)) - c
    z = Scalar(0)

    def entry(i, j, k, m):
        cyclic = t.get((i, j, k, m), z) + t.get((i, k, m, j), z) + t.get((i, m, j, k), z)
        return t.get((i, j, k, m), z) - cyclic / Scalar(3)

    return l, CurvatureTensor(
        l,
        [
            [[[entry(i, j, k, m) for m in range(n)] for k in range(n)] for j in range(n)]
            for i in range(n)
        ],
    )


@_property
@given(_bianchi_tensors())
def test_ricci_contract_rejects_exactly_the_asymmetric_contractions(case):
    l, R = case
    sigma = brute_ricci(l, R.entries)
    n = 2 * l
    if all(sigma[i][j] == sigma[j][i] for i in range(n) for j in range(i + 1, n)):
        assert ricci_contract(standard_space(l), R).entries == tuple(map(tuple, sigma))
    else:
        with pytest.raises(InvalidCurvatureError, match="asymmetric"):
            ricci_contract(standard_space(l), R)


@pytest.mark.parametrize("l", [2, 3, 4])
def test_commutator_curvature_is_not_ricci_type(l):
    # the generator of the contraction property test reaches beyond the
    # Ricci-type tensors
    R = commutator_curvature(l, {(0, 0, 1): Scalar(1), (0, l, l + 1): Scalar(2, 1)})
    assert not is_ricci_type(standard_space(l), R)


def _full_loop_failure(l, e):
    """The error text of the first invariant failure in full-loop order:
    antisymmetry over every (i, j, k, m) with k <= m, then the cyclic sum
    over every (i, j, k, m); None when both invariants hold."""
    n = 2 * l
    for i, j, k in product(range(n), repeat=3):
        for m in range(k, n):
            if e[i][j][k][m] != -e[i][j][m][k]:
                return (
                    "curvature must be antisymmetric in the last index pair, "
                    f"fails at ({i + 1},{j + 1},{k + 1},{m + 1})"
                )
    for i, j, k, m in product(range(n), repeat=4):
        if e[i][j][k][m] + e[i][k][m][j] + e[i][m][j][k]:
            return f"first Bianchi identity fails at ({i + 1},{j + 1},{k + 1},{m + 1})"
    return None


def _single_entry(l, pos, mirrored):
    n = 2 * l
    e = [[[[Scalar(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    i, j, k, m = pos
    e[i][j][k][m] = Scalar(1)
    if mirrored:
        e[i][j][m][k] = Scalar(-1)
    return e


def test_invariant_error_texts_pinned():
    with pytest.raises(InvalidCurvatureError) as exc:
        CurvatureTensor(1, _single_entry(1, (0, 1, 0, 1), mirrored=False))
    assert str(exc.value) == (
        "curvature must be antisymmetric in the last index pair, fails at (1,2,1,2)"
    )
    with pytest.raises(InvalidCurvatureError) as exc:
        CurvatureTensor(2, _single_entry(2, (0, 3, 2, 1), mirrored=True))
    assert str(exc.value) == "first Bianchi identity fails at (1,2,3,4)"


@pytest.mark.parametrize(
    "entry, mirror",
    [
        (1, Scalar(-1)),
        (Scalar(1), -1),
        (2, -2),
        (Fraction(1, 2), Scalar(Fraction(-1, 2))),
        (Scalar(Fraction(1, 3)), Fraction(-1, 3)),
        (1, Scalar(1)),
        (Fraction(1, 3), -1),
        (Scalar(0, 1), 1),
    ],
)
def test_antisymmetry_check_of_entries_that_are_not_scalars(entry, mirror):
    # an int or Fraction entry is compared by value, as ``x != -y`` does
    e = _single_entry(1, (0, 1, 0, 1), mirrored=True)
    e[0][1][0][1], e[0][1][1][0] = entry, mirror
    expected = _full_loop_failure(1, e)
    if expected is None:
        CurvatureTensor(1, e)
    else:
        with pytest.raises(InvalidCurvatureError) as exc:
            CurvatureTensor(1, e)
        assert str(exc.value) == expected


def test_antisymmetry_check_of_an_entry_with_no_negation():
    e = _single_entry(1, (0, 1, 0, 1), mirrored=True)
    e[0][1][1][0] = None
    with pytest.raises(TypeError):
        CurvatureTensor(1, e)


@st.composite
def _perturbed_tensors(draw, mirrored):
    """(l, entries): a valid tensor (Ricci-type, or a commutator tensor for
    l >= 2) with one to three entries changed.  Mirrored changes keep the
    last pair antisymmetric, so only the Bianchi identity can fail; it
    cannot fail at l = 1."""
    l = draw(st.integers(2 if mirrored else 1, 3))
    n = 2 * l
    if l >= 2 and draw(st.booleans()):
        base = commutator_curvature(l, {(0, 0, 1): Scalar(1), (0, l, l + 1): Scalar(2, 1)})
    else:
        base = random_ricci_type(standard_space(l), draw(st.integers(0, 9)))
    e = [[[list(r3) for r3 in r2] for r2 in r1] for r1 in base.entries]
    index = st.integers(0, n - 1)
    for _ in range(draw(st.integers(1, 3))):
        i, j, k, m = draw(st.tuples(index, index, index, index))
        c = draw(_scalars)
        if mirrored and k == m:
            m = (k + 1) % n
        e[i][j][k][m] = e[i][j][k][m] + c
        if mirrored:
            e[i][j][m][k] = e[i][j][m][k] - c
    return l, e


@pytest.mark.parametrize("mirrored", [False, True], ids=["antisymmetry", "bianchi"])
def test_invariant_failure_names_the_full_loop_position(mirrored):
    _check_failure_position(mirrored)


@_property
@given(data=st.data())
def _check_failure_position(mirrored, data):
    l, e = data.draw(_perturbed_tensors(mirrored))
    expected = _full_loop_failure(l, e)
    if expected is None:
        CurvatureTensor(l, e)
    else:
        with pytest.raises(InvalidCurvatureError) as exc:
            CurvatureTensor(l, e)
        assert str(exc.value) == expected


_SIGMA_ENTRIES = {
    "integer": st.builds(Scalar, st.integers(-5, 5)),
    "rational": st.builds(Scalar, _rationals),
    "gaussian": _scalars,
}


@st.composite
def _symmetric_sigmas(draw, entries):
    """(l, sigma) for l = 1..4: a symmetric tensor with a random set of
    entries on and above the diagonal drawn from ``entries``, mirrored."""
    l = draw(st.integers(1, 4))
    n = 2 * l
    s = [[Scalar(0)] * n for _ in range(n)]
    index = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 2 * n))):
        a, b = sorted(draw(st.tuples(index, index)))
        s[a][b] = s[b][a] = draw(entries)
    return l, RicciTensor(l, s)


@pytest.mark.parametrize("kind", sorted(_SIGMA_ENTRIES))
def test_sigma_tilde_is_the_dense_five_term_formula(kind):
    _check_sigma_tilde(kind)


@_property
@given(data=st.data())
def _check_sigma_tilde(kind, data):
    l, sigma = data.draw(_symmetric_sigmas(_SIGMA_ENTRIES[kind]))
    assert sigma_tilde(standard_space(l), sigma) == dense_sigma_tilde(l, sigma)


# The Gaussian-integer lists against the Scalar reference path of conftest.


def _tuples(e):
    return tuple(tuple(tuple(tuple(r3) for r3 in r2) for r2 in r1) for r1 in e)


def _flat(e):
    return [z for r1 in e for r2 in r1 for r3 in r2 for z in r3]


@st.composite
def _commutator_entry_pairs(draw):
    """(l, E, F): the Scalar entries of two commutator tensors on one l,
    with ``_scalars`` coefficients; half the time F is E again."""
    l = draw(st.integers(1, 4))
    index = st.integers(0, 2 * l - 1)

    def gamma():
        return {
            tuple(sorted(draw(st.tuples(index, index, index)))): draw(_scalars)
            for _ in range(draw(st.integers(1, 5)))
        }

    ga = gamma()
    gb = ga if draw(st.booleans()) else gamma()
    return l, commutator_entries(l, ga), commutator_entries(l, gb)


@_property
@given(_commutator_entry_pairs(), st.integers(2, 6))
def test_flat_tensors_match_the_scalar_reference(case, k):
    l, E, F = case
    sp = standard_space(l)
    A, B = CurvatureTensor(l, E), CurvatureTensor(l, F)
    assert A.entries == _tuples(E)
    assert (A - B).entries == _tuples(ref_difference(E, F))
    assert (A == B) is (E == F)
    assert A.is_zero() is not any(_flat(E))
    sigma = ricci_contract(sp, A)
    assert sigma.entries == tuple(map(tuple, brute_ricci(l, E)))
    S = dense_sigma_tilde_entries(l, sigma)
    st_ = sigma_tilde(sp, sigma)
    assert st_.entries == _tuples(S)
    assert weyl_part(sp, A).entries == _tuples(ref_difference(E, S))
    for R, e in ((A, E), (A - B, ref_difference(E, F)), (st_, S)):
        assert curvature_to_json(R) == ref_curvature_json(l, e)
    # equal values held over different denominators: k times A's, and the
    # canonical one of sigma-tilde's entries against 2(l+1) times sigma's
    A2 = CurvatureTensor(l, None, ([a * k for a in A.re], [b * k for b in A.im], A.d * k))
    st2 = CurvatureTensor(l, st_.entries)
    for X, Y in ((A, A2), (st_, st2)):
        assert X == Y and Y == X
        assert X.entries == Y.entries
        assert (X - Y).is_zero() and (Y - X).is_zero()
        assert X.is_zero() is Y.is_zero()
        assert json.dumps(curvature_to_json(X)) == json.dumps(curvature_to_json(Y))
    assert A.d != A2.d
    assert (A2 == B) is (A == B)


def _plain(z):
    """A real Scalar as an int or a Fraction."""
    assert z.im == 0
    return z.re.numerator if z.re.denominator == 1 else z.re


def test_int_and_fraction_entries_render_like_scalars(sp2):
    # both constructors accept int and Fraction entries; their JSON is that
    # of the same tensor built from Scalars
    R = random_ricci_type(sp2, 3)
    plain = [[[[_plain(z) for z in r3] for r3 in r2] for r2 in r1] for r1 in R.entries]
    assert {type(z) for z in _flat(plain)} == {int, Fraction}
    assert curvature_to_json(CurvatureTensor(2, plain)) == curvature_to_json(R)
    values = [[Fraction(i + j, 3) if (i + j) % 2 else i * j for j in range(4)] for i in range(4)]
    scalars = RicciTensor(2, [[Scalar(v) for v in row] for row in values])
    assert ricci_to_json(RicciTensor(2, values)) == ricci_to_json(scalars)
    assert RicciTensor(2, values) == scalars


def test_curvature_commands_make_no_scalars(tmp_path, monkeypatch):
    # generating, reading, splitting and writing a tensor keep its Gaussian
    # integers from the input file to the report, with the same bytes
    import hashlib

    from symtwist import cli, curvature

    calls = []

    def counted(*args, _from_pair=curvature.from_pair):
        calls.append(args)
        return _from_pair(*args)

    monkeypatch.setattr(curvature, "from_pair", counted)
    gen, out = tmp_path / "gen.json", tmp_path / "out.json"
    assert cli.main(["gen-curvature", "--l", "2", "--seed", "5", "--out", str(gen)]) == 0
    assert cli.main(["curvature", "--input", str(gen), "--out", str(out)]) == 0
    assert calls == []
    assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in (gen, out)] == [
        "a5f84b11cc5c65d5350aa5e5cccaf937abbcf8d6890f21031930dc178cd5888a",
        "82bbd16340d14b6fa156af157a2135af3f7457e711b5688d7d257c6a32e9573d",
    ]


_SCALAR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__",
)


def test_curvature_commands_do_no_scalar_arithmetic(tmp_path, monkeypatch):
    # Scalars appear only at the boundary: reading, generating, splitting
    # and writing a tensor make no Scalar sum, product, quotient or negation
    from symtwist import cli

    inputs = {
        "weyl": ricci_type_plus_weyl_l2()[0],
        "gaussian": commutator_curvature(
            2,
            {(0, 0, 1): Scalar(Fraction(1, 2)), (0, 2, 3): Scalar(Fraction(2, 3), Fraction(1, 5))},
        ),
    }
    for name, R in inputs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(curvature_to_json(R)))
    ops = []
    for name in _SCALAR_OPS:

        def counted(*args, _name=name, _op=getattr(Scalar, name)):
            ops.append(_name)
            return _op(*args)

        monkeypatch.setattr(Scalar, name, counted)
    out = str(tmp_path / "out.json")
    gen = str(tmp_path / "gen.json")
    assert cli.main(["gen-curvature", "--l", "2", "--seed", "5", "--out", gen]) == 0
    for path in (gen, *(str(tmp_path / f"{name}.json") for name in inputs)):
        assert cli.main(["curvature", "--input", path, "--out", out]) == 0
        assert json.loads(open(out).read())["status"] == "pass"
    assert ops == []
    assert Scalar(1) + Scalar(2) == 3 and ops == ["__add__"]


# Ricci tensors against their Scalar values, with the per-entry writer
# ``scalar_to_json`` as the reference for ``ricci_to_json``


def _spellings(z):
    """z as a Scalar and, when real, as a Fraction and possibly an int."""
    if z.im:
        return [z]
    q = z.re
    return [z, q] + ([q.numerator] if q.denominator == 1 else [])


@st.composite
def _mixed_ricci_values(draw):
    """(l, values, entries): a symmetric matrix of Scalar values and the
    same matrix with each entry spelled as a Scalar, an int or a Fraction."""
    l = draw(st.integers(1, 4))
    n = 2 * l
    value = st.one_of(st.builds(Scalar, st.integers(-4, 4)), st.builds(Scalar, _rationals), _scalars)
    values = _zero_rows(n)
    for _ in range(draw(st.integers(0, 2 * n))):
        a, b = sorted(draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
        values[a][b] = values[b][a] = draw(value)
    entries = [[draw(st.sampled_from(_spellings(z))) for z in row] for row in values]
    return l, values, entries


@_property
@given(_mixed_ricci_values(), _mixed_ricci_values())
def test_ricci_tensors_match_their_scalar_values(case, other):
    l, values, entries = case
    S = RicciTensor(l, entries)
    assert S.entries == tuple(map(tuple, values))
    assert all(type(z) is Scalar for row in S.entries for z in row)
    assert S.is_zero() is not any(map(any, values))
    assert S == RicciTensor(l, values) and RicciTensor(l, values) == S
    l2, values2, entries2 = other
    assert (S == RicciTensor(l2, entries2)) is (l == l2 and values == values2)
    reference = {"l": l, "entries": [[scalar_to_json(z) for z in row] for row in values]}
    assert ricci_to_json(S) == reference
    # the contraction of sigma-tilde: S again, over 2(l+1) times its denominator
    sp = standard_space(l)
    T = ricci_contract(sp, sigma_tilde(sp, S))
    assert T == S and S == T
    assert T.entries == S.entries and T.is_zero() is S.is_zero()
    assert ricci_to_json(T) == reference
    n = 2 * l
    R = CurvatureTensor(l, [[_zero_rows(n) for _ in range(n)] for _ in range(n)])
    assert S != R and R != S and S != object()
