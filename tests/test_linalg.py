import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from conftest import matvec, ref_kernel_basis, ref_rank, ref_solve, window_matrix
from symtwist import linalg
from symtwist.linalg import OperatorMatrix, kernel_basis, rank, solve
from symtwist.scalars import I, ONE, Scalar


def M(rows, cols, entries):
    return OperatorMatrix(rows, cols, entries)


def identity(n):
    return M(n, n, {(k, k): ONE for k in range(n)})


def test_rank_identity_and_zero():
    assert rank(identity(2)) == 2
    assert rank(M(3, 5, {})) == 0


def test_rank_dependent_rows():
    # second row is i times the first
    m = M(2, 2, {(0, 0): ONE, (0, 1): I, (1, 0): I, (1, 1): -ONE})
    assert rank(m) == 1


def test_kernel_identity_empty():
    assert kernel_basis(identity(3)) == []


def test_kernel_zero_matrix_standard_basis():
    vecs = kernel_basis(M(2, 2, {}))
    assert vecs == [{0: ONE}, {1: ONE}]


def test_kernel_single_row():
    # x + i y = 0
    m = M(1, 2, {(0, 0): ONE, (0, 1): I})
    vecs = kernel_basis(m)
    assert len(vecs) == 1
    v = vecs[0]
    assert matvec(m, v) == {}
    # canonical form: free coordinate (column 1) pinned to one
    assert v[1] == ONE and v[0] == -I


def test_solve_identity_and_zero():
    assert solve(identity(2), {0: ONE, 1: I}) == {0: ONE, 1: I}
    assert solve(M(2, 2, {}), {0: ONE}) is None
    assert solve(M(1, 1, {(0, 0): Scalar(2)}), {0: ONE}) == {0: Scalar(1) / Scalar(2)}


def test_solve_rhs_index_out_of_range():
    with pytest.raises(ValueError):
        solve(identity(2), {5: ONE})


SMALL = [Scalar(0), ONE, I, -ONE]


def _random_matrix(rng, rows, cols):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            v = rng.choice(SMALL)
            if v:
                entries[(r, c)] = v
    return M(rows, cols, entries)


def test_rank_nullity_and_kernel_exactness_random():
    rng = random.Random(0)
    for _ in range(120):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        vecs = kernel_basis(m)
        assert rank(m) + len(vecs) == cols
        for v in vecs:
            assert matvec(m, v) == {}


def test_solve_iff_augmented_rank_matches():
    rng = random.Random(1)
    for _ in range(150):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = _random_matrix(rng, rows, cols)
        b = {r: rng.choice(SMALL) for r in range(rows)}
        b = {r: v for r, v in b.items() if v}
        aug_entries = dict(m.entries)
        for r, v in b.items():
            aug_entries[(r, cols)] = v
        aug = M(rows, cols + 1, aug_entries)
        x = solve(m, b)
        if x is None:
            assert rank(aug) == rank(m) + 1
        else:
            assert rank(aug) == rank(m)
            residual = matvec(m, x)
            for r in range(rows):
                assert residual.get(r, Scalar(0)) == b.get(r, Scalar(0))


# The same three properties on general entries: both parts nonzero,
# denominators up to 12, sparse patterns up to 6x6.  A row or a column may
# be a multiple of another, so that kernels and inconsistent right-hand
# sides are common and not only the generic full-rank case.
_part = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 12))
_general = st.builds(Scalar, _part, _part)


@st.composite
def _general_systems(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.sets(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))))
    entries = {rc: draw(_general) for rc in sorted(cells)}
    if rows > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(rows)))[:2]
        f = draw(_general)
        for c in range(cols):
            entries.pop((dst, c), None)
            if (src, c) in entries:
                entries[(dst, c)] = entries[(src, c)] * f
    if cols > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(cols)))[:2]
        f = draw(_general)
        for r in range(rows):
            entries.pop((r, dst), None)
            if (r, src) in entries:
                entries[(r, dst)] = entries[(r, src)] * f
    m = M(rows, cols, entries)
    if draw(st.booleans()):
        # a right-hand side in the image, so that solves succeed often
        b = matvec(m, {c: draw(_general) for c in sorted(draw(st.sets(st.integers(0, cols - 1))))})
    else:
        b = {r: draw(_general) for r in sorted(draw(st.sets(st.integers(0, rows - 1))))}
    return m, b


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_general_systems())
def test_kernel_rank_and_solve_on_general_entries(system):
    m, b = system
    vecs = kernel_basis(m)
    assert rank(m) + len(vecs) == m.cols
    for v in vecs:
        assert matvec(m, v) == {}
    aug_entries = dict(m.entries)
    for r, v in b.items():
        aug_entries[(r, m.cols)] = v
    aug = M(m.rows, m.cols + 1, aug_entries)
    x = solve(m, b)
    if x is None:
        assert rank(aug) == rank(m) + 1
    else:
        assert matvec(m, x) == b


def _to_qqi(z: Scalar):
    return QQ_I(QQ(z.re.numerator, z.re.denominator), QQ(z.im.numerator, z.im.denominator))


def _from_qqi(z) -> Scalar:
    return Scalar(
        Fraction(int(z.x.numerator), int(z.x.denominator)),
        Fraction(int(z.y.numerator), int(z.y.denominator)),
    )


def _oracle_rref(m, b=None):
    """SymPy's reduced row echelon form of m (augmented by the column b when
    given) over QQ_I, as (dense rows of Scalars, pivot columns)."""
    rows: dict = {}
    for (r, c), v in m.entries.items():
        rows.setdefault(r, {})[c] = _to_qqi(v)
    cols = m.cols
    if b is not None:
        for r, v in b.items():
            rows.setdefault(r, {})[cols] = _to_qqi(v)
        cols += 1
    red, pivots = DomainMatrix(rows, (m.rows, cols), QQ_I).rref()
    return [[_from_qqi(z) for z in row] for row in red.to_list()], pivots


def _oracle_kernel(cols, red, pivots):
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        v = {f: ONE}
        for k, p in enumerate(pivots):
            if red[k][f]:
                v[p] = -red[k][f]
        basis.append(v)
    return basis


def _oracle_solve(m, b):
    red, pivots = _oracle_rref(m, b)
    if m.cols in pivots:
        return None
    return {p: red[k][m.cols] for k, p in enumerate(pivots) if red[k][m.cols]}


def _interleaved_blocks(rng):
    nblocks = rng.randint(1, 4)
    # blocks may have no rows or no columns
    sizes = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(nblocks)]
    row_blk = [blk for blk, (rows, _) in enumerate(sizes) for _ in range(rows)]
    col_blk = [blk for blk, (_, cols) in enumerate(sizes) for _ in range(cols)]
    rng.shuffle(row_blk)
    rng.shuffle(col_blk)
    entries = {}
    for r, rb in enumerate(row_blk):
        for c, cb in enumerate(col_blk):
            v = rng.choice(SMALL)
            if rb == cb and v:
                entries[(r, c)] = v
    return M(len(row_blk), len(col_blk), entries), row_blk


def _dense(rng):
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    entries = {}
    for r in range(rows):
        for c in range(cols):
            entries[(r, c)] = Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))
    return M(rows, cols, entries)


def _l2_matrices():
    """Operator matrices at l=2 with rows numbered by a codomain window, so
    that unreached window rows stay in as zero rows."""
    from symtwist.forms import FormWindow
    from symtwist.osp import component_basis, component_scalar, ff_plus, m_index
    from symtwist.symbols import symbol_apply
    from symtwist.symplectic import Covector, canonical_covector, standard_space

    sp = standard_space(2)
    mats = []
    general = Covector((Scalar(0), Scalar(0), ONE, ONE))
    for xi in (canonical_covector(sp), general):
        for i in range(4):
            basis = component_basis(sp, i, m_index(2, i), 2)
            cod = FormWindow(2, i + 1, 4)
            mats.append(window_matrix(lambda p: symbol_apply(sp, i, xi, p), basis, cod))
    c = component_scalar(2, 2, 1)
    win, cowin = FormWindow(2, 2, 1), FormWindow(2, 2, 3)
    mats.append(window_matrix(lambda p: ff_plus(sp, p) - p.scale(c), win, cowin))
    return mats


def test_matches_sympy_oracle():
    rng = random.Random(2)
    cases = [_interleaved_blocks(rng)[0] for _ in range(120)]
    cases += [_dense(rng) for _ in range(40)]
    cases += _l2_matrices()
    for m in cases:
        red, pivots = _oracle_rref(m)
        assert rank(m) == len(pivots)
        assert kernel_basis(m) == _oracle_kernel(m.cols, red, pivots)
        # one right-hand side in the image and one drawn at random
        x0 = {c: rng.choice(SMALL) for c in range(m.cols)}
        for b in (matvec(m, x0), {r: rng.choice(SMALL) for r in range(m.rows)}):
            b = {r: v for r, v in b.items() if v}
            assert solve(m, b) == _oracle_solve(m, b)


def test_l3_operator_matrices_match_sympy_oracle():
    # matrices as the package builds them, rows from the images: F+ on the
    # halfway 3-forms, F- on the 2-forms and the symbol map at i = 4, at the
    # canonical covector and, at D = 2, at an off-axis covector with a
    # fractional component, where the kernel has denominators up to 48
    from symtwist.forms import FormWindow, operator_matrix
    from symtwist.osp import edge_basis, lowering, raising
    from symtwist.symbols import symbol_apply
    from symtwist.symplectic import Covector, canonical_covector, standard_space

    sp = standard_space(3)
    xi = canonical_covector(sp)
    off_axis = Covector(tuple(Scalar(x) for x in (1, 0, 2, -1, Fraction(1, 2), 3)))
    cases = [
        operator_matrix(lambda p: raising(sp, p), FormWindow(3, 3, 1)),
        operator_matrix(lambda p: lowering(sp, p), FormWindow(3, 2, 1)),
        operator_matrix(lambda p: symbol_apply(sp, 4, xi, p), edge_basis(sp, 4, 1)),
        operator_matrix(lambda p: symbol_apply(sp, 4, off_axis, p), edge_basis(sp, 4, 2)),
    ]
    for m in cases:
        red, pivots = _oracle_rref(m)
        assert rank(m) == len(pivots)
        assert kernel_basis(m) == _oracle_kernel(m.cols, red, pivots)
    m, rng = cases[-1], random.Random(6)
    b = matvec(m, {c: rng.choice(SMALL) for c in range(m.cols)})
    assert solve(m, b) == _oracle_solve(m, b) is not None


def _three_components():
    """Rows 0-1 and columns 0-1 form a rank-1 component (row 1 = i * row 0),
    row 2 and column 2 a second one, row 3 is a zero row and column 3 a zero
    column."""
    return M(4, 4, {(0, 0): ONE, (0, 1): I, (1, 0): I, (1, 1): -ONE, (2, 2): Scalar(2)})


def test_rhs_local_solves_match_sympy_oracle():
    m = _three_components()
    half = Scalar(Fraction(1, 2))
    cases = [
        ({}, {}),
        # one component touched; the untouched one keeps a dependent row
        # and the zero row stays untouched, so the solve is consistent
        ({2: ONE}, {2: half}),
        ({0: ONE, 1: I}, {0: ONE}),
        ({0: ONE, 1: I, 2: ONE}, {0: ONE, 2: half}),
        # b hits a row that eliminates to zero (row 1) or the empty row 3
        ({1: ONE}, None),
        ({3: ONE}, None),
        ({2: ONE, 3: ONE}, None),
    ]
    for b, expected in cases:
        assert solve(m, b) == expected == _oracle_solve(m, b), b
    rng = random.Random(3)
    for _ in range(120):
        m, row_blk = _interleaved_blocks(rng)
        assert solve(m, {}) == {}
        # b supported on the rows of one block
        blk = rng.choice(row_blk) if row_blk else None
        x0 = {c: rng.choice(SMALL) for c in range(m.cols)}
        image = matvec(m, x0)
        for b in (
            {r: v for r, v in image.items() if row_blk[r] == blk},
            {r: ONE for r in range(m.rows) if row_blk[r] == blk},
        ):
            assert solve(m, b) == _oracle_solve(m, b)


def _one_component(rng):
    """A matrix whose nonzero pattern is one component: every entry is
    nonzero, with denominators up to 5, and the last row is a multiple of
    the first, so that the rank is below the row count."""
    rows, cols = rng.randint(2, 6), rng.randint(1, 6)

    def entry():
        return Scalar(
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 5)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 5)),
        )

    entries = {(r, c): entry() for r in range(rows - 1) for c in range(cols)}
    f = entry()
    for c in range(cols):
        entries[(rows - 1, c)] = entries[(0, c)] * f
    return M(rows, cols, entries)


def test_calls_in_any_order_read_one_factorisation():
    # rank, kernel_basis and solves on one matrix, in shuffled orders: every
    # call must agree with the same call on a fresh matrix and with SymPy,
    # whichever calls factored the matrix before it
    rng = random.Random(4)
    cases = [_one_component(rng) for _ in range(40)]
    cases += [_interleaved_blocks(rng)[0] for _ in range(40)] + _l2_matrices()
    for m in cases:
        red, pivots = _oracle_rref(m)
        calls = [("rank", None), ("kernel", None)]
        for _ in range(4):
            x0 = {c: rng.choice(SMALL) for c in range(m.cols)}
            calls.append(("solve", matvec(m, x0)))
            calls.append(("solve", {r: v for r in range(m.rows) if (v := rng.choice(SMALL))}))
        rng.shuffle(calls)
        for name, b in calls:
            fresh = M(m.rows, m.cols, m.entries)
            if name == "rank":
                assert rank(m) == rank(fresh) == len(pivots)
            elif name == "kernel":
                assert kernel_basis(m) == kernel_basis(fresh) == _oracle_kernel(m.cols, red, pivots)
            else:
                assert solve(m, b) == solve(fresh, b) == _oracle_solve(m, b)


def test_one_component_is_eliminated_once(monkeypatch):
    # factor once: eight solves and a kernel basis on a one-component
    # matrix make one elimination, counted without any clock
    calls = []
    eliminate = linalg._eliminate

    def counted(rows, ncols):
        calls.append(ncols)
        return eliminate(rows, ncols)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    rng = random.Random(5)
    m = _one_component(rng)
    for k in range(8):
        x0 = {c: rng.choice(SMALL) for c in range(m.cols)}
        b = matvec(m, x0) if k % 2 else {r: ONE for r in range(m.rows)}
        solve(m, b or {0: ONE})
    kernel_basis(m)
    assert len(calls) == 1


def _gaussian_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _non_unit_pivots():
    """A one-component matrix whose row updates leave a common factor 2:
    row 1 - row 0 is 2 * (0, 1, 1)."""
    entries = {
        (0, 0): ONE, (0, 1): Scalar(1), (0, 2): Scalar(-1),
        (1, 0): ONE, (1, 1): Scalar(3), (1, 2): Scalar(1),
        (2, 1): Scalar(0, 2), (2, 2): Scalar(0, 6),
    }
    return M(3, 3, entries)


def test_updated_rows_are_content_reduced():
    # replaying the recorded ops (row, pivot row, Pa, Pb, Fa, Fb, g) on the
    # rows of each component must divide exactly by g, leave every updated
    # row with integer content 1 (or empty) and end at the eliminated rows
    rng = random.Random(5)
    cases = [_one_component(rng) for _ in range(30)] + [_non_unit_pivots()]
    for m in cases:
        for rsel, _csel, rows, _pivots, _free, ops in linalg._factored(m):
            start = [dict(m._rows[r]) for r in rsel]
            for r, p, Pa, Pb, Fa, Fb, g in ops:
                P, F = (Pa, Pb), (Fa, Fb)
                new = {}
                for c, v in start[r].items():
                    new[c] = _gaussian_mul(P, v)
                for c, v in start[p].items():
                    a, b = new.get(c, (0, 0))
                    fa, fb = _gaussian_mul(F, v)
                    new[c] = (a - fa, b - fb)
                new = {c: v for c, v in new.items() if v != (0, 0)}
                assert all(a % g == 0 and b % g == 0 for a, b in new.values())
                new = {c: (a // g, b // g) for c, (a, b) in new.items()}
                assert not new or gcd(*(x for v in new.values() for x in v)) == 1
                start[r] = new
            assert start == rows
    assert any(g > 1 for m in cases for *_part, ops in linalg._factored(m) for *_op, g in ops)


def test_no_scalar_inside_the_factorisation(monkeypatch):
    # partition, elimination, the replay of a right-hand side and
    # back-substitution create and combine no Scalar: every Scalar method,
    # the normaliser and linalg's boundary conversion are counted, and the
    # count must stay 0; the counters do see the Scalar reference
    from symtwist import scalars

    rng = random.Random(7)
    cases = [_one_component(rng) for _ in range(10)] + [_three_components(), _non_unit_pivots()]
    rhss = []
    for m in cases:
        b = matvec(m, {c: rng.choice(SMALL) for c in range(m.cols)})
        bd = 1
        for z in b.values():
            bd = bd * z._d // gcd(bd, z._d)
        rhss.append({r: (z._a * (bd // z._d), z._b * (bd // z._d), 1) for r, z in b.items()})
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("__init__", "__bool__", "__eq__", "__hash__", "__neg__", "__add__",
                 "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(Scalar, name, counted(getattr(Scalar, name)))
    monkeypatch.setattr(scalars, "_norm", counted(scalars._norm))
    monkeypatch.setattr(linalg, "from_pair", counted(linalg.from_pair))
    nops = 0
    for m, pairs in zip(cases, rhss):
        for rsel, _csel, rows, pivots, free_cols, ops in linalg._factored(m):
            nops += len(ops)
            for f in free_cols:
                linalg._back_substitute(rows, pivots, {f: (1, 0)})
            rhs = [pairs.get(r, (0, 0, 1)) for r in rsel]
            linalg._replay(ops, rhs)
            linalg._back_substitute(rows, pivots, {}, rhs)
    assert nops and calls == []
    ref_solve(cases[0], {0: ONE})
    assert calls


# Sparse Gaussian-rational matrices for the comparison with the Scalar
# reference: each column draws its own denominator, so the columns of one
# matrix are scaled differently, and the entries mix unit, non-unit, purely
# imaginary and general values, so that pivots of every kind occur.
_numerator = st.integers(-6, 6).filter(bool)


@st.composite
def _mixed_entry(draw, den):
    kind = draw(st.sampled_from(("unit", "real", "imaginary", "general")))
    if kind == "unit":
        return draw(st.sampled_from((ONE, -ONE, I, -I)))
    a, b = draw(_numerator), draw(_numerator)
    if kind == "real":
        return Scalar(Fraction(a, den))
    if kind == "imaginary":
        return Scalar(0, Fraction(b, den))
    return Scalar(Fraction(a, den), Fraction(b, draw(st.integers(1, 12))))


@st.composite
def _mixed_systems(draw):
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    dens = [draw(st.sampled_from((1, 1, 2, 3, 4, 6, 8, 9))) for _ in range(cols)]
    cells = draw(st.sets(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))))
    entries = {(r, c): draw(_mixed_entry(dens[c])) for r, c in sorted(cells)}
    if rows > 1 and draw(st.booleans()):
        # a row that is a multiple of another, so that rank < rows
        src, dst = draw(st.permutations(range(rows)))[:2]
        f = draw(_mixed_entry(1))
        for c in range(cols):
            entries.pop((dst, c), None)
            if (src, c) in entries:
                entries[(dst, c)] = entries[(src, c)] * f
    m = M(rows, cols, entries)
    if draw(st.booleans()):
        x = {c: draw(_mixed_entry(3)) for c in sorted(draw(st.sets(st.integers(0, cols - 1))))}
        b = matvec(m, x)
    else:
        b = {r: draw(_mixed_entry(2)) for r in sorted(draw(st.sets(st.integers(0, rows - 1))))}
    return m, b


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_mixed_systems())
def test_matches_scalar_reference(system):
    m, b = system
    assert kernel_basis(m) == ref_kernel_basis(m)
    assert rank(m) == ref_rank(m)
    assert solve(m, b) == ref_solve(m, b)
    # a fresh matrix, solved before anything else factors it
    fresh = M(m.rows, m.cols, m.entries)
    assert solve(fresh, b) == ref_solve(m, b)


# p = 2^61 - 1 is prime and 3 mod 4, so i stays outside F_p and the
# Gaussian integers mod p form the field F_{p^2}
_P = (1 << 61) - 1


def _rank_mod_p(m):
    """The rank of m over F_{p^2}, read from its Scalar entries; a lower
    bound for the rank over Q(i) when p divides no denominator."""
    rows: dict = {}
    for (r, c), z in m.entries.items():
        re, im = z.re, z.im
        assert re.denominator % _P and im.denominator % _P
        a = re.numerator * pow(re.denominator, -1, _P) % _P
        b = im.numerator * pow(im.denominator, -1, _P) % _P
        rows.setdefault(r, {})[c] = (a, b)
    pivots: dict = {}
    for row in rows.values():
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                a, b = row[c]
                n = pow(a * a + b * b, -1, _P)
                inv = (a * n % _P, -b * n % _P)
                pivots[c] = {k: _gaussian_mul(v, inv) for k, v in row.items()}
                break
            f = row[c]
            for k, v in prow.items():
                fa, fb = _gaussian_mul(f, v)
                a, b = row.get(k, (0, 0))
                a, b = (a - fa) % _P, (b - fb) % _P
                if a or b:
                    row[k] = (a, b)
                else:
                    row.pop(k, None)
    return len(pivots)


def test_rank_certificate_at_l4():
    # rank and kernel_basis certified without a second exact solver, at a
    # size where SymPy is too slow: the rank over F_{p^2} bounds the rank
    # from below, and kernel vectors that pass an exact product and have a 1
    # at their own free column (the largest column of their support, so the
    # vectors are independent) bound it from above
    from symtwist.forms import FormWindow, operator_matrix
    from symtwist.osp import lowering, raising
    from symtwist.symplectic import standard_space

    sp = standard_space(4)
    cases = [
        operator_matrix(lambda p: raising(sp, p), FormWindow(4, 4, 2)),
        operator_matrix(lambda p: lowering(sp, p), FormWindow(4, 3, 2)),
    ]
    for m in cases:
        vecs = kernel_basis(m)
        own = [max(v) for v in vecs]
        assert len(set(own)) == len(vecs)
        for v, f in zip(vecs, own):
            assert v[f] == ONE
            assert matvec(m, v) == {}
        lower, upper = _rank_mod_p(m), m.cols - len(vecs)
        assert lower == upper == rank(m)
        assert 0 < rank(m) < m.cols
