"""The window tables a symplectic space keeps.

``osp`` keeps every edge basis, every column of component bases and every
Lagrange table on the space it was built for, so a second request reads
the kept table and builds no operator matrix.  A table never outlives its
space: a faulty operator run on a fresh space meets none of the tables a
clean run kept on another.  No function of the package takes a cache of
its own, and ``symbols`` keeps none in a closure either: its one solve
site is ``_solutions``.
"""

import ast
from pathlib import Path

from conftest import _failing, _patch_everywhere
from test_decompose_faults import EXPECTED, _raising_doubled

from symtwist import osp
from symtwist.forms import FormWindow
from symtwist.osp import component_basis, edge_basis, m_index, triangle_labels
from symtwist.suites import run_decompose
from symtwist.symplectic import standard_space


def _count_operator_matrices(monkeypatch):
    built = []
    build = osp.operator_matrix

    def counted(fn, domain):
        built.append(domain)
        return build(fn, domain)

    monkeypatch.setattr(osp, "operator_matrix", counted)
    return built


def test_space_keeps_edge_and_component_bases(monkeypatch):
    l, D = 2, 1
    sp = standard_space(l)
    built = _count_operator_matrices(monkeypatch)
    images = []
    ff_plus = osp.ff_plus
    monkeypatch.setattr(osp, "ff_plus", lambda sp, psi: images.append(psi) or ff_plus(sp, psi))
    edges = [edge_basis(sp, r, D) for r in range(2 * l + 1)]
    # a first-order kernel on each window strictly inside the triangle
    assert len(built) == 2 * l - 1
    columns = [
        [component_basis(sp, r, j, D) for j in range(m_index(l, r) + 1)] for r in range(2 * l + 1)
    ]
    # one matrix per label, and one F-F+ call per column, on the labelled
    # sum of its window: each window element's image is built once for all
    # the labels of its column
    assert len(built) == 2 * l - 1 + len(triangle_labels(l))
    assert [len(psi.keys()) for psi in images] == [FormWindow(l, r, D).dim for r in range(2 * l + 1)]
    before = len(built), len(images)
    assert all(edge_basis(sp, r, D) is edges[r] for r in range(2 * l + 1))
    assert all(
        component_basis(sp, r, j, D) is basis
        for r, column in enumerate(columns)
        for j, basis in enumerate(column)
    )
    assert (len(built), len(images)) == before


def test_clean_tables_stay_on_their_space(monkeypatch):
    clean = standard_space(2)
    assert _failing(run_decompose(clean, 1)) == {}
    assert clean._memo
    assert _patch_everywhere(monkeypatch, osp.raising, _raising_doubled(osp.raising)) >= 2
    report = run_decompose(standard_space(2), 1)
    assert _failing(report) == EXPECTED["raising-doubled"]


def test_no_function_takes_a_cache_parameter():
    src = Path(__file__).resolve().parents[1] / "src" / "symtwist"
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                    if arg is not None and arg.arg in ("cache", "_cache"):
                        found.append(f"{path.name}:{node.lineno} {arg.arg}")
    assert found == []


def test_only_linalg_and_forms_know_the_row_format():
    # an OperatorMatrix holds rows {col: (a, b)} over column denominators;
    # forms.operator_matrix is the one builder, so no other module names
    # the class or reads its rows (the package __init__ only re-exports it)
    src = Path(__file__).resolve().parents[1] / "src" / "symtwist"
    found = []
    for path in sorted(src.rglob("*.py")):
        if path.name in ("linalg.py", "forms.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("_rows", "_dens"):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
            if path.name == "__init__.py":
                continue
            if isinstance(node, ast.Name) and node.id == "OperatorMatrix":
                found.append(f"{path.name}:{node.lineno} OperatorMatrix")
            if isinstance(node, ast.ImportFrom):
                if any(a.name == "OperatorMatrix" for a in node.names):
                    found.append(f"{path.name}:{node.lineno} imports OperatorMatrix")
    assert found == []


def _solves_and_closures(node, owner, found, name):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if owner is not None and name == "symbols.py":
                found.append(f"{name}:{child.lineno} {child.name} defined in {owner}")
            _solves_and_closures(child, child.name, found, name)
            continue
        if isinstance(child, ast.Call):
            f = child.func
            called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if called in ("solve", "form_to_coords") and (name, owner) != ("symbols.py", "_solutions"):
                found.append(f"{name}:{child.lineno} {called} called in {owner}")
        _solves_and_closures(child, owner, found, name)


def test_forms_are_solved_in_one_place():
    # symbols._solutions is the one place a form becomes a right-hand side
    # and is solved, and symbols keeps no closure (its untruncated
    # diagnostic once kept its matrices in one)
    src = Path(__file__).resolve().parents[1] / "src" / "symtwist"
    found = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        _solves_and_closures(tree, None, found, path.name)
    assert found == []
