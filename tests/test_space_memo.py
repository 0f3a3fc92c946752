"""The window tables a symplectic space keeps.

``osp`` keeps every edge basis, every column of component bases and every
Lagrange table on the space it was built for, so a second request reads
the kept table and builds no operator matrix.  A table never outlives its
space: a faulty operator run on a fresh space meets none of the tables a
clean run kept on another.  No function of the package takes a cache of
its own.
"""

import ast
from pathlib import Path

from test_decompose_faults import EXPECTED, _failing, _patch_everywhere, _raising_doubled

from symtwist import osp
from symtwist.osp import component_basis, edge_basis, m_index
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
    edges = [edge_basis(sp, r, D) for r in range(2 * l + 1)]
    # a first-order kernel on each window strictly inside the triangle
    assert len(built) == 2 * l - 1
    columns = [
        [component_basis(sp, r, j, D) for j in range(m_index(l, r) + 1)] for r in range(2 * l + 1)
    ]
    # one F-F+ matrix per column serves all its labels
    assert len(built) == 2 * l - 1 + 2 * l + 1
    before = len(built)
    assert all(edge_basis(sp, r, D) is edges[r] for r in range(2 * l + 1))
    assert all(
        component_basis(sp, r, j, D) is basis
        for r, column in enumerate(columns)
        for j, basis in enumerate(column)
    )
    assert len(built) == before


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
