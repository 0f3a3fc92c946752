"""Spans and counters around the calls into each symtwist module.

The tracer wraps functions from outside the package: for every traced
function it replaces the name in every ``symtwist`` module that holds it,
so calls through ``from .x import y`` names and calls inside the defining
module are both seen.  Spans (name, start, end, parent span, report) stay in
memory in flat arrays; ``write`` saves them with the counters as one JSON
file, and ``summarize`` turns such a file into the per-layer metrics.

A report is one ``cli.main`` call; its index is the report id of every
span it encloses.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter_ns

# module -> public functions traced.  A few tiny leaf helpers (weight keys,
# index arithmetic, monomial keys) are left out: wrapping them would cost
# more than they do, and their time counts in their caller's self time.
FUNCTIONS = {
    "cli": ("main",),
    "suites": ("run_relations", "run_decompose", "run_project"),
    "symbols": ("symbol_apply", "check_complex", "check_exactness", "cartan_preimage"),
    "osp": (
        "raising", "lowering", "omega_wedge", "omega_trace", "grading", "apply_osp",
        "ff_plus", "project_component", "edge_projector", "primitive_basis",
        "component_basis", "edge_kernel_dim", "chain_model", "project_wedge",
    ),
    "forms": (
        "wedge", "contract", "clifford_on_form", "operator_matrix",
        "form_to_coords", "coords_to_form",
    ),
    "spinors": ("clifford_apply", "commutator_defect", "clifford_matrix", "clifford_kernel"),
    "linalg": ("solve", "kernel_basis", "rank"),
    "curvature": (
        "ricci_contract", "sigma_tilde", "weyl_part", "is_ricci_type",
        "random_ricci_type", "scalar_curvature_contraction",
    ),
}
# the JSON codecs of the curvature module share one span name
CURVATURE_JSON = ("curvature_to_json", "curvature_from_json", "ricci_to_json")
LAYERS = tuple(FUNCTIONS)

# Scalar operators counted (not timed).  __radd__/__rmul__ are aliases bound
# at class creation, so they are patched on their own; __rtruediv__ delegates
# to __truediv__ and is counted there.
SCALAR_OPS = {
    "__add__": "add_sub", "__radd__": "add_sub", "__sub__": "add_sub",
    "__rsub__": "add_sub", "__mul__": "mul", "__rmul__": "mul", "__truediv__": "div",
}


def _bits(vectors) -> int:
    """Largest numerator or denominator bit length in sparse vectors."""
    best = 0
    for vec in vectors:
        for z in vec.values():
            for f in (z.re, z.im):
                best = max(best, f.numerator.bit_length(), f.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_report = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self._report = -1
        self.counters = {
            "scalars.mul": 0, "scalars.div": 0, "scalars.add_sub": 0,
            "forms.operator_matrix.nnz": 0, "forms.window_dim.max": 0,
            "linalg.input_nnz": 0, "linalg.blocks": 0, "linalg.block_dim.max": 0,
            "linalg.solve.consistent": 0, "linalg.solve.repeat_matrix": 0,
            "linalg.coeff_bits.max": 0,
        }
        self._solved: set = set()

    # -- wrapping ---------------------------------------------------------

    def _name_id(self, name) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, name, fn, post=None, report=False):
        nid = self._name_id(name)
        names, parents, reports = self.span_name, self.span_parent, self.span_report
        starts, ends, stack = self.span_start, self.span_end, self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            if report:
                tracer._report += 1
                tracer._solved = set()
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            reports.append(tracer._report)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if post is not None:
                post(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, original, wrapper):
        """Point every symtwist module name bound to ``original`` at ``wrapper``."""
        for modname, mod in list(sys.modules.items()):
            if modname != "symtwist" and not modname.startswith("symtwist."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def install(self):
        import symtwist.cli  # noqa: F401  (loads every traced module)
        from symtwist import curvature, forms, scalars

        posts = {
            "linalg.solve": self._after_solve,
            "linalg.kernel_basis": self._after_kernel,
            "linalg.rank": self._after_rank,
            "forms.operator_matrix": self._after_operator_matrix,
        }
        for layer, fnames in FUNCTIONS.items():
            mod = sys.modules["symtwist." + layer]
            for fname in fnames:
                name = f"{layer}.{fname}"
                original = getattr(mod, fname, None)
                if original is None:
                    print(f"tracer: {name} not found, its metrics read 0", file=sys.stderr)
                    self._name_id(name)
                    continue
                wrapper = self._span(name, original, posts.get(name), report=name == "cli.main")
                self._replace(original, wrapper)
        for fname in CURVATURE_JSON:
            original = getattr(curvature, fname)
            self._replace(original, self._span("curvature.json", original))

        cls = curvature.CurvatureTensor
        cls.__init__ = self._span("curvature.validate", cls.__init__)

        win_init = forms.FormWindow.__init__
        counters = self.counters

        def window_init(win, *args, **kwargs):
            win_init(win, *args, **kwargs)
            if len(win.basis) > counters["forms.window_dim.max"]:
                counters["forms.window_dim.max"] = len(win.basis)

        forms.FormWindow.__init__ = window_init

        ops = scalars.Scalar.__dict__
        for attr, key in SCALAR_OPS.items():
            setattr(scalars.Scalar, attr, self._counted(ops[attr], "scalars." + key))

    def _counted(self, fn, key):
        counters = self.counters

        def op(a, b):
            counters[key] += 1
            return fn(a, b)

        return op

    # -- counters taken at the call boundaries ------------------------------

    def _matrix_stats(self, m, row_keys, col_keys):
        c = self.counters
        c["linalg.input_nnz"] += len(m.entries)
        if row_keys is None and col_keys is None:
            blocks = [(m.rows, m.cols)]
        else:
            rows: dict = {}
            cols: dict = {}
            for k in row_keys:
                rows[k] = rows.get(k, 0) + 1
            for k in col_keys:
                cols[k] = cols.get(k, 0) + 1
            blocks = [(rows.get(k, 0), n) for k, n in cols.items()]
        c["linalg.blocks"] += len(blocks)
        biggest = max((max(b) for b in blocks), default=0)
        c["linalg.block_dim.max"] = max(c["linalg.block_dim.max"], biggest)

    @staticmethod
    def _keys(args, kwargs, first):
        """(row_keys, col_keys) passed at positions first, first + 1 or by name."""
        row_keys = kwargs.get("row_keys", args[first] if len(args) > first else None)
        col_keys = kwargs.get("col_keys", args[first + 1] if len(args) > first + 1 else None)
        return row_keys, col_keys

    def _after_solve(self, args, kwargs, x):
        m = args[0]
        self._matrix_stats(m, *self._keys(args, kwargs, 2))
        c = self.counters
        fingerprint = hash((m.rows, m.cols, frozenset(m.entries.items())))
        if fingerprint in self._solved:
            c["linalg.solve.repeat_matrix"] += 1
        self._solved.add(fingerprint)
        if x is not None:
            c["linalg.solve.consistent"] += 1
            c["linalg.coeff_bits.max"] = max(c["linalg.coeff_bits.max"], _bits([x]))

    def _after_kernel(self, args, kwargs, vecs):
        self._matrix_stats(args[0], *self._keys(args, kwargs, 1))
        c = self.counters
        c["linalg.coeff_bits.max"] = max(c["linalg.coeff_bits.max"], _bits(vecs))

    def _after_rank(self, args, kwargs, _):
        self._matrix_stats(args[0], None, None)

    def _after_operator_matrix(self, args, kwargs, m):
        self.counters["forms.operator_matrix.nnz"] += len(m.entries)

    # -- output ---------------------------------------------------------------

    def write(self, path):
        data = {
            "names": self.names,
            "counters": self.counters,
            "spans": {
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "report": self.span_report.tolist(),
                "start_ns": self.span_start.tolist(),
                "end_ns": self.span_end.tolist(),
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))


def summarize(trace: dict) -> dict:
    """Per-layer metrics from a written trace: calls, busy and self time.

    ``busy_s`` of a function counts only its outermost spans, so recursion
    is not counted twice; ``<layer>.self_s`` is the summed span time of the
    layer minus the time covered by each span's direct children.
    """
    names = trace["names"]
    sp = trace["spans"]
    name, parent = sp["name"], sp["parent"]
    dur = [e - s for s, e in zip(sp["start_ns"], sp["end_ns"])]
    child_ns = [0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child_ns[p] += dur[i]

    calls = [0] * len(names)
    busy = [0] * len(names)
    layer_self = {layer: 0 for layer in LAYERS}
    for i, n in enumerate(name):
        calls[n] += 1
        p = parent[i]
        while p >= 0 and name[p] != n:
            p = parent[p]
        if p < 0:
            busy[n] += dur[i]
        layer_self[names[n].split(".")[0]] += dur[i] - child_ns[i]

    out = {}
    for n, full in enumerate(names):
        out[full + ".calls"] = calls[n]
        out[full + ".busy_s"] = busy[n] / 1e9
    for layer, ns in layer_self.items():
        out[layer + ".self_s"] = ns / 1e9
    c = trace["counters"]
    solves = out.get("linalg.solve.calls", 0)
    for key, value in c.items():
        if not key.startswith("linalg.solve."):
            out[key] = value
    for ratio, count in (("consistent_ratio", "consistent"),
                         ("repeat_matrix_ratio", "repeat_matrix")):
        out["linalg.solve." + ratio] = c["linalg.solve." + count] / solves if solves else 0.0
    return out
