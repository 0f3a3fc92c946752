"""Smoke test of the benchmark itself, in a few seconds.

    python3 bench/smoke.py

Runs every workload's code path at l=2, D=1 through the same child process
the benchmark uses, untraced and traced, and checks that:

* the report bytes and exit codes with tracing on equal those with it off;
* the digest check counts a changed digest, a changed exit code and a
  missing digest as failures, and nothing else;
* the tracer sees every layer a workload uses and no ``linalg`` call on the
  relations suite;
* ``BENCHMARK.json``, ``workloads.py`` and ``digests.json`` agree;
* ``run.py`` refuses to run, without printing a result, where there is no
  package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import HERE, OUT, ROOT, count_failed, load_digests, metric_units, run_child
from tracer import summarize
import workloads


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"smoke: FAILED: {what}")
    print(f"smoke: ok: {what}")


def small_calls() -> dict:
    return {
        "symbol-check": [
            workloads.symbol_call(2, 1, 4, "canonical"),
            workloads.symbol_call(2, 1, 4, workloads.xi_text(3, "-1/2", 2)),
        ],
        "decompose": [workloads.suite_call("decompose", 2, 1)],
        "relations": [workloads.suite_call("relations", 2, 1)],
        "curvature": workloads.curvature_calls(2, 0) + workloads.curvature_calls(2, 1),
    }


def check_traced_equals_untraced(work) -> None:
    groups = small_calls()
    calls = [c for group in groups.values() for c in group]
    plain = run_child(work / "plain", calls)
    traced = run_child(work / "traced", calls, work / "trace.json")
    check(plain["reports"] == traced["reports"],
          "report bytes and exit codes equal with tracing on")
    check(all(r["exit"] in (0, 1) for r in plain["reports"]), "every small call ran to a verdict")

    layers = summarize(json.loads((work / "trace.json").read_text(encoding="utf-8")))
    check(layers["cli.main.calls"] == len(calls), "one cli.main span per report")
    missing = [k for k in metric_units("per_layer")
               if not k.startswith("trace.") and k not in layers]
    check(not missing, f"tracer gives every per-layer metric (missing: {missing})")
    used = ["symbols.symbol_apply.calls", "osp.component_basis.calls",
            "forms.operator_matrix.calls", "spinors.clifford_apply.calls",
            "linalg.solve.calls", "linalg.kernel_basis.calls", "curvature.validate.calls",
            "scalars.mul", "scalars.div", "scalars.add_sub"]
    check(all(layers[k] > 0 for k in used), "every layer is seen")
    check(0 < layers["linalg.solve.consistent_ratio"] <= 1, "consistent ratio within (0, 1]")

    # digest check against the untraced reports as reference
    ref = {r["key"]: {"exit": r["exit"], "sha256": r["sha256"]} for r in plain["reports"]}
    check(count_failed(traced["reports"], ref) == 0, "identical reports pass the digest check")
    bad = json.loads(json.dumps(traced["reports"]))
    bad[0]["sha256"] = "0" * 64
    bad[1]["exit"] = 2
    bad[2]["key"] = "not recorded"
    check(count_failed(bad, ref) == 3, "changed digest, exit code and missing key all fail")

    rel = run_child(work / "rel", groups["relations"], work / "trace-rel.json")
    rel_layers = summarize(json.loads((work / "trace-rel.json").read_text(encoding="utf-8")))
    check(count_failed(rel["reports"], ref) == 0, "relations report unchanged when run alone")
    check(all(rel_layers[f"linalg.{f}.calls"] == 0 for f in ("solve", "kernel_basis", "rank")),
          "no linalg calls on the relations suite")


def check_definitions() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([w["name"] for w in bench["workloads"]] == list(workloads.NAMES), "workload names agree")

    digests = load_digests()
    needed = {key for key, _ in workloads.all_recorded_calls()}
    check(needed <= set(digests), "digests cover every call a seed can make")
    seen = {key for name in workloads.NAMES for s in range(200)
            for key, _ in workloads.calls(name, s)}
    check(seen <= needed, "seeds 0..199 only make recorded calls")


def check_refuses_without_source(work) -> None:
    bare = work / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", workloads.NAMES[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "run.py refuses where there is no source")


def main() -> None:
    work = OUT / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    try:
        check_definitions()
        check_traced_equals_untraced(work)
        check_refuses_without_source(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
