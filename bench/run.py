"""symtwist benchmark: drive ``symtwist.cli.main`` on a fixed workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory, nothing is installed.  One caller, no threads, a closed
loop: each repetition of the workload runs in a fresh interpreter
(``child.py``) and starts only after the previous one ended.  Repetitions
continue while the next one is expected to end within ``--seconds``; at
least one always runs.

``--trace 0`` prints the end-to-end metrics (medians over the run):
``wall_s`` (first ``cli.main`` call to last report written), ``setup_s``
(``import symtwist.cli`` in a fresh interpreter), ``peak_rss_mb`` (of the
process running the workload).  ``--trace 1`` runs the workload once
untraced and once traced and prints the per-layer metrics (see README.md).
Metric names and units are those listed in ``BENCHMARK.json``.  Every
report is checked against ``digests.json``; the last line of output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in turn and prints a table instead.

A run record (host calibration, every sample, the metrics) is written to
``.bench_out/`` in the checkout, next to the trace of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import summarize  # noqa: E402

# setup probes run in slots, before the first repetition and after each one,
# so that the setup median samples the host over the whole run
PROBES_PER_SLOT = 3
# one run, traced or not, must end within 180 s even on a slow host
RUN_BUDGET_S = 170


def metric_units(kind: str) -> dict:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[kind]}


class BenchError(Exception):
    """A benchmark child failed or the run budget ran out."""


def calibrate() -> float:
    """Seconds for a fixed pure-Python Fraction loop: the host's own speed.

    Recorded next to the metrics, never used to normalise them.
    """
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 20001):
        acc = acc * Fraction(k, k + 1) + Fraction(1, k)
        if acc.denominator > 1 << 64:
            acc = Fraction(acc.numerator % 1009, 1 + acc.denominator % 997)
    return time.perf_counter() - t0


def host_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def run_child(work: Path, calls: list, trace_path=None, timeout=RUN_BUDGET_S) -> dict:
    """Run ``calls`` in a fresh interpreter and return its result record."""
    if timeout <= 0:
        raise BenchError(f"run budget of {RUN_BUDGET_S} s used up")
    work.mkdir(parents=True, exist_ok=True)
    spec_path, result_path = work / "spec.json", work / "result.json"
    if result_path.exists():
        result_path.unlink()
    spec = {
        "src": str(SRC),
        "work": str(work),
        "calls": calls,
        "trace": None if trace_path is None else str(trace_path),
    }
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
        cwd=str(ROOT), env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=timeout, text=True,
    )
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"benchmark child failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def count_failed(reports: list, digests: dict) -> int:
    """Reports whose exit code or JSON bytes differ from the recorded ones."""
    failed = 0
    for rep in reports:
        want = digests.get(rep["key"])
        if want is None or want["exit"] != rep["exit"] or want["sha256"] != rep["sha256"]:
            failed += 1
    return failed


def load_digests() -> dict:
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)["reports"]


def measure(name: str, seed: int, seconds: float, trace: bool, digests: dict) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    calls = workloads.calls(name, seed)
    work = OUT / f"work-{os.getpid()}"

    def child(calls, trace_path=None):
        return run_child(work, calls, trace_path, deadline - time.monotonic())

    OUT.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "host": host_record(), "calibration_s": [calibrate()]}
    reports = []
    try:
        if trace:
            trace_path = OUT / f"trace-{name}.json"
            plain = child(calls)
            traced = child(calls, trace_path)
            reports = plain["reports"] + traced["reports"]
            with open(trace_path, encoding="utf-8") as fh:
                layers = summarize(json.load(fh))
            layers["trace.wall_s"] = traced["wall_s"]
            layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            values = layers
            record["layers"] = layers
        else:
            def probe():
                return [child([])["import_s"] for _ in range(PROBES_PER_SLOT)]

            child([])  # warm-up: a fresh checkout compiles bytecode here
            probes, reps = [], []
            start = time.perf_counter()
            while True:
                probes += probe()
                t0 = time.perf_counter()
                reps.append(child(calls))
                cost = time.perf_counter() - t0
                if time.perf_counter() - start + cost > seconds:
                    break
            probes += probe()
            for r in reps:
                reports.extend(r["reports"])
            values = {
                "wall_s": statistics.median(r["wall_s"] for r in reps),
                "setup_s": statistics.median(probes),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            }
            record["samples"] = {
                "setup_s": probes,
                "wall_s": [r["wall_s"] for r in reps],
                "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["calibration_s"].append(calibrate())
    units = metric_units("per_layer" if trace else "end_to_end")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    failed = count_failed(reports, digests)
    result = {"correct": failed == 0, "attempted": len(reports), "failed": failed,
              "metrics": metrics}
    record["result"] = result
    rec_path = OUT / f"record-{name}-seed{seed}-trace{int(trace)}.json"
    rec_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result


def print_table(name: str, result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"# {name}: failed_frac {failed}/{attempted} = {failed / attempted:.4g}")
    for key, m in result["metrics"].items():
        print(f"#   {key:40s} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "symtwist" / "cli.py").is_file():
        print(f"error: no symtwist source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    try:
        digests = load_digests()
        names = workloads.NAMES if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace), digests)
            print_table(name, results[name])
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
