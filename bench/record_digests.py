"""Record the exit code and sha256 of every report a benchmark seed can ask for.

    python3 bench/record_digests.py

This fixes the reference verdicts in ``digests.json``.  It was run once, at
the commit that introduced the benchmark.  Do not run it again to make a
change pass: a different digest is a different report, and the benchmark
counts it as failed.  Run it only to add digests for calls that are new to
``workloads.all_recorded_calls()``; existing entries are never replaced.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import HERE, OUT, run_child
import workloads


def main() -> int:
    path = HERE / "digests.json"
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"reports": {}}
    known = data["reports"]
    # a curvature call reads the tensor its gen-curvature call wrote: keep pairs together
    groups, cur = [], []
    for key, argv in workloads.all_recorded_calls():
        cur.append((key, argv))
        if not key.startswith("gen-curvature"):
            groups.append(cur)
            cur = []
    groups = [g for g in groups if any(key not in known for key, _ in g)]
    work = OUT / f"record-{os.getpid()}"
    try:
        for n, group in enumerate(groups, 1):
            result = run_child(work, group)
            for rep in result["reports"]:
                known.setdefault(rep["key"], {"exit": rep["exit"], "sha256": rep["sha256"]})
            print(f"[{n}/{len(groups)}] {group[-1][0]}: {result['wall_s']:.2f} s", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        data["reports"] = dict(sorted(known.items()))
        path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
