"""One fresh interpreter: import symtwist, run a list of CLI calls, report.

Usage: ``python3 child.py SPEC RESULT``.  SPEC is a JSON file with
``src`` (the package's source directory), ``work`` (a scratch directory),
``calls`` (a list of ``[key, argv]``) and ``trace`` (a path for the trace
file, or null for an untraced run).  RESULT receives the import time, the
time from the first ``cli.main`` call to the last report written, the peak
RSS, and each call's exit code and report sha256.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])

    t0 = time.perf_counter()
    import symtwist.cli as cli

    import_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    runs = []
    for key, argv in spec["calls"]:
        argv = [a.replace("{work}", spec["work"]) for a in argv]
        out = argv[argv.index("--out") + 1]
        if os.path.exists(out):  # a report left by an earlier repetition
            os.remove(out)
        runs.append((key, argv, out))

    t0 = time.perf_counter()
    codes = [cli.main(argv) for _, argv, _ in runs]
    wall_s = time.perf_counter() - t0

    if tracer is not None:
        tracer.write(spec["trace"])

    reports = []
    for (key, _, out), code in zip(runs, codes):
        try:
            with open(out, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        except FileNotFoundError:  # the call failed before writing its report
            digest = None
        reports.append({"key": key, "exit": code, "sha256": digest})

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "import_s": import_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "reports": reports,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
