"""Every report the benchmark can ask for still has its recorded bytes.

Runs each call of ``bench/workloads.all_recorded_calls()`` back to back
through ``cli.main`` in this process, and compares its exit code and the
sha256 of its report with ``bench/digests.json``.  Only reads ``bench/``.
"""

import hashlib
import json
import sys
from pathlib import Path

from symtwist.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


def test_every_recorded_report_matches_its_digest(tmp_path):
    recorded = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))["reports"]
    calls = _workloads().all_recorded_calls()
    assert len(calls) == len(recorded) == 101
    got = {}
    for key, argv in calls:
        argv = [a.replace("{work}", str(tmp_path)) for a in argv]
        code = main(argv)
        out = Path(argv[argv.index("--out") + 1])
        got[key] = {"exit": code, "sha256": hashlib.sha256(out.read_bytes()).hexdigest()}
    assert got == recorded
