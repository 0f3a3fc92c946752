"""The benchmark harness still runs against the package sources.

``bench/smoke.py`` runs every workload's code path at l=2, D=1, traced and
untraced, and checks the tracer and the recorded digests; a change in the
package that breaks the harness (a renamed layer, a report that no longer
matches its digest) fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_passes():
    res = subprocess.run(
        [sys.executable, "bench/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert res.returncode == 0, res.stdout + res.stderr
    assert "smoke: all checks passed" in res.stdout
