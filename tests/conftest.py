"""The CLI tests start ``python -m symtwist`` in subprocesses; put the
source tree on their import path too, so that a bare ``pytest`` tests the
checkout without an install (pyproject's ``pythonpath`` covers only the
test process itself)."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
