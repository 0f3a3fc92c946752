"""Golden report bytes: the CLI reports must not change under refactoring.

Each case runs ``cli.main`` in-process, writes its report to a file and
compares the exit code and the sha256 of the report bytes with values
recorded once.  The configurations are the four of acceptance criterion 9,
``project --l 2 --degree 1``, ``symbol-check`` at the covector (0, 0, 1, 1)
(standard regime, not a multiple of one basis covector), ``symbol-check``
and ``project`` at l=3, D=1 (edge bases above and below the halfway degree
with more than one component per column), ``symbol-check`` at l=3, D=2
(the benchmark's configuration), ``relations`` at l=3, D=1 (the
Clifford action at l=3), and ``curvature --input`` on the tensor from
``gen-curvature --l 2 --seed 7``.  A mismatch means the report changed;
the recorded values are not to be rewritten to make a change pass.
"""

import hashlib

import pytest

from symtwist.cli import main

GOLDEN = {
    "relations-l2d2": (
        ("relations", "--l", "2", "--degree", "2"),
        0,
        "80819edee41fda32837c1b282166d2b74ab611ac9d0b3676d90f5fb5802d79b1",
    ),
    "decompose-l2d1": (
        ("decompose", "--l", "2", "--degree", "1"),
        0,
        "0aa6f8c2e6c846b1e94199bf946317818b30a6d417d91b273d78ae16ba25f7cc",
    ),
    "symbol-check-l2d1": (
        ("symbol-check", "--l", "2", "--degree", "1", "--slack", "4"),
        1,
        "3ed59a638b1e00bfa3ad046336d5d33f9af488d155b0c8d089f43c3e794f6758",
    ),
    "symbol-check-l2d1-xi0011": (
        ("symbol-check", "--l", "2", "--degree", "1", "--xi", "0,0,1,1"),
        1,
        "f95c93661c868956324d224c56868fdc0d163831868007dd9e3f6835f1181d5a",
    ),
    "gen-curvature-l3s11": (
        ("gen-curvature", "--l", "3", "--seed", "11"),
        0,
        "29ff3e58ac5482c98709e167a791f31387d8c8725dc17d721b454fb17598a3c2",
    ),
    "project-l2d1": (
        ("project", "--l", "2", "--degree", "1"),
        0,
        "222e5a45c9a4e120512da17ea2703112106f54140a2bd271e5ae1c96f8121613",
    ),
    "symbol-check-l3d1": (
        ("symbol-check", "--l", "3", "--degree", "1"),
        1,
        "b37ad3882926d1aa580f2f4978c0008f5c6164f10ce3e348d6f03f7d3f1e3cfe",
    ),
    "symbol-check-l3d2": (
        ("symbol-check", "--l", "3", "--degree", "2"),
        1,
        "c745ea023a878219a01c4287a9538ffc202fffd1b0c2618c87af707252a24e5d",
    ),
    "project-l3d1": (
        ("project", "--l", "3", "--degree", "1"),
        0,
        "cf18e0016280124b66e28130447d1ac3caf3ee5a041f025141bbdcd5bb186326",
    ),
    "relations-l3d1": (
        ("relations", "--l", "3", "--degree", "1"),
        0,
        "91828afeb6f98a8f719e011fac7bf9ef8d6e9b970959d60a705e1a1e13ea41a8",
    ),
}

GEN_L2_SEED7 = "625b29d14aa50fec149e0d5269336119a8e9c994073b2285886c4d94cfeaaaa6"
CURVATURE_L2_SEED7 = (0, "8ebe374c29c7b4403ebe7e3ed9d239421350ffc0618cf043f4bd03bb20f66aeb")


def _run(tmp_path, name, args):
    out = tmp_path / f"{name}.json"
    code = main([*args, "--out", str(out)])
    return code, hashlib.sha256(out.read_bytes()).hexdigest(), out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_match_golden(tmp_path, name):
    args, code, digest = GOLDEN[name]
    assert _run(tmp_path, name, args)[:2] == (code, digest)


def test_curvature_report_bytes_match_golden(tmp_path):
    _code, gen_digest, tensor = _run(
        tmp_path, "tensor", ("gen-curvature", "--l", "2", "--seed", "7")
    )
    assert gen_digest == GEN_L2_SEED7
    got = _run(tmp_path, "curvature", ("curvature", "--input", str(tensor)))[:2]
    assert got == CURVATURE_L2_SEED7
