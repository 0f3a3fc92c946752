"""Golden report bytes: the CLI reports must not change under refactoring.

Each case runs ``cli.main`` in-process, writes its report to a file and
compares the exit code and the sha256 of the report bytes with values
recorded once.  The configurations are the four of acceptance criterion 9,
``project --l 2 --degree 1``, ``symbol-check`` at the covector (0, 0, 1, 1)
(standard regime, not a multiple of one basis covector), ``symbol-check``
and ``project`` at l=3, D=1 (edge bases above and below the halfway degree
with more than one component per column), ``symbol-check`` at l=3, D=2
(the benchmark's configuration), ``relations`` at l=3, D=1 (the
Clifford action at l=3) and at l=3, D=2 (the benchmark's configuration),
``decompose`` at l=3, D=1 (the benchmark's
configuration), at l=3, D=2 and at l=4, D=1 (windows on which the span
check reaches degree D + 2l), ``symbol-check`` at l=2, D=2 on the fractional covector
(1/2, 0, -1/3, 2) (non-unit denominators), ``symbol-check`` at l=3, D=1 on
the off-axis covector (1, 0, 2, -1, 1, 3) (one large component of the
untruncated diagnostic matrix, solved against many times) and at l=3, D=2
with slack 4 on the same covector (the heaviest elimination of any pinned
configuration, with the largest intermediate fractions), ``symbol-check``
at l=4, D=1 (the l=4 edge and symbol matrices, and both windows of the
untruncated diagnostic at i=5 and i=6), ``relations`` at l=4, D=1 (every
operator on the largest pinned relations window), ``project`` at l=3, D=2
(its scale factors 2/(i-l) and i/(i-l) have odd denominators),
``symbol-check`` at l=3, D=2 with slack 4 on the covector
(0, 0, 0, 0, -1/2, 0) (matrices whose columns have non-unit image
denominators, on the weight-blocked path), ``symbol-check`` at l=3, D=2
with slack 4 on the covector (0, 1, 0, 0, 0, 0) (sharp in the second
Lagrangian, so every symbol map lowers the weight by one) and on
(0, 0, 0, 1, -2, 1/2) (three components in the second half, so the
symbol raises the weight by one), ``relations`` at l=5, D=1 (form-index
groups of up to six monomials, each moved whole by every operator),
``project`` at l=4, D=1 (many narrow edge forms, projected in labelled
batches), and
``curvature --input`` on the tensor from ``gen-curvature --l 2 --seed 7``.
``SYMBOL_GRID`` adds ``symbol-check`` at slack 0, 1 and 2 on l=2, D=1 and
2 at four covectors (one in each Lagrangian half, one meeting both and
the canonical one) and on l=3, D=1: the slack decides which kernel
vectors reach the untruncated diagnostic and at which degree bound.
Six more ``curvature --input`` cases cover the split beyond a zero Weyl
part: the tensors of ``gen-curvature --l 1 --seed 0`` and ``--l 3 --seed
11``, the l=2 tensor that is a Ricci-type tensor plus a trace-free
direction (not of Ricci type), an l=3 commutator tensor [G_X, G_Y] (not of
Ricci type at the benchmark's l, so W is nonzero there), a second one
whose entries have mixed non-unit and Gaussian denominators (15, 30 and
225: the common-denominator rendering of every part) and an l=1 tensor
with an asymmetric Ricci contraction (exit 1 with a diagnosis).  The
``relations`` goldens at l=2, D=2 and l=3, D=2 run again with their checks
split into 1 and into 3 shares (one in the process, the others in forked
children), which must give the same bytes.
A mismatch means the report changed; the recorded values are not to be
rewritten to make a change pass.
"""

import hashlib
import json

import pytest
from conftest import (
    asymmetric_contraction_l1,
    commutator_curvature_l3,
    commutator_curvature_l3_mixed,
    ricci_type_plus_weyl_l2,
)

from symtwist import suites
from symtwist.cli import main
from symtwist.curvature import curvature_to_json

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
    "relations-l3d2": (
        ("relations", "--l", "3", "--degree", "2"),
        0,
        "2e9b27a940f6fa0a51fdcab44421f7188731f2367c98713e8067d6bee60499d7",
    ),
    "decompose-l3d1": (
        ("decompose", "--l", "3", "--degree", "1"),
        0,
        "04809465112705e2364728e3fb561e17dc8ddda9a79c0aa962c0716bbf44941b",
    ),
    "decompose-l3d2": (
        ("decompose", "--l", "3", "--degree", "2"),
        0,
        "28f91f4c4444838d12b59c0fa788069236a8219072e011a85576dd8d5aee994f",
    ),
    "decompose-l4d1": (
        ("decompose", "--l", "4", "--degree", "1"),
        0,
        "a8872330976d8075b9b0855dfec595dce8e0d00c84d756ea2fd35ea1af145316",
    ),
    "symbol-check-l2d2-xi-fractional": (
        ("symbol-check", "--l", "2", "--degree", "2", "--xi", "1/2,0,-1/3,2"),
        1,
        "2c7c20bd255725ca176bdb108881457b566edbf14a0eb060fd811dd4f0c26eac",
    ),
    "symbol-check-l3d1-xi-offaxis": (
        ("symbol-check", "--l", "3", "--degree", "1", "--slack", "2", "--xi", "1,0,2,-1,1,3"),
        1,
        "a27eaf5ee1a6ecd4807e557d6a0bb451b654be5ac4cbfb1584b4cca3238a73c3",
    ),
    "symbol-check-l3d2-xi-offaxis": (
        ("symbol-check", "--l", "3", "--degree", "2", "--slack", "4", "--xi", "1,0,2,-1,1,3"),
        1,
        "3f8156be7f940f1a45b0c3411b60db4146214cf22c1bac5fdfadb6ece6f58540",
    ),
    "symbol-check-l4d1": (
        ("symbol-check", "--l", "4", "--degree", "1"),
        1,
        "d62fb485acf9d169a51001bd9b331aa18dd733b114c407ec0a23d7903758c10e",
    ),
    "relations-l4d1": (
        ("relations", "--l", "4", "--degree", "1"),
        0,
        "39388e22934503f1c2c48ef07eb3dd0d6fa5abf86c7b2ce960d683ae98798826",
    ),
    "project-l3d2": (
        ("project", "--l", "3", "--degree", "2"),
        0,
        "5edc121f4a69c6607485b4d8d662ea7fb598523c5cb356edf26ab8c6bb7dde7e",
    ),
    "symbol-check-l3d2-xi-half-axis": (
        ("symbol-check", "--l", "3", "--degree", "2", "--slack", "4", "--xi", "0,0,0,0,-1/2,0"),
        1,
        "ba9c51d26482fa0cc5240e56f7fdb2358854e9635d9ebaac003e24851da04c4e",
    ),
    "symbol-check-l3d2-xi-first-half": (
        ("symbol-check", "--l", "3", "--degree", "2", "--slack", "4", "--xi", "0,1,0,0,0,0"),
        0,
        "32f456e8ef3ad6540c2845a1f8620d0b3c20bc2ac3b36f09d4574d87f986c2a6",
    ),
    "symbol-check-l3d2-xi-second-half": (
        ("symbol-check", "--l", "3", "--degree", "2", "--slack", "4", "--xi", "0,0,0,1,-2,1/2"),
        1,
        "851a64ee2a4b7d2337dfcc98a4c23b03f67796643ebec263e307e05ba66bac2c",
    ),
    "relations-l5d1": (
        ("relations", "--l", "5", "--degree", "1"),
        0,
        "e8007030662f0720860b644486a1df6fae1117e3d2a10f276bb328e9445ee62a",
    ),
    "project-l4d1": (
        ("project", "--l", "4", "--degree", "1"),
        0,
        "9bfda5e36d982b50753b3b9c10c9d868b37a283835b4497e127c6210fec6ed57",
    ),
}

# symbol-check on a grid of small windows, slack 0 to 2: (l, D, slack,
# covector) -> (exit code, sha256).  The covectors are named as in the rows
# above; "first-half" is (0, 1, 0, 0), whose sharp lies in the second
# Lagrangian, "second-half" (0, 0, 1, -3), and the fractional and off-axis
# ones meet both halves.  Slack 2 on the off-axis covector is
# symbol-check-l3d1-xi-offaxis.
GRID_COVECTORS = {
    "first-half": "0,1,0,0",
    "second-half": "0,0,1,-3",
    "fractional": "1/2,0,-1/3,2",
    "offaxis": "1,0,2,-1,1,3",
}
SYMBOL_GRID = {
    (2, 1, 0, "canonical"): (1, "f436dc0545a1cc3c5a38024c6818f7c4d00eebd4312512901586d158977620eb"),
    (2, 1, 0, "first-half"): (1, "3fae45fef9f183b3b24ef990e12c5cd3c2e3c0837664e807a2095d52849f90fb"),
    (2, 1, 0, "second-half"): (1, "8a18e05570ccfc24cd4b6c6754efa29474e20fa91667f41db1ce017fdcbf43e5"),
    (2, 1, 0, "fractional"): (1, "69ac610dc0834e26156384c86502035ea1bbf23b2e986b2542d46b549b1c551a"),
    (2, 1, 1, "canonical"): (1, "87b6b00c0ce7fcfbf5057b0c86c8a763db4f640bc597e2a6c55ad6b77cf0089c"),
    (2, 1, 1, "first-half"): (1, "2e52056e37a6ba9b5104778bd436802ca8cd40be707d3530ed926ddaa0121b07"),
    (2, 1, 1, "second-half"): (1, "bc81e11fe03fb0061f60d6beb2381724591fc95d278df356ad9d810e5766265c"),
    (2, 1, 1, "fractional"): (1, "f2f2a722f37512cb4ccc6dc44dcb6146f50914b8daaa1059b22ef9fcfae253c0"),
    (2, 1, 2, "canonical"): (1, "34a36085376f4c7ab18d9d4b25476ed16c03f08aa035f4ff53a76628f874e913"),
    (2, 1, 2, "first-half"): (0, "643fbb75aba733eb611fd0605e7bac69f7ddb3b8be99e59c297f3332f7904fa3"),
    (2, 1, 2, "second-half"): (1, "4866048ea1570268c33f166f839f7d38c2c528bcf4898e89a41f7b234f88db16"),
    (2, 1, 2, "fractional"): (1, "cf3cfdd4c3ed72d7d6a9f20fe359fbd9474c039922c7760b9dcea8fbf2d7a631"),
    (2, 2, 0, "canonical"): (1, "83150339533a4af699acc9670d3d58008d259d7ba3be5632ad936831a17f277a"),
    (2, 2, 0, "first-half"): (1, "b527473ba5298fed0d248e5ad8539d588136037e79efb94c61f008231a641cda"),
    (2, 2, 0, "second-half"): (1, "9b4cc380ed8a01f771a8fbd22e70a461cda305dfeffa9258547c566f2b7d6d52"),
    (2, 2, 0, "fractional"): (1, "b912c5ff732db9ed542e4f71cadbf13f4a267b190fee64d078e524a3e8cc7ced"),
    (2, 2, 1, "canonical"): (1, "e9ab8e64e5709ec36f52cf090185c913944f93f4ac1d3d932f5bc537467328b9"),
    (2, 2, 1, "first-half"): (1, "569021617b1968d46d084dcdb35bea27b244886caaa3d72ac1275fda0c0808a5"),
    (2, 2, 1, "second-half"): (1, "8d875e12869fb20dbb8a49e6ba10a75fe1f91fe5605cd4f2000743c649801cd1"),
    (2, 2, 1, "fractional"): (1, "4087d21fb6d52a8e4398a635d89caec8ab9678b39b9ab96f32ccc58aeeb1d98e"),
    (2, 2, 2, "canonical"): (1, "f7691c2712af6cfadde7b26b1abf72d104095a72a275d44508a23ed7cd4f0b34"),
    (2, 2, 2, "first-half"): (0, "e5f921e1bcda232ecff65f34f4ecc6293622035d1ffbb805b0e228f04c16b580"),
    (2, 2, 2, "second-half"): (1, "9ee05fe0882ec8812a1d39976a565f650335e9ef53ed3a60f217bf3a3bb45c6f"),
    (2, 2, 2, "fractional"): (1, "f511029b16dc37872bc4a047dd758224b5ebbd632341adf8245344092329b2b4"),
    (3, 1, 0, "canonical"): (1, "4e306512ef7fd53ff7238b487e24cb56ff6e9638229da69d76a5fc8f215fa656"),
    (3, 1, 0, "offaxis"): (1, "78a1da042279d25a600990b04570ff07ce53a7923bab2e4c162fc61f7b3346b7"),
    (3, 1, 2, "canonical"): (1, "92ac54b786da33f957c3e87b7fe90d91af9d0989620e7ba36815c8175bc6328c"),
}
for (l, D, slack, xi), (code, digest) in SYMBOL_GRID.items():
    args = ("symbol-check", "--l", str(l), "--degree", str(D), "--slack", str(slack))
    if xi != "canonical":
        args += ("--xi", GRID_COVECTORS[xi])
    GOLDEN[f"symbol-check-l{l}d{D}-slack{slack}-xi-{xi}"] = (args, code, digest)

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


@pytest.mark.parametrize("shares", [1, 3])
@pytest.mark.parametrize("name", ["relations-l2d2", "relations-l3d2"])
def test_relations_bytes_do_not_depend_on_the_share_count(monkeypatch, tmp_path, name, shares):
    monkeypatch.setattr(suites, "_share_count", lambda n: shares)
    args, code, digest = GOLDEN[name]
    assert _run(tmp_path, name, args)[:2] == (code, digest)


def test_curvature_report_bytes_match_golden(tmp_path):
    _code, gen_digest, tensor = _run(
        tmp_path, "tensor", ("gen-curvature", "--l", "2", "--seed", "7")
    )
    assert gen_digest == GEN_L2_SEED7
    got = _run(tmp_path, "curvature", ("curvature", "--input", str(tensor)))[:2]
    assert got == CURVATURE_L2_SEED7


def _generated(l, seed):
    def write(tmp_path):
        return _run(tmp_path, "tensor", ("gen-curvature", "--l", l, "--seed", seed))[2]

    return write


def _built(build):
    def write(tmp_path):
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps(curvature_to_json(build())))
        return path

    return write


CURVATURE_INPUTS = {
    "gen-l1s0": (
        _generated("1", "0"),
        0,
        "800024e7800c28d3bb9fafbc0c5711cf935d5a3f620007a1eca0513cac268456",
    ),
    "gen-l3s11": (
        _generated("3", "11"),
        0,
        "152fa93270da0521e54e3b09cfaa3a41602364ed8b8e5f897f517d818d46ed5c",
    ),
    "ricci-type-plus-weyl-l2": (
        _built(lambda: ricci_type_plus_weyl_l2()[0]),
        0,
        "f79585014ecb496cc89300975651ecd7805c28a4ddee52c3706de1258ae5511b",
    ),
    "commutator-l3": (
        _built(commutator_curvature_l3),
        0,
        "5cddbb2009b4b7aec1301df7fb21f19bb57318988e1c892c50d27efaf4eba3c0",
    ),
    "commutator-l3-mixed": (
        _built(commutator_curvature_l3_mixed),
        0,
        "287956ec5b3225cdbc9a345049fd1c68f681334f0bdba6f9cb2ed3d9cdb82589",
    ),
    "asymmetric-contraction-l1": (
        _built(asymmetric_contraction_l1),
        1,
        "5a5ef62c1a2ca8d1e54d91c8495de43bf5b7a25f2ed0c9381f959f2f90551ef7",
    ),
}


@pytest.mark.parametrize("name", sorted(CURVATURE_INPUTS))
def test_curvature_input_report_bytes_match_golden(tmp_path, name):
    write, code, digest = CURVATURE_INPUTS[name]
    tensor = write(tmp_path)
    got = _run(tmp_path, "curvature", ("curvature", "--input", str(tensor)))
    assert got[:2] == (code, digest)
    if name in ("ricci-type-plus-weyl-l2", "commutator-l3", "commutator-l3-mixed"):
        assert json.loads(got[2].read_text())["is_ricci_type"] is False
    if name == "asymmetric-contraction-l1":
        assert "diagnosis" in json.loads(got[2].read_text())
