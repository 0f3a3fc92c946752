"""The four benchmark workloads and how a seed picks their inputs.

A workload is a list of CLI calls.  Each call is ``(key, argv)``: ``key``
names the report in ``digests.json`` and ``argv`` is passed to
``symtwist.cli.main`` with ``{work}`` replaced by the run's scratch
directory.  The benchmark seed only chooses among inputs whose reports were
recorded, so every seed can be checked against a digest:

* ``symbol-check-l3d2``: seed 0 is the canonical covector; any other seed
  draws ``xi = c * eps^k`` with ``k`` in ``l .. 2l-1`` (sharp in the first
  Lagrangian, so the standard regime and the weight-blocked path) and ``c``
  from ``SYMBOL_COEFFS``.
* ``curvature-l3``: the seed draws ``CURVATURE_TENSORS`` distinct tensor
  seeds out of ``range(CURVATURE_POOL)``; seed 0 takes the first ones.
* ``decompose-l3d1`` and ``relations-l3d2`` have no random input; the seed
  is ignored.
"""

from __future__ import annotations

import random

L = 3
SYMBOL_DEGREE = 2
SYMBOL_SLACK = 4
# small nonzero rationals of low height, so every draw costs about the same
SYMBOL_COEFFS = ("1", "-1", "2", "-2", "1/2", "-1/2")
CURVATURE_TENSORS = 10
CURVATURE_POOL = 40

NAMES = ("symbol-check-l3d2", "decompose-l3d1", "relations-l3d2", "curvature-l3")


def xi_text(k: int, c: str, l: int = L) -> str:
    comps = ["0"] * (2 * l)
    comps[k] = c
    return ",".join(comps)


def symbol_xi_choices(l: int = L) -> list:
    """Every ``--xi`` value a seed can pick: canonical first."""
    return ["canonical"] + [xi_text(k, c, l) for k in range(l, 2 * l) for c in SYMBOL_COEFFS]


def symbol_xi(seed: int, l: int = L) -> str:
    if seed == 0:
        return "canonical"
    rng = random.Random(seed)
    k = rng.randrange(l, 2 * l)
    return xi_text(k, rng.choice(SYMBOL_COEFFS), l)


def curvature_seeds(seed: int) -> list:
    if seed == 0:
        return list(range(CURVATURE_TENSORS))
    return random.Random(seed).sample(range(CURVATURE_POOL), CURVATURE_TENSORS)


def symbol_call(l: int, degree: int, slack: int, xi: str) -> tuple:
    flags = ["--l", str(l), "--degree", str(degree), "--slack", str(slack), "--xi", xi]
    key = "symbol-check " + " ".join(flags)
    return key, ["symbol-check", *flags, "--out", "{work}/symbol-check.json"]


def suite_call(command: str, l: int, degree: int) -> tuple:
    flags = ["--l", str(l), "--degree", str(degree)]
    key = command + " " + " ".join(flags)
    return key, [command, *flags, "--out", "{work}/" + command + ".json"]


def curvature_calls(l: int, tensor_seed: int) -> list:
    """Generate one tensor, then decompose it from the file just written."""
    tensor = f"{{work}}/tensor-{tensor_seed}.json"
    return [
        (f"gen-curvature --l {l} --seed {tensor_seed}",
         ["gen-curvature", "--l", str(l), "--seed", str(tensor_seed), "--out", tensor]),
        (f"curvature --input <gen-curvature --l {l} --seed {tensor_seed}>",
         ["curvature", "--input", tensor, "--out", f"{{work}}/curvature-{tensor_seed}.json"]),
    ]


def calls(name: str, seed: int) -> list:
    """The CLI calls of one repetition of workload ``name`` at ``seed``."""
    if name == "symbol-check-l3d2":
        return [symbol_call(L, SYMBOL_DEGREE, SYMBOL_SLACK, symbol_xi(seed))]
    if name == "decompose-l3d1":
        return [suite_call("decompose", L, 1)]
    if name == "relations-l3d2":
        return [suite_call("relations", L, 2)]
    if name == "curvature-l3":
        return [c for s in curvature_seeds(seed) for c in curvature_calls(L, s)]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def all_recorded_calls() -> list:
    """Every call any seed can make: the set ``digests.json`` must cover."""
    out = [symbol_call(L, SYMBOL_DEGREE, SYMBOL_SLACK, xi) for xi in symbol_xi_choices()]
    out.append(suite_call("decompose", L, 1))
    out.append(suite_call("relations", L, 2))
    for s in range(CURVATURE_POOL):
        out.extend(curvature_calls(L, s))
    return out
