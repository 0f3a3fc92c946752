"""Command-line front end.

Subcommands drive the verification suites and the curvature decomposition,
emitting deterministic JSON (or text) reports: byte-identical output for
identical flags.  Exit status: 0 when every check passed (or was vacuous),
1 when some check failed, 2 for malformed configuration or input files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .curvature import (
    InvalidCurvatureError,
    curvature_from_json,
    curvature_to_json,
    random_ricci_type,
    ricci_contract,
    ricci_to_json,
    sigma_tilde,
)
from .scalars import Scalar, fraction_from_str
from .suites import run_decompose, run_project, run_relations
from .symbols import check_complex, check_exactness, describe_covector
from .symplectic import Covector, canonical_covector, standard_space

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


def _parse_xi(sp, text):
    if text == "canonical":
        return canonical_covector(sp), "canonical"
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != sp.dim:
        raise ValueError(f"--xi needs {sp.dim} comma-separated components or 'canonical'")
    xi = Covector(tuple(Scalar(fraction_from_str(p)) for p in parts))
    if xi.is_zero():
        raise ValueError("--xi must be nonzero")
    return xi, describe_covector(xi)


def _emit(report, args) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                _write(report, args.format, fh)
        except OSError as exc:
            raise ValueError(f"cannot write report to {args.out}: {exc}") from None
    elif sys.stdout is None:  # the process started with stdout closed
        raise ValueError("cannot write report to stdout: it is closed")
    else:
        try:
            _write(report, args.format, sys.stdout)
            sys.stdout.flush()
        except OSError as exc:
            # stdout is closed (a reader such as `head` has gone): point it
            # at the null device, so the flush at exit has nowhere to fail
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
            raise ValueError(f"cannot write report to stdout: {exc}") from None


def _write(report, fmt, fh) -> None:
    if fmt == "json":
        _write_json(report, fh, "\n", _STREAMED_LEVELS, {})
        fh.write("\n")
    else:
        lines = []
        _render_text(report, lines, "")
        fh.write("\n".join(lines) + "\n")


# json.dump with indent always runs the pure-Python encoder, with one write
# per token (about 33,000 for a 227 KB curvature report).  This writer makes
# the same text: strings are escaped by the C function json uses, each
# dict or list below the top levels is joined once, and the top levels are
# written one child at a time.
#
# A container that occurs more than once (a curvature report shares one
# leaf dict per distinct value, and one list per distinct row, block and
# plane) is rendered once per indent in one write:
# ``memo`` maps each indent to {id(node): (node, text)} for the containers
# rendered at it.  Holding the node keeps its id from being reused, and the
# memo lives for one _write call only, so a node edited between two writes
# is rendered again.  It keeps every text it holds until the write ends, so
# a curvature report's i-slabs are all held at once.  A parent looks its
# children up itself: a call per child costs more than the rendering the
# memo saves.
_encode_str = json.encoder.encode_basestring_ascii
_STREAMED_LEVELS = 3


def _write_json(node, fh, newline, levels, memo):
    """Write _json_text(node, newline, memo) to fh, the containers of the
    top ``levels`` levels one child at a time."""
    if not levels or not isinstance(node, (dict, list, tuple)) or not node:
        hit = memo.get(newline, {}).get(id(node))
        fh.write(hit[1] if hit else _json_text(node, newline, memo))
        return
    if isinstance(node, dict):
        opener, closer = "{", "}"
        items = [(_encode_str(key) + ": ", child) for key, child in sorted(node.items())]
    else:
        opener, closer = "[", "]"
        items = [("", child) for child in node]
    inner = newline + "  "
    sep = opener + inner
    for head, child in items:
        fh.write(sep + head)
        _write_json(child, fh, inner, levels - 1, memo)
        sep = "," + inner
    fh.write(newline + closer)


def _json_text(node, newline, memo):
    """The text json.dump(node, fh, indent=2, sort_keys=True) writes, for
    str-keyed dicts, lists, tuples, str, int, bool and None; ``newline`` is
    "\n" plus the indent of the line ``node`` starts on.  Any other type
    raises TypeError (``_encode_str`` refuses a key that is not a str).
    The text of a container is stored in ``memo``, and a child found there
    is not rendered again."""
    if isinstance(node, str):
        return _encode_str(node)
    if isinstance(node, (dict, list, tuple)):
        if not node:
            return "{}" if isinstance(node, dict) else "[]"
        inner = newline + "  "
        done = memo.setdefault(inner, {})
        if isinstance(node, dict):
            items = [
                _encode_str(key)
                + ": "
                + (
                    _encode_str(child)
                    if type(child) is str
                    else hit[1]
                    if (hit := done.get(id(child)))
                    else _json_text(child, inner, memo)
                )
                for key, child in sorted(node.items())
            ]
            text = "{" + inner + ("," + inner).join(items) + newline + "}"
        else:
            items = [
                hit[1] if (hit := done.get(id(child))) else _json_text(child, inner, memo)
                for child in node
            ]
            text = "[" + inner + ("," + inner).join(items) + newline + "]"
        memo.setdefault(newline, {})[id(node)] = (node, text)
        return text
    if node is None:
        return "null"
    if node is True:
        return "true"
    if node is False:
        return "false"
    if isinstance(node, int):
        return int.__repr__(node)
    raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")


def _render_text(node, lines, indent):
    if isinstance(node, dict):
        for key in sorted(node):
            val = node[key]
            if isinstance(val, (dict, list)):
                lines.append(f"{indent}{key}:")
                _render_text(val, lines, indent + "  ")
            else:
                lines.append(f"{indent}{key}: {val}")
    elif isinstance(node, list):
        for item in node:
            if isinstance(item, (dict, list)):
                lines.append(f"{indent}-")
                _render_text(item, lines, indent + "  ")
            else:
                lines.append(f"{indent}- {item}")


def _report_passed(report) -> bool:
    status = report.get("status")
    return status in ("pass", "vacuous")


def _add_common(p, slack=False, xi=False):
    p.add_argument("--l", type=int, default=2, help="half-dimension (default 2)")
    p.add_argument("--degree", type=int, default=2, help="spinor degree bound D (default 2)")
    if slack:
        p.add_argument("--slack", type=int, default=4, help="extra degree room for preimages (default 4)")
    if xi:
        p.add_argument("--xi", default="canonical", help="'canonical' or 2l comma-separated rationals")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "text"), default="json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="symtwist",
        description="Exact verification of the symplectic spinor operator algebra, "
        "twistor symbol sequences and curvature decomposition.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("relations", help="commutation-relation identity suite")
    _add_common(p)

    p = sub.add_parser("decompose", help="triangle decomposition, scalar table and chain model suite")
    _add_common(p)

    p = sub.add_parser("project", help="closed-form edge-projection equivalence suite")
    _add_common(p)

    p = sub.add_parser("symbol-check", help="symbol complex and exactness checks")
    _add_common(p, slack=True, xi=True)

    p = sub.add_parser("curvature", help="decompose a curvature tensor file")
    p.add_argument("--input", required=True, help="JSON file holding the tensor")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("gen-curvature", help="deterministic random Ricci-type tensor")
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "text"), default="json")
    return ap


# the parser of this process, built on the first main call: building it
# costs about as much as a small report, and parse_args leaves it unchanged
_PARSER = None


def _parser() -> argparse.ArgumentParser:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def _cmd_suite(args, runner):
    if args.l < 1 or args.degree < 0:
        raise ValueError("need --l >= 1 and --degree >= 0")
    sp = standard_space(args.l)
    report = runner(sp, args.degree)
    _emit(report, args)
    return EXIT_OK if _report_passed(report) else EXIT_CHECK_FAILED


def _cmd_symbol_check(args):
    if args.l < 1 or args.degree < 0 or args.slack < 0:
        raise ValueError("need --l >= 1, --degree >= 0 and --slack >= 0")
    sp = standard_space(args.l)
    xi, label = _parse_xi(sp, args.xi)
    complex_report = check_complex(sp, args.degree, xi, xi_label=label)
    exact_report = check_exactness(sp, args.degree, xi, args.slack, xi_label=label)
    report = {
        "suite": "symbol-check",
        "complex": complex_report,
        "exactness": exact_report,
        "status": "pass"
        if _report_passed(complex_report) and _report_passed(exact_report)
        else "fail",
    }
    _emit(report, args)
    return EXIT_OK if report["status"] == "pass" else EXIT_CHECK_FAILED


def _cmd_curvature(args):
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        R = curvature_from_json(obj)
    except (OSError, KeyError, IndexError, TypeError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot read curvature tensor from {args.input}: {exc}") from None
    sp = standard_space(R.l)
    try:
        sigma = ricci_contract(sp, R)
    except InvalidCurvatureError as exc:
        report = {
            "suite": "curvature",
            "l": R.l,
            "status": "fail",
            "diagnosis": str(exc),
        }
        _emit(report, args)
        return EXIT_CHECK_FAILED
    st = sigma_tilde(sp, sigma)
    W = R - st
    report = {
        "suite": "curvature",
        "l": R.l,
        "ricci": ricci_to_json(sigma),
        "ricci_type_part": curvature_to_json(st),
        "weyl": curvature_to_json(W),
        "is_ricci_type": W.is_zero(),
        "status": "pass",
    }
    _emit(report, args)
    return EXIT_OK


# gen-curvature holds (2l)^4 Gaussian-integer pairs per tensor: this allows l <= 8
MAX_CURVATURE_ENTRIES = 16**4


def _cmd_gen_curvature(args):
    if args.l < 1:
        raise ValueError("need --l >= 1")
    size = (2 * args.l) ** 4
    if size > MAX_CURVATURE_ENTRIES:
        raise ValueError(
            f"--l {args.l} needs (2l)^4 = {size} curvature entries, "
            f"more than the {MAX_CURVATURE_ENTRIES} gen-curvature builds"
        )
    sp = standard_space(args.l)
    R = random_ricci_type(sp, args.seed)
    _emit(curvature_to_json(R), args)
    return EXIT_OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "relations":
            return _cmd_suite(args, run_relations)
        if args.command == "decompose":
            return _cmd_suite(args, run_decompose)
        if args.command == "project":
            return _cmd_suite(args, run_project)
        if args.command == "symbol-check":
            return _cmd_symbol_check(args)
        if args.command == "curvature":
            return _cmd_curvature(args)
        if args.command == "gen-curvature":
            return _cmd_gen_curvature(args)
        raise ValueError(f"unknown command {args.command}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
