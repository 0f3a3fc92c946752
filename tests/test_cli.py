import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


def run_cli(*args, check=False, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "symtwist", *args],
        capture_output=True,
        text=True,
        check=check,
        timeout=timeout,
    )


def zero_curvature(sp):
    from symtwist.curvature import CurvatureTensor
    from symtwist.scalars import Scalar

    n = sp.dim
    z = Scalar(0)
    return CurvatureTensor(sp.l, [[[[z] * n for _ in range(n)] for _ in range(n)] for _ in range(n)])


def test_relations_default_passes():
    res = run_cli("relations", "--l", "2", "--degree", "2")
    assert res.returncode == 0, res.stderr
    rep = json.loads(res.stdout)
    assert rep["status"] == "pass"
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_decompose_small_passes():
    res = run_cli("decompose", "--l", "1", "--degree", "1")
    assert res.returncode == 0, res.stderr
    rep = json.loads(res.stdout)
    assert rep["status"] == "pass"
    assert rep["component_scalars"]["(0,0)"] == "-1/4"


def test_project_small_passes():
    res = run_cli("project", "--l", "1", "--degree", "1")
    assert res.returncode == 0, res.stderr
    rep = json.loads(res.stdout)
    assert rep["status"] == "pass"
    assert rep["coefficients"]["0"]["beta"] == "-2"


def test_symbol_check_l1_left_vacuous():
    res = run_cli("symbol-check", "--l", "1", "--degree", "1")
    rep = json.loads(res.stdout)
    lefts = [p for p in rep["exactness"]["positions"] if p["side"] == "left"]
    assert lefts and all(p["status"] == "vacuous" for p in lefts)
    # the degenerate top position fails honestly, so the exit code is 1
    assert res.returncode == 1


def test_symbol_check_schema_keys():
    res = run_cli("symbol-check", "--l", "2", "--degree", "1", "--slack", "4")
    rep = json.loads(res.stdout)
    ex = rep["exactness"]
    for key in ("l", "D", "slack", "xi", "positions"):
        assert key in ex
    for p in ex["positions"]:
        for key in ("i", "side", "dim_domain", "dim_kernel", "preimages_found", "status"):
            assert key in p


def test_explicit_xi_components():
    res = run_cli("symbol-check", "--l", "1", "--degree", "0", "--xi", "0,1")
    rep = json.loads(res.stdout)
    assert rep["exactness"]["xi"] == ["0", "1"]
    assert rep["exactness"]["xi_regime"] == "standard"


def test_bad_xi_rejected():
    res = run_cli("symbol-check", "--l", "2", "--xi", "1,2,3")
    assert res.returncode == 2
    assert "error" in res.stderr


def test_bad_l_rejected():
    res = run_cli("relations", "--l", "0")
    assert res.returncode == 2


def test_curvature_zero_tensor(tmp_path):
    from symtwist.curvature import curvature_to_json
    from symtwist.symplectic import standard_space

    path = tmp_path / "zero.json"
    path.write_text(json.dumps(curvature_to_json(zero_curvature(standard_space(2)))))
    res = run_cli("curvature", "--input", str(path))
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["is_ricci_type"] is True
    assert all(
        all(s == {"re": "0/1", "im": "0/1"} for row in plane for col in row for s in col)
        for plane in rep["weyl"]["entries"]
    )


def test_curvature_round_trip_through_generator(tmp_path):
    path = tmp_path / "R.json"
    res = run_cli("gen-curvature", "--l", "2", "--seed", "5", "--out", str(path))
    assert res.returncode == 0
    res2 = run_cli("curvature", "--input", str(path))
    rep = json.loads(res2.stdout)
    assert rep["is_ricci_type"] is True and res2.returncode == 0


def test_curvature_missing_file():
    res = run_cli("curvature", "--input", "/nonexistent/st.json")
    assert res.returncode == 2
    assert "error" in res.stderr


def _assert_bad_input(res):
    assert res.returncode == 2
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr


def _assert_bad_curvature(tmp_path, edit, tensor=None):
    from symtwist.curvature import curvature_to_json
    from symtwist.symplectic import standard_space

    # a copy: equal entries share one leaf dict, so an edit of the result
    # itself would reach every equal entry
    obj = json.loads(json.dumps(curvature_to_json(tensor or zero_curvature(standard_space(1)))))
    edit(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    _assert_bad_input(run_cli("curvature", "--input", str(path), timeout=120))


@pytest.mark.parametrize(
    "coef",
    [5, "1/0", "1e20000000", pytest.param("7" * 5000, id="5000-digits")],
)
def test_curvature_bad_coefficient_rejected(tmp_path, coef):
    _assert_bad_curvature(tmp_path, lambda obj: obj["entries"][0][0][0][1].update(re=coef))


@pytest.mark.parametrize(
    "where, bad, detail",
    [
        ("leaf", 5, "'int' object is not subscriptable"),
        ("leaf", [1], "list indices must be integers or slices, not str"),
        ("im", 5, "a rational must be a string 'p/q', got 5"),
        ("im", [1], "a rational must be a string 'p/q', got [1]"),
        ("im", "1e5", "exponents are not accepted, write 'p/q': '1e5'"),
        ("im", "1/0", "zero denominator in '1/0'"),
        ("im", "3/-4", "Invalid literal for Fraction: '3/-4'"),
        ("re", "3/-4", "Invalid literal for Fraction: '3/-4'"),
    ],
)
def test_curvature_last_leaf_malformed(tmp_path, capsys, where, bad, detail):
    # every leaf before the last one is valid, and their strings repeat:
    # whatever was parsed before, the bad leaf gets the same message, and
    # a second run in the same process gets it again
    from symtwist.cli import main
    from symtwist.curvature import curvature_to_json, random_ricci_type
    from symtwist.scalars import scalar_from_json
    from symtwist.symplectic import standard_space

    obj = json.loads(json.dumps(curvature_to_json(random_ricci_type(standard_space(2), 7))))
    last = obj["entries"][3][3][3]
    if where == "leaf":
        last[3] = bad
    else:
        last[3][where] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))

    def malformed(leaf):
        try:
            scalar_from_json(leaf)
        except (KeyError, TypeError, ValueError):
            return True
        return False

    written = json.loads(path.read_text())["entries"]
    leaves = [x for plane in written for block in plane for row in block for x in row]
    assert [i for i, x in enumerate(leaves) if malformed(x)] == [len(leaves) - 1]
    for _ in range(2):
        assert main(["curvature", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read curvature tensor from {path}: {detail}\n"


def test_curvature_boolean_l_rejected(tmp_path):
    _assert_bad_curvature(tmp_path, lambda obj: obj.update(l=True))


@pytest.mark.parametrize(
    "text, detail",
    [
        ('{"l": 0, "entries": []}', "half-dimension l must be >= 1, got 0"),
        ('{"l": -1, "entries": []}', "half-dimension l must be >= 1, got -1"),
        ('{"entries": []}', "missing key 'l'"),
        ('{"l": 1}', "missing key 'entries'"),
        ('[{"l": 1, "entries": []}]', "the input is not a JSON object"),
        ('"l"', "the input is not a JSON object"),
    ],
    ids=["l-zero", "l-negative", "no-l", "no-entries", "array", "string"],
)
def test_curvature_input_structure_errors(tmp_path, capsys, text, detail):
    from symtwist.cli import main

    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["curvature", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read curvature tensor from {path}: {detail}\n"


def test_curvature_deeply_nested_json_rejected(tmp_path):
    # nested past the JSON decoder's recursion limit: a bad input, not a
    # failed check
    path = tmp_path / "deep.json"
    path.write_text('{"l": 1, "entries": ' + "[" * 1000 + "]" * 1000 + "}")
    res = run_cli("curvature", "--input", str(path))
    _assert_bad_input(res)
    assert "cannot read curvature tensor" in res.stderr


@pytest.mark.parametrize(
    "edit",
    [
        lambda obj: obj.update(l=1),
        lambda obj: obj["entries"][0].append(obj["entries"][0][0]),
        lambda obj: obj["entries"][1][2][3].append(obj["entries"][1][2][3][0]),
    ],
    ids=["l-edited-to-1", "extra-row", "extra-element"],
)
def test_curvature_entries_shape_must_match_l(tmp_path, edit):
    # the tensor of ``gen-curvature --l 2 --seed 7``; every level of its
    # entries must be a list of exactly 2l items, none is read partially
    from symtwist.curvature import random_ricci_type
    from symtwist.symplectic import standard_space

    _assert_bad_curvature(tmp_path, edit, random_ricci_type(standard_space(2), 7))


def test_xi_zero_denominator_rejected():
    _assert_bad_input(run_cli("symbol-check", "--l", "1", "--xi", "1/0,1"))


@pytest.mark.parametrize(
    "comp", ["1e20000000", pytest.param("7" * 5000, id="5000-digits")]
)
def test_xi_oversized_component_rejected(comp):
    # an exponent is refused before Fraction expands it; an over-long digit
    # string hits the interpreter's int() digit limit.  The timeout only
    # turns a run that would never finish into a failure.
    args = ("symbol-check", "--l", "1", "--degree", "0", "--slack", "0")
    _assert_bad_input(run_cli(*args, "--xi", f"{comp},0", timeout=120))


def test_unwritable_out_rejected(tmp_path):
    out = tmp_path / "missing" / "x.json"
    res = run_cli("symbol-check", "--l", "1", "--degree", "0", "--out", str(out))
    _assert_bad_input(res)
    assert str(out) in res.stderr


def _run_with_stdout(stdout, preexec_fn=None):
    return subprocess.run(
        [sys.executable, "-m", "symtwist", "project", "--l", "1", "--degree", "0"],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=preexec_fn,
        timeout=120,
    )


def test_closed_pipe_on_stdout_rejected():
    # the reader's end is closed before the child starts, so every write
    # the child makes meets a broken pipe (as under `| head -3`)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = _run_with_stdout(write_end)
    finally:
        os.close(write_end)
    assert res.returncode == 2
    assert res.stderr.startswith("error: cannot write report to stdout: ")
    assert res.stderr.count("\n") == 1, res.stderr


def test_closed_stdout_rejected():
    res = _run_with_stdout(None, preexec_fn=lambda: os.close(1))
    assert res.returncode == 2
    assert res.stderr == "error: cannot write report to stdout: it is closed\n"


def test_cli_import_skips_dataclasses_and_inspect():
    # these modules cost import time on every run and no CLI path needs
    # them: relations forks its shares with os and json alone
    absent = ("dataclasses", "inspect", "multiprocessing", "concurrent.futures", "subprocess")
    code = f"import symtwist.cli, sys; print(sorted(m for m in {absent!r} if m in sys.modules))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_text_format(tmp_path):
    res = run_cli("relations", "--l", "1", "--degree", "1", "--format", "text")
    assert res.returncode == 0
    assert "status: pass" in res.stdout


@pytest.mark.parametrize(
    "args",
    [
        ("relations", "--l", "1", "--degree", "2"),
        ("decompose", "--l", "1", "--degree", "1"),
        ("project", "--l", "2", "--degree", "1"),
        ("symbol-check", "--l", "2", "--degree", "1"),
        ("gen-curvature", "--l", "2", "--seed", "3"),
    ],
)
def test_byte_reproducible(args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode


def test_gen_curvature_refuses_oversized_l(tmp_path, capsys, monkeypatch):
    # the bound is lowered so that no large tensor is ever built here
    from symtwist import cli

    assert (2 * 8) ** 4 <= cli.MAX_CURVATURE_ENTRIES
    monkeypatch.setattr(cli, "MAX_CURVATURE_ENTRIES", 4**4)
    assert cli.main(["gen-curvature", "--l", "2", "--out", str(tmp_path / "l2.json")]) == 0

    def never(*args):
        raise AssertionError("a tensor over the bound was built")

    monkeypatch.setattr(cli, "random_ricci_type", never)
    out = tmp_path / "l3.json"
    capsys.readouterr()
    assert cli.main(["gen-curvature", "--l", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --l 3 needs (2l)^4 = 1296 curvature entries, "
        "more than the 256 gen-curvature builds\n"
    )
    assert not out.exists()


_property = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# quotes, backslashes, control characters, DEL, non-ASCII (BMP and astral),
# line separators and a lone surrogate, mixed with arbitrary characters
_tricky = st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "€", "😀", "\u2028", "\ud800"]
)
_text = st.text(_tricky | st.characters(), max_size=6)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _text,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(_text, kids, max_size=4),
    max_leaves=24,
)


@_property
@given(_json_values)
def test_report_writer_matches_json_dump(value):
    from symtwist.cli import _write

    expected = io.StringIO()
    json.dump(value, expected, indent=2, sort_keys=True)
    got = io.StringIO()
    _write(value, "json", got)
    assert got.getvalue() == expected.getvalue() + "\n"


@pytest.mark.parametrize(
    "bad", [1.5, {1, 2}, b"x", object()], ids=["float", "set", "bytes", "object"]
)
def test_report_writer_refuses_other_types(bad):
    from symtwist.cli import _write

    for value in (bad, [1, bad], {"a": {"b": bad}}):
        with pytest.raises(TypeError):
            _write(value, "json", io.StringIO())
    with pytest.raises(TypeError):
        _write({1: "a"}, "json", io.StringIO())


@_property
@given(_json_values)
def test_report_writer_matches_json_dump_on_shared_subtrees(value):
    # one value object at several depths, streamed and not, and several
    # times at one depth: the writer renders each container once per write
    # and indent, and must still write every occurrence at its own indent
    from symtwist.cli import _write

    report = {
        "a": value,
        "b": [value, {"c": value, "d": [value, [value, (value,)]]}],
        "e": {"f": {"g": [value, {"h": value}], "i": [[value], [[value]]]}},
    }
    expected = io.StringIO()
    json.dump(report, expected, indent=2, sort_keys=True)
    got = io.StringIO()
    _write(report, "json", got)
    assert got.getvalue() == expected.getvalue() + "\n"


def test_report_writer_renders_an_edited_shared_leaf_again():
    from symtwist.cli import _write
    from symtwist.curvature import curvature_to_json, random_ricci_type
    from symtwist.symplectic import standard_space

    report = {"tensor": curvature_to_json(random_ricci_type(standard_space(2), 7))}
    first = io.StringIO()
    _write(report, "json", first)
    leaf = report["tensor"]["entries"][0][0][0][0]
    assert leaf == {"re": "0/1", "im": "0/1"}
    leaf["re"] = "5/1"
    expected = io.StringIO()
    json.dump(report, expected, indent=2, sort_keys=True)
    second = io.StringIO()
    _write(report, "json", second)
    assert second.getvalue() == expected.getvalue() + "\n" != first.getvalue()


def test_curvature_report_renders_each_distinct_leaf_once(tmp_path, monkeypatch):
    # a count, not a time: per-leaf rendering makes 4 string encodings per
    # leaf (two keys, two values), 1,026 for the 256 leaves of this report
    from symtwist import cli

    calls = []

    def counted(text, _encode=cli._encode_str):
        calls.append(text)
        return _encode(text)

    monkeypatch.setattr(cli, "_encode_str", counted)
    out = tmp_path / "R.json"
    assert cli.main(["gen-curvature", "--l", "2", "--seed", "7", "--out", str(out)]) == 0
    assert 0 < len(calls) < 256
    assert len(json.loads(out.read_text())["entries"]) == 4


# cli.main builds its parser on the first call and keeps it for the process


def _help_text(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--help"], ["symbol-check", "--help"], ["curvature", "--help"]])
def test_kept_parser_prints_the_help_of_a_fresh_one(capsys, monkeypatch, argv):
    from symtwist import cli

    monkeypatch.setenv("COLUMNS", "80")
    fresh = _help_text(cli.build_parser().parse_args, argv, capsys)
    assert fresh.startswith("usage: symtwist")
    assert _help_text(cli.main, argv, capsys) == fresh
    # a report in between does not change what the kept parser prints
    assert cli.main(["relations", "--l", "1", "--degree", "0"]) == 0
    capsys.readouterr()
    assert _help_text(cli.main, argv, capsys) == fresh


def test_back_to_back_calls_give_the_bytes_of_fresh_processes(tmp_path):
    from symtwist.cli import main

    calls = [
        ("symbol-check", "--l", "1", "--degree", "1", "--slack", "0", "--xi", "1,2"),
        ("relations", "--l", "1", "--degree", "1"),
        ("gen-curvature", "--l", "1", "--seed", "2"),
        ("symbol-check", "--l", "1", "--degree", "1"),
        ("decompose", "--l", "1", "--degree", "1", "--format", "text"),
        ("symbol-check", "--l", "1", "--degree", "1"),
    ]
    outputs = []
    for k, args in enumerate(calls):
        out = tmp_path / f"{k}.out"
        code = main([*args, "--out", str(out)])
        fresh = run_cli(*args)
        assert (code, out.read_text()) == (fresh.returncode, fresh.stdout), args
        outputs.append(out.read_text())
    # flags of one call do not leak into the next: the default slack is back
    assert json.loads(outputs[0])["exactness"]["slack"] == 0
    assert json.loads(outputs[3])["exactness"]["slack"] == 4
    assert outputs[3] == outputs[5]


def test_parser_is_built_once_per_process(tmp_path, monkeypatch):
    from symtwist import cli

    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    assert cli.main(["relations", "--l", "1", "--degree", "0", "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["gen-curvature", "--l", "1", "--out", str(tmp_path / "b")]) == 0
    assert cli.main(["symbol-check", "--l", "1", "--degree", "0"]) in (0, 1)
    assert cli.main(["relations", "--l", "0"]) == 2
    assert len(built) == 1
