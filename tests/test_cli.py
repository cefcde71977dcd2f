"""Command-line surface: subcommands, formats, exit codes, schema."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from corkscrew import cli
from corkscrew.cli import check_schema, load_schema, main
from corkscrew.complexes import canonical_json, serialize, to_dict
from corkscrew.models import bundled, figure_eight_with_actions


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def fig8_file(tmp_path):
    path = tmp_path / "4_1.cfk.json"
    path.write_text(serialize(figure_eight_with_actions()))
    return str(path)


def test_census_text(capsys):
    code, out, _ = run_cli(["census", "--max-crossings", "8"], capsys)
    assert code == 0
    assert "17 knots qualify" in out
    assert "8_21" in out and "6_1" not in out.split("not covered")[0]


def test_census_json_schema(capsys):
    code, out, _ = run_cli(["--format", "json", "census",
                            "--max-crossings", "8"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert check_schema(doc, load_schema()) == []
    assert doc["invariants"]["count"] == 17


def test_validate_bundled_file(fig8_file, capsys):
    code, out, _ = run_cli(["validate", fig8_file], capsys)
    assert code == 0
    assert "valid=True s3_type=True" in out


def test_validate_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "generators": []}')
    code, out, err = run_cli(["validate", str(bad)], capsys)
    assert code == 1
    assert "no generators" in out


@pytest.mark.parametrize("text", [
    '{"generators": [{"gr": [0, 0]}]}',
    '{"generators": [{"id": "x", "gr": "ab"}]}',
    '{"generators": [{"id": "x", "gr": [0, 0]}], "differential": {"y": []}}',
    '{"generators": [{"id": "x", "gr": [0.5, 0]}]}',
])
def test_malformed_files_are_structured_errors(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, _ = run_cli(["--format", "json", "validate", str(bad)],
                           capsys)
    assert code == 1
    assert json.loads(out)["invariants"]["valid"] is False
    code, _, err = run_cli(["--format", "json", "sarkar", str(bad)], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "ParseError"


_HALF_INTEGER = json.dumps({
    "name": "half", "generators": [{"id": "x", "gr": [1, 0]},
                                   {"id": "y", "gr": [0, 1]}],
    "differential": {},
    "phi": {"mode": "straight", "map": {"x": [["x", 0, 0]],
                                        "y": [["y", 0, 0]]}},
    "iota": {"mode": "skew", "map": {"x": [["y", 0, 0]],
                                     "y": [["x", 0, 0]]}}})


@pytest.mark.parametrize("command", ["validate", "conn"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_half_integer_alexander_grading_is_a_parse_error(tmp_path, capsys,
                                                        command, fmt):
    bad = tmp_path / "half.json"
    bad.write_text(_HALF_INTEGER)
    code, out, err = run_cli(["--format", fmt, command, str(bad)], capsys)
    assert code == 1
    message = "generator 'x': gr_u - gr_v must be even"
    if command == "validate" and fmt == "json":
        doc = json.loads(out)["invariants"]
        assert doc["valid"] is False and message in doc["error"]
    elif command == "validate":
        assert out.startswith("invalid: ") and message in out
    elif fmt == "json":
        doc = json.loads(err)
        assert out == "" and doc["error"] == "ParseError"
        assert message in doc["message"]
    else:
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: ") and message in err


def _repeated_column():
    """4_1's file with an empty ``"a"`` column after the real one: json
    alone keeps the last, which silently deletes two differential
    entries."""
    text = serialize(figure_eight_with_actions())
    column = '"a": [["b", 1, 0], ["c", 0, 1]],'
    assert column in text
    return text.replace(column, column + ' "a": [],', 1), "'a'"


def _repeated_phi():
    """4_1's file with a second, empty ``"phi"`` before the real one."""
    text = serialize(figure_eight_with_actions())
    assert text.count('"phi"') == 1
    return text.replace('  "phi"', '  "phi": {"mode": "straight", '
                        '"map": {}},\n  "phi"', 1), "'phi'"


@pytest.mark.parametrize("command", ["validate", "conn"])
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("make", [_repeated_column, _repeated_phi])
def test_repeated_json_keys_are_a_parse_error(tmp_path, capsys, make,
                                              command, fmt):
    text, key = make()
    bad = tmp_path / "repeated.json"
    bad.write_text(text)
    code, out, err = run_cli(["--format", fmt, command, str(bad)], capsys)
    assert code == 1
    message = f"repeated key {key} in a JSON object"
    if command == "validate" and fmt == "json":
        doc = json.loads(out)["invariants"]
        assert doc["valid"] is False and doc["error"] == message
    elif command == "validate":
        assert out == f"invalid: {message}\n"
    elif fmt == "json":
        assert out == "" and json.loads(err) == {
            "error": "ParseError", "message": message}
    else:
        assert out == "" and err == f"error: {message}\n"


def _zero_iota():
    """4_1's file with iota the zero map: a chain map, but iota^2 = 0 is
    not homotopic to the basepoint twist."""
    doc = to_dict(figure_eight_with_actions())
    doc["iota"]["map"] = {}
    return (canonical_json(doc), "ValidationError",
            "4_1: iota o iota is not homotopic to the basepoint twist")


def _capital_phi():
    """(4_1,tau)^2's file with its phi under the key "Phi": read as a
    missing phi, it would answer delta = 0 where the model gives 1."""
    text = serialize(bundled("4_1x4_1_tau"))
    assert text.count('"phi"') == 1
    return (text.replace('"phi"', '"Phi"'), "ParseError",
            "top level: unknown key 'Phi'")


def _misspelt_map():
    """4_1's file with phi's "map" spelt "mapp": read as a missing map,
    it would be the zero map."""
    text = serialize(figure_eight_with_actions())
    head, tail = text.split('"phi"')
    return (head + '"phi"' + tail.replace('"map"', '"mapp"', 1),
            "ParseError", "phi: unknown key 'mapp'")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("make", [_zero_iota, _capital_phi, _misspelt_map])
def test_files_outside_the_format_or_the_relations_exit_1(tmp_path, capsys,
                                                          make, fmt):
    text, error, message = make()
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run_cli(["--format", fmt, "delta", str(bad)], capsys)
    assert code == 1 and out == ""
    if fmt == "json":
        assert json.loads(err) == {"error": error, "message": message}
    else:
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("make", [_zero_iota, _misspelt_map])
def test_validate_reads_the_actions(tmp_path, capsys, make, fmt):
    """validate checks the actions a file gives as parsing does: each of
    these files is an invalid report with exit 1, not valid=True."""
    text, _, message = make()
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run_cli(["--format", fmt, "validate", str(bad)], capsys)
    assert code == 1 and err == ""
    if fmt == "json":
        doc = json.loads(out)["invariants"]
        assert doc["valid"] is False and doc["error"] == message
    else:
        assert out == f"invalid: {message}\n"


def test_validate_solves_no_missing_iota(tmp_path, capsys, monkeypatch):
    from corkscrew import models

    def refused(cx):
        raise AssertionError("validate solved for an involution")

    monkeypatch.setattr(models, "solve_involution", refused)
    doc = to_dict(bundled("4_1x4_1_tau"))
    del doc["iota"]
    path = tmp_path / "no_iota.json"
    path.write_text(canonical_json(doc))
    code, out, _ = run_cli(["validate", str(path)], capsys)
    assert (code, out) == (0, "4_1#4_1[tau|tau]: valid=True s3_type=True\n")


def test_a_byte_order_mark_is_reported_as_json_reports_it():
    """``load_json`` decodes with one prebuilt decoder, so it makes the
    byte-order-mark check of ``json.loads`` itself, with its message."""
    from corkscrew.errors import ParseError, load_json

    text = "\ufeff" + serialize(figure_eight_with_actions())
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    with pytest.raises(ParseError) as got:
        load_json(text)
    assert str(got.value) == f"{want.value.msg} (line 1, column 1)"


def test_sarkar_output(fig8_file, capsys):
    code, out, _ = run_cli(["sarkar", fig8_file], capsys)
    assert code == 0
    assert "s(a) = a + d" in out


def test_delta_with_verdict(capsys):
    code, out, _ = run_cli(["delta", "bundled:4_1x4_1_tau", "--m", "1"],
                           capsys)
    assert code == 0
    assert "delta(4_1#4_1[tau|tau]) = 1" in out
    assert "StrongCork" in out


def test_delta_with_verdict_computes_delta_once(capsys, monkeypatch):
    """The verdict for positive m reads the delta the report printed; a
    negative m needs the dual's delta as well."""
    from corkscrew import verdicts
    from corkscrew.invariants import delta

    calls = []

    def counting(x, *args, **kwargs):
        calls.append(x.complex.name)
        return delta(x, *args, **kwargs)

    monkeypatch.setattr(cli, "delta", counting)
    monkeypatch.setattr(verdicts, "delta", counting)
    code, out, _ = run_cli(["delta", "bundled:4_1x4_1_tau", "--m", "1"],
                           capsys)
    assert code == 0 and "StrongCork" in out
    assert calls == ["4_1#4_1[tau|tau]"]
    calls.clear()
    code, _, _ = run_cli(["delta", "bundled:4_1x4_1_tau", "--m", "-1"],
                         capsys)
    assert code == 0 and len(calls) == 2
    assert calls[0] == "4_1#4_1[tau|tau]" != calls[1]


def test_delta_json_reproducible(capsys):
    args = ["--format", "json", "delta", "bundled:4_1x4_1_tau"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["invariants"]["delta"] == 1
    assert check_schema(doc, load_schema()) == []


def test_s_nontrivial_subcommand(capsys):
    code, out, _ = run_cli(["s-nontrivial", "bundled:4_1"], capsys)
    assert code == 0
    assert "twist-nontrivial = True" in out


def test_conn_subcommand(capsys):
    code, out, _ = run_cli(["conn", "bundled:T2_3#T2_3"], capsys)
    assert code == 0
    assert "staircase(2) + box(1)" in out
    assert "exact-standard" in out


def test_verdict_gompf_by_name(capsys):
    code, out, _ = run_cli(["verdict", "gompf", "--knot", "4_1",
                            "-m", "1", "-i", "1", "-j", "5"], capsys)
    assert code == 0
    assert "StrongCork" in out


def test_verdict_gompf_even_m(capsys):
    code, out, _ = run_cli(["verdict", "gompf", "--knot", "4_1",
                            "-m", "2", "-i", "1"], capsys)
    assert code == 0
    assert "Inconclusive" in out


def test_verdict_split(capsys):
    code, out, _ = run_cli(["verdict", "split", "--k1", "bundled:4_1_s",
                            "--k2", "bundled:4_1_iota", "-m", "1"], capsys)
    assert code == 0
    assert "StrongCork" in out


def test_verdict_periodic(capsys):
    code, out, _ = run_cli(["verdict", "periodic", "--file", "bundled:4_1",
                            "-m", "1", "-i", "1"], capsys)
    assert code == 0
    assert "StrongCork" in out


def test_unknown_knot_is_a_structured_error(capsys):
    code, out, err = run_cli(["verdict", "gompf", "--knot", "99_99",
                              "-m", "1"], capsys)
    assert code == 1
    assert "not in the bundled table" in err


def test_missing_file_error(capsys):
    code, _, err = run_cli(["validate", "/nonexistent.json"], capsys)
    assert code == 1
    assert "error" in err


def test_missing_file_is_a_json_error(capsys):
    code, out, err = run_cli(["--format", "json", "validate",
                              "/nonexistent.json"], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "ParseError",
        "message": "cannot read '/nonexistent.json': "
                   "No such file or directory"}


@pytest.mark.parametrize("command", ["validate", "sarkar"])
def test_directory_is_a_structured_error(tmp_path, capsys, command):
    code, out, err = run_cli([command, str(tmp_path)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: cannot read {str(tmp_path)!r}: Is a directory\n"


def test_non_utf8_file_is_a_structured_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(["--format", "json", "validate", str(bad)],
                             capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "ParseError",
        "message": f"{str(bad)!r} is not UTF-8 text: invalid start byte "
                   f"at byte 0"}


def test_python_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-m", "corkscrew", "validate",
                           "bundled:4_1"], env={"PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "4_1: valid=True s3_type=True\n", "")


def test_json_error_stream(capsys):
    code, _, err = run_cli(["--format", "json", "verdict", "gompf",
                            "--knot", "99_99", "-m", "1"], capsys)
    assert code == 1
    doc = json.loads(err)
    assert doc["error"] == "CorkscrewError"


def test_round_trip_canonical_form(fig8_file, capsys):
    # serialize(parse(f)) reproduces the canonical bytes of f
    text = open(fig8_file).read()
    from corkscrew.models import parse_complex
    assert serialize(parse_complex(fig8_file)) == text


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("args, message", [
    (["verdict", "gompf", "-m", "1"], "needs --knot or --file"),
    (["verdict", "gompf", "-m", "1", "--knot", "3_1", "--file",
      "bundled:4_1"], "not both"),
    (["verdict", "periodic", "-m", "1"], "needs --file"),
    (["verdict", "split", "-m", "1", "--k1", "bundled:4_1"], "needs --k2"),
    # a path option the mode does not read is refused, not ignored
    (["verdict", "gompf", "--knot", "4_1", "--k1", "zz", "-m", "1"],
     "verdict gompf does not take --k1"),
    (["verdict", "gompf", "--knot", "4_1", "--k2", "zz", "-m", "1"],
     "verdict gompf does not take --k2"),
    (["verdict", "split", "--k1", "bundled:4_1", "--k2", "bundled:4_1",
      "--file", "zz", "-m", "1"], "verdict split does not take --file"),
    (["verdict", "split", "--k1", "bundled:4_1", "--k2", "bundled:4_1",
      "--knot", "4_1", "-m", "1"], "verdict split does not take --knot"),
    (["verdict", "periodic", "--file", "bundled:4_1", "--k2", "zz", "-m",
      "1"], "verdict periodic does not take --k2"),
    (["verdict", "periodic", "--file", "bundled:4_1", "--k1", "zz", "-m",
      "1"], "verdict periodic does not take --k1"),
    (["verdict", "periodic", "--file", "bundled:4_1", "--knot", "4_1",
      "-m", "1"], "verdict periodic does not take --knot"),
    # so is a numeric option it does not read
    (["verdict", "split", "--k1", "bundled:4_1", "--k2", "bundled:4_1",
      "-m", "1", "-i", "7", "-j", "3"], "verdict split does not take -i"),
    (["verdict", "periodic", "--file", "bundled:4_1", "-m", "1", "-j", "5"],
     "verdict periodic does not take -j"),
    (["conn", "bundled:nope"], "no bundled complex 'nope'"),
    (["validate", "bundled:nope"], "no bundled complex 'nope'"),
    # usage errors from the argument parser itself
    # an unknown option before the subcommand is named, its value is not
    # taken for the subcommand
    (["--seed", "1", "conn", "bundled:4_1"], "unrecognized arguments: --seed"),
    (["-q", "2", "delta", "bundled:4_1"], "unrecognized arguments: -q"),
    # the window is proven exact; there is no option to widen it
    (["--window-bump", "1", "delta", "bundled:4_1"],
     "unrecognized arguments: --window-bump"),
    (["--seed", "--colour", "red", "conn", "bundled:4_1"],
     "unrecognized arguments: --seed --colour"),
    (["--seed=1", "conn", "bundled:4_1"], "unrecognized arguments: --seed=1"),
    (["verdict", "gompf", "-m", "abc"], "invalid int value: 'abc'"),
    # a negative crossing bound is refused, not read as "no knot"
    (["census", "--max-crossings", "-1"],
     "--max-crossings must be non-negative, got -1"),
    (["frobnicate", "bundled:4_1"], "invalid choice: 'frobnicate'"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_bad_arguments_are_one_line_errors(capsys, args, message, fmt):
    code, out, err = run_cli(["--format", fmt, *args], capsys)
    assert (code, out) == (1, "")
    if fmt == "json":
        assert message in json.loads(err)["message"]
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


@pytest.mark.parametrize("rows,count,rejected", [
    ("3_1,3,1,-2,3,1,\nbad,4,2,0,5,1,\n", 0,
     "line 3: bad: alternating must be 0 or 1"),
    # tau = 1 and (5 - 2 - 1)/4 = 1/2: no thin knot has these data
    ("fake,3,1,-2,5,0,\n", 0,
     "line 2: fake: (D - 2|tau| - 1)/4 is not a non-negative integer; "
     "not a thin knot's data"),
], ids=["not 0 or 1", "not thin"])
def test_census_text_lists_rejected_rows(tmp_path, capsys, rows, count,
                                         rejected):
    path = tmp_path / "knots.csv"
    path.write_text("name,crossings,alternating,signature,determinant,arf,"
                    "tau\n" + rows)
    code, out, _ = run_cli(["census", "--table", str(path)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"{count} knots qualify:"
    assert lines[-1] == f"rejected: {rejected}"


def test_reports_carry_a_constant_window_bump(capsys):
    # the report schema requires the key; no option or variable sets it
    code, out, _ = run_cli(["--format", "json", "delta",
                            "bundled:4_1x4_1_tau"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["window_bump"] == 0
    assert doc["invariants"]["delta"] == 1


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "corkscrew.cli",
                           "census", "--max-crossings", "7"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "7_7" in proc.stdout


def test_bundled_fixture_matches_builder():
    from importlib import resources
    text = resources.files("corkscrew.data").joinpath(
        "4_1.cfk.json").read_text()
    assert text == serialize(figure_eight_with_actions())


def test_verdict_gompf_by_file(fig8_file, capsys):
    code, out, _ = run_cli(["verdict", "gompf", "--file", fig8_file,
                            "-m", "1", "-i", "1", "-j", "0"], capsys)
    assert code == 0
    assert "StrongCork" in out


def test_conn_of_the_slice_double_is_certified_trivial(capsys):
    code, out, _ = run_cli(["conn", "bundled:4_1x4_1_id"], capsys)
    assert code == 0
    assert "dot" in out and "exact-standard" in out


def test_conn_greedy_inputs_report_the_caveat(tmp_path, capsys):
    from corkscrew.complexes import direct_sum, iota_complex, serialize
    from corkscrew.models import box_complex, dot_complex, solve_involution
    cx = direct_sum(dot_complex("x"), box_complex(1, at=(0, 0), suffix="0"),
                    box_complex(2, at=(0, 0), suffix="1"), name="mixed")
    iota, _ = solve_involution(cx)
    path = tmp_path / "mixed.cfk.json"
    path.write_text(serialize(iota_complex(cx, iota)))
    code, out, _ = run_cli(["conn", str(path)], capsys)
    assert code == 0
    assert "greedy" in out and "unverified" in out


def test_involution_search_cap_is_a_structured_error(tmp_path, capsys):
    # a bare dot + 3 unit boxes has 25 free bits of skew chain maps, more
    # than the involution search enumerates
    from corkscrew.complexes import direct_sum, serialize
    from corkscrew.models import INVOLUTION_CAP, box_complex, dot_complex
    cx = direct_sum(dot_complex("x"),
                    *(box_complex(1, suffix=str(k)) for k in range(3)),
                    name="dot+3box")
    path = tmp_path / "dot3box.cfk.json"
    path.write_text(serialize(cx))
    code, out, err = run_cli(["--format", "json", "conn", str(path)], capsys)
    assert (code, out) == (1, "")
    doc = json.loads(err)
    assert doc["error"] == "SearchCapExceeded"
    assert "25 free bits" in doc["message"]
    assert f"cap {INVOLUTION_CAP}" in doc["message"]


def test_verdict_json_certificates_replay(capsys):
    from corkscrew.verdicts import replay_certificate
    code, out, _ = run_cli(["--format", "json", "verdict", "gompf",
                            "--knot", "4_1", "-m", "1", "-i", "1",
                            "-j", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    ref = doc["verdicts"][0]["certificate_ref"]
    assert ref in doc["certificates"]
    assert replay_certificate(doc["certificates"][ref])


# -- nesting too deep for the JSON decoder ------------------------------------

DEEP = "[" * 100000
DEEP_MESSAGE = "JSON nesting is too deep"


def test_deep_nesting_is_a_parse_error_through_the_api():
    from corkscrew.errors import ParseError
    from corkscrew.models import parse_complex_text
    with pytest.raises(ParseError) as err:
        parse_complex_text(DEEP)
    assert str(err.value) == DEEP_MESSAGE


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_deep_nesting_is_an_invalid_file_for_validate(tmp_path, capsys, fmt):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    code, out, err = run_cli(["--format", fmt, "validate", str(deep)],
                             capsys)
    assert (code, err) == (1, "")
    if fmt == "json":
        doc = json.loads(out)["invariants"]
        assert doc == {"valid": False, "error": DEEP_MESSAGE}
    else:
        assert out == f"invalid: {DEEP_MESSAGE}\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", [["delta"],
                                     ["verdict", "periodic", "-m", "1",
                                      "--file"]])
def test_deep_nesting_is_a_structured_error(tmp_path, capsys, fmt, command):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    code, out, err = run_cli(["--format", fmt, *command, str(deep)], capsys)
    assert (code, out) == (1, "")
    if fmt == "json":
        assert json.loads(err) == {"error": "ParseError",
                                   "message": DEEP_MESSAGE}
    else:
        assert err == f"error: {DEEP_MESSAGE}\n"


# -- the report schema is read once per process ---------------------------------

def test_schema_is_read_once(capsys, monkeypatch):
    reads = []
    files = cli.resources.files

    class Counting:
        @staticmethod
        def files(package):
            reads.append(package)
            return files(package)

    monkeypatch.setattr(cli, "resources", Counting)
    cli.load_schema.cache_clear()
    try:
        for _ in range(2):
            code, out, _ = run_cli(["--format", "json", "delta",
                                    "bundled:4_1"], capsys)
            assert code == 0
            assert check_schema(json.loads(out), load_schema()) == []
    finally:
        cli.load_schema.cache_clear()
    assert reads == ["corkscrew.data"]
