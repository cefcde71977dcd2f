"""Command-line surface: subcommands, formats, exit codes, schema."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from corkscrew import cli
from corkscrew.cli import check_schema, load_schema, main
from corkscrew.complexes import serialize
from corkscrew.models import figure_eight_with_actions


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
    (["conn", "bundled:nope"], "no bundled complex 'nope'"),
    (["validate", "bundled:nope"], "no bundled complex 'nope'"),
    (["--window-bump", "-50", "delta", "bundled:4_1"], "window bump"),
    (["--window-bump", "1.5", "delta", "bundled:4_1"], "window bump"),
    # usage errors from the argument parser itself
    # an unknown option before the subcommand is named, its value is not
    # taken for the subcommand
    (["--seed", "1", "conn", "bundled:4_1"], "unrecognized arguments: --seed"),
    (["--window-bump", "0", "-q", "2", "delta", "bundled:4_1"],
     "unrecognized arguments: -q"),
    (["--seed", "--colour", "red", "conn", "bundled:4_1"],
     "unrecognized arguments: --seed --colour"),
    (["--seed=1", "conn", "bundled:4_1"], "unrecognized arguments: --seed=1"),
    (["verdict", "gompf", "-m", "abc"], "invalid int value: 'abc'"),
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


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_window_bump_env_must_be_a_non_negative_integer(capsys, monkeypatch,
                                                        value):
    monkeypatch.setenv("CORKSCREW_WINDOW_BUMP", value)
    code, out, err = run_cli(["--format", "json", "delta", "bundled:4_1"],
                             capsys)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "ValidationError"


def test_census_text_lists_rejected_rows(tmp_path, capsys):
    path = tmp_path / "knots.csv"
    path.write_text("name,crossings,alternating,signature,determinant,arf,"
                    "tau\n3_1,3,1,-2,3,1,\nbad,4,2,0,5,1,\n")
    code, out, _ = run_cli(["census", "--table", str(path)], capsys)
    assert code == 0
    assert out.splitlines()[-1] == (
        "rejected: line 3: bad: alternating must be 0 or 1")


def test_window_bump_env(capsys, monkeypatch):
    monkeypatch.setenv("CORKSCREW_WINDOW_BUMP", "2")
    code, out, _ = run_cli(["--format", "json", "delta",
                            "bundled:4_1x4_1_tau"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["window_bump"] == 2
    assert doc["invariants"]["delta"] == 1


def test_window_bump_env_is_read_on_every_call(capsys, monkeypatch):
    # the parser is built once per process; the environment is not
    argv = ["--format", "json", "delta", "bundled:4_1"]
    bumps = []
    for value in ("3", "0"):
        monkeypatch.setenv("CORKSCREW_WINDOW_BUMP", value)
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        bumps.append(json.loads(out)["window_bump"])
    monkeypatch.delenv("CORKSCREW_WINDOW_BUMP")
    code, out, _ = run_cli(argv, capsys)
    bumps.append(json.loads(out)["window_bump"])
    code, out, _ = run_cli(["--window-bump", "1", *argv], capsys)
    bumps.append(json.loads(out)["window_bump"])
    assert bumps == [3, 0, 0, 1]


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
