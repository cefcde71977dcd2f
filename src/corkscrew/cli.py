"""Command-line interface and report emission.

Subcommands: validate, sarkar, delta, s-nontrivial, conn, verdict
(gompf | split | periodic), census.  Global flags: --format json|text,
--window-bump K (also via CORKSCREW_WINDOW_BUMP).

Reports are canonical: identical inputs reproduce byte-identical output
(no timestamps, stable ordering throughout).  Every error, a malformed
command line included, is one line on stderr (a JSON object under
``--format json``) with exit status 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from importlib import resources

from . import __version__
from .complexes import (
    canonical_json,
    encode_columns,
    sarkar_map,
    to_dict,
    validate,
)
from .connected import connected_complex, s_nontrivial
from .errors import (
    CorkscrewError,
    ParseError,
    ValidationError,
    load_json,
    read_input,
)
from .invariants import delta
from .knot_table import bundled_table, census, parse_knot_csv
from .models import bundled, parse_complex
from .verdicts import (
    Verdict,
    verdict_delta,
    verdict_gompf,
    verdict_periodic,
    verdict_split,
)

TOOL = "corkscrew"


@functools.cache
def load_schema() -> dict:
    return json.loads(resources.files("corkscrew.data")
                      .joinpath("report.schema.json").read_text())


def check_schema(doc, schema, path="$") -> list:
    """Minimal structural validator for the shipped report schema subset
    (type / required / properties / items / enum)."""
    problems = []
    expected = schema.get("type")
    if expected:
        kinds = {"object": dict, "array": list, "string": str,
                 "integer": int, "boolean": bool}
        if not isinstance(doc, kinds[expected]) or (
                expected == "integer" and isinstance(doc, bool)):
            problems.append(f"{path}: expected {expected}")
            return problems
    if "enum" in schema and doc not in schema["enum"]:
        problems.append(f"{path}: {doc!r} not in {schema['enum']}")
    if isinstance(doc, dict):
        for key in schema.get("required", ()):
            if key not in doc:
                problems.append(f"{path}: missing required field {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in doc:
                problems.extend(check_schema(doc[key], sub, f"{path}.{key}"))
    if isinstance(doc, list) and "items" in schema:
        for i, item in enumerate(doc):
            problems.extend(check_schema(item, schema["items"],
                                         f"{path}[{i}]"))
    return problems


class Report:
    def __init__(self, command: str, window_bump: int):
        self.doc = {
            "tool": TOOL,
            "version": __version__,
            "seed": 0,  # the report schema requires the key
            "window_bump": window_bump,
            "command": command,
            "inputs": {},
            "invariants": {},
            "verdicts": [],
            "certificates": {},
        }
        self.lines: list = []

    def echo_input(self, key, value):
        self.doc["inputs"][key] = value

    def invariant(self, key, value):
        self.doc["invariants"][key] = value

    def add_verdict(self, v: Verdict):
        self.doc["verdicts"].append(v.to_json_dict())
        if v.certificate:
            self.doc["certificates"][v.certificate["ref"]] = v.certificate
        self.lines.append(
            f"{v.conclusion}  rule={v.rule}  m={v.m}  "
            f"{('reason: ' + v.reason) if v.reason else ''}".rstrip())

    def say(self, line: str):
        self.lines.append(line)

    def emit(self, fmt: str) -> str:
        if fmt == "json":
            problems = check_schema(self.doc, load_schema())
            if problems:
                raise CorkscrewError(
                    "internal: report fails its schema: " + "; ".join(problems))
            return canonical_json(self.doc) + "\n"
        return "\n".join(self.lines) + "\n"


def _bundled(ref: str):
    try:
        return bundled(ref.split(":", 1)[1])
    except KeyError as exc:
        raise CorkscrewError(exc.args[0]) from None


def resolve_complex(ref: str):
    """A path, or bundled:NAME for a built-in model."""
    if ref.startswith("bundled:"):
        return _bundled(ref)
    return parse_complex(ref)


def _required(args, *options) -> None:
    """Raise unless every named option was given."""
    for name in options:
        if getattr(args, name) is None:
            raise CorkscrewError(f"verdict {args.mode} needs --{name}")


def _window_bump(text: str) -> int:
    """The window bump from the command line or the environment: a
    non-negative integer, since a negative one would cut the window below
    its proven margin."""
    try:
        bump = int(text)
    except ValueError:
        bump = -1
    if bump < 0:
        raise ValidationError(
            f"window bump must be a non-negative integer, got {text!r}")
    return bump


def _element_str(vec: dict) -> str:
    if not vec:
        return "0"
    parts = []
    for label, exps in sorted(vec.items()):
        for e in exps:
            parts.append(label if e == 0 else f"U^{e} {label}")
    return " + ".join(parts)


# -- subcommand handlers -----------------------------------------------------------

def cmd_validate(args, report: Report) -> int:
    from .complexes import complex_from_dict

    # a file that cannot be read is an error, not an invalid complex
    text = None if args.file.startswith("bundled:") else read_input(args.file)
    try:
        if text is None:
            cx = _bundled(args.file).complex
        else:
            cx = complex_from_dict(load_json(text))
    except (ParseError, ValidationError) as exc:
        report.echo_input("file", args.file)
        report.invariant("valid", False)
        report.invariant("error", str(exc))
        report.say(f"invalid: {exc}")
        return 1
    rep = validate(cx, require_s3_type=True)
    report.echo_input("file", args.file)
    report.echo_input("complex", cx.name)
    report.invariant("valid", rep.ok)
    report.invariant("s3_type", rep.s3_type)
    if rep.first_violation:
        report.invariant("first_violation", rep.first_violation)
    report.say(f"{cx.name}: valid={rep.ok} s3_type={rep.s3_type}"
               + (f" ({rep.first_violation})" if rep.first_violation else ""))
    return 0 if rep.ok else 1


def cmd_sarkar(args, report: Report) -> int:
    x = resolve_complex(args.file)
    cx = x.complex
    s = sarkar_map(cx)
    entries = encode_columns(s)
    report.echo_input("file", args.file)
    report.echo_input("complex", cx.name)
    report.invariant("sarkar_map", entries)
    is_id = s == cx.identity()
    report.invariant("is_identity", is_id)
    report.say(f"basepoint twist on {cx.name}: "
               + ("identity" if is_id else "not the identity"))
    for g, terms in entries.items():
        pretty = " + ".join(
            t[0] if (t[1], t[2]) == (0, 0) else f"U^{t[1]}V^{t[2]} {t[0]}"
            for t in terms)
        report.say(f"  s({g}) = {pretty or '0'}")
    return 0


def cmd_delta(args, report: Report) -> int:
    x = resolve_complex(args.file)
    res = delta(x, window_bump=args.window_bump)
    report.echo_input("file", args.file)
    report.echo_input("complex", x.complex.name)
    report.invariant("delta", res.delta)
    report.invariant("max_grading", res.max_grading)
    report.invariant("witness", {
        "x": {k: v for k, v in sorted(res.witness_x.items())},
        "y": {k: v for k, v in sorted(res.witness_y.items())},
        "z": {k: v for k, v in sorted(res.witness_z.items())},
    })
    report.say(f"delta({x.complex.name}) = {res.delta}")
    report.say(f"  witness x = {_element_str(res.witness_x)}")
    report.say(f"  witness y = {_element_str(res.witness_y)}")
    report.say(f"  witness z = {_element_str(res.witness_z)}")
    if args.m is not None:
        v = verdict_delta(x, args.m, window_bump=args.window_bump)
        report.add_verdict(v)
    return 0


def cmd_s_nontrivial(args, report: Report) -> int:
    x = resolve_complex(args.file)
    tw = s_nontrivial(x)
    report.echo_input("file", args.file)
    report.echo_input("complex", x.complex.name)
    report.invariant("s_nontrivial", tw.nontrivial)
    report.invariant("conn_method", tw.conn.method)
    if tw.conn.form:
        report.invariant("conn_shape", tw.conn.form.describe())
    if tw.caveat:
        report.invariant("caveat", tw.caveat)
    report.say(f"{x.complex.name}: twist-nontrivial = {tw.nontrivial}"
               + (f" [{tw.caveat}]" if tw.caveat else ""))
    return 0


def cmd_conn(args, report: Report) -> int:
    x = resolve_complex(args.file)
    res = connected_complex(x)
    report.echo_input("file", args.file)
    report.echo_input("complex", x.complex.name)
    report.invariant("method", res.method)
    report.invariant("conn_rank", res.conn.complex.n)
    if res.form:
        report.invariant("conn_shape", res.form.describe())
    if res.caveat:
        report.invariant("caveat", res.caveat)
    report.invariant("conn_complex", to_dict(res.conn))
    report.say(f"conn({x.complex.name}): "
               + (res.form.describe() if res.form
                  else f"rank {res.conn.complex.n}")
               + f"  [{res.method}]"
               + (f" ({res.caveat})" if res.caveat else ""))
    return 0


def cmd_verdict(args, report: Report) -> int:
    if args.mode == "gompf":
        if args.knot is None and args.file is None:
            raise CorkscrewError("verdict gompf needs --knot or --file")
        if args.knot is not None and args.file is not None:
            raise CorkscrewError("verdict gompf takes --knot or --file, "
                                 "not both")
        if args.knot is not None:
            table = bundled_table()
            row = next((r for r in table.rows if r.name == args.knot), None)
            if row is None:
                raise CorkscrewError(f"knot {args.knot!r} not in the "
                                     f"bundled table")
            if not row.census_eligible:
                raise CorkscrewError(
                    f"{args.knot}: thin path unavailable; supply a complex "
                    f"file instead")
            subject = row.descriptor()
            report.echo_input("knot", args.knot)
        else:
            subject = resolve_complex(args.file)
            report.echo_input("file", args.file)
        report.echo_input("params", {"m": args.m, "i": args.i, "j": args.j})
        v = verdict_gompf(subject, args.m, args.i, args.j)
    elif args.mode == "split":
        _required(args, "k1", "k2")
        x1 = resolve_complex(args.k1)
        x2 = resolve_complex(args.k2)
        report.echo_input("k1", args.k1)
        report.echo_input("k2", args.k2)
        report.echo_input("params", {"m": args.m})
        v = verdict_split(x1, x2, args.m, window_bump=args.window_bump)
    elif args.mode == "periodic":
        _required(args, "file")
        x = resolve_complex(args.file)
        report.echo_input("file", args.file)
        report.echo_input("params", {"m": args.m, "i": args.i})
        v = verdict_periodic(x, args.m, args.i)
    else:
        raise CorkscrewError(f"unknown verdict mode {args.mode!r}")
    report.add_verdict(v)
    return 0


def cmd_census(args, report: Report) -> int:
    if args.table == "bundled":
        table = bundled_table()
    else:
        table = parse_knot_csv(args.table)
    report.echo_input("table", args.table)
    report.echo_input("max_crossings", args.max_crossings)
    entries = census(table.rows, max_crossings=args.max_crossings)
    names = [e.name for e in entries if e.qualifies]
    report.invariant("qualifying", names)
    report.invariant("count", len(names))
    report.invariant("rejected_rows", [
        {"line": line, "reason": reason} for line, reason in table.rejected])
    report.say(f"{len(names)} knots qualify:")
    for e in entries:
        if e.qualifies:
            report.say(f"  {e.name}  ({e.reason})")
    skipped = [e for e in entries if not e.qualifies]
    if skipped:
        report.say("not covered: " + ", ".join(e.name for e in skipped))
    for line, reason in table.rejected:
        report.say(f"rejected: line {line}: {reason}")
    return 0


# -- argument parsing ----------------------------------------------------------------

class UsageError(CorkscrewError):
    """A command line the argument parser rejects."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise instead of printing
    the usage and exiting 2, so ``main`` reports them like every other
    error.  Subparsers are built from the same class."""

    def error(self, message):
        raise UsageError(message)


def _global_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--window-bump")


@functools.cache
def _prefix_parser() -> argparse.ArgumentParser:
    """The global options alone, everything from the first positional on
    left over.  argparse would take the value of an unknown option before
    the subcommand for the subcommand; this parser names the option."""
    parser = _Parser(prog=TOOL, add_help=False)
    _global_options(parser)
    parser.add_argument("-h", "--help", action="store_true")
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; it holds no state
    from the environment, which ``main`` reads on every call."""
    parser = _Parser(
        prog=TOOL,
        description="Exact strong-cork detection from knot Floer complexes")
    _global_options(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural and S^3-type checks")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sarkar", help="basepoint full-twist map")
    p.add_argument("file")
    p.set_defaults(func=cmd_sarkar)

    p = sub.add_parser("delta", help="cylinder obstruction")
    p.add_argument("file")
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("s-nontrivial", help="twist nontriviality on the "
                                            "connected model")
    p.add_argument("file")
    p.set_defaults(func=cmd_s_nontrivial)

    p = sub.add_parser("conn", help="connected (minimal local) model")
    p.add_argument("file")
    p.set_defaults(func=cmd_conn)

    p = sub.add_parser("verdict", help="strong-cork rules")
    p.add_argument("mode", choices=("gompf", "split", "periodic"))
    p.add_argument("--knot")
    p.add_argument("--file")
    p.add_argument("--k1")
    p.add_argument("--k2")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-i", type=int, default=1)
    p.add_argument("-j", type=int, default=0)
    p.set_defaults(func=cmd_verdict)

    p = sub.add_parser("census", help="thin-knot census")
    p.add_argument("--table", default="bundled")
    p.add_argument("--max-crossings", type=int, default=None)
    p.set_defaults(func=cmd_census)
    return parser


def main(argv=None) -> int:
    # the parsers fill this namespace left to right, so a usage error
    # after ``--format json`` is still reported as JSON
    args = argparse.Namespace(format="text")
    try:
        _, unknown = _prefix_parser().parse_known_args(argv, namespace=args)
        if unknown:
            raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
        build_parser().parse_args(argv, namespace=args)
        if args.window_bump is None:
            args.window_bump = os.environ.get("CORKSCREW_WINDOW_BUMP", "0")
        args.window_bump = _window_bump(args.window_bump)
        report = Report(args.command, args.window_bump)
        code = args.func(args, report)
    except CorkscrewError as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        if args.format == "json":
            sys.stderr.write(json.dumps(err) + "\n")
        else:
            sys.stderr.write(f"error: {exc}\n")
        return 1
    sys.stdout.write(report.emit(args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
