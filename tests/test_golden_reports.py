"""Byte identity of the CLI reports on every bundled model.

Each command runs in text and in JSON format; its exit code, stdout and
stderr are hashed together and compared with the sha256 recorded in
``tests/data/golden_reports.json``.  The connected results of the two
``dot + box(1) + box(l)`` inputs, which no bundled model reaches, are
hashed the same way (no exact model is known, so each is the input
itself, labelled ``greedy``), and so are ``verdict split`` on two fixed scrambles
of ``4_1x4_1_tau`` (the 625-generator tensor delta and the no-local-map
path) and the :class:`DeltaResult` of that tensor.  A refactor that
keeps the reports byte for byte keeps every hash.  After a declared
behaviour change, regenerate the file with

    PYTHONPATH=src python tests/test_golden_reports.py --regenerate
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import scramble
from corkscrew.cli import main
from corkscrew.complexes import (
    SKEW,
    PhiIotaComplex,
    direct_sum,
    serialize,
    tensor,
)
from corkscrew.connected import connected_complex
from corkscrew.invariants import delta
from corkscrew.models import (
    BUNDLED,
    box_complex,
    bundled,
    dot_complex,
    parse_complex,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_reports.json"

COMMANDS = (
    ("validate",),
    ("sarkar",),
    ("delta", "--m", "1"),
    ("s-nontrivial",),
    ("conn",),
    ("verdict", "gompf", "-m", "1", "-i", "1", "--file"),
)


def _argvs():
    for name in sorted(BUNDLED):
        for cmd in COMMANDS:
            for fmt in ("text", "json"):
                yield ["--format", fmt, *cmd, f"bundled:{name}"]


def report_hash(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = f"{code}\n{out.getvalue()}\n--stderr--\n{err.getvalue()}"
    return hashlib.sha256(blob.encode()).hexdigest()


def greedy_hash(ell: int) -> str:
    """The connected result of dot + box(1) + box(ell), with its
    inclusion and projection."""
    cx = direct_sum(dot_complex("x"), box_complex(1, at=(0, 0), suffix="0"),
                    box_complex(ell, at=(0, 0), suffix="1"),
                    name=f"dot+box(1)+box({ell})")
    res = connected_complex(PhiIotaComplex(cx, cx.identity(),
                                           cx.zero_map(SKEW), cx.identity()))
    blob = "\n".join([serialize(res.conn), res.method, str(res.caveat),
                      str(res.inclusion.cols), str(res.projection.cols)])
    return hashlib.sha256(blob.encode()).hexdigest()


GREEDY = (2, 3)

SPLIT_FILES = ("k1.json", "k2.json")
SPLIT_ARGV = ("verdict", "split", "--k1", SPLIT_FILES[0],
              "--k2", SPLIT_FILES[1], "-m", "1")
SPLIT_FORMATS = ("text", "json")
DELTA_KEY = "delta tensor(k1.json, k2.json)"


@contextlib.contextmanager
def _split_inputs():
    """A working directory holding two fixed scrambles of (4_1, tau)^2
    under the names of ``SPLIT_FILES``; the reports echo those names."""
    x = bundled("4_1x4_1_tau")
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for k, name in enumerate(SPLIT_FILES):
            Path(tmp, name).write_text(
                serialize(scramble(x, random.Random(f"golden split {k}"))))
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(here)


def split_hash(fmt: str) -> str:
    with _split_inputs():
        return report_hash(["--format", fmt, *SPLIT_ARGV])


def _delta_result_hash(res) -> str:
    blob = json.dumps(vars(res), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def delta_hash() -> str:
    """Every field of the DeltaResult of the 625-generator tensor of the
    two split inputs: delta, max_grading, witnesses and window."""
    with _split_inputs():
        x = tensor(*(parse_complex(name) for name in SPLIT_FILES))
    return _delta_result_hash(delta(x, validated=True))


def _split_key(fmt: str) -> str:
    return " ".join(["--format", fmt, *SPLIT_ARGV])


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


ARGVS = list(_argvs())


def _keys():
    return ([" ".join(a) for a in ARGVS] + [f"greedy {ell}" for ell in GREEDY]
            + [_split_key(fmt) for fmt in SPLIT_FORMATS] + [DELTA_KEY])


def test_every_command_is_recorded():
    assert sorted(_golden()) == sorted(_keys())


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_report_is_byte_identical(argv):
    assert report_hash(argv) == _golden()[" ".join(argv)]


@pytest.mark.parametrize("ell", GREEDY)
def test_greedy_model_is_byte_identical(ell):
    assert greedy_hash(ell) == _golden()[f"greedy {ell}"]


@pytest.mark.parametrize("fmt", SPLIT_FORMATS)
def test_split_report_is_byte_identical(fmt):
    assert split_hash(fmt) == _golden()[_split_key(fmt)]


def test_tensor_delta_result_is_identical():
    assert delta_hash() == _golden()[DELTA_KEY]


def test_3125_generator_delta_result_is_pinned():
    """Every field of the DeltaResult of x2 tensor x3, with x2 =
    (4_1,tau)^2 and x3 = x2 tensor 4_1: 3,125 generators, as recorded
    when delta still built a cycle basis at every grading it searched."""
    x2 = bundled("4_1x4_1_tau")
    x = tensor(x2, tensor(x2, bundled("4_1")))
    assert x.complex.n == 3125
    assert _delta_result_hash(delta(x, validated=True)) == (
        "e76ffd6a74c6b0a1615702d5d884e47ca2e8cc3826bcb2a00fd572006f834f3f")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    golden = {" ".join(a): report_hash(a) for a in ARGVS}
    golden.update({f"greedy {ell}": greedy_hash(ell) for ell in GREEDY})
    golden.update({_split_key(fmt): split_hash(fmt) for fmt in SPLIT_FORMATS})
    golden[DELTA_KEY] = delta_hash()
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
