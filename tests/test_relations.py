"""The relations that make a file an iota-complex, checked at parse:
iota o iota ~ the basepoint twist when the file gives iota, and
phi o iota ~ iota o phi when phi is not the identity.  Mutations of the
bundled models' actions are judged against a dense reference solve of
the homotopy equation (``oracle.reference_rows``/``reference_solve``)."""

import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from corkscrew.algebra import F2Inconsistency, gr_add
from corkscrew.complexes import (
    SKEW,
    STRAIGHT,
    PhiIotaComplex,
    sarkar_map,
    to_dict,
)
from corkscrew.errors import ValidationError
from corkscrew.homotopy import (
    Left,
    MapShape,
    MapSystem,
    Right,
    homotopy_inverse,
)
from corkscrew.models import bundled, phi_iota_from_dict
from corkscrew.verdicts import replay_certificate, verdict_gompf
from oracle import reference_rows, reference_solve

ISQUARED = "iota o iota is not homotopic to the basepoint twist"
COMMUTE = "phi o iota is not homotopic to iota o phi"


def _zero_iota_doc():
    doc = to_dict(bundled("4_1"))
    doc["iota"]["map"] = {}
    return doc


def test_a_zero_iota_is_rejected():
    with pytest.raises(ValidationError, match=f"4_1: {ISQUARED}"):
        phi_iota_from_dict(_zero_iota_doc())


_ZERO_IOTA = """
import sys
from corkscrew.complexes import to_dict
from corkscrew.errors import ValidationError
from corkscrew.models import bundled, phi_iota_from_dict

doc = to_dict(bundled("4_1"))
doc["iota"]["map"] = {}
try:
    phi_iota_from_dict(doc)
except ValidationError as exc:
    print("raised:", exc)
else:
    print("accepted")
print("optimize", sys.flags.optimize)
"""


def test_a_zero_iota_is_rejected_under_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-O", "-c", _ZERO_IOTA],
                         env={"PYTHONPATH": str(src)}, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == [f"raised: 4_1: {ISQUARED}", "optimize 1"]


def test_replay_rejects_a_conn_with_a_zero_iota():
    v = verdict_gompf(bundled("4_1"), 1, 1, 5)
    cert = v.certificate
    assert cert["kind"] == "twist-nontrivial"
    assert replay_certificate(cert) is True
    cert = dict(cert, conn=dict(cert["conn"], iota={"mode": "skew",
                                                     "map": {}}))
    with pytest.raises(ValidationError, match=ISQUARED):
        replay_certificate(cert)


# -- mutations that keep the actions chain maps ------------------------------

def _reference_homotopic(f, g) -> bool:
    """f ~ g by the dense reference solve of dH + Hd = f + g."""
    cx = f.source
    d = cx.boundary()
    sys_ = MapSystem()
    sys_.add_unknown("h", MapShape(cx, cx, f.mode,
                                   gr_add(f.bidegree, (1, 1))))
    sys_.add_equation([("h", [Left(d), Right(d)])], rhs=f + g)
    rows, rhs = reference_rows(sys_)
    return not isinstance(reference_solve(rows, rhs, sys_.total),
                          F2Inconsistency)


def _chain_maps(cx, mode):
    """(shape, kernel): the (0, 0) chain maps of this mode are the
    combinations of the kernel vectors."""
    d = cx.boundary()
    shape = MapShape(cx, cx, mode, (0, 0))
    sys_ = MapSystem()
    sys_.add_unknown("f", shape)
    sys_.add_equation([("f", [Right(d), Left(d)])])
    return shape, sys_.solutions_bits().kernel


def _null_homotopic(cx, mode, rng):
    """dH + Hd for a random H of this mode and bidegree (1, 1)."""
    shape = MapShape(cx, cx, mode, (1, 1))
    h = shape.assemble(rng.getrandbits(shape.size))
    d = cx.boundary()
    return d.compose(h) + h.compose(d)


MUTABLE = ["4_1", "4_1_s", "4_1_iota", "T2_3", "T2_3#T2_3", "stair_box_3",
           "4_1x4_1_s"]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(MUTABLE), which=st.sampled_from(["phi", "iota"]),
       picks=st.lists(st.integers(0, 63), max_size=2),
       null=st.booleans(), seed=st.integers(0, 999))
def test_parsing_accepts_exactly_the_mutations_that_keep_the_relations(
        name, which, picks, null, seed):
    x = bundled(name)
    cx = x.complex
    mode = STRAIGHT if which == "phi" else SKEW
    shape, kernel = _chain_maps(cx, mode)
    bits = 0
    for p in picks:
        if kernel:
            bits ^= kernel[p % len(kernel)]
    change = shape.assemble(bits)
    if null:
        change = change + _null_homotopic(cx, mode, random.Random(seed))
    phi, iota = x.phi, x.iota
    if which == "phi":
        phi = phi + change
    else:
        iota = iota + change
    doc = to_dict(PhiIotaComplex(cx, phi, iota))
    if homotopy_inverse(cx, phi) is None:
        want = "phi has no homotopy inverse"
    elif not _reference_homotopic(iota.compose(iota), sarkar_map(cx)):
        want = ISQUARED
    elif phi != cx.identity() and not _reference_homotopic(
            phi.compose(iota), iota.compose(phi)):
        want = COMMUTE
    else:
        want = None
    try:
        got = phi_iota_from_dict(doc)
    except ValidationError as exc:
        assert want is not None and str(exc) == f"{cx.name}: {want}"
    else:
        assert want is None
        assert (got.phi, got.iota) == (phi, iota)
