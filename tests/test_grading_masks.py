"""Grading checks read off bit masks, against the per-entry routes they
replaced (``oracle.reference_*``): the first grading violation of a map,
the U-complex degree check and largest power of U, and the quotient
tower shape of the S^3-type test.  Then the structure the masks buy on
the 625-generator tensor, and the checks that must survive ``python -O``.
"""

import functools
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import scramble, transvect
from corkscrew import algebra, complexes
from corkscrew.algebra import Levels
from corkscrew.complexes import (
    SKEW,
    STRAIGHT,
    Endomorphism,
    KnotComplex,
    direct_sum,
    dual,
    serialize,
    shift,
    tensor,
)
from corkscrew.errors import ValidationError
from corkscrew.invariants import (
    DiagonalHomology,
    UComplex,
    a0,
    build_cyl,
    delta,
    quotient_tower_shape,
)
from corkscrew.models import (
    BUNDLED,
    box_complex,
    bundled,
    dot_complex,
    figure_eight_with_actions,
    parse_complex_text,
    staircase_complex,
    thin_model,
    torus_model,
)
from oracle import (
    reference_grading_violation,
    reference_quotient_tower_shape,
    reference_ucomplex_check,
)


def _torus_sum(*qs):
    x = torus_model(qs[0])
    for q in qs[1:]:
        x = tensor(x, torus_model(q))
    return x


MODELS = {f"scrambled({name})": (lambda name=name: scramble(
    bundled(name), random.Random(name))) for name in BUNDLED}
for _qs in ((3, -3), (3, 5), (5, -5), (3, 3, -3)):
    MODELS[f"T{_qs}"] = functools.partial(_torus_sum, *_qs)
MODELS["dual(4_1x4_1_tau)"] = lambda: dual(bundled("4_1x4_1_tau"))
MODELS["dual(T(3, 5))"] = lambda: dual(_torus_sum(3, 5))
MODELS["4_1x4_1_tau(x)4_1"] = lambda: tensor(bundled("4_1x4_1_tau"),
                                             figure_eight_with_actions())


@functools.lru_cache(maxsize=None)
def _model(name):
    return MODELS[name]()


BIDEGREES = [(0, 0), (-1, -1), (1, -1), (-1, 1), (2, 0), (0, -2), (1, 1)]


def _flip(cols, n, rng, count):
    cols = list(cols)
    for _ in range(count):
        cols[rng.randrange(n)] ^= 1 << rng.randrange(n)
    return cols


@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16))
def test_grading_violation_matches_the_reference(name, seed):
    x = _model(name)
    cx = x.complex
    rng = random.Random(seed)
    for cols in (cx.diff, x.phi.cols, x.iota.cols):
        for mode in (STRAIGHT, SKEW):
            for bidegree in rng.sample(BIDEGREES, 3):
                for flips in (0, 1, 3):
                    f = Endomorphism._graded(
                        cx, cx, _flip(cols, cx.n, rng, flips), mode,
                        bidegree)
                    assert (f.grading_violation()
                            == reference_grading_violation(f)), (
                        name, mode, bidegree)


def test_well_graded_maps_have_no_violation():
    x = _model("4_1x4_1_tau(x)4_1")
    d = x.complex.boundary()
    for f in (d, x.phi, x.iota, d.compose(x.iota)):
        assert f.grading_violation() is None
        assert reference_grading_violation(f) is None


def _admissible_flip(uc, cols, degree, rng):
    """Set or clear one entry s -> t that the gradings allow."""
    cols = list(cols)
    s = rng.randrange(uc.n)
    fits = [t for t in range(uc.n)
            if (uc.gradings[t] - uc.gradings[s] - degree) % 2 == 0
            and uc.gradings[t] >= uc.gradings[s] + degree]
    if fits:
        cols[s] ^= 1 << rng.choice(fits)
    return cols


def _ucomplex_outcome(uc, maps):
    kwargs = dict(zip(("cols", "phi_cols", "iota_cols"),
                      (cols for _, cols, _ in maps)))
    try:
        built = UComplex(name=uc.name, labels=uc.labels,
                         gradings=uc.gradings, **kwargs)
    except ValidationError as exc:
        return str(exc), None
    return None, built.max_exponent


@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16))
def test_ucomplex_check_matches_the_reference(name, seed):
    rng = random.Random(seed)
    uc = a0(_model(name))
    cyl = build_cyl(uc)
    for target in (uc, cyl):
        maps = target._maps()
        cases = [maps]
        for k in range(len(maps)):
            label, cols, degree = maps[k]
            admissible = _admissible_flip(target, cols, degree, rng)
            wild = _flip(cols, target.n, rng, rng.randrange(1, 3))
            for new in (admissible, wild):
                cases.append(maps[:k] + [(label, new, degree)]
                             + maps[k + 1:])
        for case in cases:
            assert (_ucomplex_outcome(target, case)
                    == reference_ucomplex_check(target.labels,
                                                target.gradings, case))


def _non_s3():
    """Complexes whose quotients have no tower, several, or a tower top
    off degree zero."""
    box = box_complex(1)
    stair = staircase_complex(2)
    return {
        "box(1)": box,
        "box(2)": box_complex(2),
        "staircase(2)+staircase(2)": direct_sum(
            stair, shift(stair, (0, 0), rename=lambda g: g + "'")),
        "shift(staircase(2), (2, 0))": shift(stair, (2, 0)),
        "shift(staircase(3), (-2, 2))": shift(staircase_complex(3), (-2, 2)),
        "shift(4_1, (0, 4))": shift(bundled("4_1").complex, (0, 4)),
    }


def _scramble_complex(cx, rng, moves=10):
    """A chain-isomorphic copy of a bare complex: random admissible
    transvections, then a random relabelling."""
    diff = list(cx.diff)
    for _ in range(40 * moves):
        i, j = rng.randrange(cx.n), rng.randrange(cx.n)
        if i != j and algebra.slice_monomial(
                cx.gradings[j], cx.gradings[i]) is not None:
            transvect(diff, i, j)
            moves -= 1
            if not moves:
                break
    perm = list(range(cx.n))
    rng.shuffle(perm)
    order = sorted(range(cx.n), key=perm.__getitem__)
    return KnotComplex(
        f"scrambled({cx.name})", tuple(f"g{k}" for k in range(cx.n)),
        tuple(cx.gradings[s] for s in order),
        tuple(sum(1 << perm[t] for t in algebra.ones(diff[s]))
              for s in order))


SHAPES = dict(_non_s3())
for _name, _cx in _non_s3().items():
    SHAPES[f"scrambled({_name})"] = _scramble_complex(_cx,
                                                      random.Random(_name))
# one tower in plane gr_u = 0, whose top (0, 0) lies below the box's a'
# and d' at (0, 2) in the same plane
SHAPES["dot+box(1) at (0, 2)"] = direct_sum(
    dot_complex(), box_complex(1, at=(0, 2), suffix="'"))
SHAPES["scrambled(dot+box(1) at (0, 2))"] = _scramble_complex(
    SHAPES["dot+box(1) at (0, 2)"], random.Random(4))
for _name in MODELS:
    SHAPES[_name] = _name


@pytest.mark.parametrize("killed", ["u", "v"])
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_quotient_tower_shape_matches_the_reference(name, killed):
    cx = SHAPES[name]
    if isinstance(cx, str):
        cx = _model(cx).complex
    assert (quotient_tower_shape(cx, killed)
            == reference_quotient_tower_shape(cx, killed))


def test_non_s3_shapes_are_covered():
    shapes = [quotient_tower_shape(cx, "u") for cx in _non_s3().values()]
    counts = {shape.tower_count for shape in shapes}
    assert {0, 1, 2} <= counts  # no tower, one, two
    assert any(shape.tower_count == 1 and shape.tower_top[0] != 0
               for shape in shapes)  # one tower, top off degree zero


@pytest.mark.parametrize("name", ["dot+box(1) at (0, 2)",
                                  "scrambled(dot+box(1) at (0, 2))"])
def test_a_tower_top_below_the_top_of_its_plane(name):
    cx = SHAPES[name]
    top = quotient_tower_shape(cx, "u").tower_top
    assert top == (0, 0)
    assert max(gr[1] for gr in cx.gradings if gr[0] == top[0]) == 2


def test_the_125_generator_tensor_is_covered():
    assert _model("4_1x4_1_tau(x)4_1").complex.n == 125


# -- structure on the 625-generator tensor --------------------------------------

@functools.lru_cache(maxsize=None)
def _factors():
    x2 = bundled("4_1x4_1_tau")
    return scramble(x2, random.Random(1)), scramble(x2, random.Random(2))


@functools.lru_cache(maxsize=None)
def _big():
    return tensor(*_factors())


def _counting_checks(monkeypatch) -> list:
    """Patch ``Endomorphism.grading_violation`` to record every call."""
    calls = []
    real_check = Endomorphism.grading_violation

    def checking(self):
        calls.append(self)
        return real_check(self)

    monkeypatch.setattr(Endomorphism, "grading_violation", checking)
    return calls


def test_tensor_builds_its_maps_without_checks_or_monomials(monkeypatch):
    factors = _factors()
    # complexes reads monomials off the gradings itself, so the library's
    # one slice_monomial, patched below, is the only one it could reach
    assert "slice_monomial" not in vars(complexes)
    monos = []
    real_mono = algebra.slice_monomial

    def counting(*args):
        monos.append(args)
        return real_mono(*args)

    monkeypatch.setattr(algebra, "slice_monomial", counting)
    checks = _counting_checks(monkeypatch)
    x = tensor(*factors)
    assert x.complex.n == 625
    assert len(checks) == 0 and len(monos) == 0


def test_gradings_are_checked_once_where_the_bits_are_made(monkeypatch):
    """A parsed file is graded by its decoder alone: parsing checks only
    the columns of phi's inverse, which it makes itself (none when phi is
    the identity), and tensor and dual build their maps from graded
    inputs without a check."""
    files = {"phi != id": serialize(scramble(bundled("4_1x4_1_tau"),
                                             random.Random(3))),
             "phi = id": serialize(scramble(thin_model(1, True),
                                            random.Random(3)))}
    checks = _counting_checks(monkeypatch)
    counts = {}
    parsed = {}
    for label, text in files.items():
        parsed[label] = parse_complex_text(text)
        counts[f"parse, {label}"] = len(checks)
        checks.clear()
    big = tensor(parsed["phi != id"], parsed["phi = id"])
    counts["tensor"] = len(checks)
    checks.clear()
    dual(big)
    counts["dual"] = len(checks)
    assert big.complex.n == 25 * 7
    assert counts == {"parse, phi != id": 1, "parse, phi = id": 0,
                      "tensor": 0, "dual": 0}


def test_max_exponent_is_scanned_once_per_ucomplex(monkeypatch):
    scans = []
    homs = []
    real_scan = Levels.max_rise
    real_init = DiagonalHomology.__init__

    def scanning(self, cols, base):
        scans.append(len(cols))
        return real_scan(self, cols, base)

    def recording(self, uc, *args, **kwargs):
        homs.append(uc)
        real_init(self, uc, *args, **kwargs)

    monkeypatch.setattr(Levels, "max_rise", scanning)
    monkeypatch.setattr(DiagonalHomology, "__init__", recording)
    res = delta(_big(), validated=True)
    # one DiagonalHomology, on the diagonal subcomplex, which scans d,
    # phi and iota once each; the cylinder scans its one differential
    assert len(homs) == 1
    assert scans == [625, 625, 625, 3 * 625]
    assert res.delta == delta(_big()).delta


_BAD_PHI = """
import sys
from corkscrew.complexes import Endomorphism, KnotComplex
from corkscrew.errors import ValidationError

cx = KnotComplex("k", ("a", "b"), ((0, 0), (1, 1)), (0, 0))
try:
    Endomorphism(cx, cx, (0b11, 0b10))  # a -> b is odd
except ValidationError as exc:
    print("raised:", exc)
else:
    print("accepted")
print("optimize", sys.flags.optimize)
"""


def test_bad_phi_entry_raises_under_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-O", "-c", _BAD_PHI],
                         env={"PYTHONPATH": str(src)}, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["raised: bidegree violated at a->b",
                                "optimize 1"]
