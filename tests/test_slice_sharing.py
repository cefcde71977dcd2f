"""delta and homology_u against the two-pass, unshared pipeline kept in
``tests/oracle.py``, which re-checks every answer over a window two
gradings wider; the library answers each question in one pass over its
proven window.  delta also against the dense oracle at 125 generators.
Also the sweeps and slices each delta and homology computes (one
elimination per distinct slice set, none where the tower functional
misses the slice), the cylinder's first block and its D^2 = 0 check."""

import dataclasses
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import scramble
from corkscrew import invariants
from corkscrew.algebra import Echelon, ones
from corkscrew.complexes import dual, tensor
from corkscrew.errors import ValidationError
from corkscrew.invariants import (
    DiagonalHomology,
    UComplex,
    a0,
    build_cyl,
    delta,
    homology_u,
)
from corkscrew.models import BUNDLED, bundled, figure_eight_with_actions
from oracle import brute_delta, reference_delta, reference_homology_u


def _outcome(fn, *args, **kwargs):
    """Every field of the result, or the exception's type and message."""
    try:
        res = fn(*args, **kwargs)
    except Exception as exc:  # compared, never swallowed
        return ("raises", type(exc).__name__, str(exc))
    return (type(res).__name__, vars(res))


def _scrambled_bundled(seed):
    rng = random.Random(seed)
    return [(f"scrambled({name}, {seed})", scramble(BUNDLED[name](), rng))
            for name in BUNDLED]


def _large():
    x2 = bundled("4_1x4_1_tau")
    return [("dual(4_1x4_1_tau)", dual(x2)),
            ("4_1x4_1_tau*4_1", tensor(x2, figure_eight_with_actions()))]


CASES = (_scrambled_bundled(2024) + _scrambled_bundled(7)
         + _scrambled_bundled(11) + _large())


@pytest.mark.parametrize("label,x", CASES, ids=[c[0] for c in CASES])
def test_delta_matches_the_reference(label, x):
    assert _outcome(delta, x) == _outcome(reference_delta, x)


@pytest.mark.parametrize("label,x", CASES, ids=[c[0] for c in CASES])
def test_homology_u_matches_the_reference(label, x):
    uc = a0(x)
    assert _outcome(homology_u, uc) == _outcome(reference_homology_u, uc)


def _tensor_125():
    return tensor(bundled("4_1x4_1_tau"), figure_eight_with_actions())


@pytest.mark.parametrize("seed", [1, 2, 3, "dual"])
def test_delta_matches_the_dense_oracle_at_125_generators(seed):
    # the dense oracle builds every slice from the two-variable complex
    # and shares no elimination, window or tower code with delta
    x = _tensor_125()
    y = dual(x) if seed == "dual" else scramble(x, random.Random(seed))
    assert y.complex.n == 125
    assert brute_delta(y) == delta(y).delta


@pytest.mark.parametrize("name", ["4_1x4_1_tau", "T2_3#T2_3", "T2_7"])
def test_delta_builds_one_witness(monkeypatch, name):
    # delta sweeps the cylinder once per grading it searches, from the
    # diagonal's top grading down to its answer; the diagonal is swept
    # once per grading from its window's top down to the tower's top,
    # which gives the tower cycle too, and never again
    calls = []
    real = invariants._lex_witness

    def counting(uc, d, functional):
        calls.append((uc.name, d))
        return real(uc, d, functional)

    monkeypatch.setattr(invariants, "_lex_witness", counting)
    x = scramble(bundled(name), random.Random(5))
    res = delta(x, validated=True)
    hom = x.diagonal
    cyl = [d for uc, d in calls if uc == f"Cyl({hom.uc.name})"]
    diag = [d for uc, d in calls if uc == hom.uc.name]
    assert len(cyl) + len(diag) == len(calls)
    top = max(hom.uc.gradings)
    assert cyl == list(range(top, res.max_grading - 1, -1))
    assert len(cyl) > 1
    assert diag == list(range(hom.hi, hom.tower_top - 1, -1))


def test_delta_zero_iff_local_builds_the_tower_once(monkeypatch):
    """delta reads ``x.diagonal``, the tower the local-map solve from the
    trivial complex reads too, so x's diagonal homology is built once."""
    built = []
    real = DiagonalHomology.__init__

    def counting(self, uc, *args, **kwargs):
        built.append(uc.name)
        real(self, uc, *args, **kwargs)

    monkeypatch.setattr(DiagonalHomology, "__init__", counting)
    x = bundled("4_1x4_1_tau")
    out = invariants.delta_zero_iff_local(x)
    assert out["delta"] == 1 and not out["local_map_exists"]
    assert built.count(f"A0({x.complex.name})") == 1


# -- the slices of one delta --------------------------------------------------

def _record_spans(monkeypatch) -> list:
    """Patch ``invariants.ColumnSpan`` to record the generator set of
    every span it builds, as a bit mask."""
    spans = []
    real_span = invariants.ColumnSpan

    def recording(cols):
        spans.append(sum(1 << g for g in cols))
        return real_span(cols)

    monkeypatch.setattr(invariants, "ColumnSpan", recording)
    return spans


def test_each_cycle_basis_is_computed_once_per_delta(monkeypatch):
    # every span delta builds is a cycle basis of the diagonal, one per
    # distinct generator set; the cylinder gets sweeps only
    spans = _record_spans(monkeypatch)
    x = scramble(bundled("4_1x4_1_tau"), random.Random(3))
    delta(x, validated=True)  # validation computes spans of its own
    assert spans and max(spans) < 1 << x.complex.n
    assert len(spans) == len(set(spans)) == len(x.diagonal._slices)


@pytest.mark.parametrize("name", ["4_1x4_1_tau", "T2_3#T2_3", "T2_7",
                                  "stair_box_5"])
def test_one_elimination_per_slice_set(monkeypatch, name):
    """The two stable gradings take two eliminations, one per parity's
    whole generator set, and the tower scan adds none; homology at every
    grading of the window adds one per further set, and no grading below
    the lowest generator adds any."""
    uc = a0(scramble(bundled(name), random.Random(name)))
    spans = _record_spans(monkeypatch)
    hom = DiagonalHomology(uc)
    stable = {uc.levels.above(hom.gmin), uc.levels.above(hom.gmin - 1)}
    assert set(spans) == stable and len(spans) == len(stable) == 2
    for d in range(hom.hi, hom.lo - 1, -1):
        hom.homology(d)
    assert set(spans) == {uc.levels.above(d)
                          for d in range(hom.lo, hom.hi + 2)}
    assert len(spans) == len(set(spans)) == len(hom._slices)


@pytest.mark.parametrize("name", ["4_1x4_1_tau", "T2_3#T2_3", "T2_7",
                                  "stair_box_5"])
def test_delta_keeps_only_the_stable_slices(name):
    """delta reads the tower functional alone, so on a fresh complex the
    diagonal keeps the two slice sets its stable gradings use and no
    slice the tower scan visits."""
    x = scramble(bundled(name), random.Random(name))
    delta(x)
    hom = x.diagonal
    above = hom.uc.levels.above
    assert set(hom._slices) == {above(hom.gmin), above(hom.gmin - 1)}


@pytest.mark.parametrize("name", ["4_1x4_1_tau", "T2_3#T2_3", "stair_box_5"])
def test_homology_u_eliminates_no_boundary_columns(monkeypatch, name):
    """homology_u reads the boundary columns only for the slice spans,
    once per set, and builds one homology per distinct pair of slice sets
    at d and d+1, on slice d+1's stored rows, which go into its echelon
    unchanged."""
    uc = a0(scramble(bundled(name), random.Random(name)))
    spans = _record_spans(monkeypatch)
    fetched, homs, asked, built = [], [], [], []
    real_columns = DiagonalHomology._columns
    real_init = DiagonalHomology.__init__
    real_homology = DiagonalHomology.homology
    real_hslice = invariants._HSlice.__init__

    def fetching(self, d):
        fetched.append(d)
        return real_columns(self, d)

    def keeping(self, uc):
        homs.append(self)
        real_init(self, uc)

    def asking(self, d):
        asked.append(d)
        return real_homology(self, d)

    def building(self, *args):
        built.append(self)
        real_hslice(self, *args)

    monkeypatch.setattr(DiagonalHomology, "_columns", fetching)
    monkeypatch.setattr(DiagonalHomology, "__init__", keeping)
    monkeypatch.setattr(DiagonalHomology, "homology", asking)
    monkeypatch.setattr(invariants._HSlice, "__init__", building)
    homology_u(uc)
    (hom,) = homs
    assert len(fetched) == len(spans) == len(set(spans)) == len(hom._slices)
    above = uc.levels.above
    pairs = {(above(d), above(d + 1)) for d in asked}
    assert set(hom._H) == pairs
    assert len(built) == len(pairs) < len(set(asked))
    for (_, next_set), h in hom._H.items():
        rows = hom._slices[next_set][1]
        assert [v for _, v in h._span.rows[:len(rows)]] == rows


@pytest.mark.parametrize("name", ["4_1x4_1_tau", "T2_3#T2_3", "T2_7"])
def test_no_sweep_where_the_functional_misses_the_slice(monkeypatch, name):
    """delta's sweep at a grading whose slice the tower functional misses
    returns None without building an echelon; there is one such grading
    at least, the tower sitting in one parity."""
    built = []

    class Counting(Echelon):
        def __init__(self, vectors=()):
            built.append(1)
            super().__init__(vectors)

    real = invariants._lex_witness
    sweeps = []

    def counting(uc, d, functional):
        before = len(built)
        out = real(uc, d, functional)
        sweeps.append((bool(functional & uc.levels.above(d)),
                       len(built) - before, out))
        return out

    x = scramble(bundled(name), random.Random(5))
    x.diagonal  # the diagonal's own eliminations are not counted
    monkeypatch.setattr(invariants, "Echelon", Counting)
    monkeypatch.setattr(invariants, "_lex_witness", counting)
    delta(x, validated=True)
    assert any(not reached for reached, _, _ in sweeps)
    for reached, echelons, out in sweeps:
        assert echelons == int(reached)
        assert reached or out is None


# -- the cylinder's first block -----------------------------------------------

@pytest.mark.parametrize("name", ["4_1", "4_1x4_1_tau", "T2_3#T2_3",
                                  "stair_box_5"])
def test_first_block_slice_is_the_diagonal_slice(name):
    x = scramble(bundled(name), random.Random(name))
    uc = a0(x)
    cyl = build_cyl(uc)
    rng = random.Random(1)
    first = (1 << uc.n) - 1
    for d in range(max(uc.gradings) + 2, min(cyl.gradings) - 4, -1):
        diag = uc.levels.above(d)
        total = cyl.levels.above(d)
        assert total & first == diag
        # the first-block mask agrees with restricting generator by
        # generator
        vec = rng.getrandbits(cyl.n) & total
        by_gen = sum(1 << g for g in ones(vec) if g < uc.n)
        assert vec & first == by_gen == vec & diag


# -- the cylinder's D^2 = 0 check ---------------------------------------------

def _not_a_chain_map(exponent: int) -> UComplex:
    """a -> U^e b with phi(a) = a, phi(b) = 0: d phi(a) = U^e b but
    phi d(a) = 0, so the cylinder has D^2(x:a) = U^e y:b.  The gradings
    force the exponent e on the entry a -> b."""
    return UComplex(name="broken", labels=("b", "a"),
                    gradings=(2 * exponent - 1, 0),
                    cols=(0, 0b01), phi_cols=(0, 0b10),
                    iota_cols=(0b01, 0b10))


@pytest.mark.parametrize("exponent", [0, 1, 2])
def test_cylinder_of_a_non_chain_map_is_rejected(exponent):
    with pytest.raises(ValidationError,
                       match="cylinder differential does not square to 0"):
        build_cyl(_not_a_chain_map(exponent))


def test_cylinder_of_chain_maps_is_accepted():
    uc = _not_a_chain_map(1)
    fixed = dataclasses.replace(uc, phi_cols=uc.iota_cols)
    assert build_cyl(fixed).n == 6


_BROKEN_CYLINDER = """
import sys
from corkscrew.errors import ValidationError
from corkscrew.invariants import UComplex, build_cyl

uc = UComplex(name="broken", labels=("b", "a"), gradings=(1, 0),
              cols=(0, 0b01), phi_cols=(0, 0b10), iota_cols=(0b01, 0b10))
try:
    build_cyl(uc)
except ValidationError as exc:
    print("build_cyl raised:", exc)
else:
    print("build_cyl passed")
print("optimize", sys.flags.optimize)
"""


def test_cylinder_check_survives_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-O", "-c", _BROKEN_CYLINDER],
                         env={"PYTHONPATH": str(src)}, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == [
        "build_cyl raised: cylinder differential does not square to 0",
        "optimize 1"]


def _not_a_complex() -> UComplex:
    """a -> b -> c with identity actions: d^2(a) = c, so the cylinder has
    D^2(x:a) = x:c while 1 + phi and 1 + iota vanish."""
    return UComplex(name="not a complex", labels=("c", "b", "a"),
                    gradings=(-2, -1, 0), cols=(0, 0b001, 0b010),
                    phi_cols=(0b001, 0b010, 0b100),
                    iota_cols=(0b001, 0b010, 0b100))


def _iota_not_a_chain_map() -> UComplex:
    uc = _not_a_chain_map(1)
    return dataclasses.replace(uc, phi_cols=uc.iota_cols,
                               iota_cols=uc.phi_cols)


@pytest.mark.parametrize("uc", [_not_a_complex(), _iota_not_a_chain_map()],
                         ids=["d_squared", "iota"])
def test_cylinder_blocks_are_checked(uc):
    with pytest.raises(ValidationError,
                       match="cylinder differential does not square to 0"):
        build_cyl(uc)


_BROKEN_BLOCKS = """
import dataclasses
import sys
from corkscrew.errors import ValidationError
from corkscrew.invariants import UComplex, build_cyl

ident = (0b001, 0b010, 0b100)
broken_phi = UComplex(name="phi", labels=("b", "a"), gradings=(1, 0),
                      cols=(0, 0b01), phi_cols=(0, 0b10),
                      iota_cols=(0b01, 0b10))
cases = {
    "d_squared": UComplex(name="d2", labels=("c", "b", "a"),
                          gradings=(-2, -1, 0), cols=(0, 0b001, 0b010),
                          phi_cols=ident, iota_cols=ident),
    "phi": broken_phi,
    "iota": dataclasses.replace(broken_phi, phi_cols=broken_phi.iota_cols,
                                iota_cols=broken_phi.phi_cols),
}
for name, uc in cases.items():
    try:
        build_cyl(uc)
    except ValidationError as exc:
        print(name, "raised:", exc)
    else:
        print(name, "passed")
print("optimize", sys.flags.optimize)
"""


def test_every_block_check_survives_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-O", "-c", _BROKEN_BLOCKS],
                         env={"PYTHONPATH": str(src)}, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == [
        *(f"{name} raised: cylinder differential does not square to 0"
          for name in ("d_squared", "phi", "iota")), "optimize 1"]
