"""MapSystem assembly against the reference evaluator, and the witness
checks guarding it, which must survive ``python -O``."""

import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from corkscrew.algebra import (
    F2Inconsistency,
    gr_add,
    mat_vec,
    parity,
    solve_f2_rows,
)
from corkscrew.complexes import (
    SKEW,
    STRAIGHT,
    Endomorphism,
    KnotComplex,
    direct_sum,
    iota_complex,
)
from corkscrew.homotopy import Left, MapShape, MapSystem, Right
from corkscrew.models import BUNDLED, bundled, dot_complex

from conftest import scramble
from oracle import (
    _BruteDiag,
    image_grading,
    mono_deg,
    poly_element,
    reference_rows,
    reference_unknowns,
    slice_pairs,
)


def _dot_and_pair():
    """A dot plus a cancelling pair p -> q: the pair carries the nonzero
    (1, 1) maps that no reduced model has."""
    pair = KnotComplex("pair", ("p", "q"), ((1, 1), (0, 0)), (0b10, 0))
    cx = direct_sum(dot_complex(), pair, name="dot+pair")
    iota = Endomorphism(cx, cx, tuple(1 << i for i in range(cx.n)),
                        SKEW, (0, 0))
    return iota_complex(cx, iota)


MODELS = {name: (lambda name=name: bundled(name))
          for name in ("unknot", "4_1", "4_1_iota", "4_1_s", "T2_3", "T2_5",
                       "mirror_T2_3", "stair_box_3", "T2_3#T2_3")}
MODELS["dot+pair"] = _dot_and_pair


def _parity(image: dict) -> int:
    """A linear functional that tells U^a V^b from U^b V^a: the number of
    monomials with a > b, mod 2."""
    return sum(a > b for p in image.values() for a, b in p) & 1


def _parity_mask(gradings, bigrading) -> int:
    """:func:`_parity` at a bigrading, as a mask over generators: the
    generators whose monomial there has a > b."""
    return sum(1 << t for (a, b), t in slice_pairs(gradings, bigrading)
               if a > b)


def _element(gradings, rng):
    """A random homogeneous element: (bits, bigrading)."""
    g = gradings[rng.randrange(len(gradings))]
    bigrading = gr_add(g, mono_deg((rng.randrange(3), rng.randrange(3))))
    bits = sum(1 << i for _, i in slice_pairs(gradings, bigrading)
               if rng.getrandbits(1))
    return bits, bigrading


def _random_map(shape: MapShape, rng: random.Random) -> Endomorphism:
    return shape.assemble(rng.getrandbits(shape.size))


def _system(x, y, mode, action, rng, flip):
    """Unknowns f, g: x -> y of ``mode`` and h of the mode of f o action
    with bidegree (1, 1).  Equations: f a1 + a2 f + d2 h + h d1 = rhs, with
    rhs made from random (f0, h0) so that the system is consistent; g is a
    chain map; a parity functional of f(vector), flipped on request.
    Returns the system and the functional in the reference's form."""
    a1, a2 = getattr(x, action), getattr(y, action)
    d1, d2 = x.complex.boundary(), y.complex.boundary()
    h_mode = STRAIGHT if mode == a1.mode else SKEW
    f_shape = MapShape(x.complex, y.complex, mode, (0, 0))
    h_shape = MapShape(x.complex, y.complex, h_mode, (1, 1))
    f0, h0 = _random_map(f_shape, rng), _random_map(h_shape, rng)
    rhs = (f0.compose(a1) + a2.compose(f0)
           + d2.compose(h0) + h0.compose(d1))
    vector, bigrading = _element(x.complex.gradings, rng)
    mask = _parity_mask(y.complex.gradings, image_grading(f0, bigrading))
    sys_ = MapSystem()
    sys_.add_unknown("f", f_shape)
    sys_.add_unknown("h", h_shape)
    sys_.add_unknown("g", MapShape(x.complex, y.complex, mode, (0, 0)))
    sys_.add_equation([("f", [Right(a1), Left(a2)]),
                       ("h", [Left(d2), Right(d1)])], rhs=rhs)
    sys_.add_equation([("g", [Right(d1), Left(d2)])])
    sys_.add_functional("f", vector, mask,
                        parity(mat_vec(f0.cols, vector) & mask) ^ flip)
    return sys_, [(poly_element(x.complex.gradings, vector, bigrading),
                   _parity)]


@pytest.mark.parametrize("action", ["phi", "iota"])
@pytest.mark.parametrize("mode", [STRAIGHT, SKEW])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(src=st.sampled_from(sorted(MODELS)),
       tgt=st.sampled_from(sorted(MODELS)),
       seed=st.integers(0, 2 ** 16), flip=st.booleans())
def test_assembly_matches_reference(mode, action, src, tgt, seed, flip):
    rng = random.Random(seed)
    x = scramble(MODELS[src](), rng, moves=6)
    y = scramble(MODELS[tgt](), rng, moves=6)
    sys_, functionals = _system(x, y, mode, action, rng, flip)
    assert _matches_reference(sys_, functionals) or flip


def _matches_reference(sys_: MapSystem, functionals) -> bool:
    """Assert that the system and the reference evaluator give the same
    solution space; True when that space is nonempty."""
    got = sys_.solutions_bits()
    want = solve_f2_rows(*reference_rows(sys_, functionals), sys_.total)
    if isinstance(want, F2Inconsistency):
        assert got is None
        return False
    assert got is not None
    assert (got.particular, got.kernel) == (want.particular, want.kernel)
    return True


@pytest.mark.parametrize("src, tgt, exists", [
    ("4_1", "4_1", True),
    ("4_1", "4_1x4_1_tau", False),
    ("T2_3", "T2_3#T2_3", False),
    ("T2_3#T2_3", "T2_3", True),
    ("4_1x4_1_tau", "4_1", False),
])
def test_assembly_matches_reference_on_locality_systems(src, tgt, exists):
    """The locality row is read off the tower mask; the reference reads
    the tower functional off the dense oracle instead, with its own
    extension from cycles to the whole slice.  The chain-map equations
    make f(tower cycle) a cycle, so the solution spaces agree."""
    from corkscrew.homotopy import _local_system
    from corkscrew.invariants import DiagonalHomology, a0

    x1, x2 = bundled(src), bundled(tgt)
    hom1 = DiagonalHomology(a0(x1))
    t_cycle, d = hom1.tower_rep, hom1.tower_top
    sys_ = _local_system(x1, x2, t_cycle,
                         DiagonalHomology(a0(x2)).tower_mask(d))
    dense = _BruteDiag(x2, margin=8)
    pos = {e: i for i, e in enumerate(dense.slices[d])}

    def tower_bit(image: dict) -> int:
        vec = 0
        for g, p in image.items():
            for m in p:
                vec ^= 1 << pos[(m, g)]
        return dense.tower_coefficient(vec, d)

    functionals = [(poly_element(x1.complex.gradings, t_cycle, (d, d)),
                    tower_bit)]
    assert _matches_reference(sys_, functionals) == exists


# -- coordinates read off the admissible masks ----------------------------------

@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_unknowns_match_the_slice_scan(name):
    """The (source, target) coordinates of every shape are the slice
    scan's pairs, in its order, on a bundled model, three scrambles of
    it, and maps from the model to each scramble.  The bidegree (1, -1)
    tells swapping before adding from swapping after."""
    x = bundled(name)
    scrambles = [scramble(x, random.Random(seed)).complex
                 for seed in (1, 2, 3)]
    pairs = [(x.complex, x.complex)] + [(c, c) for c in scrambles]
    pairs += [(x.complex, c) for c in scrambles]
    for src, tgt in pairs:
        for mode in (STRAIGHT, SKEW):
            for bidegree in ((0, 0), (1, 1), (-1, -1), (1, -1)):
                shape = MapShape(src, tgt, mode, bidegree)
                want = [(s, t) for s, _, t in reference_unknowns(shape)]
                assert shape.coords == want, (mode, bidegree)


def test_map_systems_read_no_monomials(monkeypatch):
    """Laying out coordinates is one AND per source: building the
    null-homotopy classes and the local-map system on the 125-generator
    (4_1)^3 calls ``slice_monomial`` not once, and lays out each shape
    it reads once."""
    from corkscrew import algebra, homotopy
    from corkscrew.complexes import tensor
    from corkscrew.homotopy import HomotopyClasses, _local_system
    from corkscrew.invariants import DiagonalHomology, a0

    x = bundled("4_1")
    x3 = tensor(tensor(x, x), x)
    assert x3.complex.n == 125
    hom = DiagonalHomology(a0(x3))
    t_cycle, mask = hom.tower_rep, hom.tower_mask(hom.tower_top)
    # homotopy holds no slice_monomial of its own, so the library's one,
    # patched below, is the only one it could reach
    assert "slice_monomial" not in vars(homotopy)
    calls = {"mono": 0, "layouts": 0}
    real_mono = algebra.slice_monomial
    real_layout = MapShape.__post_init__

    def counting(*args):
        calls["mono"] += 1
        return real_mono(*args)

    def laying_out(self):
        calls["layouts"] += 1
        real_layout(self)

    monkeypatch.setattr(algebra, "slice_monomial", counting)
    monkeypatch.setattr(MapShape, "__post_init__", laying_out)
    HomotopyClasses(x3.complex)
    sys_ = _local_system(x3, x3, t_cycle, mask)
    assert calls["layouts"] == 5  # two in the classes, three unknowns
    assert sys_.total > 0
    assert calls["mono"] == 0


def test_operators_check_composability():
    from corkscrew.errors import ValidationError

    a, b = bundled("4_1").complex, bundled("T2_3").complex
    sys_ = MapSystem()
    sys_.add_unknown("f", MapShape(a, b, STRAIGHT, (0, 0)))
    with pytest.raises(ValidationError, match="composition mismatch"):
        sys_.add_equation([("f", [Left(a.boundary())])])
    with pytest.raises(ValidationError, match="composition mismatch"):
        sys_.add_equation([("f", [Right(b.boundary())])])


def test_equation_terms_share_one_shape():
    """Rows are keyed by (equation, source, target), which names one
    entry only when every term of the equation has one mode and
    bidegree; an equation mixing shapes is refused."""
    from corkscrew.errors import ValidationError

    x = bundled("4_1")
    cx, d = x.complex, x.complex.boundary()
    sys_ = MapSystem()
    sys_.add_unknown("f", MapShape(cx, cx, STRAIGHT, (0, 0)))
    with pytest.raises(ValidationError, match="differ in mode or bidegree"):
        sys_.add_equation([("f", [Right(d), Left(x.iota)])])
    with pytest.raises(ValidationError, match="differ in mode or bidegree"):
        sys_.add_equation([("f", [Right(d), Left(d)])], rhs=cx.identity())
    sys_.add_equation([("f", [Right(x.iota), Left(x.iota)])])


_CORRUPTED_SOLVE = """
import sys
from corkscrew.complexes import KnotComplex
from corkscrew.errors import ConsistencyError
from corkscrew.homotopy import (
    MapShape, MapSystem, homotopic, local_map_exists, self_local_space)
from corkscrew.models import figure_eight_with_actions

solve = MapSystem.solve


def corrupted(self, lexmin=False):
    ans, sol = solve(self, lexmin)
    if ans is not None:
        for name, shape in self.shapes.items():
            ans[name] = ans[name] + shape.assemble(1)
    return ans, sol


MapSystem.solve = corrupted
MapSystem.solutions_bits = lambda self: None

pair = KnotComplex("pair", ("p", "q"), ((1, 1), (0, 0)), (0b10, 0))
shape = MapShape(pair, pair, "straight", (1, 1))
e = shape.assemble(1)
d = pair.boundary()
x = figure_eight_with_actions()
cases = {
    "homotopic": lambda: homotopic(
        pair.identity(), pair.identity() + d.compose(e) + e.compose(d)),
    "local_map_exists": lambda: local_map_exists(x, x),
    "self_local_space": lambda: self_local_space(x),
}
for label, call in cases.items():
    try:
        call()
    except ConsistencyError:
        print(label, "raised")
    else:
        print(label, "passed")
print("optimize", sys.flags.optimize)
"""


def test_witness_checks_survive_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-O", "-c", _CORRUPTED_SOLVE],
                         env={"PYTHONPATH": str(src)}, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["homotopic raised", "local_map_exists raised",
                                "self_local_space raised", "optimize 1"]
