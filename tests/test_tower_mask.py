"""The tower functional read off one mask per parity, against the route
it replaced (``oracle.reference_nontorsion_bit`` on the oracle's own
position-indexed slices: push the vector to the stable grading, then ask
each homology representative there for its coefficient), on random
generator-bit vectors inside the slice mask at every grading of the
window; the mask itself against the route that read it one unit vector
at a time (``oracle.reference_tower_generators``); and every cycle basis
vector is a cycle inside its slice mask."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from corkscrew.algebra import mat_vec, ones, parity
from corkscrew.complexes import tensor
from corkscrew.errors import ValidationError
from corkscrew.invariants import DiagonalHomology, a0
from corkscrew.models import (
    BUNDLED,
    bundled,
    figure_eight_with_actions,
    torus_model,
)
from conftest import scramble
from oracle import (
    TaggedSpan,
    _ReferenceDiagonal,
    reference_nontorsion_bit,
    reference_tower_generators,
)


def _torus_sum(*qs):
    x = torus_model(qs[0])
    for q in qs[1:]:
        x = tensor(x, torus_model(q))
    return x


MODELS = {name: (lambda name=name: bundled(name)) for name in BUNDLED}
for _qs in ((3, -3), (3, 5), (5, -5), (3, 3, -3)):
    MODELS[f"T{_qs}"] = functools.partial(_torus_sum, *_qs)
MODELS["4_1x4_1_tau(x)4_1"] = lambda: tensor(bundled("4_1x4_1_tau"),
                                             figure_eight_with_actions())


@functools.lru_cache(maxsize=None)
def _homology(name):
    return DiagonalHomology(a0(MODELS[name]()))


@functools.lru_cache(maxsize=None)
def _reference(name):
    # the oracle's own position-indexed slices, no library slice code
    return _ReferenceDiagonal(_homology(name).uc, expect_tower=False)


@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=5, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16))
def test_tower_functional_matches_the_reference(name, seed):
    hom = _homology(name)
    ref = _reference(name)
    rng = random.Random(seed)
    for d in range(hom.lo, hom.hi + 1):
        mask = hom.uc.levels.above(d)
        gens = ref.slice_gens(d)
        assert mask == sum(1 << g for g in gens), (name, d)
        unit = 1 << gens[rng.randrange(len(gens))] if gens else 0
        for vec in (rng.getrandbits(hom.uc.n) & mask, unit):
            at = ref._pos(d)
            by_pos = sum(1 << at[g] for g in ones(vec))
            assert parity(vec & hom.tower_generators(d)) \
                == reference_nontorsion_bit(ref, by_pos, d), (name, d, vec)


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_tower_generators_match_the_per_generator_route(name):
    """The back-substituted mask equals the functional read off one unit
    vector at a time, bit for bit, off the cycles too: at both stable
    gradings of every bundled model, as built and under three
    scrambles."""
    for seed in (None, 1, 2, 3):
        x = bundled(name)
        if seed is not None:
            x = scramble(x, random.Random(seed))
        hom = DiagonalHomology(a0(x))
        for d in (hom.gmin, hom.gmin - 1):
            assert hom.tower_generators(d) == \
                reference_tower_generators(hom, d), (name, seed, d)


def test_tower_generators_match_the_per_generator_route_at_625():
    x2 = bundled("4_1x4_1_tau")
    hom = DiagonalHomology(a0(tensor(x2, x2)))
    assert hom.uc.n == 625
    masks = [hom.tower_generators(d) for d in (hom.gmin, hom.gmin - 1)]
    assert any(masks)
    assert masks == [reference_tower_generators(hom, d)
                     for d in (hom.gmin, hom.gmin - 1)]


def test_the_125_generator_tensor_is_covered():
    assert _homology("4_1x4_1_tau(x)4_1").uc.n == 125


@pytest.mark.parametrize("name", ["scrambled(4_1x4_1_tau)",
                                  "4_1x4_1_tau(x)4_1"])
def test_cycle_bases_are_generator_bits_inside_the_slice(name):
    if name.startswith("scrambled"):
        hom = DiagonalHomology(a0(scramble(bundled("4_1x4_1_tau"),
                                           random.Random(name))))
    else:
        hom = _homology(name)
    for d in range(hom.lo, hom.hi + 1):
        mask = hom.uc.levels.above(d)
        for z in hom.cycle_basis(d):
            assert z and z & ~mask == 0, (name, d, z)
            assert mat_vec(hom.uc.cols, z) == 0, (name, d, z)


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_class_coords_refuses_a_vector_outside_the_span(name):
    """At every grading of the window, after the tower functional has
    been read: a cycle (a representative, or one plus a boundary) has the
    coordinates of the tagged span the marker bits replaced, and a slice
    vector that is not a cycle, or a vector off the slice, raises
    ``ValidationError``."""
    for seed in (None, 1):
        x = bundled(name)
        if seed is not None:
            x = scramble(x, random.Random(seed))
        hom = DiagonalHomology(a0(x))
        hom.tower_generators(hom.gmin)
        hom.tower_generators(hom.gmin - 1)
        refused = 0
        for d in range(hom.lo, hom.hi + 1):
            h, mask = hom.homology(d), hom.uc.levels.above(d)
            tagged = TaggedSpan()
            for b in hom._columns(d + 1).values():
                tagged.insert(b, tag="b")
            for k, z in enumerate(h.reps):
                assert tagged.insert(z, tag=k)
            boundary = mat_vec(hom.uc.cols, hom.uc.levels.above(d + 1))
            for z in h.reps:
                for v in (z, z ^ boundary):
                    want = tagged.coefficients(v)
                    assert h.class_coords(v) == sum(
                        1 << k for k in range(h.rank) if want.get(k))
            off = [1 << g for g in ones(mask) if hom.uc.cols[g]]
            off += [1 << g for g in range(hom.uc.n) if not mask >> g & 1]
            for v in off:
                with pytest.raises(ValidationError, match="outside"):
                    h.class_coords(v)
            refused += len(off)
        assert refused, (name, seed)
