"""The tower functional read off one mask per parity, against the route
it replaced (``oracle.reference_nontorsion_bit``: push the vector to the
stable grading, then ask each homology representative there for its
coefficient), on random slice vectors at every grading of the window."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from corkscrew.complexes import tensor
from corkscrew.invariants import DiagonalHomology, a0
from corkscrew.models import (
    BUNDLED,
    bundled,
    figure_eight_with_actions,
    torus_model,
)
from oracle import reference_nontorsion_bit


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


@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=5, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16))
def test_nontorsion_bit_matches_the_reference(name, seed):
    hom = _homology(name)
    rng = random.Random(seed)
    for d in range(hom.lo, hom.hi + 1):
        width = len(hom.slice_gens(d))
        for vec in (rng.getrandbits(width), 1 << rng.randrange(width or 1)):
            vec &= (1 << width) - 1
            assert hom.nontorsion_bit(vec, d) == reference_nontorsion_bit(
                hom, vec, d), (name, d, vec)


def test_the_125_generator_tensor_is_covered():
    assert _homology("4_1x4_1_tau(x)4_1").uc.n == 125
