"""The order-free bit kernels against the idioms they replaced, kept in
``tests/oracle.py``: ``ones`` lists the set bits lowest first,
``mat_vec`` gives the same vector, ``chain_commutes`` the same answer as
the two full products, and the grading checks of ``Endomorphism``,
``UComplex`` and ``MapShape.pack`` reject the same columns and name the
same lowest offending entry.  Words run from 1 bit up to 50,000, about
the width of the 15,625-generator cylinder; wide complexes keep most
columns zero so that they stay small in memory."""

import random

from hypothesis import example, given, settings, strategies as st

from corkscrew.algebra import Levels, mat_vec, ones
from corkscrew.complexes import (
    SKEW,
    STRAIGHT,
    Endomorphism,
    KnotComplex,
    chain_commutes,
    landing,
)
from corkscrew.errors import ValidationError
from corkscrew.homotopy import MapShape
from corkscrew.invariants import UComplex
from oracle import (
    reference_chain_commutes,
    reference_first_outside,
    reference_mat_vec,
    reference_ones,
)

WIDEST = 50_000
# (gr_u, gr_v) with gr_u - gr_v even, a few apart so masks differ
GRADINGS = ((0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (-1, -1), (3, 1),
            (1, -1), (-2, 0))
BIDEGREES = ((0, 0), (-1, -1), (1, -1), (-1, 1), (0, -2), (2, 2))
KERNEL_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def _word(rng, width: int) -> int:
    """A word whose top bit is ``width - 1``: dense, sparse or the two
    ends alone."""
    kind = rng.randrange(3)
    if kind == 0:
        word = rng.getrandbits(width)
    elif kind == 1:
        word = 0
        for _ in range(rng.randrange(1, 12)):
            word |= 1 << rng.randrange(width)
    else:
        word = 1
    return word | 1 << (width - 1)


def _sparse_cols(rng, n: int, count: int) -> list:
    """n columns, at most ``count`` of them nonzero."""
    cols = [0] * n
    for _ in range(count):
        cols[rng.randrange(n)] = _word(rng, rng.randrange(1, n + 1))
    return cols


def _complex(rng, n: int, diff=None) -> KnotComplex:
    grads = tuple(rng.choice(GRADINGS) for _ in range(n))
    return KnotComplex("wide", tuple(map(str, range(n))), grads,
                       diff if diff is not None else (0,) * n)


@KERNEL_SETTINGS
@given(width=st.integers(1, WIDEST), seed=st.integers(0, 2 ** 32))
@example(width=1, seed=0)
@example(width=WIDEST, seed=1)
def test_ones_lists_the_set_bits_lowest_first(width, seed):
    word = _word(random.Random(seed), width)
    assert ones(word) == reference_ones(word)
    assert ones(0) == reference_ones(0) == []


@KERNEL_SETTINGS
@given(width=st.integers(1, WIDEST), seed=st.integers(0, 2 ** 32))
@example(width=1, seed=0)
@example(width=WIDEST, seed=1)
def test_mat_vec_matches_the_lowest_first_walk(width, seed):
    rng = random.Random(seed)
    cols = [rng.getrandbits(rng.choice((1, 64, 700))) for _ in range(width)]
    word = _word(rng, width)
    assert mat_vec(cols, word) == reference_mat_vec(cols, word)


@KERNEL_SETTINGS
@given(n=st.integers(1, WIDEST), seed=st.integers(0, 2 ** 32))
@example(n=1, seed=0)
@example(n=WIDEST, seed=1)
def test_chain_commutes_matches_the_two_full_products(n, seed):
    rng = random.Random(seed)
    cx = _complex(rng, n, _sparse_cols(rng, n, rng.randrange(1, 8)))
    d = list(cx.diff)
    flipped = list(d)
    s = rng.randrange(n)
    flipped[s] ^= 1 << rng.randrange(n)
    squared = [mat_vec(d, col) for col in d]
    # d and d o d commute with d; the rest mostly do not
    for cols in (d, squared, flipped, _sparse_cols(rng, n, 3)):
        f = Endomorphism._graded(cx, cx, cols, STRAIGHT, (0, 0))
        assert chain_commutes(cx, f) == reference_chain_commutes(cx, f)
    f = Endomorphism._graded(cx, cx, d, STRAIGHT, (0, 0))
    assert chain_commutes(cx, f)


def _graded_cols(rng, n: int, masks: list, count: int) -> list:
    """Sparse columns inside their masks, some with up to three bits
    set at random, in or outside."""
    cols = [0] * n
    for _ in range(count):
        s = rng.randrange(n)
        cols[s] = rng.getrandbits(n) & masks[s]
        for _ in range(rng.randrange(4)):
            cols[s] |= 1 << rng.randrange(n)
    return cols


@KERNEL_SETTINGS
@given(n=st.integers(1, WIDEST), seed=st.integers(0, 2 ** 32))
@example(n=1, seed=0)
@example(n=WIDEST, seed=1)
def test_grading_violation_names_the_lowest_offending_entry(n, seed):
    rng = random.Random(seed)
    cx = _complex(rng, n)
    mode, bidegree = rng.choice((STRAIGHT, SKEW)), rng.choice(BIDEGREES)
    masks = [cx.admissible(landing(g, mode, bidegree)) for g in cx.gradings]
    cols = _graded_cols(rng, n, masks, rng.randrange(1, 12))
    f = Endomorphism._graded(cx, cx, cols, mode, bidegree)
    first = reference_first_outside(cols, masks)
    assert f.grading_violation() == (
        first and f"bidegree violated at {first[0]}->{first[1]}")


@KERNEL_SETTINGS
@given(n=st.integers(1, WIDEST), seed=st.integers(0, 2 ** 32))
@example(n=1, seed=0)
@example(n=WIDEST, seed=1)
def test_ucomplex_degree_check_names_the_lowest_offending_entry(n, seed):
    rng = random.Random(seed)
    gradings = tuple(rng.randrange(-4, 5) for _ in range(n))
    levels = Levels(gradings)
    masks = [levels.above(g - 1) for g in gradings]
    cols = _graded_cols(rng, n, masks, rng.randrange(1, 12))
    first = reference_first_outside(cols, masks)
    try:
        UComplex("wide", tuple(map(str, range(n))), gradings, tuple(cols))
        got = None
    except ValidationError as exc:
        got = str(exc)
    assert got == (first and f"U-differential degree violated at "
                             f"{first[0]}->{first[1]}")


@KERNEL_SETTINGS
@given(n=st.integers(1, WIDEST), seed=st.integers(0, 2 ** 32))
@example(n=1, seed=0)
@example(n=WIDEST, seed=1)
def test_pack_raises_exactly_on_a_bit_outside_the_mask(n, seed):
    rng = random.Random(seed)
    shape = MapShape(_complex(rng, n), _complex(rng, n),
                     rng.choice((STRAIGHT, SKEW)), rng.choice(BIDEGREES))
    for _ in range(4):
        s = rng.randrange(n)
        col = rng.getrandbits(n) & shape.masks[s]
        if rng.randrange(2):
            col |= 1 << rng.randrange(n)
        outside = reference_first_outside([col], [shape.masks[s]])
        try:
            packed = shape.pack(s, col)
        except ValidationError as exc:
            assert outside is not None
            assert str(exc) == (f"entry outside its admissible mask at "
                                f"source {s}")
        else:
            assert outside is None
            assert packed.bit_count() == col.bit_count()
