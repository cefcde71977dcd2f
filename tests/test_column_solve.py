"""Solves by one sweep over the columns, against the row-wise routes.

* ``ColumnSpan.solve`` must give the particular solution and kernel of
  ``solve_f2_rows``, bit for bit, and a combo y with y A = 0 and
  y b = 1 whenever the system is inconsistent.
* ``MapSystem`` solves its column assembly that way; on the large
  local-map systems of the split path the answer must be that of
  ``solve_f2_rows`` on the reference rows.
* ``invariants._lex_witness`` sweeps a slice's columns from the top
  down; its witness must be the lexmin of the coset that ``lexmin_affine``
  reduces over the cycle basis (and, on small slices, the least cycle by
  enumeration), and it must find none exactly when no basis cycle has
  functional 1.
"""

import random

from hypothesis import given, settings, strategies as st

from conftest import scramble
from corkscrew.algebra import (
    ColumnSpan,
    F2Inconsistency,
    F2Solution,
    ones,
    parity,
    solve_f2_rows,
)
from corkscrew.complexes import dual, tensor
from corkscrew.homotopy import _local_system
from corkscrew.invariants import DiagonalHomology, _lex_witness, a0, build_cyl
from corkscrew.models import BUNDLED, bundled, figure_eight_with_actions
from oracle import (
    _BruteDiag,
    poly_element,
    reference_lex_witness,
    reference_rows,
)


def _refutes(combo: int, cols: list, rhs: int) -> bool:
    """y A = 0 and y b = 1, for A given by its columns."""
    return (not any(parity(col & combo) for col in cols)
            and parity(rhs & combo) == 1)


# -- ColumnSpan.solve against solve_f2_rows ------------------------------------

@settings(max_examples=200, deadline=None, derandomize=True)
@given(nrows=st.integers(0, 9), ncols=st.integers(0, 9),
       seed=st.integers(0, 2 ** 32), density=st.sampled_from([2, 3, 5]))
def test_column_solve_matches_the_row_solve(nrows, ncols, seed, density):
    rng = random.Random(seed)
    rows = [sum(1 << j for j in range(ncols) if rng.randrange(density) == 0)
            for _ in range(nrows)]
    rhs = [rng.getrandbits(1) for _ in range(nrows)]
    cols = [sum(((row >> j) & 1) << i for i, row in enumerate(rows))
            for j in range(ncols)]
    b = sum(bit << i for i, bit in enumerate(rhs))
    got = ColumnSpan(dict(enumerate(cols)), nrows).solve(b)
    want = solve_f2_rows(rows, rhs, ncols)
    if isinstance(want, F2Inconsistency):
        assert isinstance(got, F2Inconsistency)
        assert _refutes(got.combo, cols, b)
        assert got.combo >> nrows == 0
    else:
        assert isinstance(got, F2Solution)
        assert (got.particular, got.kernel) == (want.particular, want.kernel)


# -- large MapSystems against the reference rows -------------------------------

def _locality_system(x1, x2):
    """The local-map system x1 -> x2, with its functional in the
    reference's form: the tower functional read off the dense oracle."""
    hom1 = x1.diagonal
    t_cycle, d = hom1.tower_rep, hom1.tower_top
    sys_ = _local_system(x1, x2, t_cycle, x2.diagonal.tower_mask(d))
    dense = _BruteDiag(x2, margin=8)
    pos = {e: i for i, e in enumerate(dense.slices[d])}

    def tower_bit(image: dict) -> int:
        if not image:
            return 0
        vec = 0
        for g, p in image.items():
            for m in p:
                vec ^= 1 << pos[(m, g)]
        return dense.tower_coefficient(vec, d)

    return sys_, [(poly_element(x1.complex.gradings, t_cycle, (d, d)),
                   tower_bit)]


def _cross_check(sys_, functionals) -> bool:
    """The column solve against ``solve_f2_rows`` on the reference rows;
    True when the system is consistent."""
    want = solve_f2_rows(*reference_rows(sys_, functionals), sys_.total)
    ans, got = sys_.solve()
    if isinstance(want, F2Inconsistency):
        assert ans is None
        cols, rhs, _ = sys_._columns()
        assert _refutes(got.combo, cols, rhs)
        return False
    assert ans is not None
    assert (got.particular, got.kernel) == (want.particular, want.kernel)
    return True


def test_the_873_unknown_split_system():
    x2 = bundled("4_1x4_1_tau")
    sys_, functionals = _locality_system(
        dual(x2), tensor(x2, figure_eight_with_actions()))
    assert sys_.total == 873
    assert not _cross_check(sys_, functionals)


def test_a_scrambled_split_pair():
    rng = random.Random(17)
    x2 = bundled("4_1x4_1_tau")
    a, b = scramble(x2, rng), scramble(x2, rng)
    # verdict_split(a, b) asks for a local map dual(b) -> a
    assert not _cross_check(*_locality_system(dual(b), a))
    assert _cross_check(*_locality_system(a, b))


# -- the reverse-sweep witness -------------------------------------------------

def _least_cycle(cycles: list, functional: int) -> int:
    """The least cycle with functional 1 by enumeration, generator 0
    compared first: z < w when the lowest bit of z ^ w is set in w."""
    best = None
    for pick in range(1, 1 << len(cycles)):
        z = 0
        for i, c in enumerate(cycles):
            if (pick >> i) & 1:
                z ^= c
        if parity(z & functional) and (
                best is None or (z ^ best) & -(z ^ best) & best):
            best = z
    return best


def _check_witnesses(uc, d: int, functional: int) -> int:
    """Compare the sweep of ``uc`` at grading d with both references over
    a cycle basis built here from the slice's columns; returns 1 when
    some cycle there has functional 1.  The sweep finds a cycle exactly
    then."""
    cycles = ColumnSpan({g: uc.cols[g]
                         for g in ones(uc.levels.above(d))}).kernel
    lam = [parity(z & functional) for z in cycles]
    got = _lex_witness(uc, d, functional)
    if not any(lam):
        assert got is None
        return 0
    assert got == reference_lex_witness(cycles, lam)
    if len(cycles) <= 8:
        assert got == _least_cycle(cycles, functional)
    return 1


@settings(max_examples=30, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(BUNDLED)), seed=st.integers(0, 2 ** 16))
def test_witness_sweep_is_the_lexmin_over_the_cycle_basis(name, seed):
    """On the diagonal subcomplex and the cylinder of a scrambled bundled
    model, at every grading around the generators: the tower functional
    (the one delta and the tower cycle use) and a random functional."""
    rng = random.Random(seed)
    x = scramble(bundled(name), rng)
    a0_hom = x.diagonal
    uc = a0_hom.uc
    top = a0_hom.tower_top
    functional = a0_hom.tower_generators(top)
    lam = [parity(z & functional) for z in a0_hom.cycle_basis(top)]
    assert a0_hom.tower_rep == reference_lex_witness(
        a0_hom.cycle_basis(top), lam)
    seen = 0
    for target in (uc, build_cyl(uc)):
        for d in range(max(target.gradings) + 2,
                       min(target.gradings) - 5, -1):
            seen += _check_witnesses(target, d, a0_hom.tower_generators(d))
            seen += _check_witnesses(target, d,
                                     rng.getrandbits(target.n) | 1)
    assert seen


def test_witness_sweep_on_the_625_generator_tensor():
    x2 = bundled("4_1x4_1_tau")
    x = tensor(x2, x2)
    hom = DiagonalHomology(a0(x))
    top = hom.tower_top
    assert _check_witnesses(hom.uc, top, hom.tower_generators(top))
