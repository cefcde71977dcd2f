"""The transvection sweep and the involution search against the reference
implementations kept in ``tests/oracle.py``: the incremental sweep must
take the same moves to the same columns, and the normal-form involution
test must keep the same candidates in the same order.  The sweep works on
bit columns and the reference on {target: Poly} columns; an adapter
converts between them through the gradings."""

import random
import subprocess
import sys
from pathlib import Path

import pytest

import conftest
from conftest import base_models, scramble
from corkscrew import connected
from corkscrew.algebra import slice_monomial
from corkscrew.complexes import (
    SKEW,
    Endomorphism,
    PhiIotaComplex,
    direct_sum,
    tensor,
)
from corkscrew.homotopy import MapShape
from corkscrew.models import (
    BUNDLED,
    box_complex,
    bundled,
    dot_complex,
    figure_eight_iota_only,
    involution_candidates,
    staircase_with_box,
    thin_model,
    torus_model,
)
from oracle import (
    diff_cols,
    dict_bits,
    dict_cols,
    reference_conjugate_cols,
    reference_involution_candidates,
    reference_objective,
    reference_scramble,
    reference_sweep,
)


def _bare(cx):
    return PhiIotaComplex(cx, cx.identity(), cx.zero_map(SKEW),
                          cx.identity())


def _greedy(ell):
    return direct_sum(dot_complex("x"), box_complex(1, at=(0, 0), suffix="0"),
                      box_complex(ell, at=(0, 0), suffix="1"),
                      name=f"dot+box(1)+box({ell})")


# -- the transvection helpers -------------------------------------------------

def test_transvect_matches_the_reference_conjugation():
    """The bit transvection of ``conftest`` on every map, and the sweep's
    incremental one on the differential, against the reference."""
    rng = random.Random(11)
    for x in [bundled(name) for name in sorted(BUNDLED)] + base_models():
        cx = x.complex
        for f in (cx.boundary(), x.phi, x.iota):
            skew = f.mode == SKEW
            bits = list(f.cols)
            objective = connected._Objective(cx.gradings, f.cols)
            want = tuple(dict_cols(f))
            for _ in range(12):
                i, j = rng.randrange(cx.n), rng.randrange(cx.n)
                m = slice_monomial(cx.gradings[j], cx.gradings[i])
                if i == j or m is None:
                    continue
                conftest.transvect(bits, i, j)
                want = reference_conjugate_cols(want, i, j, m, skew)
                # the bits carry the conjugated map exactly: its monomials
                # are the forced ones
                g = Endomorphism(f.source, f.target, bits, f.mode,
                                 f.bidegree)
                assert dict_cols(g) == list(want)
                if f.bidegree == (-1, -1):
                    toggles = objective.transvection(i, j)
                    assert len(set(toggles)) == len(toggles)
                    objective.accept(toggles, objective.trial(toggles))
                    assert diff_cols(cx.gradings, objective.cols) == list(
                        want)
                    # the live score is the score of the new columns
                    assert objective.score == reference_objective(want)


def test_scramble_is_unchanged():
    models = [bundled(name) for name in sorted(BUNDLED)] + base_models()
    for seed, x in enumerate(models):
        got = scramble(x, random.Random(seed))
        gens, grads, want = reference_scramble(x, random.Random(seed))
        assert got.complex.generators == gens
        assert got.complex.gradings == grads
        maps = [got.complex.boundary(), got.phi, got.iota] + (
            [got.phi_inverse] if got.phi_inverse else [])
        assert [dict_cols(f) for f in maps] == want


# -- the sweep -----------------------------------------------------------------

def _sweep_inputs():
    rng = random.Random(23)
    f = figure_eight_iota_only()
    out = [scramble(bundled(name), rng) for name in sorted(BUNDLED)]
    for qs in ((3, -3), (3, 5), (5, -5), (3, 3, -3)):
        x = torus_model(qs[0])
        for q in qs[1:]:
            x = tensor(x, torus_model(q))
        out += [x, scramble(x, rng)]
    # on this scramble of T(2,3)#T(2,3)#T(2,-3), the last x, one peel
    # leaves a square glued to the staircase: recognition peels twice
    out.append(scramble(x, random.Random(2)))
    double = tensor(f, f)
    out += [double, scramble(double, rng),
            scramble(tensor(double, f), random.Random(5))]
    out += [_bare(_greedy(ell)) for ell in (2, 3)]
    out += [thin_model(tau, odd) for tau in (0, 2, -1) for odd in (True,
                                                                   False)]
    out += [staircase_with_box(0, 2), staircase_with_box(2, 3)]
    return [x.complex for x in out]


def _reference_bit_sweep(gradings, cols):
    """The reference sweep on bit columns: the entries' monomials are
    read off the gradings on the way in, and checked to be the forced
    ones on the way out.  The score is rescored in full."""
    ref_cols, moves = reference_sweep(gradings, diff_cols(gradings, cols))
    bits = dict_bits(ref_cols)
    assert diff_cols(gradings, bits) == ref_cols
    return bits, moves, reference_objective(ref_cols)


def _recorded(monkeypatch, sweep, cx):
    calls = []

    def recording(gradings, cols):
        got = sweep(gradings, cols)
        calls.append(got)
        return got

    monkeypatch.setattr(connected, "_sweep", recording)
    return connected._recognize(cx), calls


@pytest.mark.parametrize("cx", _sweep_inputs(), ids=lambda cx: cx.name)
def test_sweep_matches_the_reference(monkeypatch, cx):
    got, calls = _recorded(monkeypatch, connected._sweep, cx)
    want, ref_calls = _recorded(monkeypatch, _reference_bit_sweep, cx)
    assert len(calls) == len(ref_calls)
    for (cols, moves, score), (ref_cols, ref_moves, ref_score) in zip(
            calls, ref_calls):
        assert moves == ref_moves
        assert cols == ref_cols
        assert score == ref_score
    # form, change of basis and roles of recognize_standard
    assert got == want


# -- the involution search -----------------------------------------------------

def _coordinate_bits(cx, maps):
    coords = MapShape(cx, cx, SKEW, (0, 0)).unknowns()
    return [tuple(int(m in cols[s].get(t, ())) for s, m, t in coords)
            for cols in map(dict_cols, maps)]


def _involution_inputs():
    rng = random.Random(31)
    cxs = [_greedy(2), _greedy(3)]
    cxs += [thin_model(tau, odd).complex for tau in (0, 1, -1, 2)
            for odd in (True, False)]
    cxs += [staircase_with_box(tau, ell).complex
            for tau, ell in ((0, 2), (0, 3), (2, 2), (2, 3))]
    cxs += [bundled(name).complex for name in sorted(BUNDLED)
            if bundled(name).complex.n < 25]
    return cxs + [scramble(_bare(cx), rng).complex for cx in cxs[:8]]


@pytest.mark.parametrize("cx", _involution_inputs(), ids=lambda cx: cx.name)
def test_involution_candidates_match_the_reference(cx):
    got = involution_candidates(cx)
    want = reference_involution_candidates(cx)
    assert got
    assert _coordinate_bits(cx, got) == _coordinate_bits(cx, want)


_CORRUPTED_NORMAL_FORM = """
import sys
from corkscrew import homotopy
from corkscrew.errors import ConsistencyError
from corkscrew.models import figure_eight_with_actions, solve_involution

# every skew chain map now passes the squaring test, so the lexicographic
# minimum is the zero map, whose square is not homotopic to the twist
homotopy.HomotopyClasses.normal_form = lambda self, f: 0
try:
    solve_involution(figure_eight_with_actions().complex)
except ConsistencyError:
    print("solve_involution raised")
else:
    print("solve_involution passed")
print("optimize", sys.flags.optimize)
"""


def test_solve_involution_checks_its_certificate_under_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-O", "-c", _CORRUPTED_NORMAL_FORM],
                         env={"PYTHONPATH": str(src)}, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["solve_involution raised", "optimize 1"]
