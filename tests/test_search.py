"""The transvection sweep, the connected model and the involution search
against the reference implementations kept in ``tests/oracle.py``: the
incremental sweep must take the same moves to the same columns, the
model read off the recognised basis must be the complex rebuilt from its
form, and the normal-form involution test must keep the same candidates
in the same order.  The sweep works on
bit columns and the reference on {target: Poly} columns; an adapter
converts between them through the gradings."""

import hashlib
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import conftest
from conftest import base_models, scramble
from corkscrew import connected, invariants, models
from corkscrew.algebra import slice_monomial
from corkscrew.complexes import (
    SKEW,
    Endomorphism,
    PhiIotaComplex,
    direct_sum,
    serialize,
    tensor,
)
from corkscrew.homotopy import MapShape, local_map_exists
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
    reference_model,
    reference_objective,
    reference_scramble,
    reference_sweep,
    reference_unknowns,
    reference_zero_subsets,
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

def _sweep_models():
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
    return out


def _sweep_inputs():
    return [x.complex for x in _sweep_models()]


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


def _full_trial_sweep(gradings, cols, visited):
    """The sweep with a full trial on every admissible move, checking the
    popcount pre-test of ``_sweep`` against each trial as it goes; the
    admissible moves come from ``slice_monomial``.  Appends the number of
    moves visited to ``visited``."""
    n = len(gradings)
    admissible = [(i, j, m) for i in range(n) for j in range(n) if i != j
                  for m in (slice_monomial(gradings[j], gradings[i]),)
                  if m is not None]
    objective = connected._Objective(gradings, cols)
    moves = []
    count = 0
    for _ in range(connected.SWEEP_PASSES):
        improved = False
        for i, j, m in admissible:
            count += 1
            toggles = objective.transvection(i, j)
            trial = objective.trial(toggles)
            change = objective.terms_change(i, j)
            assert change == trial[0][0] - objective.score[0]
            if trial[0] < objective.score:
                # a move the trial keeps is never rejected by the pre-test
                assert toggles and change <= 0
                objective.accept(toggles, trial)
                moves.append((i, j, m))
                improved = True
        if not improved:
            break
    visited.append(count)
    return objective.cols, moves, objective.score


@pytest.mark.parametrize("cx", _sweep_inputs(), ids=lambda cx: cx.name)
def test_terms_change_is_exact(monkeypatch, cx):
    """At every move of every sweep recognition runs, including the
    sweeps after peeling, ``terms_change`` is the trial's change in terms,
    and the pre-test keeps every move the trial would keep."""
    got, calls = _recorded(monkeypatch, connected._sweep, cx)
    want, ref_calls = _recorded(
        monkeypatch, lambda g, c: _full_trial_sweep(g, c, []), cx)
    assert calls == ref_calls
    assert got == want


def test_sweep_trials_a_small_share_of_the_moves(monkeypatch):
    """Work-count guard: on the scrambled 125-generator triple, fewer than
    one admissible move in ten reaches the full trial (0.7% today)."""
    cx = next(cx for cx in _sweep_inputs() if cx.n == 125)
    trials = 0
    full_trial = connected._Objective.trial

    def counting(self, toggles):
        nonlocal trials
        trials += 1
        return full_trial(self, toggles)

    sweep = connected._sweep
    visited = []
    _recorded(monkeypatch, lambda g, c: _full_trial_sweep(g, c, visited), cx)
    monkeypatch.setattr(connected._Objective, "trial", counting)
    _recorded(monkeypatch, sweep, cx)
    # one trial per sweep scores the initial differential
    moves_trialled = trials - len(visited)
    assert 0 < moves_trialled * 10 < sum(visited)


def test_sweep_scores_only_moves_that_can_pay(monkeypatch):
    """Work-count guard: on the scrambled 125-generator triple, recognition
    computes the terms change of fewer than 1,500 moves (795 today; about
    14,800 when every admissible move was pre-tested)."""
    cx = next(cx for cx in _sweep_inputs() if cx.n == 125)
    calls = 0
    terms_change = connected._Objective.terms_change

    def counting(self, i, j):
        nonlocal calls
        calls += 1
        return terms_change(self, i, j)

    monkeypatch.setattr(connected._Objective, "terms_change", counting)
    connected._recognize(cx)
    assert 0 < calls < 1500


def _tensor_power_of_four():
    f = figure_eight_iota_only()
    double = tensor(f, f)
    return tensor(double, double)


# Recorded before the popcount pre-test went into ``_sweep``: the form,
# roles and change of basis it must keep finding on scrambled (4_1)^4.
_RECOGNITION_625 = {
    1: ("a02016681b2ad6f01434977e912d71e3b5d07826abb993e066601c01e92b670c",
        "30920e64fa2fc4b053aa4af0ef2617ac726bd8e7be64f276593ae684e9c5d983",
        "95eb56e991421122c65d986add892a4a570f473aea74d7189985b426c14ccf09"),
    6: ("50d0edf4f3d42c9c565b1e0e13d27bdb60af4b06ff3da7185ca5535651eb98b3",
        "5fe55166ba6e78bc509e6254b1ddd6a3d03aa11122678f43b844b64d79f63bc8",
        "9abba3f3606c88af1c3a748b517a88fa2a547fbb964e724c6a99d2338d50946e"),
}


@pytest.mark.parametrize("seed", sorted(_RECOGNITION_625))
def test_recognition_of_scrambled_fourth_power_is_pinned(seed):
    cx = scramble(_tensor_power_of_four(), random.Random(seed)).complex
    assert cx.n == 625
    form, m_cols, q_cols, roles, _, _ = connected._recognize(cx)
    assert form.describe() == "dot" + " + box(1)" * 156
    corners = [corner for _, corner in form.boxes]
    assert [corners.count((k, -k)) for k in range(-3, 4)] == [
        1, 10, 37, 60, 37, 10, 1]

    def sha(value):
        return hashlib.sha256(repr(value).encode()).hexdigest()

    assert (sha(form), sha(roles), sha((m_cols, q_cols))) == (
        _RECOGNITION_625[seed])


# -- the connected model -------------------------------------------------------

def _connected_inputs():
    rng = random.Random(41)
    out = _sweep_models() + [scramble(bundled(name), rng)
                             for name in sorted(BUNDLED) for _ in range(3)]
    # a staircase with an odd number of boxes: the kept box is centred
    for q in (3, -5):
        x = tensor(torus_model(q), figure_eight_iota_only())
        out += [x, scramble(x, rng)]
    return out


@pytest.mark.parametrize("x", _connected_inputs(), ids=lambda x: x.name)
def test_connected_model_is_the_reference_rebuild(x):
    """The model read off the recognised basis is, byte for byte, the
    complex rebuilt from its form: the whole form when the input is
    connected, the staircase with the kept box when boxes were reduced."""
    res = connected.connected_complex(x)
    if res.method != "exact-standard":
        assert res.form is None and x.name.startswith("dot+box(1)+box(")
        return
    f = res.form
    want = reference_model(f.staircase_steps, f.staircase_sign,
                           f.staircase_anchor, f.boxes,
                           name=f"conn({x.name})")
    assert serialize(res.conn.complex) == serialize(want)


def test_the_reduced_path_builds_each_tower_once(monkeypatch):
    """Work-count guard: ``connected_complex`` on a scrambled (4_1)^2
    builds the diagonal homology of the input and of the one candidate
    model, once each, and a second local-map solve between the same two
    objects builds none."""
    builds = 0
    build = invariants.DiagonalHomology.__init__

    def counting(self, *args, **kwargs):
        nonlocal builds
        builds += 1
        build(self, *args, **kwargs)

    solves = []

    def recording(x1, x2):
        solves.append((x1, x2))
        return local_map_exists(x1, x2)

    f = figure_eight_iota_only()
    x = scramble(tensor(f, f), random.Random(3))
    monkeypatch.setattr(invariants.DiagonalHomology, "__init__", counting)
    monkeypatch.setattr(connected, "local_map_exists", recording)
    res = connected.connected_complex(x)
    assert res.method == "exact-standard" and len(solves) == 2
    assert builds == 2
    x1, x2 = solves[0]
    again = local_map_exists(x1, x2)
    assert builds == 2
    assert again.exists and again.f == res.certificates["down"].f


# -- the involution search -----------------------------------------------------

def _coordinate_bits(cx, maps):
    coords = reference_unknowns(MapShape(cx, cx, SKEW, (0, 0)))
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 10).flatmap(lambda r: st.tuples(
    st.integers(0, 7),
    st.lists(st.integers(0, 7), min_size=r, max_size=r),
    st.lists(st.integers(0, 7), min_size=r * (r - 1) // 2,
             max_size=r * (r - 1) // 2))))
def test_tabulated_form_vanishes_where_the_reference_does(data):
    """The tabulated quadratic form vanishes on the same subsets as the
    form evaluated from scratch on each one."""
    constant, linear, pair_values = data
    r = len(linear)
    pairs = [(a, b) for a in range(r) for b in range(a + 1, r)]
    pair = dict(zip(pairs, pair_values))
    want = sorted(sum(1 << a for a in picks)
                  for picks in reference_zero_subsets(constant, linear, pair))
    assert models._zero_subsets(constant, linear, pair) == want


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
