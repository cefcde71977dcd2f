"""Square-summand peeling inside the standard-form recogniser."""

import random
import subprocess
import sys
from pathlib import Path

import pytest

from corkscrew.complexes import iota_complex, tensor
from corkscrew.connected import connected_complex, recognize_standard
from corkscrew.models import (
    figure_eight_iota_only,
    figure_eight_with_actions,
    thin_model,
    torus_model,
)

from conftest import scramble


def test_double_splits_into_dot_and_six_boxes():
    x = tensor(figure_eight_iota_only(), figure_eight_iota_only())
    form = recognize_standard(x.complex)
    assert form is not None
    assert form.staircase_steps == ()
    assert [ell for ell, _ in form.boxes] == [1] * 6


def test_triple_splits_with_the_determinant_box_count():
    # determinant 125: (125 - 1)/4 = 31 unit boxes beside the dot
    m = figure_eight_iota_only()
    x = tensor(tensor(m, m), m)
    form = recognize_standard(x.complex)
    assert form is not None
    assert len(form.boxes) == 31
    assert form.staircase_steps == ()


def test_mixed_torus_double_splits():
    x = tensor(torus_model(3), torus_model(-3))  # slice pair, 9 generators
    form = recognize_standard(x.complex)
    assert form is not None
    # one staircase (a dot: tau adds to zero) plus paired boxes
    assert len(form.staircase_steps) == 0
    assert len(form.boxes) == 2


def test_scrambled_doubles_still_recognised():
    rng = random.Random(31)
    x = tensor(figure_eight_iota_only(), figure_eight_iota_only())
    want = recognize_standard(x.complex).describe()
    for _ in range(2):
        got = recognize_standard(scramble(x, rng, moves=8).complex)
        assert got is not None and got.describe() == want


def test_certified_trivial_connected_model_of_the_double():
    x = tensor(figure_eight_iota_only(), figure_eight_iota_only())
    res = connected_complex(x)
    assert res.method == "exact-standard"
    assert res.conn.complex.n == 1
    assert res.caveat is None
    # the two certifying local maps compose to the identity on the model
    assert res.projection.compose(res.inclusion) \
        == res.conn.complex.identity()


def test_tau_double_connected_model_matches_the_identity_one(fig8):
    # the underlying iota-complex does not see phi, so both doubles have
    # the same minimal model
    xt = tensor(fig8, fig8)
    res = connected_complex(xt)
    assert res.method == "exact-standard"
    assert res.conn.complex.n == 1


@pytest.mark.parametrize("tau,parity", [(1, True), (2, True), (0, True)])
def test_thin_models_unaffected_by_the_peeling_path(tau, parity):
    form = recognize_standard(thin_model(tau, parity).complex)
    assert form is not None
    assert len(form.boxes) == 1


def test_a_peeled_vector_mixing_gradings_is_refused(monkeypatch):
    """Each new basis vector must lie in the mask of its grading.  The
    first two vectors of a peel are x and Ax, one grading apart; OR-ing
    the second into the first, after the inverse is taken, makes a
    vector that mixes them."""
    from corkscrew import connected
    from corkscrew.errors import ConsistencyError

    real = connected.inverse_cols

    def mixing(cols):
        inv = real(cols)
        cols[0] |= cols[1]
        return inv

    monkeypatch.setattr(connected, "inverse_cols", mixing)
    m = figure_eight_iota_only()
    with pytest.raises(ConsistencyError, match="not homogeneous"):
        recognize_standard(tensor(m, m).complex)


def test_the_change_of_basis_is_inverted_and_certified_once(monkeypatch):
    """Work-count guard: recognition carries M alone, takes M^-1 with one
    inverse after its last round and certifies the conjugation there, so
    the connected model's inclusion and projection need no grading check.
    A peel makes its own inverse, and the reduced path one more, for the
    self-local map of its model."""
    from corkscrew import connected
    from corkscrew.complexes import Endomorphism

    f = figure_eight_iota_only()
    inputs = {"unpeeled": scramble(thin_model(1, True), random.Random(3)),
              "peeled": scramble(tensor(f, f), random.Random(2))}
    checks, inverses = [], []
    real_check = Endomorphism.grading_violation
    real_inverse = connected.inverse_cols

    def checking(self):
        checks.append(self)
        return real_check(self)

    def inverting(cols):
        inverses.append(sys._getframe(1).f_code.co_name)
        return real_inverse(cols)

    monkeypatch.setattr(Endomorphism, "grading_violation", checking)
    monkeypatch.setattr(connected, "inverse_cols", inverting)
    counts = {}
    for label, x in inputs.items():
        checks.clear()
        inverses.clear()
        assert connected_complex(x).method == "exact-standard"
        counts[label] = (len(checks), list(inverses))
    # the peeled path keeps its validate probe of the recognised complex
    assert counts == {
        "unpeeled": (0, ["_recognize"]),
        "peeled": (1, ["_peel_boxes", "_recognize", "_invert_iso"])}


_CORRUPTED_CONJUGATION = """
import sys
from corkscrew import connected
from corkscrew.complexes import tensor
from corkscrew.errors import ConsistencyError
from corkscrew.models import figure_eight_iota_only

conjugate = connected._conjugate_diff
calls = []


def corrupted(cols, m_cols, q_cols):
    # the peeling step gets the true conjugate, the final certificate a
    # differential with one column too many
    calls.append(1)
    out = conjugate(cols, m_cols, q_cols)
    return out if len(calls) == 1 else out + [{}]


connected._conjugate_diff = corrupted
m = figure_eight_iota_only()
try:
    connected.recognize_standard(tensor(m, m).complex)
except ConsistencyError:
    print("recognize_standard raised")
else:
    print("recognize_standard passed")
print("optimize", sys.flags.optimize)
"""


def test_peeling_certificate_survives_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-O", "-c", _CORRUPTED_CONJUGATION],
                         env={"PYTHONPATH": str(src)}, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["recognize_standard raised", "optimize 1"]


def _peeling_inputs():
    f = figure_eight_iota_only()
    double = tensor(f, f)
    rng = random.Random(31)
    return ([double, tensor(double, f), tensor(torus_model(3), torus_model(-3)),
             scramble(double, rng, moves=8), scramble(double, rng, moves=8),
             scramble(thin_model(1, True), random.Random(3)),
             scramble(double, random.Random(2))]
            + [thin_model(tau, True) for tau in (1, 2, 0)])


def test_peel_matches_the_tagged_reference(monkeypatch):
    """Every peel, on each input as it stands and on every complex
    recognition hands it, returns the (M, M^-1, gradings) of the tagged
    span it replaced, scrambles included."""
    from test_search import _sweep_inputs

    from corkscrew import connected
    from oracle import reference_peel_boxes

    real = connected._peel_boxes
    handed = []

    def recording(gradings, cols):
        handed.append((gradings, list(cols)))
        return real(gradings, cols)

    monkeypatch.setattr(connected, "_peel_boxes", recording)
    cxs = [x.complex for x in _peeling_inputs()] + _sweep_inputs()
    raw = [(cx.gradings, list(cx.diff)) for cx in cxs]
    for cx in cxs:
        connected._recognize(cx)
    assert handed
    # the raw inputs reach both the peeled and the refused branch
    assert {real(*args) is None for args in raw} == {True, False}
    for gradings, cols in raw + handed:
        assert real(gradings, cols) == reference_peel_boxes(gradings, cols)
