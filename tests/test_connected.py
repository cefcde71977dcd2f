"""Standard-form recognition, connected models, twist nontriviality."""

import random

import pytest

from conftest import scramble
from corkscrew.algebra import f2_rank, ones
from corkscrew.complexes import (
    Endomorphism,
    KnotComplex,
    direct_sum,
    dual,
    iota_complex,
    sarkar_map,
    tensor,
    validate,
)
from corkscrew.connected import (
    GREEDY_CAVEAT,
    connected_complex,
    recognize_standard,
    s_nontrivial,
)
from corkscrew.errors import ValidationError
from corkscrew.homotopy import self_local_space
from corkscrew.models import (
    _reflection_iota,
    box_complex,
    dot_complex,
    figure_eight_iota_only,
    solve_involution,
    staircase_with_box,
    thin_model,
    torus_model,
    unknot,
)
from corkscrew.verdicts import (
    STRONG_CORK,
    verdict_delta,
    verdict_gompf,
    verdict_split,
)


class TestRecognizer:
    def test_dot_plus_unit_box(self):
        form = recognize_standard(thin_model(0, True).complex)
        assert form is not None
        assert form.staircase_steps == ()
        assert [ell for ell, _ in form.boxes] == [1]
        assert form.describe() == "dot + box(1)"

    def test_tensor_of_trefoils_reduces(self):
        x = tensor(torus_model(3), torus_model(3))
        form = recognize_standard(x.complex)
        assert form is not None
        assert form.staircase_steps == (1, 1, 1, 1)
        assert form.staircase_sign == 1
        assert [ell for ell, _ in form.boxes] == [1]

    def test_presplit_sum(self):
        cx = direct_sum(box_complex(1, suffix="0"), box_complex(1, suffix="1"),
                        dot_complex())
        form = recognize_standard(cx)
        assert form is not None
        assert form.staircase_steps == ()
        assert [ell for ell, _ in form.boxes] == [1, 1]

    def test_mirror_staircase(self):
        x = torus_model(-5)
        form = recognize_standard(x.complex)
        assert form is not None
        assert form.staircase_sign == -1
        assert len(form.staircase_steps) == 4

    def test_two_towers_is_nonstandard(self):
        cx = direct_sum(dot_complex("p"), dot_complex("q", name="dot2"))
        assert recognize_standard(cx) is None

    def test_scrambled_forms_recovered(self):
        rng = random.Random(17)
        for base in (thin_model(0, True), thin_model(2, True),
                     torus_model(3)):
            want = recognize_standard(base.complex).describe()
            for _ in range(3):
                got = recognize_standard(
                    scramble(base, rng, moves=6).complex)
                assert got is not None and got.describe() == want

    def test_every_scramble_of_a_trefoil_sum_is_recognised(self):
        # one peel splits off five of the six squares on some of these
        # seeds (2, 6, 42, ...); peeling again splits off the sixth
        t3 = torus_model(3)
        x = tensor(tensor(t3, t3), torus_model(-3))
        want = "staircase(1)" + " + box(1)" * 6
        for seed in range(120):
            y = scramble(x, random.Random(seed))
            form = recognize_standard(y.complex)
            assert form is not None and form.describe() == want, seed
            assert connected_complex(y).method == "exact-standard", seed


class TestConnectedComplex:
    def test_figure_eight(self, fig8_iota):
        res = connected_complex(fig8_iota)
        assert res.method == "exact-standard"
        assert res.form.describe() == "dot + box(1)"
        assert res.conn.complex.n == 5
        assert res.caveat is None

    def test_tensor_of_trefoils(self):
        x = tensor(torus_model(3), torus_model(3))
        res = connected_complex(x)
        assert res.method == "exact-standard"
        assert res.form.describe() == "staircase(2) + box(1)"
        # maps certify: projection o inclusion = id and both chain maps
        comp = res.projection.compose(res.inclusion)
        assert comp == res.conn.complex.identity()

    def test_unknot(self):
        res = connected_complex(unknot())
        assert res.conn.complex.n == 1
        assert res.form.describe() == "dot"

    def test_idempotent_on_standard_forms(self, fig8_iota):
        res = connected_complex(fig8_iota)
        again = connected_complex(res.conn)
        assert again.form.describe() == res.form.describe()
        assert again.conn.complex.n == res.conn.complex.n

    def test_conn_inclusion_is_chain_map(self, fig8_iota):
        res = connected_complex(fig8_iota)
        dm = res.conn.complex.boundary()
        dc = fig8_iota.complex.boundary()
        assert res.inclusion.compose(dm) == dc.compose(res.inclusion)

    def test_box_pair_cancels(self):
        # dot + two unit boxes, involution solved: the minimal model is
        # the dot alone
        cx = direct_sum(dot_complex("x"),
                        box_complex(1, at=(0, 0), suffix="0"),
                        box_complex(1, at=(0, 0), suffix="1"),
                        name="dot+2boxes")
        iota, _ = solve_involution(cx)
        res = connected_complex(iota_complex(cx, iota))
        assert res.method == "exact-standard"
        assert res.form.describe() == "dot"
        assert res.conn.complex.n == 1

    def test_double_reduces_to_the_trivial_model(self, fig8_iota):
        # six unit boxes pair off; the certified minimal model is a dot
        x = tensor(fig8_iota, fig8_iota)
        res = connected_complex(x)
        assert res.method == "exact-standard"
        assert res.form.describe() == "dot"
        assert res.conn.complex.n == 1
        assert res.caveat is None

    def test_greedy_fallback_carries_caveat(self):
        # boxes of different side lengths: recognised, but no exact
        # reduction rule applies, so the input itself answers, unreduced
        cx = direct_sum(dot_complex("x"),
                        box_complex(1, at=(0, 0), suffix="0"),
                        box_complex(2, at=(0, 0), suffix="1"),
                        name="mixed")
        iota, _ = solve_involution(cx)
        res = connected_complex(iota_complex(cx, iota))
        assert res.method == "greedy"
        assert res.caveat == GREEDY_CAVEAT
        assert res.form is None
        assert res.conn.complex == cx
        assert res.conn.iota == iota
        assert res.inclusion == cx.identity()
        assert res.projection == cx.identity()


def _window_kernel_dim(f: Endomorphism) -> int:
    """Total slice-kernel dimension over the generator window.

    f is straight of bidegree (0, 0), so it maps the slice at each
    bigrading into itself, and on the slice it is the sub-matrix of its
    bit columns on the slice's generators."""
    cx = f.source
    total = 0
    seen = set()
    for gr in cx.gradings:
        for da in (0, 2, 4):
            for db in (0, 2, 4):
                t = (gr[0] - da, gr[1] - db)
                if t in seen:
                    continue
                seen.add(t)
                src = [f.cols[g] for g in ones(cx.admissible(t))]
                if src:
                    total += len(src) - f2_rank(src, cx.n)
    return total


class TestSelfLocalInjectivity:
    def test_conn_members_are_injective_on_the_window(self, fig8_iota):
        res = connected_complex(fig8_iota)
        sp = self_local_space(res.conn)
        assert len(sp.basis) <= 10
        ident = res.conn.complex.identity()
        for sel in range(1 << len(sp.basis)):
            if not sp.locality(sel):
                continue
            f = sp.members(sel)
            assert _window_kernel_dim(f) == 0, "local member with kernel"
        del ident


class TestTwistNontriviality:
    def test_figure_eight_nontrivial(self, fig8_iota):
        tw = s_nontrivial(fig8_iota)
        assert tw.nontrivial
        assert tw.obstruction is not None
        assert tw.caveat is None

    @pytest.mark.parametrize("q", [3, 5, 7, -3])
    def test_torus_models_trivial(self, q):
        x = torus_model(q)
        tw = s_nontrivial(x)
        assert not tw.nontrivial
        # on a staircase the twist is the identity on the nose
        model = tw.conn.conn.complex
        assert sarkar_map(model) == model.identity()

    @pytest.mark.parametrize("ell,want", [(1, True), (2, False), (3, True),
                                          (4, False), (5, True)])
    def test_box_parity(self, ell, want):
        x = staircase_with_box(0, ell)
        tw = s_nontrivial(x)
        assert tw.nontrivial is want
        assert tw.conn.method == "exact-standard"

    def test_invariant_under_dualization(self):
        cases = [figure_eight_iota_only(), torus_model(3),
                 thin_model(2, True), staircase_with_box(0, 3),
                 staircase_with_box(0, 2)]
        for x in cases:
            assert s_nontrivial(dual(x)).nontrivial \
                == s_nontrivial(x).nontrivial, x.complex.name

    def test_thin_parity_drives_the_answer(self):
        assert s_nontrivial(thin_model(3, True)).nontrivial
        assert not s_nontrivial(thin_model(3, False)).nontrivial


def test_conn_complex_is_valid_s3(fig8_iota):
    res = connected_complex(tensor(torus_model(3), torus_model(3)))
    rep = validate(res.conn.complex, require_s3_type=True)
    assert rep.ok and rep.s3_type


def _torus_3_4():
    """T(3,4) by hand: the L-space staircase of steps 1, 2, 2, 1, with the
    reflection as its involution."""
    cx = KnotComplex("T(3,4)", tuple(f"y{i}" for i in range(5)),
                     ((0, -6), (-1, -5), (-2, -2), (-5, -1), (-6, 0)),
                     (0, 0b101, 0, 0b10100, 0))
    return iota_complex(cx, _reflection_iota(cx))


def test_the_step_one_gate_is_pinned_on_torus_3_4():
    """Connected models are answered for step-one staircases only.  T(3,4)
    is a valid S^3-type complex, and the delta and split routes answer
    it, while the gompf route, which reads its connected model, raises.
    Lifting the gate flips the last assertion on purpose."""
    k = _torus_3_4()
    report = validate(k.complex, require_s3_type=True)
    assert report.ok and report.s3_type
    v = verdict_delta(k, 1)
    assert v.conclusion == STRONG_CORK and v.certificate["delta"] == 1
    assert verdict_split(k, k, 1).conclusion == STRONG_CORK
    with pytest.raises(ValidationError,
                       match="^only step-one staircases are rebuilt$"):
        verdict_gompf(k, 1, 1, 0)
