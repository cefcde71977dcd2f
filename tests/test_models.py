"""Builders: pinned conventions, bundled actions, the involution solver."""

import pytest

from corkscrew.algebra import alexander
from corkscrew.complexes import sarkar_map, serialize, validate
from corkscrew.errors import NoInvolutionError
from corkscrew.homotopy import commutes_up_to_homotopy, homotopic
from corkscrew.models import (
    box_complex,
    figure_eight_with_actions,
    involution_candidates,
    parse_complex_text,
    solve_involution,
    staircase_complex,
    staircase_model,
    staircase_with_box,
    thin_model,
    torus_model,
    trivial,
    unknot,
)
from oracle import P_ONE, dict_cols, poly


def test_box_conventions_frozen():
    cx = box_complex(3)
    assert cx.generators == ("a", "b", "c", "d")
    assert cx.gradings == ((-2, -2), (3, -3), (-3, 3), (2, 2))
    a = cx.index("a")
    diff = dict_cols(cx.boundary())
    assert diff[a] == {cx.index("b"): poly([(3, 0)]),
                       cx.index("c"): poly([(0, 3)])}
    assert diff[cx.index("b")] == {cx.index("d"): poly([(0, 3)])}
    assert diff[cx.index("c")] == {cx.index("d"): poly([(3, 0)])}


def test_staircase_conventions_frozen():
    cx = staircase_complex(2)
    assert cx.gradings == ((0, -4), (-1, -3), (-2, -2), (-3, -1), (-4, 0))
    y1 = cx.index("y1")
    assert dict_cols(cx.boundary())[y1] == {cx.index("y0"): poly([(1, 0)]),
                                            cx.index("y2"): poly([(0, 1)])}


def test_negative_staircase_names_the_dual_builder():
    """The message names a builder that exists, and it builds the dual:
    the gradings of staircase_complex(2), negated."""
    with pytest.raises(ValueError) as err:
        staircase_complex(-2)
    assert str(err.value) == ("staircase_complex takes n >= 0; the dual "
                              "staircase is staircase_model(-2)")
    dual = staircase_model(-2).complex
    assert dual.gradings == tuple((-u, -v) for u, v in
                                  staircase_complex(2).gradings)


def test_torus_2_3_gradings():
    x = torus_model(3)
    ms = [g[0] for g in x.complex.gradings]  # Maslov grading is gr_u
    als = [alexander(g) for g in x.complex.gradings]
    assert ms == [0, -1, -2]
    assert als == [1, 0, -1]
    rep = validate(x.complex, require_s3_type=True)
    assert rep.ok and rep.s3_type


def test_every_builder_passes_the_structural_audit():
    models = [unknot(), trivial(), torus_model(3), torus_model(-5),
              staircase_model(2), figure_eight_with_actions(),
              thin_model(1, True), thin_model(0, True),
              staircase_with_box(0, 3)]
    for x in models:
        # parsing checks the chain maps, iota^2 ~ the twist, phi iota ~
        # iota phi and that phi has a homotopy inverse
        name = x.complex.name
        assert validate(x.complex).ok, name
        assert parse_complex_text(serialize(x)).iota == x.iota, name
        assert homotopic(x.phi.compose(x.phi_inverse),
                         x.complex.identity()) is not None, name


def test_figure_eight_relations_hold_on_the_nose(fig8):
    s = sarkar_map(fig8.complex)
    assert fig8.iota.compose(fig8.iota) == s
    assert fig8.phi.compose(fig8.phi) == s
    assert fig8.phi.compose(fig8.phi_inverse) == fig8.complex.identity()


def test_figure_eight_iota_squares_like_the_twist_on_a(fig8):
    cx = fig8.complex
    a, d = cx.index("a"), cx.index("d")
    sq = dict_cols(fig8.iota.compose(fig8.iota))
    assert sq[a] == {a: P_ONE, d: P_ONE}


def test_thin_model_shapes():
    m = thin_model(0, True)
    assert m.complex.n == 5  # dot plus one unit box
    m2 = thin_model(3, False)
    assert m2.complex.n == 7  # pure staircase
    m3 = thin_model(-2, True)
    assert m3.complex.n == 9
    for x in (m, m2, m3):
        rep = validate(x.complex, require_s3_type=True)
        assert rep.ok and rep.s3_type


class TestInvolutionSolver:
    def test_unknot_unique_identity(self):
        x = unknot()
        iota, cert = solve_involution(x.complex)
        assert iota == x.iota
        assert cert.matrix.is_zero()

    def test_figure_eight_shape_recovers_bundled_involution(self, fig8):
        iota, _ = solve_involution(fig8.complex)
        assert iota == fig8.iota

    def test_staircase_reflection(self):
        cx = staircase_complex(1)
        iota, _ = solve_involution(cx)
        cols = dict_cols(iota)
        n = cx.n
        for i in range(n):
            assert cols[i] == {n - 1 - i: P_ONE}

    def test_lone_box_has_no_involution(self):
        with pytest.raises(NoInvolutionError, match="no involution found"):
            solve_involution(box_complex(1))

    def test_all_candidates_square_to_the_twist(self, fig8):
        s = sarkar_map(fig8.complex)
        cands = involution_candidates(fig8.complex)
        assert len(cands) >= 2  # the free parameter on a -> a + x (+ d)
        for cand in cands:
            assert homotopic(cand.compose(cand), s) is not None

    def test_solved_involutions_commute_with_bundled_phi(self, fig8):
        # the solver's pick and the periodic symmetry homotopy-commute
        iota, _ = solve_involution(fig8.complex)
        assert commutes_up_to_homotopy(fig8.phi, iota) is not None


class TestParsing:
    def test_phi_defaults_to_identity(self):
        x = parse_complex_text(
            '{"name": "k", "generators": [{"id": "g", "gr": [0, 0]}],'
            ' "differential": {}}')
        assert x.phi == x.complex.identity()
        assert dict_cols(x.iota)[0] == {0: P_ONE}

    def test_missing_iota_solved_for_staircase(self):
        from corkscrew.complexes import serialize
        text = serialize(torus_model(3), include_actions=False)
        x = parse_complex_text(text)
        assert x.iota == torus_model(3).iota

    def test_bundled_tensor_names(self):
        from corkscrew.models import bundled
        x = bundled("4_1x4_1_tau")
        assert x.complex.n == 25
        assert "x|x" in x.complex.generators


def test_invariants_are_involution_class_independent(fig8):
    """The solver's choice of involution is a convention; the downstream
    invariants cannot see it."""
    from corkscrew.complexes import iota_complex, tensor
    from corkscrew.connected import s_nontrivial
    from corkscrew.invariants import delta
    cands = involution_candidates(fig8.complex)
    answers = set()
    for iota in cands:
        x = iota_complex(fig8.complex, iota)
        tw = s_nontrivial(x)
        d = delta(tensor(x, x))
        answers.add((tw.nontrivial, d.delta))
    assert answers == {(True, 0)}
