"""Complexes, canonical endomorphisms, tensor products, duals, files."""

import pytest

from corkscrew.algebra import mat_vec
from corkscrew.complexes import (
    KnotComplex,
    SKEW,
    complex_from_dict,
    dual,
    phi_psi_maps,
    sarkar_map,
    serialize,
    tensor,
    to_dict,
    validate,
)
from corkscrew.errors import ParseError, ValidationError
from corkscrew.models import (
    box_complex,
    dual_complex,
    figure_eight_with_actions,
    parse_complex_text,
    staircase_complex,
    torus_model,
    unknot,
)
from oracle import P_ONE, dict_cols, poly, poly_element


def test_unknot_is_valid_s3(fig8):
    rep = validate(unknot().complex, require_s3_type=True)
    assert rep.ok and rep.s3_type


def test_box_alone_fails_s3_type():
    rep = validate(box_complex(1), require_s3_type=True)
    assert rep.ok  # the complex itself is fine
    assert rep.s3_type is False
    assert "tower" in rep.first_violation


def test_box_alone_fails_s3_by_quotient_homology_oracle():
    # direct check: killing U leaves da = V c, db = V d, so the quotient
    # homology is all V-torsion and there is no free tower to find
    from corkscrew.invariants import quotient_tower_shape
    shape = quotient_tower_shape(box_complex(1), "u")
    assert shape.tower_count == 0


def _box_with_column_a(triples):
    doc = to_dict(box_complex(1))
    doc["differential"]["a"] = triples
    return doc


def test_bad_bidegree_is_reported():
    # U -> U^2 on a->b: a monomial other than the forced one
    with pytest.raises(ValidationError) as err:
        complex_from_dict(_box_with_column_a([["b", 2, 0], ["c", 0, 1]]))
    assert "bidegree violated at a->b" in str(err.value)
    # a bit no monomial can fill: a->a
    cx = box_complex(1)
    bad = KnotComplex("bad", cx.generators, cx.gradings,
                      (cx.diff[0] | 1,) + cx.diff[1:])
    rep = validate(bad)
    assert not rep.ok
    assert rep.first_violation == "differential bidegree violated at a->a"


def test_d_squared_detected():
    cx = KnotComplex("nc", ("p", "q", "r"), ((0, 0), (-1, -1), (-2, -2)),
                     (0b10, 0b100, 0))
    rep = validate(cx)
    assert not rep.ok and "d^2" in rep.first_violation


def test_d_squared_names_the_lowest_target():
    # d^2 at a hits both d and e; the report names the lower target, d
    cx = KnotComplex("nc", ("a", "b", "c", "d", "e"),
                     ((0, 0), (-1, -1), (-1, -1), (-2, -2), (-2, -2)),
                     (0b110, 0b1000, 0b10000, 0, 0))
    d = cx.boundary()
    assert d.compose(d).cols[0] == 0b11000
    assert validate(cx).first_violation == "d^2 != 0 at a->d"


def test_bad_bidegree_names_the_lowest_target():
    both_wrong = [["c", 0, 2], ["b", 2, 0]]
    with pytest.raises(ValidationError) as err:
        complex_from_dict(_box_with_column_a(both_wrong))
    assert str(err.value) == "differential bidegree violated at a->b"


def test_d_squared_names_the_lowest_target_when_parsed():
    # the complex above, read from its file form
    cx = KnotComplex("nc", ("a", "b", "c", "d", "e"),
                     ((0, 0), (-1, -1), (-1, -1), (-2, -2), (-2, -2)),
                     (0b110, 0b1000, 0b10000, 0, 0))
    with pytest.raises(ValidationError) as err:
        complex_from_dict(to_dict(cx))
    assert str(err.value) == "d^2 != 0 at a->d"


def test_bidegree_violation_is_reported_before_d_squared():
    # d^2 != 0 at a->c, and c->d has the wrong monomial: the file reports
    # the bidegree violation even though it sits later in the order
    doc = {"generators": [{"id": g, "gr": [-k, -k]}
                          for k, g in enumerate("abcd")],
           "differential": {"a": [["b", 0, 0]], "b": [["c", 0, 0]],
                            "c": [["d", 1, 0]]}}
    with pytest.raises(ValidationError) as err:
        complex_from_dict(doc)
    assert str(err.value) == "differential bidegree violated at c->d"
    doc["differential"]["c"] = []
    with pytest.raises(ValidationError) as err:
        complex_from_dict(doc)
    assert str(err.value) == "d^2 != 0 at a->c"


class TestParserAccumulatesModTwo:
    """Repeated [target, u, v] triples cancel before any entry is checked
    against the monomial its gradings force."""

    @staticmethod
    def _parse(triples):
        return complex_from_dict({
            "generators": [{"id": "a", "gr": [0, 0]},
                           {"id": "b", "gr": [-1, -1]}],
            "differential": {"a": triples}})

    def test_forced_triple_twice_is_a_zero_column(self):
        cx = self._parse([["b", 0, 0], ["b", 0, 0]])
        assert cx.boundary().is_zero()

    def test_wrong_triple_twice_cancels_before_the_check(self):
        cx = self._parse([["b", 1, 0], ["b", 1, 0]])
        assert cx.boundary().is_zero()

    def test_wrong_triple_once_is_a_bidegree_violation(self):
        with pytest.raises(ValidationError) as err:
            self._parse([["b", 1, 0]])
        assert str(err.value) == "differential bidegree violated at a->b"


class TestDerivativeMaps:
    def test_box(self):
        cx = box_complex(1)
        phi, psi = (dict_cols(f) for f in phi_psi_maps(cx))
        a, b, c, d = (cx.index(g) for g in "abcd")
        assert phi[a] == {b: P_ONE}
        assert phi[c] == {d: P_ONE}
        assert phi[b] == {} and phi[d] == {}
        assert psi[a] == {c: P_ONE}
        assert psi[b] == {d: P_ONE}
        assert psi[c] == {} and psi[d] == {}

    def test_trefoil_staircase(self):
        cx = staircase_complex(1)
        phi, psi = (dict_cols(f) for f in phi_psi_maps(cx))
        y0, y1, y2 = (cx.index(f"y{i}") for i in range(3))
        assert phi[y1] == {y0: P_ONE}
        assert psi[y1] == {y2: P_ONE}
        assert phi[y0] == {} and psi[y0] == {}

    def test_unknot_zero(self):
        cx = unknot().complex
        phi, psi = phi_psi_maps(cx)
        assert phi.is_zero() and psi.is_zero()

    def test_derivatives_are_chain_maps(self):
        for cx in (box_complex(3), staircase_complex(2),
                   figure_eight_with_actions().complex):
            d = cx.boundary()
            for f in phi_psi_maps(cx):
                assert (f.compose(d) + d.compose(f)).is_zero()


class TestSarkarMap:
    def test_unit_box_sends_a_to_a_plus_d(self):
        cx = box_complex(1)
        s = dict_cols(sarkar_map(cx))
        a, b, c, d = (cx.index(g) for g in "abcd")
        assert s[a] == {a: P_ONE, d: P_ONE}
        for g in (b, c, d):
            assert s[g] == {g: P_ONE}

    @pytest.mark.parametrize("ell", [2, 4, 6])
    def test_even_box_identity(self, ell):
        cx = box_complex(ell)
        assert sarkar_map(cx) == cx.identity()

    @pytest.mark.parametrize("ell", [3, 5])
    def test_odd_box_diagonal_correction(self, ell):
        cx = box_complex(ell)
        s = dict_cols(sarkar_map(cx))
        a, d = cx.index("a"), cx.index("d")
        assert s[a] == {a: P_ONE, d: poly([(ell - 1, ell - 1)])}

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_staircases_identity(self, n):
        cx = staircase_complex(n)
        assert sarkar_map(cx) == cx.identity()
        cxm = dual_complex(cx)
        assert sarkar_map(cxm) == cxm.identity()

    def test_chain_map_exactly(self):
        for cx in (box_complex(1), figure_eight_with_actions().complex,
                   tensor(torus_model(3), torus_model(3)).complex):
            s = sarkar_map(cx)
            d = cx.boundary()
            assert s.compose(d) == d.compose(s)


class TestTensor:
    def test_unknot_is_a_unit(self, fig8):
        t = tensor(unknot(), fig8)
        # canonical relabelling u0|g -> g
        assert t.complex.n == fig8.complex.n
        assert t.complex.gradings == fig8.complex.gradings
        assert t.complex.diff == fig8.complex.diff
        assert t.iota.cols == fig8.iota.cols
        assert t.phi.cols == fig8.phi.cols
        assert [g.split("|")[1] for g in t.complex.generators] \
            == list(fig8.complex.generators)

    def test_double_figure_eight_rank(self, fig8):
        assert tensor(fig8, fig8).complex.n == 25

    def test_involution_on_top_pair(self, fig8):
        x = tensor(fig8, fig8)
        cx = x.complex
        xx = cx.index("x|x")
        assert cx.gradings[xx] == (0, 0)
        got = poly_element(cx.gradings, mat_vec(x.iota.cols, 1 << xx), (0, 0))
        want = {cx.index("x|x"): P_ONE, cx.index("x|d"): P_ONE,
                cx.index("d|x"): P_ONE, cx.index("d|d"): P_ONE}
        assert got == want

    def test_tensor_is_valid(self, fig8):
        x = tensor(fig8, fig8)
        rep = validate(x.complex, require_s3_type=True)
        assert rep.ok and rep.s3_type

    def test_associative_on_complex_and_phi(self):
        a, b, c = torus_model(3), figure_eight_with_actions(), unknot()
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert left.complex.gradings == right.complex.gradings
        assert left.complex.diff == right.complex.diff
        assert left.phi.cols == right.phi.cols

    def test_associative_on_iota_up_to_homotopy(self):
        from corkscrew.complexes import Endomorphism
        from corkscrew.homotopy import homotopic
        a, b, c = torus_model(3), figure_eight_with_actions(), torus_model(-3)
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        # underlying complexes agree on the nose; rebase the right-hand
        # involution onto the left complex and compare up to homotopy
        ri = Endomorphism(left.complex, left.complex, right.iota.cols,
                          SKEW, (0, 0))
        assert homotopic(left.iota, ri) is not None


class TestDual:
    def test_unknot_self_dual(self):
        d = dual(unknot())
        assert d.complex.gradings == ((0, 0),)
        assert d.iota.cols == unknot().iota.cols

    def test_staircase_dual_negates_gradings(self):
        t = torus_model(3)
        d = dual(t)
        assert d.complex.gradings == tuple(
            (-a, -b) for a, b in t.complex.gradings)
        rep = validate(d.complex, require_s3_type=True)
        assert rep.ok and rep.s3_type

    def test_box_self_dual_after_relabel(self):
        cx = box_complex(2)
        dx = dual_complex(cx)
        # a* plays the sink role and d* the source: swap a<->d, b<->c
        relabel = {"a*": "d", "b*": "c", "c*": "b", "d*": "a"}
        perm = [dx.generators.index(g) for g in ("d*", "c*", "b*", "a*")]
        regraded = tuple(dx.gradings[p] for p in perm)
        assert regraded == cx.gradings
        dx_cols = dict_cols(dx.boundary())
        cx_cols = dict_cols(cx.boundary())
        for src_new, src_old in enumerate(perm):
            col = {perm.index(t): p for t, p in dx_cols[src_old].items()}
            assert col == cx_cols[src_new], relabel

    def test_double_dual_is_identity(self, fig8):
        dd = dual(dual(fig8))
        assert dd.complex.gradings == fig8.complex.gradings
        assert dd.complex.diff == fig8.complex.diff
        assert dd.iota.cols == fig8.iota.cols
        assert dd.phi.cols == fig8.phi.cols
        assert dd.phi_inverse.cols == fig8.phi_inverse.cols

    def test_dual_structures_stay_valid(self, fig8):
        # parsing checks the chain maps, iota^2 ~ the twist, phi iota ~
        # iota phi and that phi has a homotopy inverse
        from corkscrew.homotopy import homotopic
        d = dual(fig8)
        assert validate(d.complex).ok
        assert parse_complex_text(serialize(d)).phi == d.phi
        assert homotopic(d.phi.compose(d.phi_inverse),
                         d.complex.identity()) is not None


class TestSerialization:
    def test_round_trip_byte_identical(self, fig8):
        text = serialize(fig8)
        again = parse_complex_text(text)
        assert serialize(again) == text

    def test_no_generators_rejected(self):
        with pytest.raises(ParseError, match="no generators"):
            parse_complex_text('{"name": "e", "generators": []}')

    def test_duplicate_id_rejected(self):
        with pytest.raises(ParseError, match="duplicate generator id 'p'"):
            parse_complex_text(
                '{"generators": [{"id": "p", "gr": [0, 0]},'
                ' {"id": "p", "gr": [0, 0]}]}')

    @pytest.mark.parametrize("text, message", [
        ('{"generators": [{"gr": [0, 0]}]}', "needs a string id"),
        ('{"generators": [{"id": "x", "gr": "ab"}]}', "gr must be"),
        ('{"generators": [{"id": "x", "gr": [0.5, 0]}]}', "gr must be"),
        ('{"generators": [{"id": "x", "gr": [0, 0]}],'
         ' "differential": {"y": []}}', "unknown generator 'y'"),
        ('{"generators": [{"id": "x", "gr": [0, 0]}],'
         ' "differential": {"x": [["y", 0, 0]]}}', "unknown generator 'y'"),
        ('{"generators": [{"id": "x", "gr": [0, 0]}],'
         ' "differential": {"x": [["x", 0.5, 0]]}}', "non-integer exponent"),
        ('{"generators": {"x": [0, 0]}}', "generators must be a list"),
        ('{"name": ["n"], "generators": [{"id": "x", "gr": [0, 0]}]}',
         "name must be a string"),
        ('{"generators": [{"id": "x", "gr": [0, 0]}], "phi": []}',
         "phi: must be an object"),
        ('{"generators": [{"id": "x", "gr": [0, 0], "grade": 1}]}',
         "generator 'x': unknown key 'grade'"),
        ('{"generators": [{"id": "x", "gr": [0, 0]}], "Iota": {}}',
         "top level: unknown key 'Iota'"),
        ('{"generators": [{"id": "x", "gr": [0, 0]}],'
         ' "iota": {"mode": "skew", "map": {}, "note": ""}}',
         "iota: unknown key 'note'"),
    ])
    def test_malformed_input_is_a_parse_error(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_complex_text(text)

    def test_json_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_complex_text('{"generators": [,]}')
        assert err.value.line == 1
        assert err.value.column is not None

    def test_to_dict_stable_ordering(self, fig8):
        assert list(to_dict(fig8)) == ["name", "generators", "differential",
                                       "phi", "iota"]
