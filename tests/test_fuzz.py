"""Seeded end-to-end stress: every pipeline stage on scrambled models."""

import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from corkscrew.complexes import (
    iota_complex,
    sarkar_map,
    serialize,
    tensor,
    to_dict,
    validate,
)
from corkscrew.connected import connected_complex, s_nontrivial
from corkscrew.errors import CorkscrewError, ParseError
from corkscrew.homotopy import homotopic, local_map_exists
from corkscrew.invariants import delta, delta_zero_iff_local
from corkscrew.models import (
    bundled,
    figure_eight_iota_only,
    parse_complex_text,
    staircase_model,
    thin_model,
    torus_model,
    trivial,
    unknot,
)

from conftest import random_s3_models, scramble
from oracle import brute_delta


def test_pipeline_on_scrambled_models():
    for x in random_s3_models(seed=9001, count=12):
        rep = validate(x.complex, require_s3_type=True)
        assert rep.ok and rep.s3_type, x.complex.name
        res = connected_complex(x)
        if res.method == "exact-standard":
            assert res.caveat is None
            comp = res.projection.compose(res.inclusion)
            assert comp == res.conn.complex.identity()
        else:
            assert res.caveat
        tw = s_nontrivial(x)
        assert tw.nontrivial in (True, False)
        delta_zero_iff_local(x)  # raises on route disagreement


def test_delta_matches_the_oracle_on_scrambles():
    rng = random.Random(60)
    bases = [torus_model(5), thin_model(2, True), thin_model(-1, True),
             staircase_model(2)]
    for base in bases:
        want = brute_delta(base)
        assert delta(base).delta == want, base.complex.name
        for _ in range(2):
            y = scramble(base, rng, moves=7)
            assert delta(y).delta == want, base.complex.name


def test_dualized_double_delta_matches_oracle():
    from corkscrew.complexes import dual
    from corkscrew.models import bundled
    y = dual(bundled("4_1x4_1_tau"))
    assert delta(y).delta == brute_delta(y) == 1


def test_torus_tower_depths():
    # deeper staircases push the obstruction up; pinned from the oracle
    for q, want in [(3, 1), (5, 1), (7, 2)]:
        x = torus_model(q)
        assert brute_delta(x) == want
        assert delta(x).delta == want


def test_shifted_tower_fails_the_shape_check():
    from corkscrew.complexes import KnotComplex
    cx = KnotComplex("shifted", ("u",), ((2, 0),), (0,))
    rep = validate(cx, require_s3_type=True)
    assert rep.ok and rep.s3_type is False
    assert "tower top" in rep.first_violation


def test_local_maps_between_scrambled_copies_exist_both_ways():
    rng = random.Random(71)
    base = iota_complex(figure_eight_iota_only().complex,
                        figure_eight_iota_only().iota)
    other = scramble(base, rng, moves=9)
    assert local_map_exists(base, other).exists
    assert local_map_exists(other, base).exists


def test_twist_squares_to_identity_on_scrambled_tensors():
    rng = random.Random(83)
    x = scramble(tensor(torus_model(3), figure_eight_iota_only()), rng,
                 moves=6)
    s = sarkar_map(x.complex)
    assert homotopic(s.compose(s), x.complex.identity()) is not None


def test_unknot_tensor_chain_is_locally_trivial():
    x = tensor(tensor(unknot(), unknot()), trivial())
    assert delta(x).delta == 0
    assert local_map_exists(trivial(), x).exists


_IDS = st.sampled_from(["a", "b", "x", "y0", "u0", "straight", "skew"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(-3, 3, allow_nan=False) | st.text(max_size=2) | _IDS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6)


def _paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, path + (i,))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_parse_round_trips_or_raises_a_library_error(data):
    """Mutated bundled fixtures: each edit deletes one value anywhere in
    the document or replaces it by a value of its own kind or by any JSON
    value (the root only when nothing is left under it)."""
    name = data.draw(st.sampled_from(
        ["unknot", "4_1", "4_1_iota", "4_1_s", "T2_3", "mirror_T2_3",
         "stair_box_3"]))
    doc = {"doc": to_dict(bundled(name))}
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(doc["doc"]))[1:] or [()]
        path = ("doc",) + data.draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        kind = data.draw(st.sampled_from(["delete", "alike", "any"]))
        if kind == "delete" and len(path) > 1:
            del parent[path[-1]]
        elif kind == "alike" and isinstance(old, (int, str)):
            parent[path[-1]] = data.draw(
                st.integers(-3, 3) if isinstance(old, int) else _IDS)
        else:
            parent[path[-1]] = data.draw(_JSON)
    text = json.dumps(doc["doc"])
    try:
        x = parse_complex_text(text)
    except CorkscrewError:
        return
    canon = serialize(x)
    assert serialize(parse_complex_text(canon)) == canon


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_half_integer_alexander_grading_is_a_parse_error(data):
    """Mutated bundled fixtures: one generator's gr_u or gr_v moves by an
    odd amount, which leaves its Alexander grading a half-integer; the
    parser names that generator."""
    name = data.draw(st.sampled_from(
        ["unknot", "4_1", "4_1_iota", "4_1_s", "T2_3", "mirror_T2_3",
         "stair_box_3"]))
    doc = to_dict(bundled(name))
    gen = data.draw(st.sampled_from(doc["generators"]))
    gen["gr"][data.draw(st.integers(0, 1))] += data.draw(
        st.sampled_from([-3, -1, 1, 3]))
    with pytest.raises(ParseError, match=re.escape(
            f"generator {gen['id']!r}: gr_u - gr_v must be even")):
        parse_complex_text(json.dumps(doc))
