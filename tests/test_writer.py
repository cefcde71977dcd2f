"""The canonical JSON writer against the writer as first written.

* ``canonical_json`` encodes each leaf once; on any nested value it must
  give the bytes of ``oracle.reference_canonical_json``, or raise the same
  ``TypeError`` with the same message.
* ``encode_columns`` reads each triple straight off a column's bits; it
  must equal ``oracle.reference_encode_columns``, which goes through the
  ``entries`` tuples, on scrambled bundled models and tensor products.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import scramble
from corkscrew import complexes
from corkscrew.complexes import (
    canonical_json,
    encode_columns,
    sarkar_map,
    serialize,
    tensor,
    to_dict,
)
from corkscrew.models import BUNDLED, bundled
from oracle import reference_canonical_json, reference_encode_columns


def _written(write, value):
    try:
        return write(value)
    except TypeError as exc:
        return ("TypeError", str(exc))


_TEXT = st.text(alphabet=st.one_of(st.sampled_from('{}[]"\\,: \n'),
                                   st.characters()), max_size=6)
_SCALARS = st.one_of(_TEXT, st.integers(), st.booleans(), st.none(),
                     st.floats())
_KEYS = st.one_of(_TEXT, st.integers(), st.tuples(st.integers(), _TEXT))
# lists and dicts are drawn more often than tuples and sets, so most
# values serialise
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(st.lists(inner, max_size=3), max_size=3),
        st.dictionaries(_KEYS, inner, max_size=4),
        st.lists(st.lists(st.dictionaries(_KEYS, inner, max_size=2),
                          max_size=2), max_size=2),
        st.tuples(inner, inner),
        st.sets(st.integers(), max_size=2)),
    max_leaves=12)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(value=_VALUES)
def test_writer_matches_the_reference(value):
    assert _written(canonical_json, value) == _written(
        reference_canonical_json, value)


_HAND_MADE = [
    ["{", "}", "a{b}c"],
    [[1, 2], ["}{", [3]]],
    {"k": [[1, (2,)]]},
    [1, [2, [3, (4, 5)]]],
    [1, {"a": 2}],
    [{(1, 2): [3]}, {4: "x"}],
    [[{1.5: None}]],
    [1, {2}],
    (1, 2),
    {"a": {"b": [], "c": {}}},
    ["café", "\"quoted\"", "back\\slash"],
    [float("nan"), float("inf"), -0.0],
    ["{", (1,)],
    [{"a": 1}, 2],
]


@pytest.mark.parametrize("value", _HAND_MADE, ids=repr)
def test_writer_matches_the_reference_on_hand_made_values(value):
    assert _written(canonical_json, value) == _written(
        reference_canonical_json, value)


def test_writer_without_the_c_encoder(monkeypatch):
    """Where json has no C encoder, ``JSONEncoder.encode`` writes leaves."""
    monkeypatch.setattr(complexes, "_C_ENCODE", None)
    for value in _HAND_MADE + [to_dict(bundled("4_1x4_1_tau"))]:
        assert _written(canonical_json, value) == _written(
            reference_canonical_json, value)


def test_a_tuple_anywhere_raises():
    for value in ((1,), [(1,)], [[1, [2, (3,)]]], {"a": [1, (2,)]}):
        with pytest.raises(TypeError, match="cannot serialise <class "
                                            "'tuple'>"):
            canonical_json(value)


def _models():
    for name in sorted(BUNDLED):
        for seed in range(3):
            yield f"{name}/{seed}", scramble(bundled(name),
                                             random.Random(seed))
    x = scramble(bundled("4_1x4_1_tau"), random.Random(5))
    yield "4_1x4_1_tau(x)4_1", tensor(x, scramble(bundled("4_1"),
                                                  random.Random(6)))
    yield "T2_3(x)4_1_iota", tensor(bundled("T2_3"), bundled("4_1_iota"))


_MODELS = dict(_models())


@pytest.mark.parametrize("key", sorted(_MODELS))
def test_columns_match_the_reference(key):
    x = _MODELS[key]
    cx = x.complex
    for f in (cx.boundary(), x.phi, x.iota, sarkar_map(cx), cx.identity()):
        assert encode_columns(f) == reference_encode_columns(f)
    assert serialize(x) == reference_canonical_json(to_dict(x)) + "\n"
