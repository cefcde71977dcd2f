"""The one-pass file decoder against the set-of-monomials decoder it
replaced (``oracle.reference_decode_matrix``): the same bit columns on
every well-formed map, and the same exception, message included, on
malformed ones."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import scramble
from corkscrew.algebra import slice_monomial
from corkscrew.complexes import (
    SKEW,
    STRAIGHT,
    Endomorphism,
    KnotComplex,
    _decode_matrix,
    entries,
    serialize,
    to_dict,
)
from corkscrew.models import BUNDLED, bundled, parse_complex_text
from oracle import reference_decode_matrix

# (label, mode, bidegree) of the three maps a file carries
MAPS = (("differential", STRAIGHT, (-1, -1)),
        ("phi", STRAIGHT, (0, 0)),
        ("iota", SKEW, (0, 0)))


def _raw_maps(x) -> dict:
    doc = to_dict(x)
    return {"differential": doc["differential"], "phi": doc["phi"]["map"],
            "iota": doc["iota"]["map"]}


def _noisy(raw: dict, rng: random.Random) -> dict:
    """The same map written another way: every column shuffled, with a
    repeated copy of one of its triples and a cancelling pair of an
    arbitrary triple added, so the mod-2 sums do the work."""
    gens = sorted({g for col in raw.values() for g, _, _ in col} | set(raw))
    out = {}
    for src, col in raw.items():
        col = [list(e) for e in col]
        if col:
            col += [list(rng.choice(col))] * 2
        extra = [rng.choice(gens), rng.randrange(3), rng.randrange(3)]
        col += [extra, list(extra)]
        rng.shuffle(col)
        out[src] = col
    return out


def _both(cx, raw, label, mode, bidegree):
    """(kind, value) of each decoder: ("ok", cols) or ("err", (type,
    message))."""
    out = []
    for decode in (_decode_matrix, reference_decode_matrix):
        try:
            out.append(("ok", tuple(decode(cx, raw, label, mode, bidegree))))
        except Exception as exc:  # compared, never swallowed
            out.append(("err", (type(exc).__name__, str(exc))))
    return out


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_same_columns_on_bundled_models_and_scrambles(name):
    x = bundled(name)
    rng = random.Random(f"decode-{name}")
    copies = [x] + [scramble(x, rng) for _ in range(20)]
    for y in copies:
        cx = y.complex
        expected = {"differential": cx.diff, "phi": y.phi.cols,
                    "iota": y.iota.cols}
        text = serialize(y)
        assert serialize(parse_complex_text(text)) == text
        raws = _raw_maps(y)
        for label, mode, bidegree in MAPS:
            for raw in (raws[label], _noisy(raws[label], rng)):
                got = _decode_matrix(cx, raw, label, mode, bidegree)
                assert got == expected[label]
                assert got == reference_decode_matrix(cx, raw, label, mode,
                                                      bidegree)


# -- malformed columns -----------------------------------------------------------

COMPLEXES = (bundled("4_1").complex, bundled("stair_box_5").complex)
BAD_VALUES = ({}, "col", None, 3, ("b", 0, 0))


@st.composite
def _entry(draw, cx, expect):
    kind = draw(st.integers(0, 9))
    gens = cx.generators
    if kind <= 4:  # the forced triple of a target, when there is one
        t = draw(st.integers(0, cx.n - 1))
        m = slice_monomial(cx.gradings[t], expect)
        if m is not None:
            return [gens[t], m[0], m[1]]
    if kind <= 7:  # any monomial at a known target
        return [draw(st.sampled_from(gens)), draw(st.integers(0, 2)),
                draw(st.integers(0, 2))]
    if kind == 8:  # an unknown target, or a bool, float or negative exponent
        entry = [draw(st.sampled_from(gens)), draw(st.integers(0, 2)),
                 draw(st.integers(0, 2))]
        slot = draw(st.integers(0, 2))
        entry[slot] = draw(st.sampled_from(("zz", 0)) if slot == 0 else
                           st.sampled_from((-1, True, False, 0.0, 1.5)))
        return entry
    return draw(st.sampled_from(BAD_VALUES + (["a", 0], [0, 0, 0, 0])))


@st.composite
def _malformed(draw):
    cx = draw(st.sampled_from(COMPLEXES))
    label, mode, bidegree = draw(st.sampled_from(MAPS))
    if draw(st.integers(0, 30)) == 30:
        return cx, draw(st.sampled_from(BAD_VALUES[1:])), label, mode, bidegree
    raw = {}
    sources = draw(st.lists(st.integers(0, cx.n - 1), max_size=4,
                            unique=True))
    for s in sources:
        src = cx.generators[s]
        if draw(st.integers(0, 20)) == 20:
            src = "zz"  # an unknown source
        if draw(st.integers(0, 15)) == 15:
            raw[src] = draw(st.sampled_from(BAD_VALUES))
            continue
        g = cx.gradings[s]
        if mode == SKEW:
            g = (g[1], g[0])
        expect = (g[0] + bidegree[0], g[1] + bidegree[1])
        col = draw(st.lists(_entry(cx, expect), max_size=6))
        # repeat some entries, forced or not, so that pairs cancel
        col += draw(st.lists(st.sampled_from(col), max_size=3)) if col else []
        raw[src] = draw(st.permutations(col))
    return cx, raw, label, mode, bidegree


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_malformed())
def test_same_answer_or_error_on_malformed_columns(case):
    cx, raw, label, mode, bidegree = case
    new, old = _both(cx, raw, label, mode, bidegree)
    assert new == old


@pytest.mark.parametrize("column, message", [
    ([["b", 0, 0], ["b", 0, 0]], None),
    ([["b", 1, 0], ["b", 1, 0]], None),
    ([["b", 1, 0]], "differential bidegree violated at a->b"),
    ([["b", 1, 0], ["b", 0, 1]], "differential bidegree violated at a->b"),
    ([["b", 1, 0], ["b", 0, 0]], "differential bidegree violated at a->b"),
    ([["a", 0, 0], ["b", 1, 0]], "differential bidegree violated at a->a"),
    ([["b", True, 0]], "differential: non-integer exponent in ['b', True, 0]"),
    ([["b", 0.0, 0]], "differential: non-integer exponent in ['b', 0.0, 0]"),
    ([["b", -1, 0]], "differential: negative exponent in ['b', -1, 0]"),
    ([["b", 0, -2]], "differential: negative exponent in ['b', 0, -2]"),
    ([["b", 1, 0], ["z", 0, 0]], "differential: unknown generator 'z'"),
    ([["b", 1, 0], ["b", 0]],
     "differential: entry ['b', 0] is not a [target, u_exp, v_exp] triple"),
    ("b", "differential: column 'a' must be a list"),
])
def test_pinned_columns(column, message):
    cx = KnotComplex("ab", ("a", "b"), ((0, 0), (-1, -1)), (0, 0))
    new, old = _both(cx, {"a": column}, "differential", STRAIGHT, (-1, -1))
    assert new == old
    if message is None:
        assert new == ("ok", (0, 0))
    else:
        assert new[1][1] == message


def test_unknown_source_comes_before_its_column_type():
    cx = bundled("4_1").complex
    new, old = _both(cx, {"zz": "not a list"}, "phi", STRAIGHT, (0, 0))
    assert new == old == ("err", ("ParseError", "phi: unknown generator 'zz'"))


@pytest.mark.parametrize("name", ["4_1", "4_1x4_1_tau", "stair_box_5"])
def test_entries_read_the_forced_monomial_or_none(name):
    # every bit set, so most entries have no monomial at all
    x = bundled(name)
    cx = x.complex
    for mode, bidegree in ((STRAIGHT, (-1, -1)), (SKEW, (0, 0)),
                           (STRAIGHT, (1, -1)), (SKEW, (2, 0))):
        f = Endomorphism._graded(cx, cx, [(1 << cx.n) - 1] * cx.n, mode,
                                 bidegree)
        for s in range(cx.n):
            g = cx.gradings[s]
            if mode == SKEW:
                g = (g[1], g[0])
            expect = (g[0] + bidegree[0], g[1] + bidegree[1])
            assert entries(f, s) == [
                (t, slice_monomial(cx.gradings[t], expect))
                for t in range(cx.n)]
