"""Exact shortcuts on the split path against the routes they replace.

* ``homotopy_inverse`` inverts phi's bit matrix and reduces the inverse
  modulo null-homotopic maps when phi is an isomorphism; the result must
  be the lexmin solution of the three-unknown homotopy-inverse system,
  column for column.  A singular phi still takes the solve.
* ``verdict_split`` skips the S^3 check of the tensor when both factors
  pass it (Kuenneth); the full check must then pass as well.
* ``MapSystem._columns`` places rows without monomials; columns and rhs
  must be those of the per-bit assembly, laid out on the coordinates of
  each equation's value shape, bit for bit.
"""

import hashlib
import json
import random

import pytest

from conftest import random_s3_models, scramble
from corkscrew.complexes import (
    SKEW,
    STRAIGHT,
    Endomorphism,
    KnotComplex,
    PhiIotaComplex,
    direct_sum,
    dual,
    sarkar_map,
    shift,
    tensor,
    to_dict,
    validate,
)
from corkscrew.homotopy import (
    MapSystem,
    _bit_inverse,
    _solve_inverse,
    homotopic,
    homotopy_inverse,
    local_map_exists,
    self_local_space,
)
from corkscrew.models import (
    BUNDLED,
    bundled,
    figure_eight_iota_only,
    involution_candidates,
    phi_iota_from_dict,
    torus_model,
)
from corkscrew.verdicts import verdict_split
from oracle import reference_columns_per_bit

NON_IDENTITY_PHI = sorted(
    name for name in BUNDLED
    if bundled(name).phi != bundled(name).complex.identity())
SCRAMBLED = ("4_1", "4_1_s", "4_1x4_1_tau", "4_1x4_1_s")


def _singular_phi():
    """4_1's tau direct-summed with the zero map on an acyclic pair p -> q:
    a homotopy equivalence whose bit matrix is singular."""
    x = bundled("4_1")
    pair = KnotComplex("pair", ("p", "q"), ((1, 1), (0, 0)), (0b10, 0))
    cx = direct_sum(x.complex, pair, name="4_1+pair")
    phi = Endomorphism(cx, cx, x.phi.cols + (0, 0), STRAIGHT, (0, 0))
    iota = Endomorphism(cx, cx, x.iota.cols + (1 << 5, 1 << 6), SKEW, (0, 0))
    return cx, phi, iota


# the lexmin inverse the solve gave before the bit-matrix route existed:
# tau^-1 on 4_1 and zero on the pair
SINGULAR_INVERSE = (17, 19, 4, 8, 16, 0, 0)


# -- phi^-1 -------------------------------------------------------------------

def test_non_identity_phi_models_are_the_expected_ones():
    assert set(SCRAMBLED) <= set(NON_IDENTITY_PHI)


@pytest.mark.parametrize("name", NON_IDENTITY_PHI)
def test_bundled_phi_inverse_matches_the_solve(name):
    x = bundled(name)
    assert _bit_inverse(x.complex, x.phi) is not None
    got = homotopy_inverse(x.complex, x.phi)
    assert got.cols == _solve_inverse(x.complex, x.phi).cols


@pytest.mark.parametrize("name", SCRAMBLED)
def test_scrambled_phi_inverse_matches_the_solve(name):
    rng = random.Random(f"phi inverse {name}")
    for _ in range(20):
        x = scramble(bundled(name), rng)
        assert _bit_inverse(x.complex, x.phi) is not None
        got = homotopy_inverse(x.complex, x.phi)
        assert got.cols == _solve_inverse(x.complex, x.phi).cols
        assert got.mode == STRAIGHT and got.bidegree == (0, 0)


def test_non_reduced_phi_inverse_matches_the_solve():
    """On 4_1 plus an acyclic pair, tau + id is invertible but the pair's
    identity is null-homotopic, so the raw inverse of the bit matrix is
    not the lexmin one; the reduction must give the solve's answer."""
    x = bundled("4_1")
    cx, _, iota = _singular_phi()
    pair_id = (1 << 5, 1 << 6)
    y = PhiIotaComplex(
        cx, Endomorphism(cx, cx, x.phi.cols + pair_id, STRAIGHT, (0, 0)),
        iota, Endomorphism(cx, cx, x.phi_inverse.cols + pair_id, STRAIGHT,
                           (0, 0)))
    rng = random.Random("non-reduced phi inverse")
    for z in [y] + [scramble(y, rng) for _ in range(20)]:
        raw = _bit_inverse(z.complex, z.phi)
        got = homotopy_inverse(z.complex, z.phi)
        assert got.cols == _solve_inverse(z.complex, z.phi).cols
        assert got.cols != raw.cols


def test_singular_phi_takes_the_solve(monkeypatch):
    cx, phi, iota = _singular_phi()
    assert _bit_inverse(cx, phi) is None
    solves = []
    solve = MapSystem.solve

    def counted(self, lexmin=False):
        solves.append(self.total)
        return solve(self, lexmin)

    monkeypatch.setattr(MapSystem, "solve", counted)
    assert homotopy_inverse(cx, phi).cols == SINGULAR_INVERSE
    assert len(solves) == 1
    # the parse of the same file goes the same way
    doc = to_dict(PhiIotaComplex(cx, phi, iota))
    assert phi_iota_from_dict(doc).phi_inverse.cols == SINGULAR_INVERSE


def test_parse_skips_the_solve_for_an_invertible_phi(monkeypatch):
    x = scramble(bundled("4_1x4_1_tau"), random.Random(3))
    monkeypatch.setattr(MapSystem, "solve", None)  # any call fails
    y = phi_iota_from_dict(to_dict(x))
    assert y.phi_inverse == homotopy_inverse(x.complex, x.phi)
    assert y.phi.compose(y.phi_inverse) == y.complex.identity()


def test_non_chain_phi_still_fails_to_parse():
    """An invertible phi that is not a chain map is left to the solve,
    which finds no inverse, as before."""
    from corkscrew.errors import ValidationError

    doc = to_dict(bundled("4_1"))
    doc["phi"]["map"] = {g: [[g, 0, 0]] for g in "xabcd"}
    doc["phi"]["map"]["x"].append(["a", 0, 0])
    with pytest.raises(ValidationError, match="phi has no homotopy inverse"):
        phi_iota_from_dict(doc)


# -- Kuenneth gate ------------------------------------------------------------

def _s3(x) -> bool:
    report = validate(x.complex, require_s3_type=True)
    return report.ok and bool(report.s3_type)


def _ladder_pairs():
    f = figure_eight_iota_only()
    double = tensor(f, f)
    t3, t5 = torus_model(3), torus_model(5)
    return {
        "4_1|4_1": (f, f),
        "(4_1)^2|4_1": (double, f),
        "T2_3|-T2_3": (t3, dual(t3)),
        "T2_3|T2_5": (t3, t5),
        "T2_5|-T2_5": (t5, dual(t5)),
        "T2_3^2|-T2_3": (tensor(t3, t3), dual(t3)),
    }


@pytest.mark.parametrize("name", sorted(_ladder_pairs()))
def test_tensor_of_s3_factors_passes_the_full_check(name):
    x1, x2 = _ladder_pairs()[name]
    assert _s3(x1) and _s3(x2)
    assert _s3(tensor(x1, x2))


def test_tensor_of_scrambled_s3_factors_passes_the_full_check():
    xs = random_s3_models(seed=41, count=16)
    checked = 0
    for x1, x2 in zip(xs[::2], xs[1::2]):
        if _s3(x1) and _s3(x2):
            assert _s3(tensor(x1, x2))
            checked += 1
    assert checked == 8


def _shifted(x, by):
    cx = shift(x.complex, by, name=f"{x.complex.name}{list(by)}")

    def carry(f, mode):
        return Endomorphism(cx, cx, f.cols, mode, (0, 0))

    return PhiIotaComplex(cx, carry(x.phi, STRAIGHT), carry(x.iota, SKEW),
                          carry(x.phi_inverse, STRAIGHT))


def test_shifted_factors_keep_their_split_outcome():
    """Factors shifted by (2, 2) and (-2, -2) fail the S^3 check, so the
    tensor gets the full one, and passes it; the verdict and certificate
    are those recorded before the gate existed."""
    x = bundled("4_1x4_1_tau")
    a, b = _shifted(x, (2, 2)), _shifted(x, (-2, -2))
    assert not _s3(a) and not _s3(b) and _s3(tensor(a, b))
    v = verdict_split(a, b, 1)
    blob = json.dumps([v.to_json_dict(), v.reason, v.certificate],
                      sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "a9ce6b2da39cb29fe868efc9c98420c010e2b020f69ef4964e5ad274486fe17a")


def test_a_shifted_factor_still_fails_the_tensor_check():
    """One factor shifted by (2, 2): the tensor's tower top sits at (2, 2),
    and the full check on it still refuses the split question."""
    from corkscrew.errors import ValidationError

    x = bundled("4_1x4_1_tau")
    with pytest.raises(ValidationError, match=r"tower top sits at \(2, 2\)"):
        verdict_split(_shifted(x, (2, 2)), x, 1)


# -- whole-column assembly ----------------------------------------------------

@pytest.fixture
def rows_checked(monkeypatch):
    """Every system assembled from here on is compared with the per-bit
    assembly; returns the list of their sizes."""
    seen = []
    columns = MapSystem._columns

    def checked(self):
        got = columns(self)
        assert got == reference_columns_per_bit(self)
        seen.append(self.total)
        return got

    monkeypatch.setattr(MapSystem, "_columns", checked)
    return seen


SMALL = ("unknot", "4_1", "4_1_s", "T2_3", "T2_5", "mirror_T2_3",
         "stair_box_3")


def _with_scrambles(names, seed):
    rng = random.Random(seed)
    out = []
    for name in names:
        out.append(bundled(name))
        out.append(scramble(bundled(name), rng))
    return out


def test_rows_of_local_systems(rows_checked):
    x2 = scramble(bundled("4_1x4_1_tau"), random.Random(5))
    pairs = [(bundled(a), bundled(b)) for a, b in (
        ("4_1", "4_1"), ("4_1", "4_1x4_1_tau"), ("T2_3", "T2_3#T2_3"),
        ("4_1x4_1_tau", "4_1"), ("4_1_s", "4_1x4_1_s"))]
    pairs.append((dual(x2), x2))
    for x1, y in pairs:
        local_map_exists(x1, y)
    assert len(rows_checked) >= len(pairs)


def test_rows_of_singular_inverse_systems(rows_checked):
    cx, phi, iota = _singular_phi()
    x = PhiIotaComplex(cx, phi, iota, Endomorphism(
        cx, cx, SINGULAR_INVERSE, STRAIGHT, (0, 0)))
    rng = random.Random(7)
    for y in [x] + [scramble(x, rng) for _ in range(3)]:
        assert _bit_inverse(y.complex, y.phi) is None
        assert homotopy_inverse(y.complex, y.phi) is not None
    assert len(rows_checked) == 4


def test_rows_of_homotopy_systems(rows_checked):
    for x in _with_scrambles(SMALL + ("4_1x4_1_tau",), 11):
        cx = x.complex
        homotopic(sarkar_map(cx), cx.identity())
        homotopic(x.iota.compose(x.iota), sarkar_map(cx))
    assert rows_checked


def test_rows_of_involution_and_self_map_systems(rows_checked):
    for x in _with_scrambles(SMALL, 13):
        involution_candidates(x.complex)
        self_local_space(x)
    assert len(rows_checked) >= 2 * 2 * len(SMALL)
