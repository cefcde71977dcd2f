"""Local maps between iota-complexes, solved without the phi block.

When both phi are the identity, ``_local_system`` drops H_phi and the phi
equation.  ``oracle.reference_local_system`` keeps them; on every pair
below ``local_map_exists`` must give the reference's answer, its f and
H_iota bit for bit, and the zero H_phi that the reference's solution also
has.  A refutation's combo must refute the system that was solved:
y A = 0 and y b = 1 on its columns.  Pairs where a phi is not the
identity keep the block and must match the reference's H_phi too.

The work counts pin what the certificate no longer repeats: one
transpose per distinct right-hand map in an assembly, and no re-wrap of
an input whose phi is already the identity.
"""

import functools
import random

import pytest

from conftest import scramble
from corkscrew.algebra import parity
from corkscrew.complexes import iota_complex, tensor
from corkscrew.connected import connected_complex
from corkscrew.homotopy import Right, _local_system, local_map_exists
from corkscrew.models import BUNDLED, bundled, thin_model, torus_model
from oracle import reference_local_system


def _iota_only(x):
    return iota_complex(x.complex, x.iota)


def _is_identity(f) -> bool:
    return f.cols == tuple(1 << i for i in range(f.source.n))


def _torus_sum(*qs):
    x = torus_model(qs[0])
    for q in qs[1:]:
        x = tensor(x, torus_model(q))
    return x


MODELS = {f"{name}[iota]": functools.partial(
    lambda name: _iota_only(bundled(name)), name) for name in BUNDLED}
for _tau in (-2, -1, 0, 1, 2):
    for _odd in (False, True):
        MODELS[f"thin({_tau},{_odd})"] = functools.partial(
            thin_model, _tau, _odd)
for _qs in ((3, -3), (3, 5), (5, -5)):
    MODELS[f"T{_qs}"] = functools.partial(_torus_sum, *_qs)


@functools.lru_cache(maxsize=None)
def _model(name):
    return MODELS[name]()


def _check(x1, x2) -> bool:
    """local_map_exists x1 -> x2 against the reference system; returns
    whether a local map exists."""
    hom1 = x1.diagonal
    t_cycle = hom1.tower_rep
    mask = x2.diagonal.tower_mask(hom1.tower_top)
    want, _ = reference_local_system(x1, x2, t_cycle, mask).solve()
    got = local_map_exists(x1, x2)
    iota_pair = _is_identity(x1.phi) and _is_identity(x2.phi)
    sys_ = _local_system(x1, x2, t_cycle, mask)
    assert ("hp" in sys_.shapes) == (not iota_pair)
    assert got.exists == (want is not None)
    if want is not None:
        assert got.f.cols == want["f"].cols
        assert got.h_iota.cols == want["hi"].cols
        if iota_pair:
            assert got.h_phi.is_zero() and want["hp"].is_zero()
        else:
            assert got.h_phi.cols == want["hp"].cols
        assert (got.h_phi.mode, got.h_phi.bidegree) == ("straight", (1, 1))
        return True
    cols, rhs, height = sys_._columns()
    combo = got.obstruction["combo"]
    assert combo >> height == 0
    assert not any(parity(col & combo) for col in cols)
    assert parity(rhs & combo) == 1
    return False


@pytest.mark.parametrize("source", sorted(MODELS))
def test_iota_pairs_match_the_system_with_its_phi_block(source):
    """Every model against every model of at most 25 generators, as
    built, and a scramble of it against a scramble of each; the answer
    does not depend on the scramble."""
    x1 = _model(source)
    for k, target in enumerate(sorted(MODELS)):
        x2 = _model(target)
        if x2.complex.n > 25:
            continue
        assert _check(x1, x2) == _check(
            scramble(x1, random.Random(k)),
            scramble(x2, random.Random(k + 100))), target


def test_refutations_are_among_the_pairs():
    """Both answers occur: a torus knot of positive tau maps to a thin
    knot of tau 0, and not back."""
    x, y = _model("T2_3[iota]"), _model("thin(0,True)")
    assert _check(x, y) and not _check(y, x)


@pytest.mark.parametrize("power", [2, 3])
def test_tensor_powers_against_their_models_both_ways(power):
    """(4_1)^2 and (4_1)^3 with phi = id, as built and under two
    scrambles, against the connected model of each, in both
    directions: both maps exist."""
    base = _iota_only(bundled("4_1"))
    x = base
    for _ in range(power - 1):
        x = tensor(x, base)
    assert x.complex.n == 5 ** power
    for seed in (None, 1, 2):
        y = x if seed is None else scramble(x, random.Random(seed))
        conn = connected_complex(y).conn
        assert conn.complex.n < y.complex.n
        assert _check(y, conn) and _check(conn, y)


@pytest.mark.parametrize("pair", [
    ("4_1", "4_1"), ("4_1", "4_1[iota]"), ("4_1[iota]", "4_1"),
    ("4_1_s", "thin(1,True)"), ("4_1x4_1_tau", "4_1[iota]"),
    ("T(3, -3)", "4_1x4_1_s"), ("4_1_s", "4_1x4_1_tau"),
])
def test_pairs_with_a_phi_keep_the_block(pair):
    """A phi other than the identity on either side keeps H_phi in the
    system, and its solution is the reference's, H_phi included."""
    x1, x2 = (bundled(name) if name in BUNDLED else _model(name)
              for name in pair)
    assert not (_is_identity(x1.phi) and _is_identity(x2.phi))
    _check(x1, x2)
    _check(scramble(x1, random.Random(1)), scramble(x2, random.Random(2)))


# -- work counts ----------------------------------------------------------------

def _distinct_rights(sys_) -> int:
    return len({id(op.map) for terms, _ in sys_.equations
                for _, ops in terms for op in ops if isinstance(op, Right)})


@pytest.mark.parametrize("pair, distinct", [
    (("4_1", "4_1"), 3),  # d, phi and iota of the source
    (("4_1_iota", "T2_3"), 2),  # d and iota: no phi block
])
def test_each_right_map_is_transposed_once_per_assembly(monkeypatch, pair,
                                                        distinct):
    from corkscrew import homotopy

    x1, x2 = (bundled(name) for name in pair)
    hom1 = x1.diagonal
    sys_ = _local_system(x1, x2, hom1.tower_rep,
                         x2.diagonal.tower_mask(hom1.tower_top))
    assert _distinct_rights(sys_) == distinct
    calls = []
    real = homotopy.transpose_cols

    def counting(cols, n):
        calls.append(cols)
        return real(cols, n)

    monkeypatch.setattr(homotopy, "transpose_cols", counting)
    want = sys_._columns()
    assert len(calls) == distinct
    # each assembly transposes afresh: nothing outlives the call
    assert sys_._columns() == want
    assert len(calls) == 2 * distinct


def test_connected_complex_reads_the_diagonal_of_the_input_itself(
        monkeypatch):
    """A scrambled (4_1)^2 with phi = id goes through the local-map
    certificate, which builds the diagonal homology of x itself: one
    diagonal subcomplex of x's complex, taken from x."""
    from corkscrew import invariants

    x = scramble(bundled("4_1x4_1_id"), random.Random(3))
    assert _is_identity(x.phi)
    seen = []
    real = invariants.a0

    def recording(y):
        seen.append(y)
        return real(y)

    monkeypatch.setattr(invariants, "a0", recording)
    res = connected_complex(x)
    assert res.method == "exact-standard"
    assert set(res.certificates) == {"down", "up"}
    assert res.conn.complex.n < x.complex.n
    assert "diagonal" in vars(x)
    on_x = [y for y in seen if y.complex == x.complex]
    assert len(on_x) == 1 and on_x[0] is x
