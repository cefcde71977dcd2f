"""Acceptance gate: one test per criterion, each printing a pass/fail line
with its runtime (see the terminal summary), every tolerance pinned."""

import json
import time
from contextlib import contextmanager

from corkscrew.algebra import mat_vec, parity
from corkscrew.complexes import dual, sarkar_map, tensor
from corkscrew.connected import connected_complex, s_nontrivial
from corkscrew.homotopy import commutes_up_to_homotopy, homotopic
from corkscrew.invariants import (
    DiagonalHomology,
    a0,
    delta,
    delta_zero_iff_local,
)
from corkscrew.knot_table import bundled_table, census_names
from corkscrew.models import (
    box_complex,
    bundled,
    figure_eight_iota_only,
    figure_eight_with_actions,
    staircase_with_box,
    thin_model,
    torus_model,
    trivial,
    unknot,
)
from corkscrew.verdicts import (
    INCONCLUSIVE,
    STRONG_CORK,
    KnotDescriptor,
    cor13_arithmetic,
    cor51_rule,
    replay_certificate,
    torus_2_arf,
    verdict_delta,
    verdict_gompf,
    verdict_periodic,
    verdict_split,
)

from conftest import random_chain_maps, random_s3_models
from oracle import P_ONE, brute_delta, dict_cols

RESULTS = []


@contextmanager
def criterion(num, desc, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        RESULTS.append((num, "FAIL", time.perf_counter() - t0, desc))
        raise
    dt = time.perf_counter() - t0
    assert dt < budget_s, f"criterion {num} took {dt:.1f}s > {budget_s}s"
    RESULTS.append((num, "PASS", dt, desc))


PAPER_LIST = ["4_1", "5_2", "6_3", "7_4", "7_5", "7_7", "8_1", "8_2",
              "8_6", "8_7", "8_12", "8_13", "8_14", "8_15", "8_17",
              "8_18", "8_21"]


def test_criterion_01_sarkar_on_the_box():
    with criterion(1, "basepoint twist on the unit box", 1.0):
        cx = box_complex(1)
        s = dict_cols(sarkar_map(cx))
        a, b, c, d = (cx.index(g) for g in "abcd")
        assert s[a] == {a: P_ONE, d: P_ONE}
        assert s[b] == {b: P_ONE}
        assert s[c] == {c: P_ONE}
        assert s[d] == {d: P_ONE}


def _table_cycles(cx):
    """The table's cycles at bigrading (0, 0), as generator bits; each
    generator sits there itself, with the constant monomial."""
    def elem(*gens):
        out = 0
        for g in gens:
            assert cx.grading(g) == (0, 0)
            out ^= 1 << cx.index(g)
        return out

    return {
        "x|x": elem("x|x"),
        "x|d": elem("x|d"),
        "d|x": elem("d|x"),
        "w": elem("a|d", "d|a", "b|c", "c|b"),
        "d|d": elem("d|d"),
    }


TABLE_IOTA = {
    "x|x": ["x|x", "x|d", "d|x", "d|d"],
    "x|d": ["x|d", "d|d"],
    "d|x": ["d|x", "d|d"],
    "w": ["w", "x|d", "d|x", "d|d"],
    "d|d": ["d|d"],
}
TABLE_TAU = {
    "x|x": ["x|x", "x|d", "d|x", "d|d"],
    "x|d": ["x|d", "d|d"],
    "d|x": ["d|x", "d|d"],
    "w": ["w", "x|d", "d|x"],
    "d|d": ["d|d"],
}


def _slice_vector(hom, bits):
    """An element at bigrading (0, 0) in the diagonal slice at 0."""
    assert bits & ~hom.uc.levels.above(0) == 0
    return bits


def _class_setup(x):
    hom = DiagonalHomology(a0(x))
    h0 = hom.homology(0)
    cx = x.complex
    cycles = _table_cycles(cx)
    coords = {}
    for name, vec in cycles.items():
        coords[name] = h0.class_coords(_slice_vector(hom, vec))
    return hom, h0, cycles, coords


def _action_on_classes(x, fmap, hom, h0, cycles, coords):
    """Induced map on the five classes, as a dict name -> coordinate set."""
    from corkscrew.algebra import solve_f2_rows

    out = {}
    basis_order = list(coords)
    for name, vec in cycles.items():
        img = mat_vec(fmap.cols, vec)
        cls = h0.class_coords(_slice_vector(hom, img))
        # the table classes are a basis of the rank-5 slice homology, so
        # express the image class over them by one exact solve
        rows = []
        for bit in range(5):
            rows.append(sum(((coords[nm] >> bit) & 1) << k
                            for k, nm in enumerate(basis_order)))
        rhs = [(cls >> bit) & 1 for bit in range(5)]
        sol = solve_f2_rows(rows, rhs, 5)
        out[name] = {basis_order[k] for k in range(5)
                     if (sol.particular >> k) & 1}
    return out


def test_criterion_02_table_reproduction():
    with criterion(2, "homology classes and actions on the double", 10.0):
        x = bundled("4_1x4_1_tau")
        hom, h0, cycles, coords = _class_setup(x)
        # exactly five classes and the table cycles are a basis
        from corkscrew.algebra import f2_rank
        assert h0.rank == 5
        assert f2_rank(list(coords.values()), 5) == 5
        # x|x is the unique nontorsion class among them
        for name, vec in cycles.items():
            bit = parity(vec & hom.tower_mask(0))
            assert bit == (1 if name == "x|x" else 0), name
        got_iota = _action_on_classes(x, x.iota, hom, h0, cycles, coords)
        assert got_iota == {k: set(v) for k, v in TABLE_IOTA.items()}
        got_tau = _action_on_classes(x, x.phi, hom, h0, cycles, coords)
        assert got_tau == {k: set(v) for k, v in TABLE_TAU.items()}


def test_criterion_03_periodic_double_pipeline():
    with criterion(3, "invariant subspace, delta, and the verdict", 30.0):
        x = bundled("4_1x4_1_tau")
        hom, h0, cycles, coords = _class_setup(x)
        basis_order = list(coords)
        from corkscrew.algebra import solve_f2_rows

        def action_matrix(fmap):
            got = _action_on_classes(x, fmap, hom, h0, cycles, coords)
            cols = []
            for name in basis_order:
                word = 0
                for k, nm in enumerate(basis_order):
                    if nm in got[name]:
                        word |= 1 << k
                cols.append(word)
            return cols

        iota_cols = action_matrix(x.iota)
        tau_cols = action_matrix(x.phi)
        # kernel of (iota + 1) on the five classes
        rows = [0] * 5
        for j, col in enumerate(iota_cols):
            colp = col ^ (1 << j)
            for i in range(5):
                if (colp >> i) & 1:
                    rows[i] |= 1 << j
        sol = solve_f2_rows(rows, [0] * 5, 5)
        inv_basis = sol.kernel
        assert len(inv_basis) == 3
        # the invariant subspace is spanned by [x|x]+[w], [x|d]+[d|x], [d|d]
        # (the published display of the first spanning class is corrected
        # against the action table itself)
        from corkscrew.algebra import f2_rank
        idx = {nm: k for k, nm in enumerate(basis_order)}
        expected = [
            (1 << idx["x|x"]) | (1 << idx["w"]),
            (1 << idx["x|d"]) | (1 << idx["d|x"]),
            (1 << idx["d|d"]),
        ]
        assert f2_rank(expected, 5) == 3
        for want in expected:
            assert f2_rank(inv_basis + [want], 5) == 3, \
                f"{want:05b} not in the invariant subspace"
        # the first class is nontorsion and not tau-invariant
        first = expected[0]

        def tau_moves(v):
            out = 0
            for j in range(5):
                if (v >> j) & 1:
                    out ^= tau_cols[j] ^ (1 << j)
            return out

        assert tau_moves(first) != 0
        # no invariant class with a nontorsion component is tau-invariant
        for sel in range(1, 8):
            v = 0
            for k in range(3):
                if (sel >> k) & 1:
                    v ^= inv_basis[k]
            if (v >> idx["x|x"]) & 1:
                assert tau_moves(v) != 0
        # the numerical obstruction, pinned by the dense reference run;
        # delta re-checks it at a wider window
        assert brute_delta(x) == 1
        assert delta(x).delta == 1
        v = verdict_delta(x, m=1)
        assert v.conclusion == STRONG_CORK
        assert replay_certificate(v.certificate)


def test_criterion_04_census():
    with criterion(4, "seventeen-knot census", 5.0):
        names = census_names(bundled_table().rows, max_crossings=8)
        assert names == PAPER_LIST
        assert "6_1" not in names and "8_3" not in names


def test_criterion_05_property_suite():
    with criterion(5, "randomized structural properties", 120.0):
        cases = 0
        suite = ([unknot(), trivial(), torus_model(3), torus_model(-3),
                  torus_model(5), figure_eight_with_actions(),
                  figure_eight_iota_only(), thin_model(1, True),
                  thin_model(2, False), thin_model(0, True),
                  thin_model(-2, True), staircase_with_box(0, 3),
                  staircase_with_box(0, 2), bundled("T2_3#T2_3")]
                 + random_s3_models(seed=2024, count=22))
        for x in suite:
            cx = x.complex
            d = cx.boundary()
            assert d.compose(d).is_zero()
            cases += 1
            s = sarkar_map(cx)
            assert s.compose(d) == d.compose(s)
            cases += 1
            assert homotopic(s.compose(s), cx.identity()) is not None
            cases += 1
            assert homotopic(x.iota.compose(x.iota), s) is not None
            cases += 1
            dd = dual(dual(x))
            assert dd.complex.gradings == cx.gradings
            assert dd.complex.diff == cx.diff
            assert dd.iota.cols == x.iota.cols
            cases += 1
            for f in random_chain_maps(cx, seed=77 + cx.n, count=3):
                assert commutes_up_to_homotopy(s, f) is not None
                cases += 1
        assert cases >= 200, cases


def test_criterion_06_delta_iff_local():
    with criterion(6, "numerical obstruction vs local maps", 120.0):
        suite = ([unknot(), bundled("4_1x4_1_id"), bundled("4_1x4_1_tau"),
                  torus_model(3), torus_model(-3), thin_model(1, True),
                  thin_model(0, True)]
                 + random_s3_models(seed=404, count=14))
        assert len(suite) >= 20
        disagreements = 0
        for x in suite:
            rep = delta_zero_iff_local(x)  # raises on disagreement
            assert rep["delta"] >= 0
        assert disagreements == 0


def test_criterion_07_route_agreement():
    with criterion(7, "split rule vs tensor obstruction", 120.0):
        m_id = figure_eight_iota_only()
        m_s = bundled("4_1_s")
        t3, t3m = torus_model(3), torus_model(-3)
        pairs = [(m_s, m_id),  # the swallow-follow pair on the double
                 (m_id, m_id), (m_id, m_s), (trivial(), trivial()),
                 (t3, t3m), (t3m, t3), (m_s, trivial()),
                 (trivial(), m_id), (t3, trivial()),
                 (thin_model(1, True), m_id)]
        assert len(pairs) >= 10
        for x1, x2 in pairs:
            v = verdict_split(x1, x2, m=1, cross_check=True)  # raises if split
            other = delta(tensor(x1, x2)).delta
            assert (v.conclusion == STRONG_CORK) == (other > 0)
        gompf = verdict_split(m_s, m_id, m=1)
        assert gompf.conclusion == STRONG_CORK


def test_criterion_08_connected_shapes():
    with criterion(8, "connected models of the two figure cases", 10.0):
        res41 = connected_complex(figure_eight_iota_only())
        assert res41.method == "exact-standard"
        assert res41.form.describe() == "dot + box(1)"
        tt = tensor(torus_model(3), torus_model(3))
        rest = connected_complex(tt)
        assert rest.method == "exact-standard"
        assert rest.form.describe() == "staircase(2) + box(1)"


def test_criterion_09_torus_families():
    with criterion(9, "torus-sum and long-box families", 60.0):
        for s in range(1, 9):
            for n in range(1, 6):
                arith = cor51_rule(s, n)
                arf = (s * torus_2_arf(n)) % 2
                tau = s * n
                assert arith == cor13_arithmetic(arf, tau), (s, n)
                det = (2 * n + 1) ** s
                parity_odd = ((det - 2 * tau - 1) // 4) % 2 == 1
                assert parity_odd == arith, (s, n)
                model = thin_model(tau, parity_odd)
                tw = s_nontrivial(model)
                assert tw.conn.method == "exact-standard"
                assert tw.nontrivial == arith, (s, n)
        for ell, want in [(1, True), (2, False), (3, True), (4, False),
                          (5, True)]:
            tw = s_nontrivial(staircase_with_box(0, ell))
            assert tw.conn.method == "exact-standard"
            assert tw.nontrivial is want, ell


def test_criterion_10_slice_sanity():
    with criterion(10, "vanishing obstruction on the slice double", 10.0):
        res = delta(bundled("4_1x4_1_id"))
        assert res.delta == 0
        assert res.witness_x, "witness cycle must be echoed"
        # the recorded witness satisfies the defining equations; the cycle
        # must involve the nontorsion corner generator
        assert "x|x" in res.witness_x
        from corkscrew.cli import main
        import io
        import contextlib
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["delta", "bundled:4_1x4_1_id"])
        assert code == 0
        assert "witness x = " in buf.getvalue()
        assert "x|x" in buf.getvalue()


def test_criterion_11_verdict_gates():
    with criterion(11, "gate matrix and certificate replay", 60.0):
        k = KnotDescriptor("4_1", 0, 1, 5, thin=True)
        fig8 = figure_eight_with_actions()
        strong = []
        for m in (-2, -1, 1, 2):
            for i in (1, 2, 3, 4):
                for j in (0, 5):
                    v = verdict_gompf(k, m, i, j)
                    if m % 2 == 0 or i % 2 == 0:
                        assert v.conclusion == INCONCLUSIVE, (m, i, j)
                    else:
                        assert v.conclusion == STRONG_CORK, (m, i, j)
                        strong.append(v)
        for m in (1, 2):
            for i in range(1, 9):
                v = verdict_periodic(fig8, m, i)
                if m % 2 == 0 or i % 4 == 0:
                    assert v.conclusion == INCONCLUSIVE, (m, i)
                else:
                    assert v.conclusion == STRONG_CORK, (m, i)
                    strong.append(v)
        for m in (-1, 1, 2):
            v = verdict_split(bundled("4_1_s"), bundled("4_1_iota"), m)
            if m == 1:
                assert v.conclusion == STRONG_CORK
                strong.append(v)
            else:
                assert v.conclusion == INCONCLUSIVE
        v = verdict_delta(bundled("4_1x4_1_tau"), m=2)
        assert v.conclusion == INCONCLUSIVE
        # every positive conclusion replays from its certificate
        assert strong
        seen = set()
        for v in strong:
            ref = v.certificate["ref"]
            if ref in seen:
                continue
            seen.add(ref)
            payload = json.loads(json.dumps(v.certificate))
            assert replay_certificate(payload), ref
