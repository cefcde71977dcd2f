"""Ground-layer arithmetic: derivatives, slices, F2 solving."""

import pytest
from hypothesis import given, settings, strategies as st

from corkscrew.algebra import (
    ColumnSpan,
    Echelon,
    F2Inconsistency,
    F2Matrix,
    F2Solution,
    f2_rank,
    inverse_cols,
    lexmin_affine,
    solve_f2,
    solve_f2_rows,
)
from corkscrew.errors import ValidationError

from oracle import (
    formal_derivative,
    mono_deg,
    pmul,
    poly,
    reference_solve,
    slice_pairs,
)


def P(*monos):
    return poly(monos)


class TestFormalDerivative:
    def test_single_power(self):
        assert formal_derivative(P((1, 0)), "u") == P((0, 0))

    def test_even_power_vanishes(self):
        assert formal_derivative(P((2, 0)), "u") == P()

    def test_term_by_term(self):
        # d/dU (U^3 V + V^2) = U^2 V
        assert formal_derivative(P((3, 1), (0, 2)), "u") == P((2, 1))

    def test_linear(self):
        p, q = P((1, 0), (3, 2)), P((1, 0), (5, 1))
        assert (formal_derivative(p ^ q, "u")
                == formal_derivative(p, "u") ^ formal_derivative(q, "u"))

    @pytest.mark.parametrize("var", ["u", "v"])
    def test_leibniz_small_exponents(self, var):
        monos = [(a, b) for a in range(4) for b in range(4)]
        for m1 in monos:
            for m2 in monos:
                p, q = P(m1), P(m2)
                lhs = formal_derivative(pmul(p, q), var)
                rhs = (pmul(formal_derivative(p, var), q)
                       ^ pmul(p, formal_derivative(q, var)))
                assert lhs == rhs, (m1, m2, var)


# gradings of the box generators a, b, c, d
BOX_GRADINGS = [(0, 0), (1, -1), (-1, 1), (0, 0)]


class TestSlicePairs:
    def test_unknot_diagonal(self):
        assert slice_pairs([(0, 0)], (-2, -2)) == [((1, 1), 0)]

    def test_box_empty_slice(self):
        # no non-negative exponents reach (1, 1) from the box gradings
        assert slice_pairs(BOX_GRADINGS, (1, 1)) == []

    def test_box_zero_slice(self):
        assert slice_pairs(BOX_GRADINGS, (0, 0)) == [((0, 0), 0),
                                                     ((0, 0), 3)]

    def test_exhaustive_against_scan(self):
        # enumeration oracle: scan all exponents up to 6 and compare
        gradings = [(3, -1), (0, 4), (-2, -2)]
        for tu in range(-8, 4):
            for tv in range(-8, 5):
                target = (tu, tv)
                want = []
                for i, gr in enumerate(gradings):
                    for a in range(7):
                        for b in range(7):
                            got = (gr[0] + mono_deg((a, b))[0],
                                   gr[1] + mono_deg((a, b))[1])
                            if got == target:
                                want.append(((a, b), i))
                assert slice_pairs(gradings, target) == want

    def test_deterministic_rerun(self):
        assert (slice_pairs(BOX_GRADINGS, (0, 0))
                == slice_pairs(BOX_GRADINGS, (0, 0)))


class TestSolveF2:
    def test_identity(self):
        a = F2Matrix.from_rows([[1, 0], [0, 1]], 2)
        sol = solve_f2(a, [1, 0])
        assert isinstance(sol, F2Solution)
        assert sol.particular == 0b01
        assert sol.kernel == []

    def test_inconsistent(self):
        a = F2Matrix.from_rows([[0]], 1)
        sol = solve_f2(a, [1])
        assert isinstance(sol, F2Inconsistency)
        # the witness row combination certifies the failure
        assert sol.combo == 0b1

    def test_underdetermined(self):
        a = F2Matrix.from_rows([[1, 1]], 2)
        sol = solve_f2(a, [1])
        assert sol.particular == 0b01
        assert sol.kernel == [0b11]

    def test_solution_property_randomish(self):
        import random
        rng = random.Random(7)
        for _ in range(60):
            nr, nc = rng.randrange(1, 7), rng.randrange(1, 7)
            rows = [rng.getrandbits(nc) for _ in range(nr)]
            rhs = [rng.getrandbits(1) for _ in range(nr)]
            sol = solve_f2_rows(rows, rhs, nc)
            if isinstance(sol, F2Inconsistency):
                # combo . A = 0 and combo . b = 1
                acc = 0
                bit = 0
                for i in range(nr):
                    if (sol.combo >> i) & 1:
                        acc ^= rows[i]
                        bit ^= rhs[i]
                assert acc == 0 and bit == 1
                continue
            for vec in [sol.particular] + [sol.particular ^ k
                                           for k in sol.kernel]:
                for i in range(nr):
                    assert bin(rows[i] & vec).count("1") % 2 == rhs[i]
            for k in sol.kernel:
                for i in range(nr):
                    assert bin(rows[i] & k).count("1") % 2 == 0

    def test_rank(self):
        assert f2_rank([0b11, 0b01, 0b10], 2) == 2


class TestLexmin:
    def test_prefers_zero_in_low_columns(self):
        # coset {01, 10}: 01 has column 0 set, 10 does not -> choose 10
        out = lexmin_affine(0b01, [0b11], 2)
        assert out == 0b10

    def test_exhaustive_small(self):
        import random
        rng = random.Random(3)
        for _ in range(50):
            nc = rng.randrange(1, 6)
            k = [rng.getrandbits(nc) for _ in range(rng.randrange(0, 3))]
            p = rng.getrandbits(nc)
            got = lexmin_affine(p, k, nc)
            coset = {p}
            for _ in range(8):
                new = set()
                for v in coset:
                    for kk in k:
                        new.add(v ^ kk)
                coset |= new

            def key(v):
                return tuple((v >> i) & 1 for i in range(nc))

            assert key(got) == min(key(v) for v in coset)
            assert got in coset


def _parity(word: int) -> int:
    return bin(word).count("1") & 1


@st.composite
def _systems(draw):
    """Rows and rhs of a small system, half of them consistent by
    construction."""
    ncols = draw(st.integers(0, 10))
    nrows = draw(st.integers(0, 14))
    rows = draw(st.lists(st.integers(0, (1 << ncols) - 1),
                         min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        x0 = draw(st.integers(0, (1 << ncols) - 1))
        rhs = [_parity(row & x0) for row in rows]
    else:
        rhs = draw(st.lists(st.integers(0, 1), min_size=nrows,
                            max_size=nrows))
    return rows, rhs, ncols


class TestEchelonAgainstReference:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_systems())
    def test_solve_matches_the_provenance_tracking_reference(self, system):
        rows, rhs, ncols = system
        got = solve_f2_rows(rows, rhs, ncols)
        want = reference_solve(rows, rhs, ncols)
        assert type(got) is type(want)
        if isinstance(got, F2Solution):
            assert (got.particular, got.kernel) \
                == (want.particular, want.kernel)
            return
        # the certificate may be another left-kernel combination
        picked = [i for i in range(len(rows)) if (got.combo >> i) & 1]
        acc = 0
        for i in picked:
            acc ^= rows[i]
        assert acc == 0
        assert sum(rhs[i] for i in picked) % 2 == 1

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, 255), max_size=12))
    def test_column_span_kernel_is_the_reference_kernel(self, cols):
        nrows = max(cols, default=0).bit_length()
        rows = [sum(((c >> i) & 1) << j for j, c in enumerate(cols))
                for i in range(nrows)]
        want = reference_solve(rows, [0] * nrows, len(cols)).kernel
        assert ColumnSpan(dict(enumerate(cols))).kernel == want

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 8).flatmap(lambda n: st.lists(
        st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
    def test_coordinates_of_unit_vectors_invert_the_matrix(self, m_cols):
        n = len(m_cols)
        inv_cols = inverse_cols(m_cols)
        if inv_cols is None:
            assert f2_rank(m_cols, n) < n
            return

        def times(a_cols, b_cols):
            out = []
            for col in b_cols:
                acc = 0
                for k in range(n):
                    if (col >> k) & 1:
                        acc ^= a_cols[k]
                out.append(acc)
            return out

        unit = [1 << s for s in range(n)]
        assert times(m_cols, inv_cols) == unit
        assert times(inv_cols, m_cols) == unit

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, 255), max_size=12), st.data())
    def test_keyed_columns_relabel_the_positional_ones(self, cols, data):
        """Column j under key k_j, for increasing keys: kernel vectors and
        coordinates are those of the columns keyed 0, 1, ..., with bit j
        moved to bit k_j."""
        keys = sorted(data.draw(st.sets(st.integers(0, 40),
                                        min_size=len(cols),
                                        max_size=len(cols))))

        def relabel(word):
            return sum(1 << keys[j] for j in range(len(cols))
                       if word >> j & 1)

        plain = ColumnSpan(dict(enumerate(cols)))
        keyed = ColumnSpan(dict(zip(keys, cols)))
        assert keyed.kernel == [relabel(z) for z in plain.kernel]
        for v in data.draw(st.lists(st.integers(0, 511), max_size=4)):
            want = plain.coordinates(v)
            got = keyed.coordinates(v)
            assert got == (None if want is None else relabel(want))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, (1 << 24) - 1), max_size=16),
       st.integers(0, (1 << 24) - 1))
def test_annihilator_is_zero_on_every_row_and_y_off_the_pivots(vectors, y):
    span = Echelon(vectors)
    pivots = sum(1 << p for p, _ in span.rows)
    got = span.annihilator(y)
    assert all(_parity(row & got) == 0 for _, row in span.rows)
    assert got & ~pivots == y & ~pivots


# -- the pivot-mask echelon against the per-bit reduction it replaced ---------

class _PerBitEchelon:
    """Echelon as first written: reduction steps through every set bit of
    the vector, pivot or not, up to the highest pivot."""

    def __init__(self):
        self.rows = []
        self._at = {}  # pivot bit -> (vec, tag)
        self._top = 0

    def _reduce(self, v, coeffs):
        rest = 0
        while v:
            low = v & -v
            if low > self._top:
                return rest | v
            hit = self._at.get(low)
            if hit is None:
                rest |= low
                v ^= low
            else:
                v ^= hit[0]
                if coeffs is not None:
                    coeffs[hit[1]] = coeffs.get(hit[1], 0) ^ 1
        return rest

    def reduce(self, v):
        return self._reduce(v, None)

    def insert(self, v, tag=None):
        v = self._reduce(v, None)
        if v:
            low = v & -v
            self._at[low] = (v, tag)
            self._top = max(self._top, low)
            self.rows.append((low.bit_length() - 1, v, tag))
        return v

    def coefficients(self, v):
        coeffs = {}
        if self._reduce(v, coeffs):
            raise ValidationError("vector outside the recorded span")
        return coeffs


_WIDE = 1200
_VECTORS = st.one_of(
    st.integers(0, (1 << _WIDE) - 1),
    st.integers(0, 255),
    st.sets(st.integers(0, _WIDE - 1), max_size=6).map(
        lambda bits: sum(1 << b for b in bits)))
_OPS = st.lists(st.tuples(
    st.sampled_from(("insert", "reduce", "coefficients", "combination")),
    _VECTORS, st.sampled_from((None, "a", ("h", 0), ("h", 1), 7)),
    st.integers(0, (1 << 40) - 1)), max_size=40)


_LOW = (1 << _WIDE) - 1
_MARKER = {None: 0, "a": 1 << _WIDE, ("h", 0): 2 << _WIDE,
           ("h", 1): 4 << _WIDE, 7: 8 << _WIDE}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValidationError as exc:
        return ("raises", str(exc))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_OPS)
def test_pivot_mask_echelon_matches_the_per_bit_reduction(ops):
    """Streams of tagged vectors up to 1,200 bits wide, inserted, reduced
    and written over the stored rows; "combination" asks for the
    coefficients of a sum of earlier inserted vectors, which lies in the
    span.  ``plain`` stores the vectors as given; ``marked`` stores each
    reduced vector with its tag's marker bit above bit 1,200, and a
    reduction there must carry the reference's tag coefficients in its
    marker bits and leave low bits exactly when the vector is outside the
    span."""
    plain, marked, old = Echelon(), Echelon(), _PerBitEchelon()
    inserted = []
    for kind, vec, tag, picks in ops:
        if kind == "insert":
            inserted.append(vec)
            want = old.insert(vec, tag)
            assert plain.insert(vec) == want
            low = marked.reduce(vec) & _LOW
            assert low == want
            if low:
                marked.insert(low | _MARKER[tag])
        elif kind == "reduce":
            assert plain.reduce(vec) == old.reduce(vec)
            assert marked.reduce(vec) & _LOW == old.reduce(vec)
        else:
            if kind == "combination":
                vec = 0
                for i, v in enumerate(inserted):
                    vec ^= v if picks >> i & 1 else 0
            want = _outcome(old.coefficients, vec)
            got = marked.reduce(vec)
            if isinstance(want, tuple):
                assert kind == "coefficients" and got & _LOW
            else:
                assert not got & _LOW
                assert got & ~_LOW == sum(
                    _MARKER[t] for t, bit in want.items() if bit)
        assert plain.rows == [(p, v) for p, v, _ in old.rows]
        assert marked.rows == [(p, v | _MARKER[t]) for p, v, t in old.rows]
        assert plain.rank == marked.rank == len(old.rows)
