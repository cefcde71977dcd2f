"""Independent reference computations used to pin expected values.

Everything here recomputes invariants by dense enumeration straight from
the two-variable complex, avoiding the library's windowed tower machinery:
diagonal slice bases are found by scanning monomial exponents, homology is
plain Gaussian elimination, and nontorsion is decided by multiplying
through a large power of the diagonal monomial.  Slow and simple on
purpose; results are accepted only when a deeper margin reproduces them.
"""

from __future__ import annotations

from corkscrew.algebra import F2Inconsistency, F2Solution, gr_add
from corkscrew.complexes import KnotComplex, PhiIotaComplex, direct_sum
from corkscrew.errors import ValidationError
from corkscrew.models import box_complex


def mono_deg(m) -> tuple:
    """Bigrading shift contributed by the monomial U^a V^b = (a, b)."""
    return (-2 * m[0], -2 * m[1])


def slice_pairs(gradings, target) -> list:
    """All (monomial, generator-index) pairs spanning the piece at
    ``target``, in generator order: each generator contributes at most
    one monomial, so no further tie-breaking is needed."""
    from corkscrew.algebra import slice_monomial

    out = []
    for i, g in enumerate(gradings):
        m = slice_monomial(g, target)
        if m is not None:
            out.append((m, i))
    return out


def reference_unknowns(shape) -> list:
    """(source, monomial, target) coordinates of a ``MapShape`` as the
    library first listed them: for each source, the slice scan of the
    target's gradings at gr(source), exchanged when the map is skew, plus
    the bidegree."""
    out = []
    for s, (gu, gv) in enumerate(shape.source.gradings):
        if shape.mode == "skew":
            gu, gv = gv, gu
        at = gr_add((gu, gv), shape.bidegree)
        out += [(s, m, t) for m, t in slice_pairs(shape.target.gradings, at)]
    return out


# -- polynomials and maps over F2[U,V], as sets of monomials ------------------
# A Poly is the frozenset of its (u_exp, v_exp) monomials, so addition is
# symmetric difference; a map is a list of columns {target: Poly}.

P_ONE = frozenset({(0, 0)})


def poly(monos) -> frozenset:
    """Build a polynomial, cancelling duplicated monomials mod 2."""
    out: set = set()
    for m in monos:
        out ^= {m}
    return frozenset(out)


def pscale(m, p) -> frozenset:
    return frozenset((m[0] + a, m[1] + b) for a, b in p)


def pswap(p) -> frozenset:
    return frozenset((b, a) for a, b in p)


def pmul(p1, p2) -> frozenset:
    return poly((a1 + a2, b1 + b2) for a1, b1 in p1 for a2, b2 in p2)


def formal_derivative(p, variable: str) -> frozenset:
    """d/dU or d/dV: U^a V^b goes to a U^(a-1) V^b, which vanishes mod 2
    when a is even (and symmetrically in V)."""
    if variable not in ("u", "v"):
        raise ValueError(f"unknown variable {variable!r}")
    k = 0 if variable == "u" else 1
    return poly((a - 1, b) if k == 0 else (a, b - 1)
                for a, b in p if (a, b)[k] % 2)


def poly_element(gradings, bits: int, bigrading) -> dict:
    """A homogeneous element, given by its generator bits at a bigrading,
    as {generator: Poly}.  Each generator's monomial is solved from the
    gradings alone: its degree must take the generator's grading to the
    element's."""
    out = {}
    for g in range(min(bits.bit_length(), len(gradings))):
        if (bits >> g) & 1:
            have = gradings[g]
            m = ((have[0] - bigrading[0]) // 2, (have[1] - bigrading[1]) // 2)
            assert min(m) >= 0 and gr_add(have, mono_deg(m)) == bigrading, (
                f"generator {g} has no monomial to {bigrading}")
            out[g] = frozenset({m})
    if bits >> len(gradings):
        raise AssertionError("bits past the last generator")
    return out


def image_grading(f, bigrading):
    """Where a map takes the bigrading: swapped for a skew map, then
    shifted by the bidegree."""
    if f.mode == "skew":
        bigrading = (bigrading[1], bigrading[0])
    return gr_add(bigrading, f.bidegree)


def dict_cols(f) -> list:
    """A library map's columns as {target: Poly}: column s is the image
    of generator s, at the grading the map takes it to."""
    return [poly_element(f.target.gradings, word,
                         image_grading(f, f.source.gradings[s]))
            for s, word in enumerate(f.cols)]


def diff_cols(gradings, cols) -> list:
    """Bit columns of a differential, degree (-1, -1), as {target: Poly}."""
    return [poly_element(gradings, col, gr_add(gradings[s], (-1, -1)))
            for s, col in enumerate(cols)]


def dict_bits(cols) -> list:
    """{target: Poly} columns back to bit columns."""
    return [sum(1 << t for t in col) for col in cols]


def _add_into(col: dict, t, p) -> None:
    col[t] = col.get(t, frozenset()) ^ p
    if not col[t]:
        del col[t]


def reference_add(f_cols, g_cols) -> list:
    out = [dict(c) for c in f_cols]
    for col, other in zip(out, g_cols):
        for t, p in other.items():
            _add_into(col, t, p)
    return out


def reference_apply(cols, skew: bool, vec: dict) -> dict:
    """A map applied to {generator: Poly}, monomial by monomial."""
    out: dict = {}
    for s, p in vec.items():
        moved = pswap(p) if skew else p
        for t, entry in cols[s].items():
            for m in moved:
                _add_into(out, t, pscale(m, entry))
    return out


def reference_compose(f_cols, f_skew: bool, g_cols) -> list:
    """Columns of f o g: f applied to every column of g."""
    return [reference_apply(f_cols, f_skew, col) for col in g_cols]


def reference_kron(f_cols, g_cols) -> list:
    """Columns of f (x) g, the pair (i, j) at index i * len(g) + j."""
    n2 = len(g_cols)
    out = []
    for f_col in f_cols:
        for g_col in g_cols:
            col: dict = {}
            for t1, p1 in f_col.items():
                for t2, p2 in g_col.items():
                    _add_into(col, t1 * n2 + t2, pmul(p1, p2))
            out.append(col)
    return out


def reference_transpose(cols, swap: bool) -> list:
    out = [dict() for _ in cols]
    for s, col in enumerate(cols):
        for t, p in col.items():
            _add_into(out[t], s, pswap(p) if swap else p)
    return out


def reference_phi_psi_maps(diff_cols):
    """Entrywise U- and V-derivatives of a differential's columns."""
    return tuple([{t: q for t, p in col.items()
                   for q in (formal_derivative(p, var),) if q}
                  for col in diff_cols] for var in ("u", "v"))


def reference_tensor_maps(x1, x2):
    """(diff, phi, iota, phi_inverse) columns of the involutive tensor
    product, with iota = (id (x) id + Phi (x) Psi) o (iota1 (x) iota2)."""
    d1, d2 = dict_cols(x1.complex.boundary()), dict_cols(x2.complex.boundary())
    n1, n2 = len(d1), len(d2)
    diff = reference_add(
        reference_kron(d1, [{j: P_ONE} for j in range(n2)]),
        reference_kron([{i: P_ONE} for i in range(n1)], d2))
    phi = reference_kron(dict_cols(x1.phi), dict_cols(x2.phi))
    inv = None
    if x1.phi_inverse is not None and x2.phi_inverse is not None:
        inv = reference_kron(dict_cols(x1.phi_inverse),
                             dict_cols(x2.phi_inverse))
    iot = reference_kron(dict_cols(x1.iota), dict_cols(x2.iota))
    correction = reference_kron(reference_phi_psi_maps(d1)[0],
                                reference_phi_psi_maps(d2)[1])
    one_plus = reference_add([{s: P_ONE} for s in range(n1 * n2)],
                             correction)
    return diff, phi, reference_compose(one_plus, False, iot), inv


def reference_solve(rows: list, rhs: list, ncols: int):
    """A x = b by Gauss-Jordan elimination with leftmost pivoting over the
    whole row list, carrying for every row the combination of original
    rows it is; an inconsistent row hands that combination over as the
    certificate."""
    work = list(rows)
    b = list(rhs)
    prov = [1 << i for i in range(len(work))]
    pivots = []  # (col, row_index)
    r = 0
    for col in range(ncols):
        mask = 1 << col
        sel = None
        for i in range(r, len(work)):
            if work[i] & mask:
                sel = i
                break
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        b[r], b[sel] = b[sel], b[r]
        prov[r], prov[sel] = prov[sel], prov[r]
        for i in range(len(work)):
            if i != r and (work[i] & mask):
                work[i] ^= work[r]
                b[i] ^= b[r]
                prov[i] ^= prov[r]
        pivots.append((col, r))
        r += 1
    for i in range(len(work)):
        if work[i] == 0 and b[i]:
            return F2Inconsistency(combo=prov[i])
    particular = 0
    for col, i in pivots:
        if b[i]:
            particular |= 1 << col
    pivot_cols = {col for col, _ in pivots}
    kernel = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = 1 << free
        for col, i in pivots:
            if work[i] & (1 << free):
                vec |= 1 << col
        kernel.append(vec)
    return F2Solution(particular=particular, kernel=kernel)


def _reduce(v, basis):
    for b in basis:
        if v & (b & -b):
            v ^= b
    return v


def _span_basis(rows):
    basis = []
    for r in rows:
        v = _reduce(r, basis)
        if v:
            basis.append(v)
    return basis


def _kernel(cols):
    """Kernel basis of a column map, tracking column combinations."""
    basis = []  # (reduced image vector, combination)
    kernel = []
    for j, col in enumerate(cols):
        v, c = col, 1 << j
        for bv, bc in basis:
            if v & (bv & -bv):
                v ^= bv
                c ^= bc
        if v:
            basis.append((v, c))
        else:
            kernel.append(c)
    return kernel


class ReferenceSlice:
    """Homology of one slice of ``nbits`` positions, with the library's
    representatives and coordinates, by the oracle's own elimination.

    Boundaries, then cycles, then unit vectors are each reduced against
    the vectors kept before them (``_reduce``) and kept when nonzero; a
    cycle kept that way is a representative.  The kept vectors are a
    basis of the slice, and a class coordinate is the coefficient of a
    reduced representative in that basis: the parity against its dual
    vector, which :func:`reference_solve` finds on first use.
    """

    def __init__(self, nbits: int, cycles: list, boundaries: list):
        self.nbits = nbits
        self.cycles = cycles
        self.basis = _span_basis(boundaries)
        self.reps = []
        self._at = []  # basis index of each representative
        for z in cycles:
            r = _reduce(z, self.basis)
            if r:
                self._at.append(len(self.basis))
                self.basis.append(r)
                self.reps.append(z)
        self._duals = None

    @property
    def rank(self) -> int:
        return len(self.reps)

    def _dual(self, idx: int) -> int:
        if self._duals is None:
            basis = list(self.basis)
            for j in range(self.nbits):
                u = _reduce(1 << j, basis)
                if u:
                    basis.append(u)
            self._duals = [reference_solve(
                basis, [int(k == at) for k in range(len(basis))],
                self.nbits).particular for at in self._at]
        return self._duals[idx]

    def rep_coefficient(self, v: int, idx: int) -> int:
        return (v & self._dual(idx)).bit_count() & 1

    def class_coords(self, v: int) -> int:
        return sum(self.rep_coefficient(v, i) << i for i in range(self.rank))


def diag_slice(x: PhiIotaComplex, d: int):
    """All (mono, gen) with bigrading (d, d), in generator order: a
    generator at (g_u, g_v) lands there only as U^a V^b with
    (a, b) = ((g_u - d)/2, (g_v - d)/2), when both are non-negative
    integers."""
    out = []
    for g, (gu, gv) in enumerate(x.complex.gradings):
        a, b = gu - d, gv - d
        if a >= 0 and b >= 0 and a % 2 == 0 and b % 2 == 0:
            out.append(((a // 2, b // 2), g))
    return out


def _matrix_of(x, fmap, src_basis, tgt_basis):
    tpos = {e: i for i, e in enumerate(tgt_basis)}
    cols = []
    fcols = dict_cols(fmap)
    for (m, g) in src_basis:
        img = reference_apply(fcols, fmap.mode == "skew",
                              {g: frozenset({m})})
        word = 0
        for gg, p in img.items():
            for mm in p:
                word ^= 1 << tpos[(mm, gg)]
        cols.append(word)
    return cols


def _one_plus_matrix(x, fmap, basis):
    """Matrix of (identity + fmap) on a diagonal slice, where fmap may be
    skew (the swap fixes diagonal-compatible monomials' product)."""
    pos = {e: i for i, e in enumerate(basis)}
    cols = _matrix_of(x, fmap, basis, basis)
    return [cols[i] ^ (1 << pos[e]) for i, e in enumerate(basis)]


class _BruteDiag:
    """Dense diagonal-slice data for one complex and one margin."""

    def __init__(self, x: PhiIotaComplex, margin: int):
        self.x = x
        coords = [c for gr in x.complex.gradings for c in gr]
        self.gmax = max(min(gr) for gr in x.complex.gradings)
        self.lowest = min(coords) - 2 * margin
        self.slices = {d: diag_slice(x, d)
                       for d in range(self.lowest - 2, self.gmax + 3)}
        self.d_map = x.complex.boundary()

    def bnd_cols(self, d):
        return _matrix_of(self.x, self.d_map, self.slices[d],
                          self.slices[d - 1])

    def boundary_span(self, d):
        return _span_basis([c for c in self.bnd_cols(d + 1) if c])

    def push_once(self, vec, d):
        src = self.slices[d]
        tgt = {e: i for i, e in enumerate(self.slices[d - 2])}
        out = 0
        for i, (m, g) in enumerate(src):
            if (vec >> i) & 1:
                out |= 1 << tgt[((m[0] + 1, m[1] + 1), g)]
        return out

    def push_deep(self, vec, d):
        """(vector, grading) after pushing down to the deepest slice."""
        while d > self.lowest + 2:
            vec = self.push_once(vec, d)
            d -= 2
        return vec, d

    def nontorsion(self, vec, d):
        cur, cur_d = self.push_deep(vec, d)
        return _reduce(cur, self.boundary_span(cur_d)) != 0

    def tower_coefficient(self, vec, d):
        """A linear extension of :meth:`nontorsion` from cycles to the
        whole slice: push to the deepest slice, whose homology is the
        tower alone, and read the coefficient of the first cycle outside
        the boundaries in a basis of boundaries, that cycle and unit
        vectors."""
        cur, cur_d = self.push_deep(vec, d)
        basis = [(b, 0) for b in self.boundary_span(cur_d)]
        for z in _kernel(self.bnd_cols(cur_d)):
            z = _reduce(z, [b for b, _ in basis])
            if z:
                basis.append((z, 1))
                break
        for j in range(len(self.slices[cur_d])):
            u = _reduce(1 << j, [b for b, _ in basis])
            if u:
                basis.append((u, 0))
        coefficient = 0
        for b, tag in basis:
            if cur & (b & -b):
                cur ^= b
                coefficient ^= tag
        assert cur == 0
        return coefficient


def _brute_delta_at(x: PhiIotaComplex, margin: int):
    data = _BruteDiag(x, margin)
    for d in range(data.gmax, data.lowest, -1):
        xs = data.slices[d]
        ys = data.slices[d + 1]
        xs1 = data.slices[d - 1]
        nx, ny = len(xs), len(ys)
        dmat_x = _matrix_of(x, data.d_map, xs, xs1)
        phi_x = _one_plus_matrix(x, x.phi, xs)
        iota_x = _one_plus_matrix(x, x.iota, xs)
        cols = []
        for i in range(nx):
            cols.append(dmat_x[i]
                        | (phi_x[i] << len(xs1))
                        | (iota_x[i] << (len(xs1) + nx)))
        dmat_y = _matrix_of(x, data.d_map, ys, xs)
        for i in range(ny):
            cols.append(dmat_y[i] << len(xs1))
        for i in range(ny):
            cols.append(dmat_y[i] << (len(xs1) + nx))
        cycles = _kernel(cols)
        # boundaries from the cylinder slice one grading up
        xs2 = ys
        ys2 = data.slices[d + 2]
        up = []
        dmat_x2 = _matrix_of(x, data.d_map, xs2, xs)
        phi_x2 = _one_plus_matrix(x, x.phi, xs2)
        iota_x2 = _one_plus_matrix(x, x.iota, xs2)
        for i in range(len(xs2)):
            up.append(dmat_x2[i]
                      | (phi_x2[i] << nx)
                      | (iota_x2[i] << (nx + ny)))
        dmat_y2 = _matrix_of(x, data.d_map, ys2, ys)
        for i in range(len(ys2)):
            up.append(dmat_y2[i] << nx)
        for i in range(len(ys2)):
            up.append(dmat_y2[i] << (nx + ny))
        bspan = _span_basis([c for c in up if c])
        for z in cycles:
            if _reduce(z, bspan) == 0:
                continue
            qz = z & ((1 << nx) - 1)
            if qz and data.nontorsion(qz, d):
                assert d % 2 == 0, "odd witness grading"
                return -d // 2
    raise AssertionError("no nontorsion projection found")


def brute_delta(x: PhiIotaComplex, margin: int = None) -> int:
    """Reference cylinder obstruction, accepted only when a deeper margin
    agrees."""
    if margin is None:
        margin = x.complex.n + 2
    first = _brute_delta_at(x, margin)
    second = _brute_delta_at(x, margin + 4)
    assert first == second, "margin instability in the reference value"
    return first


def brute_h_classes(x: PhiIotaComplex, d: int, margin: int = None):
    """Diagonal-slice homology data at grading d: (slice basis, cycle
    combinations, boundary span), all dense."""
    if margin is None:
        margin = x.complex.n + 2
    data = _BruteDiag(x, margin)
    sl = data.slices[d]
    cycles = _kernel(data.bnd_cols(d))
    bspan = data.boundary_span(d)
    return data, sl, cycles, bspan


def reference_rows(sys, functionals=()):
    """Rows and rhs of a MapSystem assembled the slow way: a full
    elementary Endomorphism per coordinate, each operator evaluated on it
    by composition.  ``functionals`` has one (vector, bit_fn) pair per
    functional of the system, in order: the vector as {generator: Poly}
    and a linear bit_fn, evaluated on the vector's image under every
    elementary map."""
    from corkscrew.homotopy import Left

    row_index: dict = {}
    rows: list = []
    rhs: list = []

    def row_of(key):
        if key not in row_index:
            row_index[key] = len(rows)
            rows.append(0)
            rhs.append(0)
        return row_index[key]

    for ei, (_, rhs_endo) in enumerate(sys.equations):
        if rhs_endo is None:
            continue
        for s, col in enumerate(dict_cols(rhs_endo)):
            for t, p in col.items():
                for m in p:
                    rhs[row_of((ei, s, t, m))] ^= 1
    # each operator's map in dict form, read once
    op_cols = {id(op.map): dict_cols(op.map) for terms, _ in sys.equations
               for _, ops in terms for op in ops}
    for name, shape in sys.shapes.items():
        skew = shape.mode == "skew"
        for ci in range(shape.size):
            elem = dict_cols(shape.assemble(1 << ci))
            colbit = 1 << (sys.offsets[name] + ci)
            for ei, (terms, _) in enumerate(sys.equations):
                for nm, ops in terms:
                    if nm != name:
                        continue
                    val = [{} for _ in elem]
                    for op in ops:
                        a = op_cols[id(op.map)]
                        v = (reference_compose(a, op.map.mode == "skew", elem)
                             if isinstance(op, Left)
                             else reference_compose(elem, skew, a))
                        val = reference_add(val, v)
                    for s, col in enumerate(val):
                        for t, p in col.items():
                            for m in p:
                                rows[row_of((ei, s, t, m))] ^= colbit
    assert len(functionals) == len(sys.functionals)
    for (name, _, _, rhs_bit), (vector, bit_fn) in zip(sys.functionals,
                                                      functionals):
        shape = sys.shapes[name]
        row = 0
        for ci in range(shape.size):
            elem = dict_cols(shape.assemble(1 << ci))
            if bit_fn(reference_apply(elem, shape.mode == "skew", vector)):
                row |= 1 << (sys.offsets[name] + ci)
        rows.append(row)
        rhs.append(rhs_bit)
    return rows, rhs


def reference_rows_per_bit(sys):
    """Keys, rows and rhs of a MapSystem as the library first assembled
    them: one row per (equation, source, target, monomial) key, the
    monomial worked out for every entry, and one bit XORed into a row per
    entry.  Each coordinate's own monomial comes from the slice scan of
    :func:`reference_unknowns`, whose (source, target) pairs must be the
    system's coordinates.  Rows come in first-occurrence order, then the
    keys only the rhs has, then the functionals, keyed
    ("functional", k)."""
    from corkscrew.complexes import entries
    from corkscrew.homotopy import Left

    def left_entries(a, coords):
        cols = [entries(a, t) for t in range(a.source.n)]
        for ci, (s, m, t) in enumerate(coords):
            if a.mode == "skew":
                m = (m[1], m[0])
            for t2, q in cols[t]:
                yield ci, s, t2, (m[0] + q[0], m[1] + q[1])

    def right_entries(b, coords, skew):
        rows_of: list = [[] for _ in range(b.target.n)]
        for s2 in range(b.source.n):
            for s, q in entries(b, s2):
                rows_of[s].append((s2, (q[1], q[0]) if skew else q))
        for ci, (s, m, t) in enumerate(coords):
            for s2, q in rows_of[s]:
                yield ci, s2, t, (m[0] + q[0], m[1] + q[1])

    coords = {}
    for name, shape in sys.shapes.items():
        coords[name] = reference_unknowns(shape)
        assert [(s, t) for s, _, t in coords[name]] == shape.coords
    rows: dict = {}
    rhs: dict = {}
    for ei, (terms, rhs_endo) in enumerate(sys.equations):
        if rhs_endo is not None:
            for s in range(rhs_endo.source.n):
                for t, m in entries(rhs_endo, s):
                    rhs[ei, s, t, m] = 1
        for name, ops in terms:
            off = sys.offsets[name]
            skew = sys.shapes[name].mode == "skew"
            for op in ops:
                terms_of = (left_entries(op.map, coords[name])
                            if isinstance(op, Left) else
                            right_entries(op.map, coords[name], skew))
                for ci, s, t, m in terms_of:
                    key = (ei, s, t, m)
                    rows[key] = rows.get(key, 0) ^ (1 << (off + ci))
    keys = list(rows) + [k for k in rhs if k not in rows]
    out_rows = [rows.get(k, 0) for k in keys]
    out_rhs = [rhs.get(k, 0) for k in keys]
    for k, (name, vector, mask, rhs_bit) in enumerate(sys.functionals):
        off = sys.offsets[name]
        row = 0
        for ci, (s, t) in enumerate(sys.shapes[name].coords):
            if (vector >> s) & 1 and (mask >> t) & 1:
                row |= 1 << (off + ci)
        keys.append(("functional", k))
        out_rows.append(row)
        out_rhs.append(rhs_bit)
    return keys, out_rows, out_rhs


def reference_columns_per_bit(sys):
    """(columns, rhs, number of rows) of a MapSystem: the rows of
    :func:`reference_rows_per_bit`, placed as the library places them.
    An equation's rows are the (source, monomial, target) coordinates of
    its value shape in :func:`reference_unknowns` order, the shape read
    off the composition of its first operator with a zero map (or off
    its rhs); the functionals' rows come last.  A keyed row must land on
    a coordinate carrying its monomial; rows no key reaches are zero."""
    from corkscrew.homotopy import Left, MapShape

    keys, rows, rhs = reference_rows_per_bit(sys)
    place: dict = {}
    height = 0
    for ei, (terms, rhs_endo) in enumerate(sys.equations):
        value = rhs_endo
        for name, ops in terms[:1]:
            zero = sys.shapes[name].assemble(0)
            value = (ops[0].map.compose(zero) if isinstance(ops[0], Left)
                     else zero.compose(ops[0].map))
        if value is None:
            continue
        shape = MapShape(value.source, value.target, value.mode,
                         value.bidegree)
        for s, m, t in reference_unknowns(shape):
            place[ei, s, t, m] = height
            height += 1
    for k in range(len(sys.functionals)):
        place["functional", k] = height
        height += 1
    cols = [0] * sys.total
    rhs_bits = 0
    for key, row, bit in zip(keys, rows, rhs):
        at = place[key]
        rhs_bits |= bit << at
        for j in range(sys.total):
            if (row >> j) & 1:
                cols[j] |= 1 << at
    return cols, rhs_bits, height


# -- transvections, the sweep and the involution search, as first written ----

def reference_conjugate_cols(cols, i, j, m, skew: bool):
    """P^-1 F P for the basis change new_i = e_i + m e_j, on a fresh copy
    of the columns."""
    n = len(cols)
    out = [dict(c) for c in cols]
    add = pswap(frozenset({m})) if skew else frozenset({m})
    merged = dict(out[i])
    for t, p in cols[j].items():
        for mm in add:
            merged[t] = merged.get(t, frozenset()) ^ pscale(mm, p)
    out[i] = {t: p for t, p in merged.items() if p}
    for s in range(n):
        p_i = out[s].get(i)
        if p_i:
            out[s][j] = out[s].get(j, frozenset()) ^ pscale(m, p_i)
            if not out[s][j]:
                del out[s][j]
    return tuple({t: p for t, p in col.items() if p} for col in out)


def reference_scramble(x, rng, moves: int = 10):
    """The seeded scramble of ``conftest.scramble`` on {target: Poly}
    columns, each move conjugating by :func:`reference_conjugate_cols`:
    (generators, gradings, [diff, phi, iota(, phi_inverse)] columns)."""
    cx = x.complex
    maps = [cx.boundary(), x.phi, x.iota] + (
        [x.phi_inverse] if x.phi_inverse else [])
    skews = [f.mode == "skew" for f in maps]
    maps = [dict_cols(f) for f in maps]
    n = cx.n
    done = attempts = 0
    while done < moves and attempts < 40 * moves:
        attempts += 1
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        # new_i = e_i + m e_j with gr(e_j) + deg(m) = gr(e_i)
        du, dv = (cx.gradings[j][k] - cx.gradings[i][k] for k in (0, 1))
        if du < 0 or dv < 0 or du % 2 or dv % 2:
            continue
        m = (du // 2, dv // 2)
        maps = [reference_conjugate_cols(cols, i, j, m, skew)
                for cols, skew in zip(maps, skews)]
        done += 1
    perm = list(range(n))
    rng.shuffle(perm)
    gens, grads = [None] * n, [None] * n
    out = [[None] * n for _ in maps]
    for s in range(n):
        gens[perm[s]] = f"g{perm[s]}"
        grads[perm[s]] = cx.gradings[s]
        for cols, new in zip(maps, out):
            new[perm[s]] = {perm[t]: p for t, p in cols[s].items()}
    return tuple(gens), tuple(grads), out


def reference_objective(cols):
    """(terms, conflicts, mixed) of a differential, recounted in full."""
    terms = 0
    mixed = 0
    out_u: dict = {}
    out_v: dict = {}
    in_u: dict = {}
    in_v: dict = {}
    for s, col in enumerate(cols):
        for t, p in col.items():
            for a, b in p:
                terms += 1
                if a and b:
                    mixed += 1
                elif a:
                    out_u[s] = out_u.get(s, 0) + 1
                    in_u[t] = in_u.get(t, 0) + 1
                else:
                    out_v[s] = out_v.get(s, 0) + 1
                    in_v[t] = in_v.get(t, 0) + 1
    conflicts = sum(max(0, k - 1) for d in (out_u, out_v, in_u, in_v)
                    for k in d.values())
    return (terms, conflicts, mixed)


def reference_sweep(gradings, cols, max_passes: int = 80):
    """The transvection sweep that copies the differential for every trial
    move and rescores it in full."""
    from corkscrew.algebra import slice_monomial

    n = len(gradings)
    cols = [dict(c) for c in cols]
    moves = []
    best = reference_objective(cols)
    for _ in range(max_passes):
        improved = False
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                m = slice_monomial(gradings[j], gradings[i])
                if m is None:
                    continue
                trial = list(reference_conjugate_cols(cols, i, j, m, False))
                score = reference_objective(trial)
                if score < best:
                    cols = trial
                    best = score
                    moves.append((i, j, m))
                    improved = True
        if not improved:
            break
    return cols, moves


def reference_involution_candidates(cx, cap: int = 18) -> list:
    """Skew chain maps squaring to the twist up to homotopy: every point
    of the affine solution space, one homotopy solve per candidate."""
    from itertools import combinations

    from corkscrew.complexes import SKEW, sarkar_map
    from corkscrew.errors import SearchCapExceeded
    from corkscrew.homotopy import Left, MapShape, MapSystem, Right, homotopic

    d = cx.boundary()
    s = sarkar_map(cx)
    sys = MapSystem()
    shape = MapShape(cx, cx, SKEW, (0, 0))
    sys.add_unknown("i", shape)
    sys.add_equation([("i", [Right(d), Left(d)])])
    sol = sys.solutions_bits()
    if sol is None:
        return []
    if len(sol.kernel) > cap:
        raise SearchCapExceeded(f"{len(sol.kernel)} free bits")
    found = []
    for r in range(len(sol.kernel) + 1):
        for picks in combinations(range(len(sol.kernel)), r):
            bits = sol.particular
            for p in picks:
                bits ^= sol.kernel[p]
            cand = shape.assemble(bits)
            if homotopic(cand.compose(cand), s) is not None:
                found.append((tuple((bits >> i) & 1
                                    for i in range(shape.size)), cand))
    found.sort(key=lambda t: t[0])
    return [cand for _, cand in found]


def reference_zero_subsets(constant, linear, pair) -> list:
    """The subsets of kernel vectors, each a sorted tuple of indices, on
    which the involution search's quadratic form vanishes: the form
    evaluated from scratch on every subset, by size and then in
    ``combinations`` order, as ``models.involution_candidates`` first
    did."""
    from itertools import combinations

    r = len(linear)
    found = []
    for size in range(r + 1):
        for picks in combinations(range(r), size):
            v = constant
            for a in picks:
                v ^= linear[a]
            for ab in combinations(picks, 2):
                v ^= pair[ab]
            if not v:
                found.append(picks)
    return found


# -- the connected model, as first rebuilt from its form ------------------------

def reference_model(steps, sign, anchor, boxes,
                    name: str = "standard") -> KnotComplex:
    """Rebuild the canonical complex of a recognised form.

    The staircase is laid out along the recognition path: generator i at
    anchor + i*(-1, 1), sources at odd positions for the builder
    orientation and at even positions for the mirror."""
    if any(s != 1 for s in steps):
        raise ValidationError("only step-one staircases are rebuilt")
    count = len(steps) + 1
    gens = tuple(f"y{i}" for i in range(count))
    grads = tuple((anchor[0] - i, anchor[1] + i) for i in range(count))
    source_parity = 1 if sign > 0 else 0
    cols = []
    for i in range(count):
        col = 0
        if count > 1 and i % 2 == source_parity:
            if i > 0:
                col |= 1 << (i - 1)  # U y_(i-1)
            if i + 1 < count:
                col |= 1 << (i + 1)  # V y_(i+1)
        cols.append(col)
    stair = KnotComplex("stair", gens, grads, cols)
    parts = [stair]
    for k, (ell, corner) in enumerate(boxes):
        parts.append(box_complex(ell, at=corner, suffix="" if not k else str(k)))
    return direct_sum(*parts, name=name)


# -- the slice-homology pipeline, two passes with nothing shared --------------

def u_cols(uc, cols, degree: int) -> list:
    """Bit columns of a map of the given degree on a UComplex as
    {target: U-exponents}, each exponent solved from the gradings: U^e
    takes the target's grading to the source's plus the degree."""
    out = []
    for s, col in enumerate(cols):
        want = uc.gradings[s] + degree
        entry = {}
        for t, have in enumerate(uc.gradings):
            if (col >> t) & 1:
                e = (have - want) // 2
                assert e >= 0 and have - 2 * e == want, (
                    f"entry {s}->{t} has no power of U")
                entry[t] = frozenset({e})
        out.append(entry)
    return out


def apply_ucols(cols, vec: dict) -> dict:
    """Apply U-complex columns, as from :func:`u_cols`, to
    {generator: U-exponents}."""
    out: dict = {}
    for s, exps in vec.items():
        for t, entry in cols[s].items():
            acc = out.get(t, frozenset())
            for e in exps:
                acc = acc ^ frozenset(k + e for k in entry)
            out[t] = acc
    return {t: e for t, e in out.items() if e}


class _ReferenceDiagonal:
    """Slice homology of a UComplex over one window, every position map
    rebuilt on use and every slice recomputed by every instance."""

    def __init__(self, uc, widen: int = 0, expect_tower: bool = True):
        self.uc = uc
        self.gmax = max(uc.gradings)
        self.gmin = min(uc.gradings)
        maps = [(uc.cols, -1)] + [(cols, 0) for cols in (uc.phi_cols,
                                                         uc.iota_cols)
                                  if cols is not None]
        self.ntor = uc.n * (1 + max((e for cols, degree in maps
                                     for col in u_cols(uc, cols, degree)
                                     for exps in col.values()
                                     for e in exps), default=0))
        self.hi = self.gmax + 2
        self.lo = self.gmin - 2 * self.ntor - 2 * widen
        self._H: dict = {}
        self.tower = None
        if expect_tower:
            self._locate_tower()

    def slice_gens(self, d: int) -> list:
        return [g for g in range(self.uc.n) if self.uc.gradings[g] >= d
                and (self.uc.gradings[g] - d) % 2 == 0]

    def _pos(self, d: int) -> dict:
        return {g: i for i, g in enumerate(self.slice_gens(d))}

    def boundary_columns(self, d: int) -> list:
        tgt_pos = self._pos(d - 1)
        cols = []
        for g in self.slice_gens(d):
            word = 0
            for t in range(self.uc.n):
                if (self.uc.cols[g] >> t) & 1:
                    word ^= 1 << tgt_pos[t]
            cols.append(word)
        return cols

    def homology(self, d: int) -> ReferenceSlice:
        if d not in self._H:
            self._H[d] = ReferenceSlice(len(self.slice_gens(d)),
                                        _kernel(self.boundary_columns(d)),
                                        self.boundary_columns(d + 1))
        return self._H[d]

    def push(self, vec: int, d: int, steps: int) -> int:
        if steps == 0:
            return vec
        tgt_pos = self._pos(d - 2 * steps)
        out = 0
        for i, g in enumerate(self.slice_gens(d)):
            if (vec >> i) & 1:
                out |= 1 << tgt_pos[g]
        return out

    def nontorsion_bit(self, vec: int, d: int) -> int:
        return reference_nontorsion_bit(self, vec, d)

    def _locate_tower(self):
        from corkscrew.errors import ValidationError

        r0 = self.homology(self.gmin - 1).rank
        r1 = self.homology(self.gmin - 2).rank
        if r0 + r1 != 1:
            raise ValidationError(
                f"{self.uc.name}: inverted homology has rank {r0 + r1}, "
                f"expected a single free tower")
        for d in range(self.hi, self.lo - 1, -1):
            h = self.homology(d)
            lam = [self.nontorsion_bit(z, d) for z in h.cycles]
            if any(lam):
                self.tower = (d, self.lex_witness(d, lam))
                return
        raise ValidationError(
            f"{self.uc.name}: no nontorsion class found in the window")

    def lex_witness(self, d: int, lam: list) -> int:
        """The smallest cycle with functional 1: the first such cycle
        reduced against the differences that keep the functional, which
        clears its lowest bits first."""
        h = self.homology(d)
        pick = [z for z, bit in zip(h.cycles, lam) if bit]
        rest = [z for z, bit in zip(h.cycles, lam) if not bit]
        return _reduce(pick[0],
                       _span_basis(rest + [pick[0] ^ z for z in pick[1:]]))


def reference_nontorsion_bit(hom, vec: int, d: int) -> int:
    """The tower functional as first written, on the position-indexed
    :class:`_ReferenceDiagonal`: push the vector to the stable grading of
    its parity, then ask every homology representative there for its
    coefficient (:meth:`ReferenceSlice.rep_coefficient`)."""
    if vec == 0:
        return 0
    target = hom.gmin - 1
    if (d - target) % 2:
        target -= 1
    target = min(d, target)
    pushed = hom.push(vec, d, (d - target) // 2)
    h = hom.homology(target)
    return 1 if any(h.rep_coefficient(pushed, i)
                    for i in range(h.rank)) else 0


def _reference_summary(uc, widen: int):
    from corkscrew.errors import WindowUnstableError
    from corkscrew.invariants import UHomology

    hom = _ReferenceDiagonal(uc, widen)
    top, rep_bits = hom.tower
    rep = [(uc.labels[g], (uc.gradings[g] - top) // 2)
           for i, g in enumerate(hom.slice_gens(top)) if (rep_bits >> i) & 1]
    torsion = []
    for d in range(hom.hi, hom.gmin - 1, -1):
        h = hom.homology(d)
        if h.rank == 0:
            continue
        free = int(any(hom.nontorsion_bit(z, d) for z in h.reps))
        rank, k = h.rank, 0
        while rank > free:
            k += 1
            if k > hom.ntor + 1:
                raise WindowUnstableError(
                    f"{uc.name}: torsion order exceeds the window bound")
            hk = hom.homology(d - 2 * k)
            image = len(_span_basis([hk.class_coords(hom.push(z, d, k))
                                     for z in h.reps]))
            torsion += [(d, k)] * (rank - image)
            rank = image
    return UHomology(tower_top=top, tower_rep=tuple(rep),
                     torsion=tuple(sorted(torsion)),
                     window=(hom.lo, hom.hi))


def reference_homology_u(uc):
    """homology_u computed twice from scratch, over the proven window and
    over one two gradings wider."""
    from corkscrew.errors import WindowUnstableError

    first = _reference_summary(uc, 0)
    second = _reference_summary(uc, 1)
    if (first.tower_top, first.torsion) != (second.tower_top, second.torsion):
        raise WindowUnstableError(
            f"{uc.name}: enlarging the window changed the answer")
    return first


def _reference_cylinder(uc):
    """Total U-complex of the cylinder, D^2 = 0 checked generator by
    generator on the U-polynomial columns."""
    from corkscrew.errors import ValidationError
    from corkscrew.invariants import UComplex

    n = uc.n
    d_cols = u_cols(uc, uc.cols, -1)
    cols = []
    for s in range(n):
        col = dict(d_cols[s])
        for block, action in ((1, u_cols(uc, uc.phi_cols, 0)),
                              (2, u_cols(uc, uc.iota_cols, 0))):
            one_plus = dict(action[s])
            one_plus[s] = one_plus.get(s, frozenset()) ^ frozenset({0})
            for t, e in one_plus.items():
                if e:
                    col[block * n + t] = e
        cols.append(col)
    for block in (1, 2):
        for s in range(n):
            cols.append({block * n + t: e for t, e in d_cols[s].items()})
    for s in range(3 * n):
        if apply_ucols(cols, apply_ucols(cols, {s: frozenset({0})})):
            raise ValidationError("cylinder differential does not square to 0")
    total = UComplex(
        name=f"Cyl({uc.name})",
        labels=tuple(f"{p}:{m}" for p in "xyz" for m in uc.labels),
        gradings=uc.gradings + tuple(g - 1 for g in uc.gradings) * 2,
        cols=tuple(dict_bits(cols)))
    # the exponents of the totalised columns are the ones the gradings
    # force
    assert u_cols(total, total.cols, -1) == cols
    return total


def _reference_delta_once(x, widen: int):
    from corkscrew.errors import ConsistencyError, GradingParityError
    from corkscrew.invariants import DeltaResult, a0

    uc = a0(x)
    a0_hom = _ReferenceDiagonal(uc, widen)
    total = _reference_cylinder(uc)
    cyl_hom = _ReferenceDiagonal(total, widen, expect_tower=False)
    n = uc.n
    for d in range(a0_hom.gmax, cyl_hom.lo - 1, -1):
        h = cyl_hom.homology(d)
        tgt_pos = a0_hom._pos(d)
        lam = []
        for z in h.cycles:
            qz = 0
            for i, g in enumerate(cyl_hom.slice_gens(d)):
                if g < n and (z >> i) & 1:
                    qz |= 1 << tgt_pos[g]
            lam.append(a0_hom.nontorsion_bit(qz, d))
        if not any(lam):
            continue
        if d % 2:
            raise GradingParityError(
                f"{x.complex.name}: nontorsion cylinder class at odd "
                f"grading {d}")
        bits = cyl_hom.lex_witness(d, lam)
        blocks = ({}, {}, {})
        for i, g in enumerate(cyl_hom.slice_gens(d)):
            if (bits >> i) & 1:
                blocks[g // n].setdefault(uc.labels[g % n], []).append(
                    (total.gradings[g] - d) // 2)
        wx, wy, wz = ({k: sorted(v) for k, v in b.items()} for b in blocks)
        return DeltaResult(delta=-d // 2, max_grading=d, witness_x=wx,
                           witness_y=wy, witness_z=wz,
                           window=(cyl_hom.lo, cyl_hom.hi))
    raise ConsistencyError(
        f"{x.complex.name}: no nontorsion projection found in the window")


def reference_delta(x):
    """delta as two full passes, over the proven window and over one two
    gradings wider, each rebuilding a0, the cylinder and every slice."""
    from corkscrew.complexes import validate
    from corkscrew.errors import (
        ConsistencyError,
        ValidationError,
        WindowUnstableError,
    )

    report = validate(x.complex, require_s3_type=True)
    if not report.ok or not report.s3_type:
        raise ValidationError(f"{x.complex.name}: {report.first_violation}")
    first = _reference_delta_once(x, 0)
    second = _reference_delta_once(x, 1)
    if first.delta != second.delta:
        raise WindowUnstableError(
            f"{x.complex.name}: delta changed under window enlargement")
    if first.delta < 0:
        raise ConsistencyError(
            f"{x.complex.name}: negative delta on an S^3-type complex")
    return first


# -- grading checks and tower shapes, one entry at a time ---------------------

def reference_grading_violation(f):
    """Endomorphism.grading_violation as first written: the forced
    monomial of every set bit, in (source, target) order."""
    from corkscrew.algebra import slice_monomial
    from corkscrew.complexes import SKEW

    for s, col in enumerate(f.cols):
        g = f.source.gradings[s]
        if f.mode == SKEW:
            g = (g[1], g[0])
        expect = gr_add(g, f.bidegree)
        for t in range(f.target.n):
            if ((col >> t) & 1 and slice_monomial(f.target.gradings[t],
                                                  expect) is None):
                return (f"bidegree violated at {f.source.generators[s]}->"
                        f"{f.target.generators[t]}")
    return None


def reference_decode_matrix(cx, raw, label: str, mode: str, bidegree):
    """The file decoder as first written: each entry's polynomial summed
    mod 2 as a set of monomials, then every nonzero entry compared with
    the monomial its gradings force, in (source, target) order.  Returns
    the bit columns."""
    from corkscrew.algebra import slice_monomial
    from corkscrew.complexes import SKEW
    from corkscrew.errors import ParseError, ValidationError

    def is_int(value):
        return isinstance(value, int) and not isinstance(value, bool)

    if not isinstance(raw, dict):
        raise ParseError(f"{label}: must be an object of columns")
    pos = {g: i for i, g in enumerate(cx.generators)}

    def index(gid) -> int:
        if isinstance(gid, str) and gid in pos:
            return pos[gid]
        raise ParseError(f"{label}: unknown generator {gid!r}")

    polys = [dict() for _ in range(cx.n)]
    for src, triples in raw.items():
        s = index(src)
        if not isinstance(triples, list):
            raise ParseError(f"{label}: column {src!r} must be a list")
        col = polys[s]
        for entry in triples:
            if not isinstance(entry, list) or len(entry) != 3:
                raise ParseError(f"{label}: entry {entry!r} is not a "
                                 f"[target, u_exp, v_exp] triple")
            tgt, a, b = entry
            t = index(tgt)
            if not (is_int(a) and is_int(b)):
                raise ParseError(f"{label}: non-integer exponent in {entry!r}")
            if a < 0 or b < 0:
                raise ParseError(f"{label}: negative exponent in {entry!r}")
            col[t] = col.get(t, frozenset()) ^ {(a, b)}
    for s, col in enumerate(polys):
        g = cx.gradings[s]
        if mode == SKEW:
            g = (g[1], g[0])
        expect = gr_add(g, bidegree)
        for t in sorted(col):
            if col[t] and col[t] != {slice_monomial(cx.gradings[t], expect)}:
                raise ValidationError(
                    f"{label} bidegree violated at {cx.generators[s]}->"
                    f"{cx.generators[t]}")
    return tuple(sum(1 << t for t, p in col.items() if p) for col in polys)


def reference_ucomplex_check(labels, gradings, maps):
    """The UComplex degree check and largest power of U as first
    written, entry by entry in (map, source, target) order, over maps
    given as (label, columns, degree): (first violation, None) or
    (None, max exponent)."""
    top = 0
    for label, cols, degree in maps:
        for s, col in enumerate(cols):
            for t in range(len(labels)):
                if not (col >> t) & 1:
                    continue
                twice = gradings[t] - gradings[s] - degree
                if twice < 0 or twice % 2:
                    return (f"{label} degree violated at "
                            f"{labels[s]}->{labels[t]}"), None
                top = max(top, twice // 2)
    return None, top


def reference_quotient_tower_shape(cx, killed: str):
    """quotient_tower_shape as first written: kept entries read off the
    forced monomial of every set bit, slices enumerated generator by
    generator through their monomials."""
    from corkscrew.complexes import entries
    from corkscrew.invariants import QuotientShape

    if killed not in ("u", "v"):
        raise ValueError("killed must be 'u' or 'v'")
    kill_idx = 0 if killed == "u" else 1

    cols = []
    maxexp = 0
    d = cx.boundary()
    for s in range(cx.n):
        kept = [(t, m) for t, m in entries(d, s) if m[kill_idx] == 0]
        cols.append([t for t, _ in kept])
        maxexp = max([maxexp] + [m[1 - kill_idx] for _, m in kept])
    depth = cx.n * (1 + maxexp) + 2

    def slice_of(t):
        return [i for m, i in slice_pairs(cx.gradings, t)
                if m[kill_idx] == 0]

    def cycles_and_h(t):
        src = slice_of(t)
        tgt = slice_of(gr_add(t, (-1, -1)))
        tgt_pos = {g: i for i, g in enumerate(tgt)}
        cyc = _kernel([sum(1 << tgt_pos[tt] for tt in cols[g] if tt in tgt_pos)
                       for g in src])
        up = slice_of(gr_add(t, (1, 1)))
        src_pos = {g: i for i, g in enumerate(src)}
        bnds = []
        for g in up:
            word = 0
            for tt in cols[g]:
                if tt in src_pos:
                    word ^= 1 << src_pos[tt]
            if word:
                bnds.append(word)
        return src, ReferenceSlice(len(src), cyc, bnds)

    rays: dict = {}
    for g in range(cx.n):
        gr = cx.gradings[g]
        if killed == "u":
            key = (gr[0], gr[1] % 2)
        else:
            key = (gr[1], gr[0] % 2)
        rays.setdefault(key, []).append(g)

    tower_count = 0
    tower_ray = None
    deep_slices: dict = {}
    for key, members in sorted(rays.items()):
        grs = [cx.gradings[g] for g in members]
        if killed == "u":
            deep = (grs[0][0], min(g[1] for g in grs) - 2 * depth)
        else:
            deep = (min(g[0] for g in grs) - 2 * depth, grs[0][1])
        _, h = cycles_and_h(deep)
        deep_slices[key] = (deep, h)
        if h.rank:
            tower_count += h.rank
            tower_ray = key
    if tower_count != 1:
        return QuotientShape(tower_count=tower_count, tower_top=None)

    deep, deep_h = deep_slices[tower_ray]
    members = rays[tower_ray]
    if killed == "u":
        top_v = max(cx.gradings[g][1] for g in members)
        span = (top_v - deep[1]) // 2
        tops = [(deep[0], top_v - 2 * k) for k in range(span + 1)]
    else:
        top_u = max(cx.gradings[g][0] for g in members)
        span = (top_u - deep[0]) // 2
        tops = [(top_u - 2 * k, deep[1]) for k in range(span + 1)]
    for t in tops:
        src, h = cycles_and_h(t)
        if not src:
            continue
        deep_src = slice_of(deep)
        deep_pos = {g: i for i, g in enumerate(deep_src)}
        for z in h.cycles:
            pushed = 0
            for i, g in enumerate(src):
                if (z >> i) & 1:
                    pushed |= 1 << deep_pos[g]
            if deep_h.class_coords(pushed):
                return QuotientShape(tower_count=1, tower_top=t)
    return QuotientShape(tower_count=1, tower_top=None)


def reference_lex_witness(cycles: list, lam: list) -> int:
    """The lexmin cycle with functional 1 as first computed: the first
    cycle of the basis with functional 1, plus the span of the others
    with functional 0 and of the differences of those with 1, reduced by
    ``lexmin_affine``."""
    from corkscrew.algebra import lexmin_affine

    pick = [z for z, bit in zip(cycles, lam) if bit]
    rest = [z for z, bit in zip(cycles, lam) if not bit]
    return lexmin_affine(pick[0], rest + [pick[0] ^ z for z in pick[1:]],
                         len(cycles))


# -- the canonical JSON writer as first written ----------------------------------

def reference_encode_columns(f) -> dict:
    """{source id: [[target id, u_exp, v_exp], ...]} through the
    ``entries`` tuples of every column, empty columns included."""
    from corkscrew.complexes import entries

    src, tgt = f.source.generators, f.target.generators
    return {src[s]: [[tgt[t], a, b] for t, (a, b) in entries(f, s)]
            for s in range(f.source.n)}


def _reference_is_leaf(value) -> bool:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return True
    if isinstance(value, list):
        return all(isinstance(v, (str, int, float, bool)) or v is None
                   or (isinstance(v, list) and _reference_is_leaf(v))
                   for v in value)
    return False


def reference_canonical_json(value, indent: int = 0) -> str:
    """The writer with one ``json.dumps`` per leaf and per key, and the
    leaf test walked afresh at every level."""
    import json

    pad = "  " * indent
    if _reference_is_leaf(value):
        return json.dumps(value)
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = ",\n".join(pad + "  " + reference_canonical_json(v, indent + 1)
                           for v in value)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: "
            f"{reference_canonical_json(v, indent + 1)}"
            for k, v in value.items())
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialise {type(value)!r}")


def reference_local_system(x1: PhiIotaComplex, x2: PhiIotaComplex,
                           t_cycle: int, mask: int):
    """The local-map system x1 -> x2 with its phi block always present:
    unknowns f, H_phi ("hp") and H_iota ("hi"), the chain-map equation,
    f phi + phi f = d H_phi + H_phi d, the iota equation and the locality
    row, whatever phi is."""
    from corkscrew.complexes import SKEW, STRAIGHT
    from corkscrew.homotopy import Left, MapShape, MapSystem, Right

    c1, c2 = x1.complex, x2.complex
    d1, d2 = c1.boundary(), c2.boundary()
    sys_ = MapSystem()
    sys_.add_unknown("f", MapShape(c1, c2, STRAIGHT, (0, 0)))
    sys_.add_unknown("hp", MapShape(c1, c2, STRAIGHT, (1, 1)))
    sys_.add_unknown("hi", MapShape(c1, c2, SKEW, (1, 1)))
    sys_.add_equation([("f", [Right(d1), Left(d2)])])
    sys_.add_equation([("f", [Right(x1.phi), Left(x2.phi)]),
                       ("hp", [Left(d2), Right(d1)])])
    sys_.add_equation([("f", [Right(x1.iota), Left(x2.iota)]),
                       ("hi", [Left(d2), Right(d1)])])
    sys_.add_functional("f", t_cycle, mask, 1)
    return sys_


class TaggedSpan:
    """A row echelon whose rows carry tags: reducing a vector clears its
    lowest pivot bit with that pivot's row, repeatedly, and toggles the
    row's tag, so :meth:`coefficients` writes a vector over the stored
    rows by tag."""

    def __init__(self):
        self.rows = []  # (pivot, vec, tag), in insertion order
        self._at = {}  # pivot bit -> (vec, tag)
        self._pivots = 0

    def _reduce(self, v, coeffs):
        while v & self._pivots:
            hit = v & self._pivots
            vec, tag = self._at[hit & -hit]
            v ^= vec
            coeffs[tag] = coeffs.get(tag, 0) ^ 1
        return v

    def insert(self, v, tag=None) -> int:
        v = self._reduce(v, {})
        if v:
            low = v & -v
            self._at[low] = (v, tag)
            self._pivots |= low
            self.rows.append((low.bit_length() - 1, v, tag))
        return v

    def coefficients(self, v) -> dict:
        coeffs: dict = {}
        if self._reduce(v, coeffs):
            raise ValidationError("vector outside the recorded span")
        return coeffs


def reference_tower_generators(hom, d: int) -> int:
    """The tower functional at the stable grading of d's parity, read one
    generator at a time: the slice's boundaries, cycles and then unit
    vectors go into a fresh tagged span, and each unit vector is written
    over it by its own reduction; generator g is in the mask when the one
    representative's coefficient there is 1."""
    target = hom.gmin - 1 - (d - hom.gmin + 1) % 2
    span = TaggedSpan()
    for b in hom._columns(target + 1).values():
        span.insert(b, tag="b")
    reps = 0
    for z in hom.cycle_basis(target):
        if span.insert(z, tag=("h", reps)):
            reps += 1
    if not reps:
        return 0
    mask = hom.uc.levels.above(target)
    gens = [g for g in range(hom.uc.n) if mask >> g & 1]
    for g in gens:
        span.insert(1 << g, tag="c")
    return sum(1 << g for g in gens
               if span.coefficients(1 << g).get(("h", 0), 0))


def reference_peel_boxes(gradings, cols):
    """``connected._peel_boxes`` as it was first written, over a tagged
    span: each PX vector's row is tagged with its quadruple, and a
    vector's coefficient on quadruple i's PX row is the tag's
    coefficient."""
    from corkscrew.algebra import Echelon, Levels, inverse_cols, mat_vec
    from corkscrew.connected import _pure_arrows
    from corkscrew.errors import ConsistencyError

    n = len(gradings)
    arrows = _pure_arrows(gradings, cols)
    if not arrows or len({e for _, _, _, e in arrows}) != 1:
        return None
    a_cols = [0] * n
    b_cols = [0] * n
    for s, t, var, _ in arrows:
        (a_cols if var == "u" else b_cols)[s] |= 1 << t

    p_vecs = [mat_vec(a_cols, b_cols[s]) for s in range(n)]
    span = Echelon()
    xs = [s for s in range(n) if span.insert(p_vecs[s])]
    if not xs:
        return None
    quads = []
    for s in xs:
        x = 1 << s
        quads.append((x, mat_vec(a_cols, x), mat_vec(b_cols, x), p_vecs[s]))
    deco = TaggedSpan()
    for part in range(4):
        for i, q in enumerate(quads):
            if not deco.insert(q[part], tag=i if part == 3 else None):
                return None
    completion = [1 << s for s in range(n) if deco.insert(1 << s)]

    def sigma(v):
        out = 0
        c_ab = deco.coefficients(mat_vec(a_cols, mat_vec(b_cols, v)))
        c_b = deco.coefficients(mat_vec(b_cols, v))
        c_a = deco.coefficients(mat_vec(a_cols, v))
        c_v = deco.coefficients(v)
        for i, (x, ax, bx, px) in enumerate(quads):
            if c_ab.get(i):
                out ^= x
            if c_b.get(i):
                out ^= ax
            if c_a.get(i):
                out ^= bx
            if c_v.get(i):
                out ^= px
        return out

    m_bits = []
    for x, ax, bx, px in quads:
        m_bits.extend((x, ax, bx, px))
    for c in completion:
        m_bits.append(c ^ sigma(c))
    inv_bits = inverse_cols(m_bits)
    if inv_bits is None:
        return None
    new_grads = tuple(gradings[(v & -v).bit_length() - 1] for v in m_bits)
    at = dict(Levels(gradings).masks)
    if any(v & ~at[g] for v, g in zip(m_bits, new_grads)):
        raise ConsistencyError("peeled basis vector is not homogeneous")
    return m_bits, inv_bits, new_grads
