"""Decision procedures for homotopy questions between graded maps.

Every question here reduces to an exact F2 linear system: a grading
homogeneous map is determined by finitely many slice coordinates (one bit
per admissible (monomial, target) pair for each source generator), and all
constraints -- chain map, homotopy, commutation up to homotopy, locality --
are linear in those coordinates.  Locality is a single extra affine row:
the class of the image of a fixed nontorsion cycle must survive inverting
the variables, which is one F2 functional, so existence questions never
enumerate the solution space.  The cycle is a bit vector over generators
and the functional a bit mask over the target's generators (see
``invariants.A0Data``), so the row is read straight off the coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .algebra import (
    Echelon,
    F2Inconsistency,
    Grading,
    gr_add,
    gr_swap,
    inverse_cols,
    lexmin_affine,
    mat_vec,
    ones,
    parity,
    slice_pairs,
    solve_f2_rows,
)
from .complexes import (
    Endomorphism,
    KnotComplex,
    PhiIotaComplex,
    SKEW,
    STRAIGHT,
    chain_commutes,
    transpose_cols,
)
from .errors import ConsistencyError, ValidationError


@dataclass(frozen=True)
class MapShape:
    source: KnotComplex
    target: KnotComplex
    mode: str
    bidegree: Grading

    def unknowns(self) -> list:
        """(src, mono, tgt) coordinates, slice-basis order per source."""
        out = []
        for s in range(self.source.n):
            g = self.source.gradings[s]
            if self.mode == SKEW:
                g = gr_swap(g)
            target_gr = gr_add(g, self.bidegree)
            for m, t in slice_pairs(self.target.gradings, target_gr):
                out.append((s, m, t))
        return out

    def assemble(self, bits: int, coords: list) -> Endomorphism:
        cols = [0] * self.source.n
        for i, (s, _, t) in enumerate(coords):
            if (bits >> i) & 1:
                cols[s] ^= 1 << t
        return Endomorphism(self.source, self.target, cols, self.mode,
                            self.bidegree, check=False)


class Left(NamedTuple):
    """The operator X -> A o X."""

    map: Endomorphism

    def apply(self, x: Endomorphism) -> Endomorphism:
        return self.map.compose(x)

    def entries(self, coords: list):
        """(coordinate index, source, target) of every term of A o E over
        the elementary maps E, one per coordinate (s, m, t): A o E is
        column t of A moved to source s.  A term's monomial is the one the
        gradings force, so it is left out."""
        targets = [list(ones(col)) for col in self.map.cols]
        for ci, (s, _, t) in enumerate(coords):
            for t2 in targets[t]:
                yield ci, s, t2


class Right(NamedTuple):
    """The operator X -> X o B."""

    map: Endomorphism

    def apply(self, x: Endomorphism) -> Endomorphism:
        return x.compose(self.map)

    def entries(self, coords: list):
        """As :meth:`Left.entries` for E o B: E o B is row s of B, the
        sources s' whose column of B holds s, each sent to target t."""
        b = self.map
        sources = [list(ones(row))
                   for row in transpose_cols(b.cols, b.target.n)]
        for ci, (s, _, t) in enumerate(coords):
            for s2 in sources[s]:
                yield ci, s2, t


class MapSystem:
    """Linear system whose unknowns are grading-homogeneous maps.

    Equations have the form ``sum of op(unknown) = rhs``, where each
    operator is a sum of :class:`Left` (``X -> A o X``) and :class:`Right`
    (``X -> X o B``) terms.  An unknown's coordinates are the elementary
    maps (s, m, t); every row bit is written straight from the bits of A
    and B, without building a map per coordinate.  A row is one
    (equation, source, target) entry of the equation's value: all terms
    of an equation share one mode and bidegree, so the gradings force the
    entry's monomial and the key leaves it out.
    """

    def __init__(self):
        self.names: list = []
        self.shapes: dict = {}
        self.coords: dict = {}
        self.offsets: dict = {}
        self.total = 0
        self.equations: list = []  # (terms, rhs_endo_or_None)
        self.functionals: list = []  # (name, vector, mask, rhs_bit)

    def add_unknown(self, name: str, shape: MapShape) -> None:
        if name in self.shapes:
            raise ValueError(f"duplicate unknown {name!r}")
        self.names.append(name)
        self.shapes[name] = shape
        self.coords[name] = shape.unknowns()
        self.offsets[name] = self.total
        self.total += len(self.coords[name])

    def add_equation(self, terms, rhs: Optional[Endomorphism] = None) -> None:
        """terms: list of (unknown name, list of Left/Right operators).
        Every term must compose, and every term and the rhs must have one
        mode and bidegree."""
        values = set() if rhs is None else {(rhs.mode, rhs.bidegree)}
        for name, ops in terms:
            zero = self.shapes[name].assemble(0, [])
            for op in ops:
                value = op.apply(zero)
                values.add((value.mode, value.bidegree))
        if len(values) > 1:
            raise ValidationError(
                f"equation terms differ in mode or bidegree: {sorted(values)}")
        self.equations.append((list(terms), rhs))

    def add_functional(self, name: str, vector: int, mask: int,
                       rhs_bit: int) -> None:
        """One affine row: ``parity(f(vector) & mask) = rhs_bit`` for the
        unknown f.  ``vector`` is a homogeneous element of f's source, as
        bits over its generators, and ``mask`` a bit mask over f's target
        generators at the bigrading f takes it to.  The elementary map
        (s, m, t) sends the vector to generator t when s is in it, so the
        row has coordinate (s, m, t) exactly when s is in ``vector`` and t
        in ``mask``."""
        self.functionals.append((name, vector, mask, rhs_bit))

    def _rows(self):
        """Rows and rhs bits, equation by equation, each equation's rows in
        the order their entries first occur; an entry only the rhs has is
        an all-zero row with rhs 1, and those come after every equation.
        Functional rows come last."""
        out_rows: list = []
        out_rhs: list = []
        rhs_only = 0
        for terms, rhs_endo in self.equations:
            rows: dict = {}
            for name, ops in terms:
                off = self.offsets[name]
                for op in ops:
                    for ci, s, t in op.entries(self.coords[name]):
                        rows[s, t] = rows.get((s, t), 0) ^ (1 << (off + ci))
            out_rows.extend(rows.values())
            if rhs_endo is None:
                out_rhs.extend([0] * len(rows))
                continue
            ones_at = {(s, t) for s, col in enumerate(rhs_endo.cols)
                       for t in ones(col)}
            out_rhs.extend([1 if key in ones_at else 0 for key in rows])
            rhs_only += len(ones_at.difference(rows))
        out_rows.extend([0] * rhs_only)
        out_rhs.extend([1] * rhs_only)
        for name, vector, mask, rhs_bit in self.functionals:
            off = self.offsets[name]
            row = 0
            for ci, (s, _, t) in enumerate(self.coords[name]):
                if (vector >> s) & 1 and (mask >> t) & 1:
                    row |= 1 << (off + ci)
            out_rows.append(row)
            out_rhs.append(rhs_bit)
        return out_rows, out_rhs

    def solve(self, lexmin: bool = False):
        """Return ({name: Endomorphism}, F2Solution) or (None, certificate)."""
        rows, rhs = self._rows()
        sol = solve_f2_rows(rows, rhs, self.total)
        if isinstance(sol, F2Inconsistency):
            return None, sol
        bits = sol.particular
        if lexmin:
            bits = lexmin_affine(bits, sol.kernel, self.total)
        return self._split(bits), sol

    def _split(self, bits: int) -> dict:
        out = {}
        for name in self.names:
            off = self.offsets[name]
            n = len(self.coords[name])
            chunk = (bits >> off) & ((1 << n) - 1)
            out[name] = self.shapes[name].assemble(chunk, self.coords[name])
        return out

    def solutions_bits(self):
        """(particular, kernel) of the full system, for enumeration callers."""
        rows, rhs = self._rows()
        sol = solve_f2_rows(rows, rhs, self.total)
        if isinstance(sol, F2Inconsistency):
            return None
        return sol


class HomotopyClasses:
    """Straight bidegree-(0, 0) self-maps of a complex modulo null-homotopic
    ones, i.e. modulo the image of H -> dH + Hd over straight H of
    bidegree (1, 1).

    A map is a bitmask over its entry coordinates (s, m, t); the image is
    echelonised once, and the reduction of a map against it is a normal
    form: two maps are homotopic exactly when their normal forms agree.
    The normal form is linear in the map.
    """

    def __init__(self, cx: KnotComplex):
        self.shape = MapShape(cx, cx, STRAIGHT, (0, 0))
        self.coords = self.shape.unknowns()
        self.bit = {(s, t): 1 << k for k, (s, _, t) in enumerate(self.coords)}
        d = cx.boundary()
        h_coords = MapShape(cx, cx, STRAIGHT, (1, 1)).unknowns()
        image = [0] * len(h_coords)
        for op in (Left(d), Right(d)):
            for ci, s, t in op.entries(h_coords):
                image[ci] ^= self.bit[s, t]
        self.image = Echelon(image)

    def normal_form(self, f: Endomorphism) -> int:
        if f.mode != STRAIGHT or f.bidegree != (0, 0):
            raise ValidationError("normal forms are of straight (0, 0) maps")
        v = 0
        for s, col in enumerate(f.cols):
            for t in ones(col):
                v ^= self.bit[s, t]
        return self.image.reduce(v)


# -- homotopy ------------------------------------------------------------------

@dataclass
class Homotopy:
    """H with f + g = dH + Hd, verified exactly on every generator."""

    matrix: Endomorphism

    def verifies(self, f: Endomorphism, g: Endomorphism) -> bool:
        d_src = f.source.boundary()
        d_tgt = f.target.boundary()
        lhs = f + g
        rhs = d_tgt.compose(self.matrix) + self.matrix.compose(d_src)
        return lhs == rhs


def _same_shape(f: Endomorphism, g: Endomorphism) -> None:
    if f.mode != g.mode or f.bidegree != g.bidegree \
            or f.source != g.source or f.target != g.target:
        raise ValidationError("maps do not share source/target/mode/bidegree")


def homotopic(f: Endomorphism, g: Endomorphism):
    """Solve dH + Hd = f + g.  Returns a Homotopy or None.

    The witness is deterministic: the solution read off the reduced
    echelon form of the system, free coordinates zero.
    """
    _same_shape(f, g)
    diff = f + g
    if diff.is_zero():
        return Homotopy(f.source.zero_map(f.mode, gr_add(f.bidegree, (1, 1))))
    sys = MapSystem()
    shape = MapShape(f.source, f.target, f.mode, gr_add(f.bidegree, (1, 1)))
    sys.add_unknown("h", shape)
    d_src = f.source.boundary()
    d_tgt = f.target.boundary()
    sys.add_equation([("h", [Left(d_tgt), Right(d_src)])], rhs=diff)
    ans, _ = sys.solve()
    if ans is None:
        return None
    h = Homotopy(ans["h"])
    if not h.verifies(f, g):
        raise ConsistencyError("solved homotopy fails dH + Hd = f + g")
    return h


def commutes_up_to_homotopy(f: Endomorphism, g: Endomorphism):
    """Decide f o g ~ g o f; returns the homotopy or None."""
    fg = f.compose(g)
    gf = g.compose(f)
    if fg.mode != gf.mode or fg.bidegree != gf.bidegree:
        raise ValidationError(
            "compositions have incompatible shapes; cannot compare")
    return homotopic(fg, gf)


def homotopy_inverse(cx: KnotComplex, phi: Endomorphism):
    """A chain map g with phi o g ~ id ~ g o phi, or None.

    g is the lexicographically smallest such map in the slice basis, and
    one of two routes finds it.

    * When phi is straight of bidegree (0, 0) and its bit matrix B is
      invertible over F2, phi is a chain isomorphism.  B^-1 is a power of
      B, so it is again a homogeneous chain map.  The maps g that the
      solve below accepts are exactly B^-1 plus a null-homotopic map
      (g ~ B^-1 phi g ~ B^-1), the coset of B^-1 modulo the image of
      H -> dH + Hd.  g's coordinates are the lowest bits of that solve,
      so its lexmin g is the lexmin of the coset: the reduction of B^-1
      against the image, :meth:`HomotopyClasses.normal_form`.
    * Otherwise the three-unknown system g d = d g,
      phi g + dH1 + H1 d = id, g phi + dH2 + H2 d = id is solved for its
      lexmin solution.  A singular B does not rule out an inverse: on a
      complex that is not reduced, phi may be a homotopy equivalence
      without being an isomorphism.
    """
    inv = _bit_inverse(cx, phi)
    if inv is None:
        return _solve_inverse(cx, phi)
    classes = HomotopyClasses(cx)
    g = classes.shape.assemble(classes.normal_form(inv), classes.coords)
    if not chain_commutes(cx, g):
        raise ConsistencyError(f"{cx.name}: reduced inverse of phi is not "
                               f"a chain map")
    return g


def _bit_inverse(cx: KnotComplex, phi: Endomorphism):
    """The inverse of phi's bit matrix when phi is a well-graded straight
    (0, 0) chain map whose matrix is invertible over F2, else None."""
    if (phi.mode != STRAIGHT or phi.bidegree != (0, 0)
            or phi.grading_violation() or not chain_commutes(cx, phi)):
        return None
    inv_cols = inverse_cols(phi.cols)
    if inv_cols is None:
        return None
    inv = Endomorphism(cx, cx, inv_cols, STRAIGHT, (0, 0), check=False)
    ident = cx.identity()
    if (phi.compose(inv) != ident or inv.compose(phi) != ident
            or inv.grading_violation()):
        raise ConsistencyError(f"{cx.name}: F2 inverse of phi is not a "
                               f"homogeneous inverse")
    return inv


def _solve_inverse(cx: KnotComplex, phi: Endomorphism):
    """The lexmin g of the three-unknown homotopy-inverse system, or None."""
    sys = MapSystem()
    d = cx.boundary()
    ident = cx.identity()
    sys.add_unknown("g", MapShape(cx, cx, phi.mode, (0, 0)))
    sys.add_unknown("h1", MapShape(cx, cx, STRAIGHT, (1, 1)))
    sys.add_unknown("h2", MapShape(cx, cx, STRAIGHT, (1, 1)))
    sys.add_equation([("g", [Right(d), Left(d)])])
    sys.add_equation([("g", [Left(phi)]), ("h1", [Left(d), Right(d)])],
                     rhs=ident)
    sys.add_equation([("g", [Right(phi)]), ("h2", [Left(d), Right(d)])],
                     rhs=ident)
    ans, _ = sys.solve(lexmin=True)
    return None if ans is None else ans["g"]


# -- locality ------------------------------------------------------------------

@dataclass
class LocalityCertificate:
    """Witness for (or refutation of) the existence of a local map."""

    exists: bool
    f: Optional[Endomorphism] = None
    h_phi: Optional[Endomorphism] = None
    h_iota: Optional[Endomorphism] = None
    shift: int = 0  # grading shift of f; local maps here preserve gradings
    obstruction: Optional[dict] = None


def _local_system(x1: PhiIotaComplex, x2: PhiIotaComplex,
                  t_cycle: int, mask: int) -> MapSystem:
    c1, c2 = x1.complex, x2.complex
    d1, d2 = c1.boundary(), c2.boundary()
    sys = MapSystem()
    sys.add_unknown("f", MapShape(c1, c2, STRAIGHT, (0, 0)))
    sys.add_unknown("hp", MapShape(c1, c2, STRAIGHT, (1, 1)))
    sys.add_unknown("hi", MapShape(c1, c2, SKEW, (1, 1)))
    sys.add_equation([("f", [Right(d1), Left(d2)])])
    sys.add_equation([("f", [Right(x1.phi), Left(x2.phi)]),
                      ("hp", [Left(d2), Right(d1)])])
    sys.add_equation([("f", [Right(x1.iota), Left(x2.iota)]),
                      ("hi", [Left(d2), Right(d1)])])
    sys.add_functional("f", t_cycle, mask, 1)
    return sys


def local_map_exists(x1: PhiIotaComplex, x2: PhiIotaComplex,
                     window_bump: int = 0) -> LocalityCertificate:
    """Decide whether a grading-preserving local map x1 -> x2 exists, and
    produce the witness triple (f, H_phi, H_iota) or the inconsistency
    certificate.

    Locality is one affine row: the class of f(tower cycle) must be
    nontorsion after restricting to the diagonal subcomplex of x2, which is
    a single linear functional of f.
    """
    from .invariants import A0Data  # deferred: invariants imports us back

    tower1 = A0Data(x1, window_bump=window_bump)
    tower2 = A0Data(x2, window_bump=window_bump)
    t_cycle, t_grading = tower1.tower_cycle_in_c()
    sys = _local_system(x1, x2, t_cycle, tower2.mask(t_grading))
    ans, cert = sys.solve()
    if ans is None:
        return LocalityCertificate(False, obstruction={
            "rows": "left-kernel", "combo": cert.combo, "shift": 0})
    out = LocalityCertificate(True, ans["f"], ans["hp"], ans["hi"])
    _check_witness(x1, x2, out)
    return out


def _check_witness(x1, x2, cert: LocalityCertificate) -> None:
    d1, d2 = x1.complex.boundary(), x2.complex.boundary()
    f, hp, hi = cert.f, cert.h_phi, cert.h_iota
    if not (f.compose(d1) + d2.compose(f)).is_zero():
        raise ConsistencyError("local map witness is not a chain map")
    if (f.compose(x1.phi) + x2.phi.compose(f)
            != d2.compose(hp) + hp.compose(d1)):
        raise ConsistencyError("local map witness fails its phi homotopy")
    if (f.compose(x1.iota) + x2.iota.compose(f)
            != d2.compose(hi) + hi.compose(d1)):
        raise ConsistencyError("local map witness fails its iota homotopy")


# -- self-local spaces ----------------------------------------------------------

@dataclass
class MorphismSpace:
    """Solution space of grading-preserving self-maps commuting with the
    differential and (up to homotopy) with iota, with the locality
    functional evaluated on each basis element."""

    complex: KnotComplex
    basis: list = field(default_factory=list)  # Endomorphism, f-part only
    locality_bits: list = field(default_factory=list)

    def members(self, selector: int) -> Endomorphism:
        out = self.complex.zero_map()
        for i, b in enumerate(self.basis):
            if (selector >> i) & 1:
                out = out + b
        return out

    def locality(self, selector: int) -> int:
        bit = 0
        for i, lam in enumerate(self.locality_bits):
            if (selector >> i) & 1:
                bit ^= lam
        return bit


def self_local_space(x: PhiIotaComplex, window_bump: int = 0) -> MorphismSpace:
    """Basis of the constraint space of grading-preserving self-maps.

    Members satisfy f d = d f and f iota ~ iota f; the locality of any
    member is read off from the stored functional bits (the space itself
    always contains non-local members such as 0).
    """
    from .invariants import A0Data

    cx = x.complex
    d = cx.boundary()
    tower = A0Data(x, window_bump=window_bump)
    t_cycle, t_grading = tower.tower_cycle_in_c()
    mask = tower.mask(t_grading)

    sys = MapSystem()
    f_shape = MapShape(cx, cx, STRAIGHT, (0, 0))
    sys.add_unknown("f", f_shape)
    sys.add_unknown("hi", MapShape(cx, cx, SKEW, (1, 1)))
    sys.add_equation([("f", [Right(d), Left(d)])])
    sys.add_equation([("f", [Right(x.iota), Left(x.iota)]),
                      ("hi", [Left(d), Right(d)])])
    sol = sys.solutions_bits()
    if sol is None:
        raise ConsistencyError("homogeneous self-map system has no solution")
    n_f = len(sys.coords["f"])
    f_mask = (1 << n_f) - 1

    # project kernel to the f coordinates and reduce to an independent set
    space = MorphismSpace(cx)
    seen = Echelon()
    for vec in sol.kernel:
        v = seen.insert(vec & f_mask)
        if v:
            f = f_shape.assemble(v, sys.coords["f"])
            space.basis.append(f)
            space.locality_bits.append(
                parity(mat_vec(f.cols, t_cycle) & mask))
    return space
