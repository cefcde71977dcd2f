"""Decision procedures for homotopy questions between graded maps.

Every question here reduces to an exact F2 linear system: a grading
homogeneous map is determined by finitely many coordinates, one bit per
(source, target) pair whose target lies in the admissible mask the
source lands on (the entry is then the one monomial the gradings force),
and all constraints -- chain map, homotopy, commutation up to homotopy,
locality -- are linear in those coordinates.  Locality is a single extra
affine row: the class of the image of a fixed nontorsion cycle must
survive inverting the variables, which is one F2 functional, so
existence questions never enumerate the solution space.  The cycle is a
bit vector over generators and the functional a bit mask over the
target's generators (see ``invariants.DiagonalHomology.tower_mask``), so
the row is read straight off the coordinates.

A system is assembled by columns, one int over its rows per coordinate,
and solved in one sweep over them (``algebra.ColumnSpan.solve``): the
sweep gives the reduced echelon form's particular solution and null
space, or a combination of rows that refutes the system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

from .algebra import (
    ColumnSpan,
    Echelon,
    F2Inconsistency,
    Grading,
    gr_add,
    inverse_cols,
    lexmin_affine,
    mat_vec,
    ones,
    parity,
)
from .complexes import (
    Endomorphism,
    KnotComplex,
    PhiIotaComplex,
    SKEW,
    STRAIGHT,
    chain_commutes,
    landing,
    transpose_cols,
)
from .errors import ConsistencyError, ValidationError


@dataclass(frozen=True)
class MapShape:
    """The grading-homogeneous maps source -> target of one mode and
    bidegree, laid out as bits: one per (source, target) coordinate, for
    each source s, ascending, the targets t in ``masks[s]``, the
    admissible mask s lands on, ascending.  Each stands for the entry
    s -> t holding the one monomial the gradings force.  Source s's block
    starts at ``starts[s]``.  ``masks`` and ``starts`` are built with the
    shape, ``coords`` when first read."""

    source: KnotComplex
    target: KnotComplex
    mode: str
    bidegree: Grading

    def __post_init__(self):
        admissible = self.target.admissible
        masks, starts = [], [0]
        for g in self.source.gradings:
            mask = admissible(landing(g, self.mode, self.bidegree))
            masks.append(mask)
            starts.append(starts[-1] + mask.bit_count())
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "starts", starts)

    @cached_property
    def coords(self) -> list:
        """The (source, target) pair of each coordinate, in order."""
        return [(s, t) for s, mask in enumerate(self.masks)
                for t in ones(mask)]

    @property
    def size(self) -> int:
        return self.starts[-1]

    def pack(self, s: int, col: int) -> int:
        """A column at source s as bits over s's block, from its first
        coordinate; bits outside the admissible mask are a grading
        violation."""
        mask = self.masks[s]
        if col & ~mask:
            raise ValidationError(f"entry outside its admissible mask at "
                                  f"source {s}")
        out = 0
        for t in ones(col):
            out |= 1 << (mask & ((1 << t) - 1)).bit_count()
        return out

    def of_map(self, cols) -> int:
        """A map of this shape, given by its columns, as bits over the
        coordinates."""
        out = 0
        for s, col in enumerate(cols):
            if col:
                out |= self.pack(s, col) << self.starts[s]
        return out

    def assemble(self, bits: int) -> Endomorphism:
        """The map with coordinate i set for each set bit i of ``bits``;
        bits past the last coordinate are ignored."""
        cols = [0] * self.source.n
        coords = self.coords
        for i in ones(bits & ((1 << self.size) - 1)):
            s, t = coords[i]
            cols[s] ^= 1 << t
        return Endomorphism._graded(self.source, self.target, cols,
                                    self.mode, self.bidegree)


def _after(outer, inner: MapShape) -> tuple:
    """The (source, target, mode, bidegree) of outer o inner, for maps or
    shapes: the rule of :meth:`Endomorphism.compose`, on shapes alone."""
    if inner.target is not outer.source and inner.target != outer.source:
        raise ValidationError("composition mismatch")
    return (inner.source, outer.target,
            STRAIGHT if outer.mode == inner.mode else SKEW,
            landing(inner.bidegree, outer.mode, outer.bidegree))


class Left(NamedTuple):
    """The operator X -> A o X."""

    map: Endomorphism

    def value(self, shape: MapShape) -> tuple:
        """The (source, target, mode, bidegree) of A o X for X of
        ``shape``."""
        return _after(self.map, shape)

    def place(self, cols: list, off: int, shape: MapShape, base: int,
              value: MapShape, sources: dict) -> None:
        """Add A o E, for the elementary map E of each coordinate
        i = (s, t) of ``shape``, to ``cols[off + i]``, on the rows laid
        out from ``base`` by the coordinates of ``value``: column t of A,
        in source s's block.  Sources that land on one grading share a
        mask, so each (mask, t) is packed once.  ``sources`` is
        :meth:`Right.place`'s; A needs no transpose."""
        a_cols = self.map.cols
        masks, starts = value.masks, value.starts
        packed: dict = {}
        for i, (s, t) in enumerate(shape.coords, off):
            key = (masks[s], t)
            col = packed.get(key)
            if col is None:
                col = packed[key] = value.pack(s, a_cols[t])
            if col:
                cols[i] ^= col << (base + starts[s])


class Right(NamedTuple):
    """The operator X -> X o B."""

    map: Endomorphism

    def value(self, shape: MapShape) -> tuple:
        """The (source, target, mode, bidegree) of X o B for X of
        ``shape``."""
        return _after(shape, self.map)

    def place(self, cols: list, off: int, shape: MapShape, base: int,
              value: MapShape, sources: dict) -> None:
        """As :meth:`Left.place` for E o B: entry s' -> t for every
        source s' whose column of B holds s, one bit per bit of row s
        of B.  The rows of B, as lists of sources, are kept in
        ``sources`` under B's id, so the terms of one assembly that share
        B transpose it once."""
        b = self.map
        of_row = sources.get(id(b))
        if of_row is None:
            of_row = sources[id(b)] = [
                list(ones(row)) for row in transpose_cols(b.cols, b.target.n)]
        starts, masks = value.starts, value.masks
        for i, (s, t) in enumerate(shape.coords, off):
            below = (1 << t) - 1
            col = 0
            for s2 in of_row[s]:
                col |= 1 << (starts[s2] + (masks[s2] & below).bit_count())
            if col:
                cols[i] ^= col << base


class MapSystem:
    """Linear system whose unknowns are grading-homogeneous maps.

    Equations have the form ``sum of op(unknown) = rhs``, where each
    operator is a sum of :class:`Left` (``X -> A o X``) and :class:`Right`
    (``X -> X o B``) terms.  An unknown's coordinates are the elementary
    maps (s, t), and the system is assembled by columns, one int per
    coordinate, written straight from the bits of A and B without
    building a map per coordinate.  All terms of an equation share one
    value shape (mode and bidegree), so the gradings force each entry's
    monomial, and the equation's rows are the coordinates of that shape,
    in its layout (:class:`MapShape`).  Equations come in the order they
    were added, and one row per functional comes last.  The system is
    solved in one sweep over its columns (:meth:`ColumnSpan.solve`), in
    coordinate order; a refutation's combo is over these rows.
    """

    def __init__(self):
        self.shapes: dict = {}  # in the order the unknowns were added
        self.offsets: dict = {}
        self.total = 0
        self.equations: list = []  # (terms, rhs_endo_or_None)
        self.values: list = []  # each equation's value shape, as fields
        self.functionals: list = []  # (name, vector, mask, rhs_bit)

    def add_unknown(self, name: str, shape: MapShape) -> None:
        if name in self.shapes:
            raise ValueError(f"duplicate unknown {name!r}")
        self.shapes[name] = shape
        self.offsets[name] = self.total
        self.total += shape.size

    def add_equation(self, terms, rhs: Optional[Endomorphism] = None) -> None:
        """terms: list of (unknown name, list of Left/Right operators).
        Every term must compose, and every term and the rhs must have one
        mode and bidegree."""
        shapes = [op.value(self.shapes[name]) for name, ops in terms
                  for op in ops]
        if rhs is not None:
            shapes.append((rhs.source, rhs.target, rhs.mode, rhs.bidegree))
        values = {shape[2:] for shape in shapes}
        if len(values) > 1:
            raise ValidationError(
                f"equation terms differ in mode or bidegree: {sorted(values)}")
        self.equations.append((list(terms), rhs))
        self.values.append(shapes[0] if shapes else None)

    def add_functional(self, name: str, vector: int, mask: int,
                       rhs_bit: int) -> None:
        """One affine row: ``parity(f(vector) & mask) = rhs_bit`` for the
        unknown f.  ``vector`` is a homogeneous element of f's source, as
        bits over its generators, and ``mask`` a bit mask over f's target
        generators at the bigrading f takes it to.  The elementary map
        (s, t) sends the vector to generator t when s is in it, so the
        row has coordinate (s, t) exactly when s is in ``vector`` and t
        in ``mask``."""
        self.functionals.append((name, vector, mask, rhs_bit))

    def _columns(self):
        """(columns, rhs, number of rows): one int over the rows per
        coordinate, and the rhs as one more."""
        cols = [0] * self.total
        rhs = 0
        base = 0
        # the equations hold their operators' maps, so an id names one
        # map for the whole call
        sources: dict = {}
        for (terms, rhs_endo), value in zip(self.equations, self.values):
            if value is None:
                continue
            value = MapShape(*value)
            for name, ops in terms:
                for op in ops:
                    op.place(cols, self.offsets[name], self.shapes[name],
                             base, value, sources)
            if rhs_endo is not None:
                rhs |= value.of_map(rhs_endo.cols) << base
            base += value.size
        for name, vector, mask, rhs_bit in self.functionals:
            bit = 1 << base
            shape, off = self.shapes[name], self.offsets[name]
            for s in ones(vector):
                at = off + shape.starts[s]
                for j in ones(shape.pack(s, mask & shape.masks[s])):
                    cols[at + j] |= bit
            rhs |= rhs_bit << base
            base += 1
        return cols, rhs, base

    def _solve(self):
        cols, rhs, height = self._columns()
        return ColumnSpan(dict(enumerate(cols)), height).solve(rhs)

    def solve(self, lexmin: bool = False):
        """Return ({name: Endomorphism}, F2Solution) or (None, certificate)."""
        sol = self._solve()
        if isinstance(sol, F2Inconsistency):
            return None, sol
        bits = sol.particular
        if lexmin:
            bits = lexmin_affine(bits, sol.kernel, self.total)
        return self._split(bits), sol

    def _split(self, bits: int) -> dict:
        return {name: shape.assemble(bits >> self.offsets[name])
                for name, shape in self.shapes.items()}

    def solutions_bits(self):
        """(particular, kernel) of the full system, for enumeration callers."""
        sol = self._solve()
        return None if isinstance(sol, F2Inconsistency) else sol


class HomotopyClasses:
    """Straight bidegree-(0, 0) self-maps of a complex modulo null-homotopic
    ones, i.e. modulo the image of H -> dH + Hd over straight H of
    bidegree (1, 1).

    A map is a bitmask over the coordinates of its :class:`MapShape`;
    the image, built by the columns :class:`MapSystem`
    assembles, is echelonised once, and the reduction of a map against
    it is a normal form: two maps are homotopic exactly when their normal
    forms agree.  The normal form is linear in the map.
    """

    def __init__(self, cx: KnotComplex):
        self.shape = MapShape(cx, cx, STRAIGHT, (0, 0))
        d = cx.boundary()
        h_shape = MapShape(cx, cx, STRAIGHT, (1, 1))
        image = [0] * h_shape.size
        for op in (Left(d), Right(d)):
            op.place(image, 0, h_shape, 0, self.shape, {})
        self.image = Echelon(image)

    def normal_form(self, f: Endomorphism) -> int:
        if f.mode != STRAIGHT or f.bidegree != (0, 0):
            raise ValidationError("normal forms are of straight (0, 0) maps")
        return self.image.reduce(self.shape.of_map(f.cols))


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

    g is the lexicographically smallest such map in its coordinates, and
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
    g = classes.shape.assemble(classes.normal_form(inv))
    if not chain_commutes(cx, g):
        raise ConsistencyError(f"{cx.name}: reduced inverse of phi is not "
                               f"a chain map")
    return g


def _bit_inverse(cx: KnotComplex, phi: Endomorphism):
    """The inverse of phi's bit matrix when phi is a straight (0, 0) chain
    map whose matrix is invertible over F2, else None."""
    if (phi.mode != STRAIGHT or phi.bidegree != (0, 0)
            or not chain_commutes(cx, phi)):
        return None
    inv_cols = inverse_cols(phi.cols)
    if inv_cols is None:
        return None
    inv = Endomorphism(cx, cx, inv_cols, STRAIGHT, (0, 0))
    ident = cx.identity()
    if phi.compose(inv) != ident or inv.compose(phi) != ident:
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
    # the zero map when both phi are the identity (see _local_system)
    h_phi: Optional[Endomorphism] = None
    h_iota: Optional[Endomorphism] = None
    obstruction: Optional[dict] = None


def _local_system(x1: PhiIotaComplex, x2: PhiIotaComplex,
                  t_cycle: int, mask: int) -> MapSystem:
    """The local-map system x1 -> x2: f d = d f, f phi + phi f = d H_phi
    + H_phi d, f iota + iota f = d H_iota + H_iota d, and the locality
    row, with unknowns f, H_phi ("hp") and H_iota ("hi").

    When both phi are the identity there is no H_phi and no phi
    equation.  That equation reads 2f = d H_phi + H_phi d, and 2f is 0:
    its rows touch only the H_phi columns, and its right-hand side is 0
    there.  So the H_phi columns are independent of the f and H_iota
    columns: the sweep stores them with pivots in rows that no f or
    H_iota column and no right-hand side ever holds, so nothing reduces
    against them.  The reduced echelon form's particular solution
    therefore has the same f and H_iota with or without the block, and
    H_phi = 0; one system is consistent exactly when the other is, and a
    refutation's combo is over the rows that remain.
    """
    c1, c2 = x1.complex, x2.complex
    d1, d2 = c1.boundary(), c2.boundary()
    sys = MapSystem()
    sys.add_unknown("f", MapShape(c1, c2, STRAIGHT, (0, 0)))
    with_phi = not (x1.phi_is_identity and x2.phi_is_identity)
    if with_phi:
        sys.add_unknown("hp", MapShape(c1, c2, STRAIGHT, (1, 1)))
    sys.add_unknown("hi", MapShape(c1, c2, SKEW, (1, 1)))
    sys.add_equation([("f", [Right(d1), Left(d2)])])
    if with_phi:
        sys.add_equation([("f", [Right(x1.phi), Left(x2.phi)]),
                          ("hp", [Left(d2), Right(d1)])])
    sys.add_equation([("f", [Right(x1.iota), Left(x2.iota)]),
                      ("hi", [Left(d2), Right(d1)])])
    sys.add_functional("f", t_cycle, mask, 1)
    return sys


def local_map_exists(x1: PhiIotaComplex,
                     x2: PhiIotaComplex) -> LocalityCertificate:
    """Decide whether a grading-preserving local map x1 -> x2 exists, and
    produce the witness triple (f, H_phi, H_iota) or the inconsistency
    certificate.

    Locality is one affine row: the class of f(tower cycle) must be
    nontorsion after restricting to the diagonal subcomplex of x2, which is
    a single linear functional of f.  Between iota-complexes H_phi is the
    zero map, which the system does not solve for (:func:`_local_system`).
    """
    hom1, hom2 = x1.diagonal, x2.diagonal
    sys = _local_system(x1, x2, hom1.tower_rep,
                        hom2.tower_mask(hom1.tower_top))
    ans, cert = sys.solve()
    if ans is None:
        return LocalityCertificate(False, obstruction={
            "rows": "left-kernel", "combo": cert.combo, "shift": 0})
    hp = ans.get("hp")
    if hp is None:
        hp = Endomorphism._graded(x1.complex, x2.complex,
                                  (0,) * x1.complex.n, STRAIGHT, (1, 1))
    out = LocalityCertificate(True, ans["f"], hp, ans["hi"])
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


def self_local_space(x: PhiIotaComplex) -> MorphismSpace:
    """Basis of the constraint space of grading-preserving self-maps.

    Members satisfy f d = d f and f iota ~ iota f; the locality of any
    member is read off from the stored functional bits (the space itself
    always contains non-local members such as 0).
    """
    cx = x.complex
    d = cx.boundary()
    hom = x.diagonal
    t_cycle = hom.tower_rep
    mask = hom.tower_mask(hom.tower_top)

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
    f_mask = (1 << f_shape.size) - 1

    # project kernel to the f coordinates and reduce to an independent set
    space = MorphismSpace(cx)
    seen = Echelon()
    for vec in sol.kernel:
        v = seen.insert(vec & f_mask)
        if v:
            f = f_shape.assemble(v)
            space.basis.append(f)
            space.locality_bits.append(
                parity(mat_vec(f.cols, t_cycle) & mask))
    return space
