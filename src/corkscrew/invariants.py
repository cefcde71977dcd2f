"""Diagonal subcomplexes, cylinder totalisations, and the delta invariant.

The diagonal subcomplex of a bigraded complex is spanned by all elements
whose two gradings agree; it is a free singly-graded complex over F2[U]
with U the product of the two variables (degree -2).  Restricted to it the
skew involution becomes honestly U-equivariant, because exchanging the
variables fixes their product.

All homology here is computed per grading inside a truncation window
(``UComplex.window``) whose margin dominates every possible torsion
order; below the minimum generator grading multiplication by U identifies
consecutive slices, so answers in the window are exact.

The tower's top and delta's grading are one question, asked of the
diagonal and of the cylinder: the highest grading with a cycle of tower
functional 1.  One top-down search (:func:`_first_witness`) answers
both, with one reverse lexmin sweep per grading that stops at the first
such cycle, the witness; it reaches the window's lower end only to
raise.  A grading whose slice the functional misses is skipped without
a sweep: the functional is 0 on every vector there.

Homology is eliminated once per distinct slice.  Every grading below a
parity's lowest generator has the same generator set, so the
elimination is cached by that set; it keeps the cycle basis and the
echelon rows of the image.  The homology at d is built on slice d+1's
rows, which are the rows a fresh elimination of the same columns in the
same order would give, so the representatives and the tower functional
come out the same bit for bit; it is cached by the pair of sets at d and
d+1.  The search eliminates nothing, so delta keeps only the two stable
slices the tower functional is read from.

Nothing here stores a polynomial.  A slice is a set of generators, each
carrying the power of U its grading forces: the bit mask
``UComplex.levels.above(d)``.  A slice element is therefore a plain
generator bit vector inside that mask, a map is the complex's own bit
columns, and multiplying by U, the inclusion of one slice in the next,
is the identity on bits.  The slice mask is also the set of targets a
map may reach from there, so a degree check is one AND per column; and
the tower functional, which says whether a class survives every power of
U, is one mask per parity, whose value on a vector is the parity of
their AND.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .algebra import (
    ColumnSpan,
    Echelon,
    Grading,
    Levels,
    alexander,
    mat_vec,
    ones,
    parity,
)
from .complexes import KnotComplex, PhiIotaComplex, validate
from .errors import (
    ConsistencyError,
    GradingParityError,
    ValidationError,
    WindowUnstableError,
)
from .homotopy import local_map_exists
from .models import trivial


# -- slice homology ------------------------------------------------------------

class _HSlice:
    """Homology of one grading slice with deterministic representatives;
    ``mask`` holds the slice's generators.

    The echelon rows of the boundaries and then the cycles go into one
    span, and a cycle that raises its rank is the next representative.
    Representative k's row is stored with marker bit k above the slice's
    bits, so a cycle reduces to its class's coordinates there, one bit
    per representative.
    """

    def __init__(self, mask: int, cycle_basis: list, boundary_rows: list):
        self._shift = shift = mask.bit_length()
        low = (1 << shift) - 1
        # the rows are already in echelon form, so each goes in unchanged
        span = Echelon(boundary_rows)
        self.reps = []
        for z in cycle_basis:
            r = span.reduce(z) & low
            if r:
                span.insert(r | 1 << (shift + len(self.reps)))
                self.reps.append(z)
        self._span = span

    @property
    def rank(self) -> int:
        return len(self.reps)

    def class_coords(self, v: int) -> int:
        """Coordinates of a cycle's class over the span's stored rows, one
        per representative; raises for a vector outside the span of the
        boundaries and cycles."""
        r = self._span.reduce(v)
        if v >> self._shift or r & ((1 << self._shift) - 1):
            raise ValidationError("vector outside the recorded span")
        return r >> self._shift

    def rep_functional(self, idx: int) -> int:
        """The linear functional extracting one representative's
        coefficient, defined on the whole slice (not only on cycles), as a
        mask m over the slice's generators: the coefficient of v is
        ``parity(v & m)``.

        m lives on the pivots of the span's rows; it is 1 on
        representative idx's row and 0 on every other row.  Only that
        row carries marker bit idx, so m is the annihilator of the rows
        that starts at the marker (:meth:`Echelon.annihilator`), less the
        marker.  m is also 0 on every unit vector reduced against the
        rows, which has no bit at their pivots, so it is the functional
        that completing the rows by the slice's unit vectors would give
        (coordinates of cycles are unique either way).
        """
        marker = 1 << (self._shift + idx)
        return self._span.annihilator(marker) ^ marker


# -- diagonal complexes ----------------------------------------------------------

@dataclass(frozen=True)
class UComplex:
    """Free graded F2[U]-complex, possibly carrying restricted actions.

    Maps are bit columns, as in ``complexes``: bit t of ``cols[s]`` is set
    when the differential has an entry s -> t.  That entry is the one
    power U^e the gradings force, G(t) - 2e = G(s) - 1 (G(s) for the
    actions), so no exponent is stored; the largest e is found once.
    """

    name: str
    labels: tuple
    gradings: tuple  # int per generator; deg(U) = -2, deg(d) = -1
    cols: tuple  # cols[src]: int, bit tgt set when the entry is nonzero
    phi_cols: Optional[tuple] = None
    iota_cols: Optional[tuple] = None
    max_exponent: int = field(init=False, repr=False, compare=False)
    levels: Levels = field(init=False, repr=False, compare=False)

    def _maps(self):
        """(label, columns, degree) of every map the complex carries."""
        return [(label, group, degree) for label, group, degree in (
            ("U-differential", self.cols, -1),
            ("restricted phi", self.phi_cols, 0),
            ("restricted iota", self.iota_cols, 0)) if group is not None]

    def __post_init__(self):
        levels = Levels(self.gradings)
        object.__setattr__(self, "levels", levels)
        top = 0
        for label, group, degree in self._maps():
            base = [g + degree for g in self.gradings]
            for s, col in enumerate(group):
                mask = levels.above(base[s])
                if col & mask != col:
                    bad = col & ~mask
                    t = (bad & -bad).bit_length() - 1
                    raise ValidationError(
                        f"{label} degree violated at "
                        f"{self.labels[s]}->{self.labels[t]}")
            top = max(top, levels.max_rise(group, base))
        object.__setattr__(self, "max_exponent", top // 2)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def window(self) -> tuple:
        """(G_min - 2*N_tor, G_max + 2) with N_tor = n * (1 + max_exponent):
        the gradings slice homology is computed over.  The margin 2*N_tor
        dominates every torsion order, which makes the window exact."""
        ntor = self.n * (1 + self.max_exponent)
        return min(self.gradings) - 2 * ntor, max(self.gradings) + 2


class DiagonalHomology:
    """Slicewise homology of a :class:`UComplex` over its window
    (:attr:`UComplex.window`), with its one free tower located.

    Slices are eliminated once per generator set (:meth:`_slice` keeps
    the cycle basis and the image's echelon rows, coordinate bits masked
    off), and homology is built once per pair of sets at d and d+1, on
    slice d+1's rows (see the module docstring).  Construction
    eliminates the two stable gradings only; the tower's top and its
    lexmin cycle come from one top-down search (:func:`_first_witness`).
    """

    def __init__(self, uc: UComplex):
        self.uc = uc
        self.gmax = max(uc.gradings)
        self.gmin = min(uc.gradings)
        self.lo, self.hi = uc.window
        self.ntor = (self.gmin - self.lo) // 2
        # slice set -> (cycle basis, image rows); (set at d, set at
        # d + 1) -> homology; stable grading -> tower mask
        self._slices, self._H, self._towers = {}, {}, {}
        r0 = self.homology(self.gmin - 1).rank
        r1 = self.homology(self.gmin - 2).rank
        if r0 + r1 != 1:
            raise ValidationError(
                f"{uc.name}: inverted homology has rank {r0 + r1}, "
                f"expected a single free tower")
        found = _first_witness(uc, self.tower_generators, self.hi, self.lo)
        if found is None:
            raise ValidationError(
                f"{uc.name}: no nontorsion class found in the window")
        # the top grading and its lexicographically first nontorsion cycle
        self.tower_top, self.tower_rep = found

    def _columns(self, d: int) -> dict:
        """The slice map into grading d-1: the differential's columns at
        the slice's generators, which the degree check keeps inside the
        slice at d-1."""
        cols = self.uc.cols
        return {g: cols[g] for g in ones(self.uc.levels.above(d))}

    def _slice(self, d: int) -> tuple:
        """The slice map at d eliminated once per generator set: its cycle
        basis and the echelon rows of its image."""
        mask = self.uc.levels.above(d)
        if mask not in self._slices:
            span = ColumnSpan(self._columns(d))
            low = (1 << span.shift) - 1
            self._slices[mask] = (span.kernel,
                                  [v & low for _, v in span.span.rows])
        return self._slices[mask]

    def cycle_basis(self, d: int) -> list:
        return self._slice(d)[0]

    def homology(self, d: int) -> _HSlice:
        above = self.uc.levels.above
        key = (above(d), above(d + 1))
        if key not in self._H:
            self._H[key] = _HSlice(key[0], self.cycle_basis(d),
                                   self._slice(d + 1)[1])
        return self._H[key]

    def tower_generators(self, d: int) -> int:
        """The tower functional at the stable grading of d's parity
        (G_min - 1 or G_min - 2), as a mask over generators.

        The homology there has rank at most one (the constructor checks
        the two stable gradings together); the functional is the
        coefficient of its one representative
        (:meth:`_HSlice.rep_functional`).
        """
        target = self.gmin - 1 - (d - self.gmin + 1) % 2
        if target not in self._towers:
            h = self.homology(target)
            if h.rank > 1:
                raise ValidationError(
                    f"{self.uc.name}: homology at the stable grading "
                    f"{target} has rank {h.rank}; the tower functional "
                    f"needs at most one class")
            self._towers[target] = h.rep_functional(0) if h.rank else 0
        return self._towers[target]

    def tower_mask(self, d: int) -> int:
        """The tower functional at grading d as a mask over the slice's
        generators.  For a diagonal subcomplex ``a0(x)`` an element of x
        at bigrading (d, d) is a bit vector over x's generators (each
        takes the one monomial landing it there), and it is nontorsion
        exactly when ``parity(bits & mask)`` is 1."""
        return self.tower_generators(d) & self.uc.levels.above(d)


def _lex_witness(uc: UComplex, d: int, functional: int) -> Optional[int]:
    """The lexicographically first cycle z of ``uc`` at grading d
    (generator 0 first, 0 < 1) with ``parity(z & functional)`` = 1, or
    None when no cycle there has functional 1.

    The slice's columns are swept (:meth:`Echelon.sweep`) from the
    highest generator down, as :class:`ColumnSpan` sweeps them up, up to
    the first cycle with functional 1.  A dependent column k gives the
    cycle c_k, e_k plus independent generators above k, so c_k is 0 at
    every other dependent generator; the c_k are a basis.  The functional
    is linear, so some cycle has functional 1 exactly when some c_k does,
    and the sweep returns None exactly when none does.  Let c_k be the
    first the sweep meets with functional 1.  Any other cycle with
    functional 1 is a sum of c_j, one of them with functional 1, so with
    j <= k.  If some j < k, the sum is 1 below k, where c_k is 0;
    otherwise it is c_k plus c_j above k, and is 1 at the lowest such j,
    where c_k is 0.  So c_k is the least.

    A functional that misses the slice is 0 on every cycle there, so the
    answer is None without a sweep.
    """
    if not functional & uc.levels.above(d):
        return None
    gens = sorted(ones(uc.levels.above(d)), reverse=True)
    return next((z for _, z in Echelon().sweep(uc.cols, gens, uc.n)
                 if parity(z & functional)), None)


def _first_witness(uc: UComplex, functional_at, hi: int,
                   lo: int) -> Optional[tuple]:
    """``(d, z)`` for the highest grading d from ``hi`` down to ``lo``
    where some cycle has functional 1, with z the lexmin such cycle
    (:func:`_lex_witness`), or None when no grading there has one.
    ``functional_at(d)`` is the functional at grading d, as a mask over
    generators.  This one search finds both the tower's top and delta's
    grading, each with its witness."""
    for d in range(hi, lo - 1, -1):
        z = _lex_witness(uc, d, functional_at(d))
        if z is not None:
            return d, z
    return None


# -- the diagonal subcomplex -----------------------------------------------------

def a0(x: PhiIotaComplex) -> UComplex:
    """Diagonal subcomplex as a free F2[U]-complex with restricted actions.

    One generator per parent generator g: multiply by U^A(g) when the
    Alexander grading A(g) is non-negative and by V^-A(g) otherwise, which
    is the unique monomial bringing g onto the diagonal, at grading
    min(gr_u, gr_v).  A homogeneous map takes diagonal elements to
    diagonal elements, so every entry restricts to a power of U: the
    restricted maps have the parent's bit columns.

    A generator with odd gr_u - gr_v has no monomial onto the diagonal.
    Parsing refuses one, but a complex built in code is not parsed, so
    :func:`alexander` raises ``ValueError`` for it here rather than let
    min(gr_u, gr_v) give it a grading.
    """
    cx = x.complex
    for gr in cx.gradings:
        alexander(gr)
    return UComplex(
        name=f"A0({cx.name})",
        labels=cx.generators,
        gradings=tuple(min(gr) for gr in cx.gradings),
        cols=cx.diff,
        phi_cols=x.phi.cols,
        iota_cols=x.iota.cols,
    )


# -- spec-facing homology summary --------------------------------------------------

@dataclass
class UHomology:
    tower_top: int
    tower_rep: tuple  # ((label, u_exp), ...)
    torsion: tuple  # ((grading, order), ...) sorted
    window: tuple


def homology_u(uc: UComplex) -> UHomology:
    """Tower/torsion decomposition in the proven window: the tower's top
    grading and lexicographically first representative, and the order of
    every torsion class, which the window's margin bounds."""
    hom = DiagonalHomology(uc)
    top = hom.tower_top
    rep = [(uc.labels[g], (uc.gradings[g] - top) // 2)
           for g in ones(hom.tower_rep)]
    torsion = []
    for d in range(hom.hi, hom.gmin - 1, -1):
        h = hom.homology(d)
        if h.rank == 0:
            continue
        # U^(k-1) H_d / U^k H_d counts the classes of order k, whatever
        # the representatives; the free part has rank 0 or 1
        free = int(any(parity(z & hom.tower_generators(d))
                       for z in h.reps))
        rank, k = h.rank, 0
        while rank > free:
            k += 1
            if k > hom.ntor + 1:
                raise WindowUnstableError(
                    f"{uc.name}: torsion order exceeds the window bound")
            hk = hom.homology(d - 2 * k)
            image = Echelon(hk.class_coords(z) for z in h.reps)
            torsion += [(d, k)] * (rank - image.rank)
            rank = image.rank
    return UHomology(tower_top=top, tower_rep=tuple(rep),
                     torsion=tuple(sorted(torsion)),
                     window=uc.window)


# -- cylinder totalisation ----------------------------------------------------------

def build_cyl(uc: UComplex) -> UComplex:
    """Three copies of the diagonal subcomplex totalised along 1 + phi and
    1 + iota; the shifted blocks sit one grading lower so the total
    differential has degree -1.

    The first block is generators 0..uc.n-1 with the gradings of the
    diagonal subcomplex, so the cylinder's slice at any grading, masked
    to those bits, is the diagonal subcomplex's slice there: the
    projection q is that mask."""
    if uc.phi_cols is None or uc.iota_cols is None:
        raise ValidationError("cylinder needs both restricted actions")
    n = uc.n
    labels = tuple(f"{block}:{m}" for block in "xyz" for m in uc.labels)
    gradings = uc.gradings + tuple(g - 1 for g in uc.gradings) * 2
    # x:s -> d s + (1 + phi) s in the y block + (1 + iota) s in the z block
    cols = [uc.cols[s] | (uc.phi_cols[s] ^ 1 << s) << n
            | (uc.iota_cols[s] ^ 1 << s) << 2 * n for s in range(n)]
    cols += [col << n for col in uc.cols] + [col << 2 * n for col in uc.cols]
    total = UComplex(name=f"Cyl({uc.name})", labels=labels,
                     gradings=gradings, cols=tuple(cols))
    # D^2 = 0 holds because 1 + phi and 1 + iota are chain maps
    if not _squares_to_zero(uc):
        raise ValidationError("cylinder differential does not square to 0")
    return total


def _squares_to_zero(uc: UComplex) -> bool:
    """D^2 = 0 for the cylinder of ``uc``, checked on uc's own n columns.

    D^2 has d^2 on each of the three blocks and, from the first block,
    (1 + f)d + d(1 + f) = fd + df into the block of f = phi or iota.  So
    D^2 vanishes exactly when d^2 = 0, phi d = d phi and iota d = d iota.
    Every entry of these is the single power of U that the gradings
    force, so each holds exactly when it does at U = 1, as bit matrices.
    """
    d = uc.cols
    if any(mat_vec(d, col) for col in d):
        return False
    return all(mat_vec(f, col) == mat_vec(d, f_col)
               for f in (uc.phi_cols, uc.iota_cols)
               for col, f_col in zip(d, f))


# -- the delta invariant -------------------------------------------------------------

@dataclass
class DeltaResult:
    delta: int
    max_grading: int
    witness_x: dict  # label -> sorted U-exponents
    witness_y: dict
    witness_z: dict
    window: tuple


def delta(x: PhiIotaComplex, validated: bool = False) -> DeltaResult:
    """-1/2 of the top cylinder grading carrying a class whose projection
    to the diagonal subcomplex is U-nontorsion.

    The top-down witness search (:func:`_first_witness`) that locates
    the diagonal's tower decides it on the cylinder.  The tower
    functional covers only the diagonal's generators, the cylinder's
    first block, so on a cylinder cycle it is the value of the
    projection.  The first grading with a cycle of functional 1 is
    delta's, and the lexmin such cycle is the witness.

    The achieved grading must be even; an odd one raises rather than
    guessing a normalisation.
    """
    if not validated:
        report = validate(x.complex, require_s3_type=True)
        if not report.ok or not report.s3_type:
            raise ValidationError(
                f"{x.complex.name}: {report.first_violation}")
    a0_hom = x.diagonal
    uc = a0_hom.uc
    cyl = build_cyl(uc)
    name = x.complex.name
    found = _first_witness(cyl, a0_hom.tower_generators, a0_hom.gmax,
                           cyl.window[0])
    if found is None:
        raise ConsistencyError(
            f"{name}: no nontorsion projection found in the window")
    d, bits = found
    if d % 2:
        raise GradingParityError(
            f"{name}: nontorsion cylinder class at odd grading {d}")
    if d > 0:
        raise ConsistencyError(
            f"{name}: negative delta on an S^3-type complex")
    # x, y and z blocks: label -> its one forced power of U
    n = uc.n
    blocks = ({}, {}, {})
    for g in ones(bits):
        blocks[g // n][uc.labels[g % n]] = [(cyl.gradings[g] - d) // 2]
    wx, wy, wz = blocks
    return DeltaResult(
        delta=-d // 2, max_grading=d,
        witness_x=wx, witness_y=wy, witness_z=wz, window=cyl.window)


def delta_zero_iff_local(x: PhiIotaComplex) -> dict:
    """Cross-check the two characterisations of local triviality.

    delta vanishes exactly when a local map from the trivial complex
    exists; computing both and comparing is a consistency certificate for
    the whole pipeline.  Disagreement raises, carrying both certificates.
    """
    res = delta(x)
    cert = local_map_exists(trivial(), x)
    if (res.delta == 0) != cert.exists:
        raise ConsistencyError(
            f"{x.complex.name}: delta={res.delta} but local map from the "
            f"trivial complex {'exists' if cert.exists else 'does not exist'}",
        )
    return {"delta": res.delta, "local_map_exists": cert.exists,
            "delta_result": res, "local_certificate": cert}


# -- quotient tower shapes (S^3-type test) -------------------------------------------

@dataclass
class QuotientShape:
    tower_count: int
    tower_top: Optional[Grading]


def quotient_tower_shape(cx: KnotComplex, killed: str) -> QuotientShape:
    """Free-tower count and top of the quotient complex killing one
    variable.

    Setting the killed variable to 0 and localising at the surviving one
    (setting it to 1) leaves an F2 complex graded by the killed grading:
    an entry is kept when its target's killed grading is one below its
    source's.  Each free tower is one dimension of its homology.  The
    tower top is the highest surviving grading of a cycle in the tower's
    plane that is not a localised boundary: scanning that plane's
    generators from the top down, the first such kernel vector is there.
    """
    if killed not in ("u", "v"):
        raise ValueError("killed must be 'u' or 'v'")
    k = "uv".index(killed)  # the killed coordinate; 1 - k survives
    plane = dict(Levels(gr[k] for gr in cx.gradings).masks)
    cols = [col & plane.get(gr[k] - 1, 0)
            for col, gr in zip(cx.diff, cx.gradings)]
    spans = {p: Echelon(cols[g] for g in ones(mask))
             for p, mask in plane.items()}
    # dim H_p = dim ker_p - rank of the boundaries from plane p + 1
    free = {p: mask.bit_count() - spans[p].rank
            - (spans[p + 1].rank if p + 1 in spans else 0)
            for p, mask in plane.items()}
    count = sum(free.values())
    if count != 1:
        return QuotientShape(tower_count=count, tower_top=None)

    p = next(p for p, dim in free.items() if dim)
    boundaries = spans.get(p + 1, Echelon())
    gens = sorted(ones(plane[p]), key=lambda g: -cx.gradings[g][1 - k])
    for g, z in Echelon().sweep(cols, gens, cx.n):
        if boundaries.reduce(z):
            return QuotientShape(tower_count=1, tower_top=cx.gradings[g])
    raise ConsistencyError(
        f"{cx.name}: quotient by {killed} has one free tower but no "
        f"nontorsion cycle")
