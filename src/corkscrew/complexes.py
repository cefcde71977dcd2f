"""Bigraded chain complexes over F2[U,V] and their structured endomorphisms.

A :class:`KnotComplex` is a finitely generated free complex with
``deg(boundary) = (-1,-1)``, ``deg(U) = (-2,0)`` and ``deg(V) = (0,-2)``.
Endomorphisms are either *straight* (module maps) or *skew* (the monomial
exponents are exchanged when coefficients move through the map).

Every map here is grading homogeneous.  Column s of a map lands on the
bigrading :func:`landing` gives (gr(s), exchanged when the map is skew,
plus the bidegree), and each entry s -> t is zero or the one monomial
taking gr(t) there.  The targets that have such a monomial are a bit
mask cached on the complex, :meth:`KnotComplex.admissible`.  A map is
therefore stored as F2 bit columns: ``cols[s]`` (``diff[s]`` for a
complex) is an int with bit t set when the entry s -> t is nonzero, and
:func:`entries` reads the monomials back off the gradings.  Composition,
sums, duals and tensor products are integer XORs; a map is well graded
when each column lies inside its admissible mask (one AND per column),
and the maps of one mode and bidegree have the (s, t) bits of those
masks as coordinates (``homotopy.MapShape``).  Gradings are checked
once, where bits are made: a file's triples by the decoder, raw columns
by the :class:`Endomorphism` constructor, a differential by
:func:`validate`.  Maps built from graded maps are graded and are not
checked again.  An element at a known
bigrading is a bit vector over the generators, and ``mat_vec(f.cols, v)``
is its image, at the bigrading :func:`landing` gives.

The module also provides the derivative endomorphisms of the differential,
the basepoint-twist map ``id + (d/dU diff)(d/dV diff)``, duals, involutive
tensor products, and the canonical JSON serialisation used by the file
format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii as _encode_key
from typing import Optional

from .algebra import (
    Grading,
    Levels,
    gr_add,
    gr_neg,
    mat_vec,
    ones,
)
from .errors import ParseError, ValidationError

STRAIGHT = "straight"
SKEW = "skew"


def landing(grading: Grading, mode: str, bidegree: Grading) -> Grading:
    """The bigrading a column at ``grading`` lands on under a map of this
    mode and bidegree: exchanged first when the map is skew (the
    involution exchanges U and V), then shifted by the bidegree."""
    u, v = grading
    if mode == SKEW:
        u, v = v, u
    return (u + bidegree[0], v + bidegree[1])


@dataclass(frozen=True)
class KnotComplex:
    """Free bigraded chain complex over F2[U,V] presented by a matrix."""

    name: str
    generators: tuple  # generator ids, order fixes every basis below
    gradings: tuple  # Grading per generator
    diff: tuple  # diff[src]: int, bit tgt set when the entry is nonzero
    _admissible: dict = field(default_factory=dict, init=False,
                              repr=False, compare=False)
    _positions: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "diff", tuple(self.diff))
        positions = {}
        for i, g in enumerate(self.generators):
            if g in positions:
                raise ValidationError(f"duplicate generator id {g!r}")
            positions[g] = i
        object.__setattr__(self, "_positions", positions)
        if not self.generators:
            raise ValidationError("no generators")

    def __eq__(self, other):
        return (isinstance(other, KnotComplex)
                and self.generators == other.generators
                and self.gradings == other.gradings
                and self.diff == other.diff)

    def __hash__(self):
        return hash((self.generators, self.gradings))

    @property
    def n(self) -> int:
        return len(self.generators)

    def index(self, gid: str) -> int:
        try:
            return self._positions[gid]
        except KeyError:
            raise KeyError(f"no generator {gid!r} in {self.name}") from None

    def grading(self, gid: str) -> Grading:
        return self.gradings[self.index(gid)]

    @cached_property
    def _by_grading(self) -> list:
        return Levels(self.gradings).masks

    def admissible(self, expect: Grading) -> int:
        """Bits of the generators t with gr(t) - expect non-negative and
        even in both coordinates: the slice at ``expect``, cached."""
        mask = self._admissible.get(expect)
        if mask is None:
            eu, ev = expect
            # a plain loop costs half of sum() over a generator, and every
            # fresh complex fills its masks here
            mask = 0
            for (gu, gv), bits in self._by_grading:
                if (gu >= eu and gv >= ev
                        and (gu - eu) % 2 == (gv - ev) % 2 == 0):
                    mask |= bits
            self._admissible[expect] = mask
        return mask

    def boundary(self) -> "Endomorphism":
        return Endomorphism._graded(self, self, self.diff, STRAIGHT, (-1, -1))

    def identity(self) -> "Endomorphism":
        cols = tuple(1 << i for i in range(self.n))
        return Endomorphism._graded(self, self, cols, STRAIGHT, (0, 0))

    def zero_map(self, mode=STRAIGHT, bidegree=(0, 0)) -> "Endomorphism":
        return Endomorphism._graded(self, self, (0,) * self.n, mode, bidegree)


class Endomorphism:
    """Matrix-valued graded map between complexes, as bit columns.

    ``mode`` is ``"straight"`` for module maps and ``"skew"`` for maps that
    exchange the two variables when sliding coefficients through: a skew f
    satisfies ``f(U^a V^b x) = U^b V^a f(x)`` and sends bigrading ``(g1,g2)``
    to ``(g2,g1) + bidegree``.  The constructor checks every column
    against its admissible mask.
    """

    __slots__ = ("source", "target", "cols", "mode", "bidegree")

    def __init__(self, source, target, cols, mode=STRAIGHT, bidegree=(0, 0)):
        self.source = source
        self.target = target
        self.cols = tuple(cols)
        self.mode = mode
        self.bidegree = tuple(bidegree)
        if len(self.cols) != source.n:
            raise ValidationError("column count does not match source rank")
        err = self.grading_violation()
        if err:
            raise ValidationError(err)

    @classmethod
    def _graded(cls, source, target, cols, mode, bidegree):
        """The map with these columns, unchecked: for the operations of
        this package that build a graded map from graded inputs."""
        f = cls.__new__(cls)
        f.source, f.target, f.cols = source, target, tuple(cols)
        f.mode, f.bidegree = mode, tuple(bidegree)
        return f

    def grading_violation(self) -> Optional[str]:
        """First entry, in (source, target) order, that no monomial can
        fill under the mode/bidegree contract, if any: the lowest bit of
        the first column outside its admissible mask."""
        admissible = self.target.admissible
        for s, g in enumerate(self.source.gradings):
            bad = self.cols[s] & ~admissible(
                landing(g, self.mode, self.bidegree))
            if bad:
                return (f"bidegree violated at {self.source.generators[s]}->"
                        f"{self.target.generators[(bad & -bad).bit_length() - 1]}")
        return None

    # -- algebra ----------------------------------------------------------

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise ValidationError("composition mismatch")
        cols = [mat_vec(self.cols, col) for col in other.cols]
        mode = STRAIGHT if self.mode == other.mode else SKEW
        bideg = landing(other.bidegree, self.mode, self.bidegree)
        return Endomorphism._graded(other.source, self.target, cols, mode,
                                    bideg)

    def __add__(self, other: "Endomorphism") -> "Endomorphism":
        if (self.mode, self.bidegree) != (other.mode, other.bidegree):
            raise ValidationError("cannot add maps of different shape")
        cols = [a ^ b for a, b in zip(self.cols, other.cols)]
        return Endomorphism._graded(self.source, self.target, cols,
                                    self.mode, self.bidegree)

    def is_zero(self) -> bool:
        return not any(self.cols)

    def __eq__(self, other):
        return (isinstance(other, Endomorphism)
                and self.mode == other.mode
                and self.bidegree == other.bidegree
                and self.cols == other.cols)

    def __repr__(self):
        terms = [f"{self.source.generators[s]}->"
                 f"{self.target.generators[t]}:{[m]}"
                 for s in range(self.source.n) for t, m in entries(self, s)]
        return f"<{self.mode} map deg{self.bidegree} {terms}>"


def entries(f: Endomorphism, s: int) -> list:
    """(target index, monomial) of every nonzero entry in column s of f,
    in target order.  The monomial is the one the gradings force, None
    when no monomial fits (a grading violation)."""
    eu, ev = landing(f.source.gradings[s], f.mode, f.bidegree)
    grads = f.target.gradings
    out = []
    for t in ones(f.cols[s]):
        tu, tv = grads[t]
        a, b = tu - eu, tv - ev
        out.append((t, (a >> 1, b >> 1)
                    if a >= 0 and b >= 0 and not (a | b) & 1 else None))
    return out


# -- canonical endomorphisms of the differential ------------------------------

def phi_psi_maps(cx: KnotComplex):
    """Entrywise U- and V-derivatives of the differential matrix.

    d/dU U^a V^b is U^(a-1) V^b when a is odd and zero when it is even, so
    Phi keeps exactly the entries with an odd U exponent (Psi: odd V).
    The entry s -> t has U exponent (gr_u(t) - gr_u(s) + 1) / 2, odd
    exactly when gr_u(t) = gr_u(s) + 1 (mod 4), so column s of Phi is
    diff[s] masked to that residue class.  Both are chain maps because
    differentiating ``diff o diff = 0`` over F2 gives
    ``diff o Phi + Phi o diff = 0`` (and likewise in V).
    """
    u_class, v_class = [0] * 4, [0] * 4
    for t, (gu, gv) in enumerate(cx.gradings):
        u_class[gu % 4] |= 1 << t
        v_class[gv % 4] |= 1 << t
    phi_cols = [col & u_class[(gu + 1) % 4]
                for col, (gu, _) in zip(cx.diff, cx.gradings)]
    psi_cols = [col & v_class[(gv + 1) % 4]
                for col, (_, gv) in zip(cx.diff, cx.gradings)]
    phi = Endomorphism._graded(cx, cx, phi_cols, STRAIGHT, (1, -1))
    psi = Endomorphism._graded(cx, cx, psi_cols, STRAIGHT, (-1, 1))
    return phi, psi


def sarkar_map(cx: KnotComplex) -> Endomorphism:
    """id + Phi o Psi: the chain-level basepoint full-twist action."""
    phi, psi = phi_psi_maps(cx)
    return cx.identity() + phi.compose(psi)


# -- validation ----------------------------------------------------------------

@dataclass
class ValidationReport:
    ok: bool
    s3_type: Optional[bool] = None
    first_violation: Optional[str] = None


def d_squared_violation(cx: KnotComplex) -> Optional[str]:
    """The first nonzero entry of diff o diff, lowest source and then
    lowest target, if any."""
    for s, col in enumerate(cx.diff):
        col = mat_vec(cx.diff, col)
        if col:
            t = (col & -col).bit_length() - 1
            return f"d^2 != 0 at {cx.generators[s]}->{cx.generators[t]}"
    return None


def validate(cx: KnotComplex, require_s3_type: bool = False) -> ValidationReport:
    """Check diff^2 = 0, entry bidegrees, and optionally the S^3-type shape
    of the two one-variable quotients (single free tower, top degree zero).
    """
    report = ValidationReport(ok=True)
    err = cx.boundary().grading_violation()
    if err:
        return ValidationReport(
            ok=False, first_violation=f"differential {err}")
    err = d_squared_violation(cx)
    if err:
        return ValidationReport(ok=False, first_violation=err)
    if require_s3_type:
        from .invariants import quotient_tower_shape  # local: avoids cycle
        for killed, axis in (("u", 0), ("v", 1)):
            shape = quotient_tower_shape(cx, killed)
            if shape.tower_count != 1:
                report.s3_type = False
                report.first_violation = (
                    f"quotient by {killed} has {shape.tower_count} free "
                    f"towers (need exactly 1)")
                return report
            if shape.tower_top[axis] != 0:
                report.s3_type = False
                report.first_violation = (
                    f"quotient by {killed} tower top sits at "
                    f"{shape.tower_top}, need degree 0")
                return report
        report.s3_type = True
    return report


# -- complexes with actions ----------------------------------------------------

@dataclass(frozen=True)
class PhiIotaComplex:
    """A complex with a straight automorphism-up-to-homotopy ``phi`` and a
    skew involution-up-to-the-twist ``iota``.

    ``phi_inverse`` records a homotopy inverse of ``phi`` so that duals never
    need to search for one.
    """

    complex: KnotComplex
    phi: Endomorphism
    iota: Endomorphism
    phi_inverse: Optional[Endomorphism] = None

    def __post_init__(self):
        for label, f, mode in (("phi", self.phi, STRAIGHT),
                               ("iota", self.iota, SKEW)):
            if f.mode != mode or f.bidegree != (0, 0):
                raise ValidationError(f"{label} has the wrong shape")
            if not chain_commutes(self.complex, f):
                raise ValidationError(f"{label} is not a chain map")

    @property
    def name(self) -> str:
        return self.complex.name

    @property
    def phi_is_identity(self) -> bool:
        """True for an iota-complex, whose phi is the identity."""
        return self.phi == self.complex.identity()

    @cached_property
    def diagonal(self):
        """``DiagonalHomology(a0(self))``, built on first use and kept: the
        local-map solves read its tower cycle and masks."""
        from .invariants import DiagonalHomology, a0  # local: avoids cycle
        return DiagonalHomology(a0(self))


def chain_commutes(cx: KnotComplex, f: Endomorphism) -> bool:
    """f o diff == diff o f, column by column on the bits."""
    for end in (f.source, f.target):
        if end is not cx and end != cx:
            raise ValidationError("composition mismatch")
    d, cols = cx.diff, f.cols
    return [mat_vec(cols, c) for c in d] == [mat_vec(d, c) for c in cols]


def iota_complex(cx: KnotComplex, iota: Endomorphism) -> PhiIotaComplex:
    """Wrap a complex carrying only the skew involution (phi = id)."""
    return PhiIotaComplex(cx, cx.identity(), iota, cx.identity())


# -- tensor product -------------------------------------------------------------

def _kron(f: Endomorphism, g: Endomorphism) -> tuple:
    """Bit columns of f (x) g, generator pair (i, j) at index i * n2 + j.

    Column (i, j) holds column j of g in block t of the pair basis for
    every bit t of column i of f; the blocks are n2 bits wide and do not
    overlap, so this is one product of integers."""
    n2 = g.source.n
    spread = [sum(1 << (t * n2) for t in ones(col)) for col in f.cols]
    return tuple(b * a for a in spread for b in g.cols)


def tensor(x1: PhiIotaComplex, x2: PhiIotaComplex,
           name: Optional[str] = None) -> PhiIotaComplex:
    """Tensor product with the corrected involution
    ``(id (x) id + Phi (x) Psi) o (iota1 (x) iota2)`` and ``phi1 (x) phi2``.
    """
    c1, c2 = x1.complex, x2.complex
    gens = tuple(f"{g1}|{g2}" for g1 in c1.generators for g2 in c2.generators)
    grads = tuple(gr_add(g1, g2) for g1 in c1.gradings for g2 in c2.gradings)
    diff = [a ^ b for a, b in zip(_kron(c1.boundary(), c2.identity()),
                                  _kron(c1.identity(), c2.boundary()))]
    cx = KnotComplex(name or f"{c1.name}#{c2.name}", gens, grads, diff)

    def kron(f, g, mode):
        return Endomorphism._graded(cx, cx, _kron(f, g), mode, (0, 0))

    phi = kron(x1.phi, x2.phi, STRAIGHT)
    phi_inv = None
    if x1.phi_inverse is not None and x2.phi_inverse is not None:
        phi_inv = kron(x1.phi_inverse, x2.phi_inverse, STRAIGHT)
    iot = kron(x1.iota, x2.iota, SKEW)
    phi1, _ = phi_psi_maps(c1)
    _, psi2 = phi_psi_maps(c2)
    correction = kron(phi1, psi2, STRAIGHT)
    iota = (cx.identity() + correction).compose(iot)
    return PhiIotaComplex(cx, phi, iota, phi_inv)


# -- duals -----------------------------------------------------------------------

def transpose_cols(cols, n: int) -> tuple:
    out = [0] * n
    for s, col in enumerate(cols):
        for t in ones(col):
            out[t] |= 1 << s
    return tuple(out)


def dual_complex(cx: KnotComplex, name: Optional[str] = None) -> KnotComplex:
    """Bare basis dual: gradings negated, matrix transposed."""
    gens = tuple(f"{g}*" for g in cx.generators)
    grads = tuple(gr_neg(g) for g in cx.gradings)
    return KnotComplex(name or f"-{cx.name}", gens, grads,
                       transpose_cols(cx.diff, cx.n))


def dual(x: PhiIotaComplex, name: Optional[str] = None) -> PhiIotaComplex:
    """Basis dual with negated gradings.

    Every map transposes.  The differential and straight maps keep their
    monomials and the skew involution's are exchanged; both are what the
    negated gradings force.  ``phi`` dualises to the transpose of the
    recorded homotopy inverse, which is the inverse element convention
    for the local-class group.
    """
    c = x.complex
    if x.phi_inverse is None:
        raise ValidationError(
            f"{c.name}: dual needs a recorded homotopy inverse for phi")
    cxd = dual_complex(c, name)

    def transpose(f, mode):
        return Endomorphism._graded(cxd, cxd, transpose_cols(f.cols, c.n),
                                    mode, (0, 0))

    return PhiIotaComplex(cxd, transpose(x.phi_inverse, STRAIGHT),
                          transpose(x.iota, SKEW), transpose(x.phi, STRAIGHT))


# -- direct sums and shifts ------------------------------------------------------

def direct_sum(*complexes: KnotComplex, name: Optional[str] = None) -> KnotComplex:
    gens, grads, cols = [], [], []
    offset = 0
    for c in complexes:
        gens.extend(c.generators)
        grads.extend(c.gradings)
        cols.extend(col << offset for col in c.diff)
        offset += c.n
    return KnotComplex(name or "+".join(c.name for c in complexes),
                       tuple(gens), tuple(grads), tuple(cols))


def shift(cx: KnotComplex, by: Grading, name: Optional[str] = None,
          rename=None) -> KnotComplex:
    gens = tuple(rename(g) if rename else g for g in cx.generators)
    grads = tuple(gr_add(g, by) for g in cx.gradings)
    return KnotComplex(name or cx.name, gens, grads, cx.diff)


# -- canonical JSON serialisation -------------------------------------------------

def encode_columns(f: Endomorphism) -> dict:
    """{source id: [[target id, u_exp, v_exp], ...]} for every column of
    f, empty ones included, in generator order.

    Each column's landing bidegree is worked out once and every triple
    is read straight off the column's bits and the target gradings (f is
    graded, so the exponents are the ones :func:`entries` forces)."""
    tgt, grads = f.target.generators, f.target.gradings
    out = {}
    for g, gr, col in zip(f.source.generators, f.source.gradings, f.cols):
        eu, ev = landing(gr, f.mode, f.bidegree)
        out[g] = [[tgt[t], (grads[t][0] - eu) >> 1, (grads[t][1] - ev) >> 1]
                  for t in ones(col)]
    return out


def _encode_matrix(f: Endomorphism) -> dict:
    return {g: col for g, col in encode_columns(f).items() if col}


def to_dict(x, include_actions: bool = True) -> dict:
    """Canonical dictionary form: stable ordering throughout, so dumping it
    is byte-reproducible."""
    cx = x.complex if isinstance(x, PhiIotaComplex) else x
    doc = {
        "name": cx.name,
        "generators": [{"id": g, "gr": list(gr)}
                       for g, gr in zip(cx.generators, cx.gradings)],
        "differential": _encode_matrix(cx.boundary()),
    }
    if include_actions and isinstance(x, PhiIotaComplex):
        doc["phi"] = {"mode": x.phi.mode, "map": _encode_matrix(x.phi)}
        doc["iota"] = {"mode": x.iota.mode, "map": _encode_matrix(x.iota)}
    return doc


_DUMPS = json.JSONEncoder()  # json.dumps's settings: ", ", ": ", ASCII
# JSONEncoder.encode builds this C encoder afresh on every call; here it is
# built once, from the same settings, without the circular-reference check
_C_ENCODE = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, _DUMPS.default, _encode_key, None, _DUMPS.key_separator,
    _DUMPS.item_separator, _DUMPS.sort_keys, _DUMPS.skipkeys,
    _DUMPS.allow_nan)


def _dumps(value) -> str:
    """``json.dumps(value)``, from the encoder built once."""
    if _C_ENCODE is None:
        return _DUMPS.encode(value)
    return "".join(_C_ENCODE(value, 0))


def _is_leaf(value) -> bool:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return True
    if isinstance(value, list):
        return all(isinstance(v, (str, int, float, bool)) or v is None
                   or (isinstance(v, list) and _is_leaf(v)) for v in value)
    return False


def _tuple_free(items: list) -> bool:
    """No tuple at any depth of a list whose encoding has no brace."""
    for v in items:
        if isinstance(v, list):
            if not _tuple_free(v):
                return False
        elif isinstance(v, tuple):
            return False
    return True


def _leaf_text(value):
    """The one-line text of a leaf, ``json.dumps(value)``; None for any
    other value."""
    if isinstance(value, str):
        return _encode_key(value)
    if not isinstance(value, list):
        if isinstance(value, (int, float)) or value is None:
            return _dumps(value)
        return None
    if value and isinstance(value[0], dict):
        return None
    try:
        text = _dumps(value)
    except (TypeError, ValueError):
        if _is_leaf(value):
            raise  # json.dumps raises it too
        return None
    if "{" in text or "}" in text:
        return text if _is_leaf(value) else None
    return text if _tuple_free(value) else None


def canonical_json(value, indent: int = 0) -> str:
    """Deterministic JSON with leaf arrays kept on one line.

    A leaf is a str, int, float, bool or None, or a list (nested to any
    depth) of those; it is written on one line, as ``json.dumps`` writes
    it.  Dicts and lists holding a dict go one item per line, and a dict
    key k is written as the string ``str(k)``.  Nothing else serialises:
    a tuple, a set or any other object raises ``TypeError`` at any depth.

    A scalar is a leaf as it stands.  A list is encoded once, whole,
    unless its first item is a dict.  The encoder writes a dict as
    ``{...}`` and nothing else with a brace, so text without ``{`` or
    ``}`` is a leaf once a walk finds no tuple in it (the encoder writes
    a tuple as an array).  A string may hold a brace, so text with one,
    or a list the encoder rejects, falls back to the exact leaf test.
    """
    pad = "  " * indent
    if not isinstance(value, dict):
        text = _leaf_text(value)
        if text is not None:
            return text
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = ",\n".join(pad + "  " + canonical_json(v, indent + 1)
                           for v in value)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {_encode_key(str(k))}: {canonical_json(v, indent + 1)}"
            for k, v in value.items())
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialise {type(value)!r}")


def serialize(x, include_actions: bool = True) -> str:
    return canonical_json(to_dict(x, include_actions)) + "\n"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _decode_matrix(cx: KnotComplex, raw, label: str, mode: str,
                   bidegree: Grading) -> tuple:
    """Read [target, u_exp, v_exp] triples into bit columns, in one pass.

    Each column's expected grading (gr(s), swapped when skew, plus the
    bidegree) is worked out once.  A triple whose monomial is the forced
    one, gr(t) - 2 (u_exp, v_exp) equal to it, toggles bit t; any other
    triple toggles its (s, t, u_exp, v_exp) key in a set of stray
    triples.  Repeated triples add mod 2 first, so an entry is well
    formed exactly when its polynomial is 0 or the forced monomial, that
    is when its non-forced monomials cancel in pairs: when no key of the
    entry is left in the set.  Every shape error is a ParseError raised
    while reading; the first left-over key in (source, target) order is
    then the bidegree violation."""
    if not isinstance(raw, dict):
        raise ParseError(f"{label}: must be an object of columns")
    pos, grads = cx._positions, cx.gradings
    cols = [0] * cx.n
    stray = set()
    for src, triples in raw.items():
        s = pos.get(src) if isinstance(src, str) else None
        if s is None:
            raise ParseError(f"{label}: unknown generator {src!r}")
        if not isinstance(triples, list):
            raise ParseError(f"{label}: column {src!r} must be a list")
        eu, ev = landing(grads[s], mode, bidegree)
        col = 0
        for entry in triples:
            if not isinstance(entry, list) or len(entry) != 3:
                raise ParseError(f"{label}: entry {entry!r} is not a "
                                 f"[target, u_exp, v_exp] triple")
            tgt, a, b = entry
            t = pos.get(tgt) if isinstance(tgt, str) else None
            if t is None:
                raise ParseError(f"{label}: unknown generator {tgt!r}")
            if not (type(a) is int and type(b) is int
                    or _is_int(a) and _is_int(b)):
                raise ParseError(f"{label}: non-integer exponent in {entry!r}")
            if a < 0 or b < 0:
                raise ParseError(f"{label}: negative exponent in {entry!r}")
            tu, tv = grads[t]
            if tu - 2 * a == eu and tv - 2 * b == ev:
                col ^= 1 << t
            else:
                stray ^= {(s, t, a, b)}
        cols[s] = col
    if stray:
        s, t, _, _ = min(stray)
        raise ValidationError(f"{label} bidegree violated at "
                              f"{cx.generators[s]}->{cx.generators[t]}")
    return tuple(cols)


_TOP_KEYS = frozenset(("name", "generators", "differential", "phi", "iota"))
_GENERATOR_KEYS = frozenset(("id", "gr"))
_ACTION_KEYS = frozenset(("mode", "map"))


def _reject_unknown_keys(obj: dict, allowed: frozenset, where: str) -> None:
    """A key outside the file format is a ParseError naming it: a
    misspelt key would otherwise read as a missing one."""
    if not obj.keys() <= allowed:
        key = next(k for k in obj if k not in allowed)
        raise ParseError(f"{where}: unknown key {key!r}")


def complex_from_dict(doc: dict) -> KnotComplex:
    """A complex from its dictionary form.  The decoder has already
    proved every entry forced, so only diff^2 = 0 is left to check."""
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    _reject_unknown_keys(doc, _TOP_KEYS, "top level")
    raw_gens = doc.get("generators")
    if not raw_gens:
        raise ParseError("no generators")
    if not isinstance(raw_gens, list):
        raise ParseError("generators must be a list")
    gens, grads = [], []
    seen = set()
    for item in raw_gens:
        if not isinstance(item, dict) or not isinstance(item.get("id"), str):
            raise ParseError(f"generator {item!r} needs a string id")
        gid = item["id"]
        _reject_unknown_keys(item, _GENERATOR_KEYS, f"generator {gid!r}")
        if gid in seen:
            raise ParseError(f"duplicate generator id {gid!r}")
        seen.add(gid)
        gr = item.get("gr")
        if not (isinstance(gr, list) and len(gr) == 2
                and _is_int(gr[0]) and _is_int(gr[1])):
            raise ParseError(f"generator {gid!r}: gr must be [gr_u, gr_v] "
                             f"with integer entries")
        if (gr[0] - gr[1]) % 2:
            raise ParseError(f"generator {gid!r}: gr_u - gr_v must be even "
                             f"(the Alexander grading is an integer)")
        gens.append(gid)
        grads.append(tuple(gr))
    name = doc.get("name", "unnamed")
    if not isinstance(name, str):
        raise ParseError("name must be a string")
    cx = KnotComplex(name, tuple(gens), tuple(grads), ())
    diff = _decode_matrix(cx, doc.get("differential", {}), "differential",
                          STRAIGHT, (-1, -1))
    cx = KnotComplex(cx.name, cx.generators, cx.gradings, diff)
    err = d_squared_violation(cx)
    if err:
        raise ValidationError(err)
    return cx


def action_from_dict(cx: KnotComplex, raw: dict, label: str) -> Endomorphism:
    if not isinstance(raw, dict):
        raise ParseError(f"{label}: must be an object with mode and map")
    _reject_unknown_keys(raw, _ACTION_KEYS, label)
    mode = raw.get("mode")
    if mode not in (STRAIGHT, SKEW):
        raise ParseError(f"{label}: mode must be 'straight' or 'skew'")
    cols = _decode_matrix(cx, raw.get("map", {}), label, mode, (0, 0))
    return Endomorphism._graded(cx, cx, cols, mode, (0, 0))
