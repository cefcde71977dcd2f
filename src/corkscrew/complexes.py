"""Bigraded chain complexes over F2[U,V] and their structured endomorphisms.

A :class:`KnotComplex` is a finitely generated free complex with
``deg(boundary) = (-1,-1)``, ``deg(U) = (-2,0)`` and ``deg(V) = (0,-2)``.
Endomorphisms are either *straight* (module maps) or *skew* (the monomial
exponents are exchanged when coefficients move through the map), and every
entry must respect the declared bidegree; this is checked entrywise.

The module also provides the derivative endomorphisms of the differential,
the basepoint-twist map ``id + (d/dU diff)(d/dV diff)``, duals, involutive
tensor products, and the canonical JSON serialisation used by the file
format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .algebra import (
    Grading,
    P_ONE,
    Poly,
    formal_derivative,
    gr_add,
    gr_neg,
    gr_swap,
    mono_deg,
    padd,
    pscale,
    pswap,
    slice_pairs,
)
from .errors import ParseError, ValidationError

STRAIGHT = "straight"
SKEW = "skew"


def _norm_cols(cols):
    """Drop zero polynomials; column dicts keep their insertion order,
    which nothing may depend on (reports sort where they print)."""
    out = []
    for col in cols:
        out.append({t: p for t, p in col.items() if p})
    return tuple(out)


@dataclass(frozen=True)
class KnotComplex:
    """Free bigraded chain complex over F2[U,V] presented by a matrix."""

    name: str
    generators: tuple  # generator ids, order fixes every basis below
    gradings: tuple  # Grading per generator
    diff: tuple  # diff[src] = {tgt: Poly}

    def __post_init__(self):
        object.__setattr__(self, "diff", _norm_cols(self.diff))
        seen = set()
        for g in self.generators:
            if g in seen:
                raise ValidationError(f"duplicate generator id {g!r}")
            seen.add(g)
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
            return self.generators.index(gid)
        except ValueError:
            raise KeyError(f"no generator {gid!r} in {self.name}") from None

    def grading(self, gid: str) -> Grading:
        return self.gradings[self.index(gid)]

    def slice(self, target: Grading, variables: str = "uv") -> list:
        """(monomial, generator-index) pairs at a bigrading, basis order."""
        return slice_pairs(self.gradings, target, variables)

    def boundary(self) -> "Endomorphism":
        return Endomorphism(self, self, self.diff, STRAIGHT, (-1, -1),
                            check=False)

    def identity(self) -> "Endomorphism":
        cols = tuple({i: P_ONE} for i in range(self.n))
        return Endomorphism(self, self, cols, STRAIGHT, (0, 0), check=False)

    def zero_map(self, mode=STRAIGHT, bidegree=(0, 0)) -> "Endomorphism":
        cols = tuple({} for _ in range(self.n))
        return Endomorphism(self, self, cols, mode, bidegree, check=False)


class Endomorphism:
    """Matrix-valued graded map between complexes.

    ``mode`` is ``"straight"`` for module maps and ``"skew"`` for maps that
    exchange the two variables when sliding coefficients through: a skew f
    satisfies ``f(U^a V^b x) = U^b V^a f(x)`` and sends bigrading ``(g1,g2)``
    to ``(g2,g1) + bidegree``.
    """

    __slots__ = ("source", "target", "cols", "mode", "bidegree")

    def __init__(self, source, target, cols, mode=STRAIGHT, bidegree=(0, 0),
                 check=True):
        self.source = source
        self.target = target
        self.cols = _norm_cols(cols)
        self.mode = mode
        self.bidegree = tuple(bidegree)
        if len(self.cols) != source.n:
            raise ValidationError("column count does not match source rank")
        if check:
            err = self.grading_violation()
            if err:
                raise ValidationError(err)

    # -- structural checks ----------------------------------------------

    def grading_violation(self) -> Optional[str]:
        """First entry, in (source, target) order, breaking the
        mode/bidegree contract, if any."""
        for s, col in enumerate(self.cols):
            expect = gr_add(self._source_grading(s), self.bidegree)
            for t, p in sorted(col.items()):
                tgt_gr = self.target.gradings[t]
                for m in p:
                    if gr_add(tgt_gr, mono_deg(m)) != expect:
                        return (f"bidegree violated at "
                                f"{self.source.generators[s]}->"
                                f"{self.target.generators[t]}")
        return None

    def _source_grading(self, s: int) -> Grading:
        g = self.source.gradings[s]
        return gr_swap(g) if self.mode == SKEW else g

    # -- algebra ----------------------------------------------------------

    def coeff_action(self, p: Poly) -> Poly:
        return pswap(p) if self.mode == SKEW else p

    def apply(self, vec: dict) -> dict:
        """Apply to an element given as {generator-index: Poly}."""
        out: dict = {}
        for s, p in vec.items():
            if not p:
                continue
            moved = self.coeff_action(p)
            for t, entry in self.cols[s].items():
                acc = out.get(t, frozenset())
                for m in moved:
                    acc = padd(acc, pscale(m, entry))
                out[t] = acc
        return {t: p for t, p in out.items() if p}

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise ValidationError("composition mismatch")
        cols = []
        for s in range(other.source.n):
            cols.append(self.apply(other.cols[s]))
        mode = STRAIGHT if self.mode == other.mode else SKEW
        od = other.bidegree
        if self.mode == SKEW:
            od = gr_swap(od)
        bideg = gr_add(self.bidegree, od)
        return Endomorphism(other.source, self.target, cols, mode, bideg,
                            check=False)

    def __add__(self, other: "Endomorphism") -> "Endomorphism":
        if (self.mode, self.bidegree) != (other.mode, other.bidegree):
            raise ValidationError("cannot add maps of different shape")
        cols = []
        for s in range(self.source.n):
            col = dict(self.cols[s])
            for t, p in other.cols[s].items():
                col[t] = padd(col.get(t, frozenset()), p)
            cols.append(col)
        return Endomorphism(self.source, self.target, cols, self.mode,
                            self.bidegree, check=False)

    def is_zero(self) -> bool:
        return all(not col for col in self.cols)

    def __eq__(self, other):
        return (isinstance(other, Endomorphism)
                and self.mode == other.mode
                and self.bidegree == other.bidegree
                and self.cols == other.cols)

    def __repr__(self):
        entries = []
        for s, col in enumerate(self.cols):
            for t, p in col.items():
                entries.append(
                    f"{self.source.generators[s]}->"
                    f"{self.target.generators[t]}:{sorted(p)}")
        return f"<{self.mode} map deg{self.bidegree} {entries}>"


# -- canonical endomorphisms of the differential ------------------------------

def phi_psi_maps(cx: KnotComplex):
    """Entrywise U- and V-derivatives of the differential matrix.

    Both are chain maps because differentiating ``diff o diff = 0`` over F2
    gives ``diff o Phi + Phi o diff = 0`` (and likewise in V).
    """
    phi_cols, psi_cols = [], []
    for col in cx.diff:
        phi_cols.append({t: formal_derivative(p, "u") for t, p in col.items()})
        psi_cols.append({t: formal_derivative(p, "v") for t, p in col.items()})
    phi = Endomorphism(cx, cx, phi_cols, STRAIGHT, (1, -1))
    psi = Endomorphism(cx, cx, psi_cols, STRAIGHT, (-1, 1))
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
    checks: list = field(default_factory=list)


def validate(cx: KnotComplex, require_s3_type: bool = False) -> ValidationReport:
    """Check diff^2 = 0, entry bidegrees, and optionally the S^3-type shape
    of the two one-variable quotients (single free tower, top degree zero).
    """
    report = ValidationReport(ok=True)
    d = cx.boundary()
    err = d.grading_violation()
    if err:
        return ValidationReport(
            ok=False, first_violation=f"differential {err}")
    report.checks.append("differential bidegree")
    dd = d.compose(d)
    if not dd.is_zero():
        for s, col in enumerate(dd.cols):
            if col:
                t = min(col)
                return ValidationReport(
                    ok=False,
                    first_violation=(
                        f"d^2 != 0 at {cx.generators[s]}->"
                        f"{cx.generators[t]}"))
    report.checks.append("d^2 = 0")
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
            if shape.tower_top is None or shape.tower_top[axis] != 0:
                report.s3_type = False
                report.first_violation = (
                    f"quotient by {killed} tower top sits at "
                    f"{shape.tower_top}, need degree 0")
                return report
        report.s3_type = True
        report.checks.append("S^3-type towers")
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
            err = f.grading_violation()
            if err:
                raise ValidationError(f"{label} {err}")
            if not chain_commutes(self.complex, f):
                raise ValidationError(f"{label} is not a chain map")
        if self.phi_inverse is not None:
            err = self.phi_inverse.grading_violation()
            if err:
                raise ValidationError(f"phi_inverse {err}")

    @property
    def name(self) -> str:
        return self.complex.name


def chain_commutes(cx: KnotComplex, f: Endomorphism) -> bool:
    d = cx.boundary()
    return (f.compose(d) + d.compose(f)).is_zero()


def iota_complex(cx: KnotComplex, iota: Endomorphism) -> PhiIotaComplex:
    """Wrap a complex carrying only the skew involution (phi = id)."""
    return PhiIotaComplex(cx, cx.identity(), iota, cx.identity())


# -- tensor product -------------------------------------------------------------

def _kron(cx: KnotComplex, f: Endomorphism, g: Endomorphism, mode, bidegree,
          pair_index) -> Endomorphism:
    cols = [dict() for _ in range(cx.n)]
    for s1 in range(f.source.n):
        for s2 in range(g.source.n):
            s = pair_index[s1, s2]
            col: dict = {}
            for t1, p1 in f.cols[s1].items():
                for t2, p2 in g.cols[s2].items():
                    t = pair_index[t1, t2]
                    prod = frozenset()
                    for m1 in p1:
                        prod = padd(prod, pscale(m1, p2))
                    col[t] = padd(col.get(t, frozenset()), prod)
            cols[s] = col
    return Endomorphism(cx, cx, cols, mode, bidegree, check=False)


def tensor(x1: PhiIotaComplex, x2: PhiIotaComplex,
           name: Optional[str] = None) -> PhiIotaComplex:
    """Tensor product with the corrected involution
    ``(id (x) id + Phi (x) Psi) o (iota1 (x) iota2)`` and ``phi1 (x) phi2``.
    """
    c1, c2 = x1.complex, x2.complex
    gens, grads = [], []
    pair_index = {}
    for i, g1 in enumerate(c1.generators):
        for j, g2 in enumerate(c2.generators):
            pair_index[i, j] = len(gens)
            gens.append(f"{g1}|{g2}")
            grads.append(gr_add(c1.gradings[i], c2.gradings[j]))
    cols = [dict() for _ in gens]
    for i in range(c1.n):
        for j in range(c2.n):
            s = pair_index[i, j]
            col: dict = {}
            for t, p in c1.diff[i].items():
                col[pair_index[t, j]] = p
            for t, p in c2.diff[j].items():
                k = pair_index[i, t]
                col[k] = padd(col.get(k, frozenset()), p)
            cols[s] = col
    cx = KnotComplex(name or f"{c1.name}#{c2.name}", tuple(gens),
                     tuple(grads), tuple(cols))
    phi = _kron(cx, x1.phi, x2.phi, STRAIGHT, (0, 0), pair_index)
    phi_inv = None
    if x1.phi_inverse is not None and x2.phi_inverse is not None:
        phi_inv = _kron(cx, x1.phi_inverse, x2.phi_inverse, STRAIGHT, (0, 0),
                        pair_index)
    iot = _kron(cx, x1.iota, x2.iota, SKEW, (0, 0), pair_index)
    phi1, _ = phi_psi_maps(c1)
    _, psi2 = phi_psi_maps(c2)
    correction = _kron(cx, phi1, psi2, STRAIGHT, (0, 0), pair_index)
    iota = (cx.identity() + correction).compose(iot)
    return PhiIotaComplex(cx, phi, iota, phi_inv)


# -- duals -----------------------------------------------------------------------

def _transpose(cxd: KnotComplex, f: Endomorphism, swap_monos: bool,
               mode, bidegree) -> Endomorphism:
    cols = [dict() for _ in range(cxd.n)]
    for s, col in enumerate(f.cols):
        for t, p in col.items():
            q = pswap(p) if swap_monos else p
            cols[t][s] = padd(cols[t].get(s, frozenset()), q)
    return Endomorphism(cxd, cxd, cols, mode, bidegree, check=False)


def dual(x: PhiIotaComplex, name: Optional[str] = None) -> PhiIotaComplex:
    """Basis dual with negated gradings.

    The differential and straight maps transpose with monomials preserved.
    The skew involution transposes with the monomials exchanged (forced by
    the entrywise grading contract).  ``phi`` dualises to the transpose of
    the recorded homotopy inverse, which is the inverse element convention
    for the local-class group.
    """
    c = x.complex
    if x.phi_inverse is None:
        raise ValidationError(
            f"{c.name}: dual needs a recorded homotopy inverse for phi")
    gens = tuple(f"{g}*" for g in c.generators)
    grads = tuple(gr_neg(g) for g in c.gradings)
    cxd = KnotComplex(name or f"-{c.name}", gens, grads,
                      tuple({} for _ in gens))
    cxd = KnotComplex(cxd.name, gens, grads,
                      _transpose(cxd, c.boundary(), False, STRAIGHT,
                                 (-1, -1)).cols)
    phi_d = _transpose(cxd, x.phi_inverse, False, STRAIGHT, (0, 0))
    phi_d_inv = _transpose(cxd, x.phi, False, STRAIGHT, (0, 0))
    iota_d = _transpose(cxd, x.iota, True, SKEW, (0, 0))
    return PhiIotaComplex(cxd, phi_d, iota_d, phi_d_inv)


# -- direct sums and shifts ------------------------------------------------------

def direct_sum(*complexes: KnotComplex, name: Optional[str] = None) -> KnotComplex:
    gens, grads, cols = [], [], []
    offset = 0
    for c in complexes:
        gens.extend(c.generators)
        grads.extend(c.gradings)
        for col in c.diff:
            cols.append({t + offset: p for t, p in col.items()})
        offset += c.n
    return KnotComplex(name or "+".join(c.name for c in complexes),
                       tuple(gens), tuple(grads), tuple(cols))


def shift(cx: KnotComplex, by: Grading, name: Optional[str] = None,
          rename=None) -> KnotComplex:
    gens = tuple(rename(g) if rename else g for g in cx.generators)
    grads = tuple(gr_add(g, by) for g in cx.gradings)
    return KnotComplex(name or cx.name, gens, grads, cx.diff)


# -- canonical JSON serialisation -------------------------------------------------

def _encode_matrix(cx: KnotComplex, cols) -> dict:
    out = {}
    for s, col in enumerate(cols):
        triples = []
        for t, p in sorted(col.items()):
            for a, b in sorted(p):
                triples.append([cx.generators[t], a, b])
        if triples:
            out[cx.generators[s]] = triples
    return out


def to_dict(x, include_actions: bool = True) -> dict:
    """Canonical dictionary form: stable ordering throughout, so dumping it
    is byte-reproducible."""
    cx = x.complex if isinstance(x, PhiIotaComplex) else x
    doc = {
        "name": cx.name,
        "generators": [{"id": g, "gr": list(cx.gradings[i])}
                       for i, g in enumerate(cx.generators)],
        "differential": _encode_matrix(cx, cx.diff),
    }
    if include_actions and isinstance(x, PhiIotaComplex):
        doc["phi"] = {"mode": x.phi.mode,
                      "map": _encode_matrix(cx, x.phi.cols)}
        doc["iota"] = {"mode": x.iota.mode,
                       "map": _encode_matrix(cx, x.iota.cols)}
    return doc


def _is_leaf(value) -> bool:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return True
    if isinstance(value, list):
        return all(isinstance(v, (str, int, float, bool)) or v is None
                   or (isinstance(v, list) and _is_leaf(v)) for v in value)
    return False


def canonical_json(value, indent: int = 0) -> str:
    """Deterministic JSON with leaf arrays kept on one line."""
    pad = "  " * indent
    if _is_leaf(value):
        return json.dumps(value)
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
            f"{pad}  {json.dumps(str(k))}: {canonical_json(v, indent + 1)}"
            for k, v in value.items())
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialise {type(value)!r}")


def serialize(x, include_actions: bool = True) -> str:
    return canonical_json(to_dict(x, include_actions)) + "\n"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _decode_matrix(cx: KnotComplex, raw, label: str):
    if not isinstance(raw, dict):
        raise ParseError(f"{label}: must be an object of columns")
    pos = {g: i for i, g in enumerate(cx.generators)}

    def index(gid) -> int:
        if isinstance(gid, str) and gid in pos:
            return pos[gid]
        raise ParseError(f"{label}: unknown generator {gid!r}")

    cols = [dict() for _ in range(cx.n)]
    for src, triples in raw.items():
        s = index(src)
        if not isinstance(triples, list):
            raise ParseError(f"{label}: column {src!r} must be a list")
        col: dict = {}
        for entry in triples:
            if not isinstance(entry, list) or len(entry) != 3:
                raise ParseError(f"{label}: entry {entry!r} is not a "
                                 f"[target, u_exp, v_exp] triple")
            tgt, a, b = entry
            t = index(tgt)
            if not (_is_int(a) and _is_int(b)):
                raise ParseError(f"{label}: non-integer exponent in {entry!r}")
            if a < 0 or b < 0:
                raise ParseError(f"{label}: negative exponent in {entry!r}")
            col[t] = padd(col.get(t, frozenset()), frozenset({(a, b)}))
        cols[s] = col
    return tuple(cols)


def complex_from_dict(doc: dict) -> KnotComplex:
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
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
        if gid in seen:
            raise ParseError(f"duplicate generator id {gid!r}")
        seen.add(gid)
        gr = item.get("gr")
        if not (isinstance(gr, list) and len(gr) == 2
                and all(_is_int(g) for g in gr)):
            raise ParseError(f"generator {gid!r}: gr must be [gr_u, gr_v] "
                             f"with integer entries")
        gens.append(gid)
        grads.append(tuple(gr))
    name = doc.get("name", "unnamed")
    if not isinstance(name, str):
        raise ParseError("name must be a string")
    cx = KnotComplex(name, tuple(gens), tuple(grads),
                     tuple({} for _ in gens))
    cols = _decode_matrix(cx, doc.get("differential", {}), "differential")
    cx = KnotComplex(cx.name, cx.generators, cx.gradings, cols)
    report = validate(cx)
    if not report.ok:
        raise ValidationError(report.first_violation)
    return cx


def action_from_dict(cx: KnotComplex, raw: dict, label: str) -> Endomorphism:
    if not isinstance(raw, dict):
        raise ParseError(f"{label}: must be an object with mode and map")
    mode = raw.get("mode")
    if mode not in (STRAIGHT, SKEW):
        raise ParseError(f"{label}: mode must be 'straight' or 'skew'")
    cols = _decode_matrix(cx, raw.get("map", {}), label)
    f = Endomorphism(cx, cx, cols, mode, (0, 0), check=False)
    err = f.grading_violation()
    if err:
        raise ValidationError(f"{label} {err}")
    return f
