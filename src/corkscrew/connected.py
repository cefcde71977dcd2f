"""Connected complexes (minimal local representatives) and the
nontriviality of the basepoint twist on them.

The inputs this library certifies all decompose, after a change of basis,
into one staircase (possibly a single dot) plus boxes.  The recogniser
finds such a basis by a deterministic sweep of same-grading transvections
that monotonically shrinks the differential, then pattern-matches the
components, splitting off square summands between sweeps until they
match.  For those shapes the connected complex is known exactly: the
staircase survives and the boxes cancel in pairs, so only the parity of
the box count matters.  Everything else is answered by the input itself,
unreduced, always labelled as unverified; it never feeds a positive
verdict.

The model is the recognised basis, renamed.  Recognition carries only the
change of basis M, takes M^-1 with one inverse and certifies there that
M^-1 d M is the recognised differential; M and M^-1 are then the
inclusion and projection of a connected input, with no further check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .algebra import (
    Echelon,
    Grading,
    Levels,
    gr_add,
    inverse_cols,
    mat_vec,
    ones,
    slice_monomial,
)
from .complexes import (
    Endomorphism,
    KnotComplex,
    PhiIotaComplex,
    STRAIGHT,
    direct_sum,
    iota_complex,
    sarkar_map,
    validate,
)
from .errors import ConsistencyError, ValidationError
from .homotopy import homotopic, local_map_exists
from .models import box_complex, involution_candidates

GREEDY_CAVEAT = "greedy nonmaximal: unverified"
SWEEP_PASSES = 80


@dataclass(frozen=True)
class StandardForm:
    """Staircase-plus-boxes shape of a complex after a basis change."""

    staircase_steps: tuple  # arrow exponents along the zigzag, length 2n
    staircase_sign: int  # +1 as built, -1 mirrored
    staircase_anchor: Grading  # bigrading of the first path generator
    boxes: tuple  # ((side_length, corner_bigrading), ...)
    roles: tuple  # generator ids in canonical role order

    def describe(self) -> str:
        n = len(self.staircase_steps) // 2
        stair = "dot" if n == 0 else f"staircase({self.staircase_sign * n})"
        if not self.boxes:
            return stair
        boxes = " + ".join(f"box({ell})" for ell, _ in self.boxes)
        return f"{stair} + {boxes}"


# -- transvection sweep ----------------------------------------------------------
# The sweep works on the differential's bit columns.  A basis change
# new_i = e_i + m e_j by a homogeneous element keeps every generator's
# grading, so each entry stays the one monomial its gradings force: a move
# only toggles entries, and the score reads each entry's monomial off the
# gradings.

class _Objective:
    """The sweep's differential with its score (terms, conflicts, mixed),
    kept live: terms counts entries, mixed those in both variables; every
    other entry is pure in U, or in V (constants included), and loads its
    source's outgoing and its target's incoming count for that variable;
    conflicts sums max(0, load - 1) over all four counts."""

    def __init__(self, gradings, cols):
        n = self.n = len(cols)
        self.gu = [g[0] for g in gradings]
        self.gv = [g[1] for g in gradings]
        self.cols = [0] * n
        self.rows = [0] * n  # rows[t]: bit s set when s -> t is an entry
        self.score = (0, 0, 0)
        self.load = [0] * (4 * n)  # out_u, out_v, in_u, in_v per node
        toggles = [(s, t) for s, col in enumerate(cols) for t in ones(col)]
        self.accept(toggles, self.trial(toggles))

    def transvection(self, i, j):
        """The entries the move new_i = e_i + m e_j toggles, none twice.

        The source side adds column j to column i; the target side then
        adds every coefficient on e_i to the one on e_j.  Both sides
        together conjugate the map.  Gradings rule out the entries i -> i,
        j -> j and j -> i, so the two sides never meet."""
        return ([(i, t) for t in ones(self.cols[j])]
                + [(s, j) for s in ones(self.rows[i])])

    def partners(self, i):
        """The j != i with column j meeting column i or row j meeting row
        i: rows[t] for each t in column i, cols[s] for each s in row i."""
        cols, rows = self.cols, self.rows
        reach = 0
        word = cols[i]
        while word:
            low = word & -word
            reach |= rows[low.bit_length() - 1]
            word ^= low
        word = rows[i]
        while word:
            low = word & -word
            reach |= cols[low.bit_length() - 1]
            word ^= low
        return reach & ~(1 << i)

    def terms_change(self, i, j):
        """Change in terms of transvection(i, j): a toggle flips an entry."""
        ci, cj, ri, rj = self.cols[i], self.cols[j], self.rows[i], self.rows[j]
        return (cj.bit_count() - 2 * (ci & cj).bit_count()
                + ri.bit_count() - 2 * (ri & rj).bit_count())

    def trial(self, toggles):
        """(score after the toggles, load deltas), the counts untouched."""
        cols, gu, gv, load, n = self.cols, self.gu, self.gv, self.load, self.n
        n2 = 2 * n
        terms, conflicts, mixed = self.score
        moved: dict = {}
        for s, t in toggles:
            sign = -1 if (cols[s] >> t) & 1 else 1
            terms += sign
            # the entry's monomial U^a V^b has a = 0 exactly when
            # gr_u(t) = gr_u(s) - 1, and likewise b
            if gu[t] == gu[s] - 1:
                k = n  # pure in V, or the constant
            elif gv[t] == gv[s] - 1:
                k = 0  # pure in U
            else:
                mixed += sign
                continue
            moved[k + s] = moved.get(k + s, 0) + sign
            moved[n2 + k + t] = moved.get(n2 + k + t, 0) + sign
        for k, dk in moved.items():
            k0 = load[k]
            conflicts += max(0, k0 + dk - 1) - max(0, k0 - 1)
        return (terms, conflicts, mixed), moved

    def accept(self, toggles, trial):
        self.score, moved = trial
        for k, dk in moved.items():
            self.load[k] += dk
        for s, t in toggles:
            self.cols[s] ^= 1 << t
            self.rows[t] ^= 1 << s


def _sweep(gradings, cols):
    """Deterministic local minimisation of the differential by
    same-grading (and monomial-shifted) transvections.

    Each pass tries the admissible moves (i-major, j-minor) and keeps one
    when it strictly lowers the score; a trial is scored from the entries
    it toggles, and only a kept move touches the columns.  A move that
    toggles nothing or adds terms cannot lower the lexicographic score, so
    it is never tried: the same moves are kept.  Unless j is one of
    ``_Objective.partners(i)``, the terms change is |cols[j]| + |rows[i]|,
    positive unless the move toggles nothing, so each i walks only its
    partners, in increasing order, recomputing them past j after a kept
    move.  Partners share an entry, so their gradings differ by even
    amounts, and j is admissible exactly when gr(j) >= gr(i) in both
    coordinates.  Returns the columns, the kept moves and the final
    score."""
    objective = _Objective(gradings, cols)
    gu, gv = objective.gu, objective.gv
    moves = []
    for _ in range(SWEEP_PASSES):
        kept = len(moves)
        for i in range(objective.n):
            ui, vi = gu[i], gv[i]
            todo = objective.partners(i)
            while todo:
                low = todo & -todo
                todo ^= low
                j = low.bit_length() - 1
                # new_i = e_i + m e_j needs gr(e_j) + deg(m) = gr(e_i)
                if gu[j] < ui or gv[j] < vi:
                    continue
                if objective.terms_change(i, j) > 0:
                    continue
                toggles = objective.transvection(i, j)
                trial = objective.trial(toggles)
                if trial[0] < objective.score:
                    objective.accept(toggles, trial)
                    m = ((gu[j] - ui) // 2, (gv[j] - vi) // 2)
                    moves.append((i, j, m))
                    todo = objective.partners(i) & -(low << 1)
        if len(moves) == kept:
            break
    return objective.cols, moves, objective.score


# -- pattern matching -------------------------------------------------------------

def _pure_arrows(gradings, cols):
    """Arrows (src, tgt, var, exp) when every entry is a pure power of one
    variable; None otherwise."""
    arrows = []
    for s, col in enumerate(cols):
        for t in ones(col):
            a, b = slice_monomial(gradings[t],
                                  gr_add(gradings[s], (-1, -1)))
            if a and b:
                return None
            if not a and not b:
                return None  # unit entry: the complex is not reduced
            arrows.append((s, t, "u" if a else "v", a or b))
    return arrows


def _components(n, arrows):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, t, _, _ in arrows:
        rs, rt = find(s), find(t)
        if rs != rt:
            parent[rs] = rt
    comps: dict = {}
    for g in range(n):
        comps.setdefault(find(g), []).append(g)
    return sorted(comps.values(), key=lambda c: c[0])


def _match_box(nodes, arrows, gradings):
    if len(nodes) != 4 or len(arrows) != 4:
        return None
    out: dict = {}
    for s, t, var, e in arrows:
        out.setdefault(s, []).append((t, var, e))
    sources2 = [g for g in nodes if len(out.get(g, [])) == 2]
    if len(sources2) != 1:
        return None
    a = sources2[0]
    legs = dict((var, (t, e)) for t, var, e in out[a])
    if set(legs) != {"u", "v"}:
        return None
    b, e1 = legs["u"]
    c, e2 = legs["v"]
    db = out.get(b, [])
    dc = out.get(c, [])
    if len(db) != 1 or len(dc) != 1:
        return None
    (d1, var_b, e3), (d2, var_c, e4) = db[0], dc[0]
    if d1 != d2 or var_b != "v" or var_c != "u":
        return None
    ell = e1
    if {e1, e2, e3, e4} != {ell}:
        return None
    if out.get(d1):
        return None
    return {"ell": ell, "corner": gradings[a], "roles": (a, b, c, d1)}


def _match_staircase(nodes, arrows, gradings):
    """Zigzag path with alternating arrow variables; a dot when trivial."""
    if len(nodes) == 1 and not arrows:
        return {"steps": (), "sign": 1, "anchor": gradings[nodes[0]],
                "roles": (nodes[0],)}
    if len(nodes) % 2 == 0 or len(arrows) != len(nodes) - 1:
        return None
    adj: dict = {g: [] for g in nodes}
    out: dict = {g: [] for g in nodes}
    for s, t, var, e in arrows:
        adj[s].append(t)
        adj[t].append(s)
        out[s].append((t, var, e))
    degrees = {g: len(adj[g]) for g in nodes}
    ends = [g for g in nodes if degrees[g] == 1]
    if len(ends) != 2 or any(d > 2 for d in degrees.values()):
        return None
    start = max(ends, key=lambda g: (gradings[g][0], -nodes.index(g)))
    path = [start]
    prev = None
    while len(path) < len(nodes):
        nxt = [g for g in adj[path[-1]] if g != prev]
        if len(nxt) != 1:
            return None
        prev = path[-1]
        path.append(nxt[0])
    sources = {g for g in nodes if out[g]}
    odd = set(path[1::2])
    even = set(path[0::2])
    if sources == odd:
        sign = 1
    elif sources == even and len(nodes) > 1:
        sign = -1
    else:
        return None
    steps = []
    for g in path:
        for t, var, e in sorted(out[g], key=lambda x: path.index(x[0])):
            steps.append(e)
    # arrow variables must alternate consistently with the gradings; the
    # bidegree contract already forces this on a valid complex
    return {"steps": tuple(steps), "sign": sign, "anchor": gradings[path[0]],
            "roles": tuple(path)}


def recognize_standard(cx: KnotComplex) -> Optional[StandardForm]:
    """Detect a basis change exhibiting staircase + boxes; None otherwise."""
    got = _recognize(cx)
    return got[0] if got else None


# -- basis matrices -------------------------------------------------------------
# A change of basis by homogeneous elements is a grading-homogeneous map, so
# it is held as bit columns (see complexes); its monomials are forced.

def _matmul(a_cols, b_cols):
    """Bit columns of A o B."""
    return [mat_vec(a_cols, col) for col in b_cols]


def _transvected(m_cols, moves):
    """M after a transvection sequence, in place: a move
    new_i = e_i + m e_j adds column j of M to column i."""
    for i, j, _ in moves:
        m_cols[i] ^= m_cols[j]
    return m_cols


def _conjugate_diff(cols, m_cols, q_cols):
    return _matmul(q_cols, _matmul(cols, m_cols))


def _relabel(col, pos):
    """The bits of ``col`` renumbered by ``pos``."""
    return sum(1 << pos[t] for t in ones(col))


# -- square-summand peeling -------------------------------------------------------

def _peel_boxes(gradings, cols):
    """Basis (M, M^-1) splitting off every square summand of a uniform
    one-exponent complex, or None when the shape does not apply.

    Writing the differential as U^L A + V^L B with constant F2 matrices,
    squares are detected by the composite P = AB: its image is spanned by
    the square sinks, and the projector onto the spans {x, Ax, Bx, Px}
    built from dual functionals of the P-image commutes with both A and B,
    so its kernel is a complementary subcomplex on the nose.
    """
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
    # full decomposition X + AX + BX + PX + completion, in that order;
    # quadruple i's PX row carries marker bit n + i, so a vector reduces
    # to its coefficients on the PX rows above its n generator bits
    deco, low = Echelon(), (1 << n) - 1
    for part in range(4):
        for i, q in enumerate(quads):
            v = deco.reduce(q[part]) & low
            if not v:
                return None  # quadruples fail to be independent: bail out
            deco.insert(v | (1 << (n + i) if part == 3 else 0))
    completion = []
    for s in range(n):
        v = deco.reduce(1 << s) & low
        if v:
            deco.insert(v)
            completion.append(1 << s)

    def sigma(v):
        # the PX coefficients of ABv, Bv, Av and v pick x, Ax, Bx and Px
        b_v = mat_vec(b_cols, v)
        coeffs = [deco.reduce(w) >> n for w in
                  (mat_vec(a_cols, b_v), b_v, mat_vec(a_cols, v), v)]
        out = 0
        for i, quad in enumerate(quads):
            for c, w in zip(coeffs, quad):
                if c >> i & 1:
                    out ^= w
        return out

    m_bits = [v for quad in quads for v in quad]
    for c in completion:
        m_bits.append(c ^ sigma(c))
    inv_bits = inverse_cols(m_bits)
    if inv_bits is None:
        return None
    # each new basis vector is homogeneous: its grading is that of any
    # generator in its support, and its bits lie in that grading's mask
    new_grads = tuple(gradings[(v & -v).bit_length() - 1] for v in m_bits)
    at = dict(Levels(gradings).masks)
    if any(v & ~at[g] for v, g in zip(m_bits, new_grads)):
        raise ConsistencyError("peeled basis vector is not homogeneous")
    return m_bits, inv_bits, new_grads


def _match_all(names, gradings, cols):
    n = len(names)
    arrows = _pure_arrows(gradings, cols)
    if arrows is None:
        return None
    comps = _components(n, arrows)
    stair = None
    boxes = []
    for nodes in comps:
        sub = [ar for ar in arrows if ar[0] in nodes]
        box = _match_box(nodes, sub, gradings) if len(nodes) == 4 else None
        if box is not None:
            boxes.append(box)
            continue
        cand = _match_staircase(nodes, sub, gradings)
        if cand is None:
            return None
        if stair is not None:
            return None  # two towers: not a knot-shaped complex
        stair = cand
    if stair is None:
        return None
    boxes.sort(key=lambda b: (b["ell"], b["corner"]))
    roles = tuple(stair["roles"]) + tuple(r for b in boxes for r in b["roles"])
    form = StandardForm(
        staircase_steps=stair["steps"],
        staircase_sign=stair["sign"],
        staircase_anchor=stair["anchor"],
        boxes=tuple((b["ell"], b["corner"]) for b in boxes),
        roles=tuple(names[r] for r in roles),
    )
    return form, roles


def _recognize(cx: KnotComplex):
    """Sweep, then peel square summands and sweep again until the form
    matches.  Peeling stops when it finds no square or when a round fails
    to strictly lower the sweep's score; the score is a triple of
    non-negative integers, so the rounds end.

    Only the change of basis M is carried: a transvection adds one of its
    columns to another, a peel multiplies it by the peel's basis.  M^-1 is
    taken once, after the last round, and M^-1 d M is certified to be the
    recognised differential.  Returns the form, M, M^-1, the roles, and
    the recognised gradings and columns; None when no form matches."""
    cols, moves, score = _sweep(cx.gradings, cx.diff)
    m_cols = _transvected([1 << i for i in range(cx.n)], moves)
    grads, names = cx.gradings, cx.generators
    got = _match_all(names, grads, cols)
    peeled = got is None
    if peeled:
        names = tuple(f"v{k}" for k in range(cx.n))
    while got is None:
        peel = _peel_boxes(grads, cols)
        if peel is None:
            return None
        m2, q2, grads = peel
        cols, moves, new_score = _sweep(grads, _conjugate_diff(cols, m2, q2))
        m_cols = _transvected(_matmul(m_cols, m2), moves)
        got = _match_all(names, grads, cols)
        if got is None and not new_score < score:
            return None
        score = new_score
    # the change of basis must be an honest conjugation onto the recognised
    # complex; cheap to certify, catastrophic if wrong
    q_cols = inverse_cols(m_cols)
    if q_cols is None or _conjugate_diff(cx.diff, m_cols, q_cols) != cols:
        raise ConsistencyError(
            f"{cx.name}: change of basis does not conjugate the "
            f"differential onto the recognised form")
    if peeled and not validate(KnotComplex(cx.name, names, grads, cols)).ok:
        raise ConsistencyError(
            f"{cx.name}: recognised form is not a valid complex")
    form, roles = got
    return form, m_cols, q_cols, roles, grads, cols


# -- the model, in the recognised basis -------------------------------------------

def _role_complex(name, roles, count, grads, cols) -> KnotComplex:
    """The recognised complex on ``roles``, in that order: ``count``
    staircase generators y<k>, then at most one box, named a b c d as
    ``box_complex`` names it."""
    gens = tuple(f"y{k}" for k in range(count)) + tuple(
        "abcd"[:len(roles) - count])
    pos = {r: k for k, r in enumerate(roles)}
    return KnotComplex(name, gens, tuple(grads[r] for r in roles),
                       [_relabel(cols[r], pos) for r in roles])


# -- connected complexes ---------------------------------------------------------------

@dataclass
class ConnectedResult:
    conn: PhiIotaComplex  # phi is the identity: this is an iota-complex
    form: Optional[StandardForm]
    inclusion: Endomorphism  # conn -> input
    projection: Endomorphism  # input -> conn
    # "exact-standard", or "greedy" for the unreduced input itself: a name
    # from a removed greedy search that reports and the benchmark match on
    method: str
    caveat: Optional[str] = None
    certificates: dict = field(default_factory=dict)


def connected_complex(x: PhiIotaComplex) -> ConnectedResult:
    """Minimal local representative of the iota-complex underlying x.

    Standard forms are answered exactly: the staircase plus one box when
    the box count is odd, the staircase alone when it is even, with
    machine-checked local maps in both directions as certificates.  The
    input is returned unreduced otherwise, labelled unverified, and never
    certifies anything.
    """
    cx = x.complex
    got = _recognize(cx)
    if got is not None:
        form, m_cols, q_cols, roles, grads, cols = got
        if len({ell for ell, _ in form.boxes}) <= 1:
            # longer steps wait for oracle checks of general staircases
            if any(step != 1 for step in form.staircase_steps):
                raise ValidationError("only step-one staircases are rebuilt")
            if len(form.boxes) <= 1:
                return _conn_whole(x, form, m_cols, q_cols, roles, grads,
                                   cols)
            res = _conn_reduced(x, form, roles, grads, cols)
            if res is not None:
                return res
    return ConnectedResult(conn=iota_complex(cx, x.iota), form=None,
                           inclusion=cx.identity(), projection=cx.identity(),
                           method="greedy", caveat=GREEDY_CAVEAT)


def _conn_whole(x: PhiIotaComplex, form: StandardForm, m_cols, q_cols, roles,
                grads, cols):
    """The input itself is connected: the model is the recognised complex,
    renamed, and M and M^-1, relabelled, are the inclusion and the
    projection.  Both are homogeneous by construction, and ``_recognize``
    certified the conjugation."""
    cx = x.complex
    model = _role_complex(f"conn({cx.name})", roles,
                          len(form.staircase_steps) + 1, grads, cols)
    pos = {r: k for k, r in enumerate(roles)}
    inclusion = Endomorphism._graded(model, cx, [m_cols[r] for r in roles],
                                     STRAIGHT, (0, 0))
    projection = Endomorphism._graded(
        cx, model, [_relabel(col, pos) for col in q_cols], STRAIGHT, (0, 0))
    conn = iota_complex(model, projection.compose(x.iota).compose(inclusion))
    return ConnectedResult(conn=conn, form=form, inclusion=inclusion,
                           projection=projection, method="exact-standard")


def _invert_iso(w: Endomorphism) -> Optional[Endomorphism]:
    """The inverse of a straight (0, 0) self-map's bit matrix, or None
    when it is singular.  The inverse is a power of the matrix, so it is
    again a homogeneous map."""
    inv = inverse_cols(w.cols)
    if inv is None:
        return None
    return Endomorphism._graded(w.target, w.source, inv, STRAIGHT, (0, 0))


def _conn_reduced(x: PhiIotaComplex, form: StandardForm, roles, grads, cols):
    """Several boxes of one size: the connected model keeps box-count
    parity.  It is the recognised staircase, renamed, plus one box centred
    on its middle generator when the count is odd; certified by local maps
    both ways.  None when no involution candidate on the model matches."""
    ell = form.boxes[0][0]
    count = len(form.staircase_steps) + 1
    keep = ()
    if len(form.boxes) % 2 == 1:
        keep = ((ell, grads[roles[count // 2]]),)
    stair = _role_complex("stair", roles[:count], count, grads, cols)
    model = direct_sum(stair, *(box_complex(ell, at=at) for ell, at in keep),
                       name=f"conn({x.complex.name})")
    # x_iota and each candidate's conn keep their diagonal homology
    # (PhiIotaComplex.diagonal), so the solves both ways build each once;
    # an x with phi = id is its own iota-complex, already checked
    x_iota = (x if x.phi_is_identity
              else iota_complex(x.complex, x.iota))
    try:
        candidates = involution_candidates(model)
    except ValidationError:
        return None
    for iota_m in candidates:
        conn = iota_complex(model, iota_m)
        down = local_map_exists(x_iota, conn)
        if not down.exists:
            continue
        up = local_map_exists(conn, x_iota)
        if not up.exists:
            continue
        w = down.f.compose(up.f)  # self-local map of the minimal model
        z = _invert_iso(w)
        if z is None:
            continue
        inclusion = up.f.compose(z)
        projection = down.f
        if projection.compose(inclusion) != model.identity():
            raise ConsistencyError(
                f"{x.complex.name}: projection does not invert the "
                f"inclusion")
        return ConnectedResult(
            conn=conn, form=StandardForm(
                staircase_steps=form.staircase_steps,
                staircase_sign=form.staircase_sign,
                staircase_anchor=form.staircase_anchor,
                boxes=keep, roles=tuple(model.generators)),
            inclusion=inclusion, projection=projection,
            method="exact-standard",
            certificates={"down": down, "up": up})
    return None


# -- the nontriviality decision ----------------------------------------------------------

@dataclass
class TwistTriviality:
    nontrivial: bool
    conn: ConnectedResult
    homotopy: Optional[object]  # witness when trivial
    obstruction: Optional[dict]  # certificate when nontrivial
    caveat: Optional[str]


def s_nontrivial(x: PhiIotaComplex) -> TwistTriviality:
    """Is the basepoint full twist homotopic to the identity on the
    connected complex?  Nontrivial means it is not."""
    res = connected_complex(x)
    model = res.conn.complex
    s = sarkar_map(model)
    h = homotopic(s, model.identity())
    if h is not None:
        return TwistTriviality(False, res, h, None, res.caveat)
    return TwistTriviality(True, res, None,
                           {"kind": "twist-id-homotopy-infeasible",
                            "conn": model.name}, res.caveat)
