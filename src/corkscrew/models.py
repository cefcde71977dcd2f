"""Builders for the model complexes the detection pipeline runs on, plus
the involution solver.

Grading conventions are pinned here once and for all:

* ``box(L)``: generators a, b, c, d with da = U^L b + V^L c, db = V^L d,
  dc = U^L d;  gr(a) = (1-L, 1-L), gr(b) = (L, -L), gr(c) = (-L, L),
  gr(d) = (L-1, L-1).
* ``staircase(n)`` (n > 0, step one): generators y0..y2n with
  d y(2i+1) = U y(2i) + V y(2i+2), gradings descending from
  gr(y0) = (0, -2n) to gr(y2n) = (-2n, 0); negative n via the dual.
* the figure-eight-shaped model: one extra generator x at (0, 0) beside a
  unit box, iota: x -> x+d, a -> a+x, b <-> c, d -> d; the periodic
  chain symmetry tau: x -> x+d, a -> a+x, b -> b, c -> c, d -> d.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .algebra import gr_add, ones
from .complexes import (
    Endomorphism,
    KnotComplex,
    PhiIotaComplex,
    SKEW,
    STRAIGHT,
    action_from_dict,
    complex_from_dict,
    direct_sum,
    dual_complex,
    iota_complex,
    sarkar_map,
    tensor,
)
from .errors import (
    ConsistencyError,
    NoInvolutionError,
    SearchCapExceeded,
    ValidationError,
    load_json,
    read_input,
)
from .homotopy import (
    HomotopyClasses,
    Left,
    MapShape,
    MapSystem,
    Right,
    homotopic,
    homotopy_inverse,
)

# -- bare complexes ------------------------------------------------------------

def dot_complex(label: str = "y0", at=(0, 0), name: str = "dot") -> KnotComplex:
    return KnotComplex(name, (label,), (tuple(at),), (0,))


def box_complex(ell: int, at=None, suffix: str = "",
                name: Optional[str] = None) -> KnotComplex:
    """The square complex with side length ``ell``.

    Default gradings are the symmetric ones (a at (1-L, 1-L), d at
    (L-1, L-1)); passing ``at`` shifts the whole box so that the source
    corner a sits there instead."""
    if ell < 1:
        raise ValueError("box side length must be >= 1")
    a, b, c, d = (f"a{suffix}", f"b{suffix}", f"c{suffix}", f"d{suffix}")
    base = {
        a: (1 - ell, 1 - ell), b: (ell, -ell),
        c: (-ell, ell), d: (ell - 1, ell - 1),
    }
    if at is None:
        at = (1 - ell, 1 - ell)
    off = (at[0] - (1 - ell), at[1] - (1 - ell))
    gens = (a, b, c, d)
    grads = tuple(gr_add(base[g], off) for g in gens)
    cols = (
        0b0110,  # a -> U^L b + V^L c
        0b1000,  # b -> V^L d
        0b1000,  # c -> U^L d
        0,
    )
    return KnotComplex(name or f"box({ell})", gens, grads, cols)


def staircase_complex(n: int, name: Optional[str] = None) -> KnotComplex:
    """Step-one staircase with 2n+1 generators (a dot when n = 0)."""
    if n < 0:
        raise ValueError(f"staircase_complex takes n >= 0; the dual "
                         f"staircase is staircase_model({n})")
    if n == 0:
        return dot_complex(name=name or "dot")
    gens = tuple(f"y{i}" for i in range(2 * n + 1))
    grads = tuple((-i, -2 * n + i) for i in range(2 * n + 1))
    # d y(2i+1) = U y(2i) + V y(2i+2)
    cols = tuple(0b101 << (i - 1) if i % 2 else 0 for i in range(2 * n + 1))
    return KnotComplex(name or f"staircase({n})", gens, grads, cols)


# -- complexes with actions -----------------------------------------------------

def unknot() -> PhiIotaComplex:
    cx = KnotComplex("unknot", ("u0",), ((0, 0),), (0,))
    iota = Endomorphism(cx, cx, (1,), SKEW, (0, 0))
    return PhiIotaComplex(cx, cx.identity(), iota, cx.identity())


def trivial() -> PhiIotaComplex:
    """The rank-one complex with identity actions (the unit local class)."""
    cx = KnotComplex("trivial", ("1",), ((0, 0),), (0,))
    iota = Endomorphism(cx, cx, (1,), SKEW, (0, 0))
    return PhiIotaComplex(cx, cx.identity(), iota, cx.identity())


def _reflection_iota(cx: KnotComplex) -> Endomorphism:
    """y_i -> y_(2n-i) on a staircase-shaped complex."""
    n = cx.n
    cols = tuple(1 << (n - 1 - i) for i in range(n))
    return Endomorphism(cx, cx, cols, SKEW, (0, 0))


def staircase_model(tau: int, name: Optional[str] = None) -> PhiIotaComplex:
    """Staircase with the reflection involution; tau < 0 mirrors."""
    cx = staircase_complex(abs(tau), name=name)
    if tau < 0:
        cx = dual_complex(cx, name=name or f"staircase({tau})")
    return iota_complex(cx, _reflection_iota(cx))


def torus_model(q: int) -> PhiIotaComplex:
    """The (2, q) torus knot model, q odd; q < 0 gives the mirror."""
    if q % 2 == 0:
        raise ValueError("only (2, odd) torus knots have these models")
    n = (abs(q) - 1) // 2
    return staircase_model(n if q > 0 else -n, name=f"T(2,{q})")


def figure_eight_with_actions() -> PhiIotaComplex:
    """Dot-plus-box model with its involution and the periodic chain
    symmetry tau as phi; tau^2 equals the basepoint full twist on the
    nose, so tau^-1 = tau^3 exactly."""
    cx = direct_sum(dot_complex("x"), box_complex(1), name="4_1")
    x, a, b, c, d = (1 << cx.index(g) for g in ("x", "a", "b", "c", "d"))
    # columns in generator order x, a, b, c, d
    iota = Endomorphism(cx, cx, (x | d, a | x, c, b, d), SKEW, (0, 0))
    tau = Endomorphism(cx, cx, (x | d, a | x, b, c, d), STRAIGHT, (0, 0))
    tau_inv = tau.compose(tau).compose(tau)
    if tau.compose(tau_inv) != cx.identity():
        raise ConsistencyError("tau^3 does not invert tau on 4_1")
    return PhiIotaComplex(cx, tau, iota, tau_inv)


def figure_eight_iota_only() -> PhiIotaComplex:
    """Same underlying model with phi = id (the plain involutive package)."""
    m = figure_eight_with_actions()
    return iota_complex(m.complex, m.iota)


def _stair_plus_box(tau: int, ell: Optional[int], name: str) -> PhiIotaComplex:
    """staircase(|tau|), mirrored when tau < 0, plus a box of side ``ell``
    (none when ``ell`` is None) whose corner a shares the bigrading of the
    middle staircase generator, with the lexmin involution."""
    stair = staircase_complex(abs(tau))
    if tau < 0:
        stair = dual_complex(stair)
    parts = [stair]
    if ell is not None:
        parts.append(box_complex(ell, at=stair.gradings[abs(tau)]))
    cx = direct_sum(*parts, name=name)
    iota, _ = solve_involution(cx)
    return iota_complex(cx, iota)


def thin_model(tau: int, box_parity_odd: bool,
               name: Optional[str] = None) -> PhiIotaComplex:
    """Connected model of a thin knot: staircase(|tau|) (mirrored when
    tau < 0) plus one unit box when the box count is odd, the box corner a
    sharing the bigrading of the middle staircase generator."""
    return _stair_plus_box(
        tau, 1 if box_parity_odd else None,
        name or f"thin(tau={tau},{'odd' if box_parity_odd else 'even'})")


def staircase_with_box(tau: int, ell: int,
                       name: Optional[str] = None) -> PhiIotaComplex:
    """Staircase plus one box of side ``ell`` centred on the middle
    generator; the shapes arising as connected models of certain torus-knot
    combinations.

    For ``ell > 1`` the involution must couple the box corner to the middle
    staircase generator, which therefore has to be a cycle: |tau| odd with
    an odd ``ell > 1`` admits no involution and raises."""
    return _stair_plus_box(tau, ell, name or f"staircase({tau})+box({ell})")


# -- the involution solver --------------------------------------------------------

INVOLUTION_CAP = 18  # free bits of skew chain maps the search enumerates


def involution_candidates(cx: KnotComplex) -> list:
    """All skew chain maps squaring to the basepoint twist up to strict
    homotopy of the square, lexicographically ordered.

    The chain-map condition is linear; the squaring condition is quadratic.
    Over the affine solution space p + sum x_k k_k of the former,

        (p + sum x_k k_k)^2 + s = (p^2 + s) + sum x_k (p k_k + k_k p + k_k^2)
                                  + sum_{k<l} x_k x_l (k_k k_l + k_l k_k),

    so with every term reduced to its normal form modulo null-homotopic
    maps, a candidate's square is homotopic to the twist exactly when the
    XOR of its terms is zero.  ``_zero_subsets`` tabulates that XOR over
    the 2^r subsets of the kernel vectors, r at most ``INVOLUTION_CAP``;
    the cap is checked before any table is built.
    """
    d = cx.boundary()
    s = sarkar_map(cx)
    sys = MapSystem()
    shape = MapShape(cx, cx, SKEW, (0, 0))
    sys.add_unknown("i", shape)
    sys.add_equation([("i", [Right(d), Left(d)])])
    sol = sys.solutions_bits()
    if sol is None:
        return []
    r = len(sol.kernel)
    if r > INVOLUTION_CAP:
        raise SearchCapExceeded(
            f"{cx.name}: {r} free bits of skew chain maps "
            f"exceed the enumeration cap {INVOLUTION_CAP}")
    classes = HomotopyClasses(cx)
    p = shape.assemble(sol.particular)
    ks = [shape.assemble(k) for k in sol.kernel]
    constant = classes.normal_form(p.compose(p) + s)
    linear = [classes.normal_form(p.compose(k) + k.compose(p) + k.compose(k))
              for k in ks]
    pair = {(a, b): classes.normal_form(ks[a].compose(ks[b])
                                        + ks[b].compose(ks[a]))
            for a, b in combinations(range(r), 2)}
    found = []
    for subset in _zero_subsets(constant, linear, pair):
        bits = sol.particular
        for a in ones(subset):
            bits ^= sol.kernel[a]
        found.append(bits)
    found.sort(key=lambda bits: [(bits >> i) & 1 for i in range(shape.size)])
    return [shape.assemble(bits) for bits in found]


def _zero_subsets(constant, linear, pair) -> list:
    """The subsets m of the kernel vectors (bit a for vector a), in
    increasing order, on which the quadratic form
    constant + sum_{a in m} linear[a] + sum_{a<b in m} pair[a, b] vanishes.

    The form is tabulated over all 2^r subsets, about two XORs each:
    adding a top bit h to a subset m of lower bits adds linear[h] and
    x_h[m] = sum_{g in m} pair[g, h], and x_h is tabulated the same way,
    x_h[m] = x_h[m without its top bit g] + pair[g, h]."""
    q = [constant]
    for h, lin in enumerate(linear):
        x = [0]
        for g in range(h):
            p = pair[g, h]
            x += [v ^ p for v in x]
        q += [v ^ lin ^ w for v, w in zip(q, x)]
    return [m for m, v in enumerate(q) if not v]


def solve_involution(cx: KnotComplex):
    """Lexicographically minimal involution candidate plus the homotopy
    certificate for its square; raises when none exists."""
    cands = involution_candidates(cx)
    if not cands:
        raise NoInvolutionError(f"no involution found on {cx.name}")
    iota = cands[0]
    cert = homotopic(iota.compose(iota), sarkar_map(cx))
    if cert is None:
        raise ConsistencyError(
            f"{cx.name}: the chosen involution does not square to the "
            f"twist up to homotopy")
    return iota, cert


# -- file ingestion ----------------------------------------------------------------

def parse_complex(path: str) -> PhiIotaComplex:
    """Load a complex file, validate it, and fill in missing actions.

    phi defaults to the identity; a missing iota is solved for when the
    complex is of S^3 type.
    """
    return parse_complex_text(read_input(path))


def parse_complex_text(text: str) -> PhiIotaComplex:
    return phi_iota_from_dict(load_json(text))


def phi_iota_from_dict(doc: dict) -> PhiIotaComplex:
    cx = complex_from_dict(doc)
    phi, iota = _given_actions(cx, doc)
    if iota is None:
        iota, _ = solve_involution(cx)
    return _with_relations(cx, phi, iota, "iota" in doc)


def check_given_actions(cx: KnotComplex, doc: dict) -> None:
    """Every check ``phi_iota_from_dict`` makes of the actions the file
    gives, with no involution solved: a missing iota is stood in for by
    the zero map, which commutes with phi on the nose."""
    phi, iota = _given_actions(cx, doc)
    given = iota is not None
    _with_relations(cx, phi, iota if given else cx.zero_map(SKEW), given)


def _given_actions(cx: KnotComplex, doc: dict) -> tuple:
    """(phi, iota) as the file gives them, each of its mode: phi defaults
    to the identity, and iota is None when the file omits it."""
    phi, iota = cx.identity(), None
    if "phi" in doc:
        phi = action_from_dict(cx, doc["phi"], "phi")
        if phi.mode != STRAIGHT:
            raise ValidationError("phi must be straight")
    if "iota" in doc:
        iota = action_from_dict(cx, doc["iota"], "iota")
        if iota.mode != SKEW:
            raise ValidationError("iota must be skew")
    return phi, iota


def _with_relations(cx: KnotComplex, phi: Endomorphism, iota: Endomorphism,
                    iota_given: bool) -> PhiIotaComplex:
    """The complex with these actions once phi has a homotopy inverse,
    both are chain maps, iota o iota ~ s when the file gives iota, and
    phi o iota ~ iota o phi."""
    phi_is_id = phi == cx.identity()
    if phi_is_id:
        phi_inv = phi
    else:
        phi_inv = homotopy_inverse(cx, phi)
        if phi_inv is None:
            raise ValidationError(f"{cx.name}: phi has no homotopy inverse")
    x = PhiIotaComplex(cx, phi, iota, phi_inv)
    # a solved iota is certified by solve_involution, and phi = id
    # commutes with any iota
    if iota_given:
        _require_homotopic(iota.compose(iota), sarkar_map(cx),
                           f"{cx.name}: iota o iota is not homotopic to the "
                           f"basepoint twist")
    if not phi_is_id:
        _require_homotopic(phi.compose(iota), iota.compose(phi),
                           f"{cx.name}: phi o iota is not homotopic to "
                           f"iota o phi")
    return x


def _require_homotopic(f: Endomorphism, g: Endomorphism, failure: str):
    """f ~ g, by equal bits or a homotopy found; else a ValidationError
    with the message ``failure``."""
    if f != g and homotopic(f, g) is None:
        raise ValidationError(failure)


# -- bundled registry ----------------------------------------------------------------

def _tensor_tau_tau() -> PhiIotaComplex:
    m = figure_eight_with_actions()
    return tensor(m, m, name="4_1#4_1[tau|tau]")


def _tensor_id_id() -> PhiIotaComplex:
    m = figure_eight_iota_only()
    return tensor(m, m, name="4_1#4_1[id]")


def _twisted_figure_eight() -> PhiIotaComplex:
    """The figure-eight shape carrying the basepoint twist as its action
    (the swallow-follow factor)."""
    m = figure_eight_iota_only()
    s = sarkar_map(m.complex)
    return PhiIotaComplex(m.complex, s, m.iota, s)  # s is its own inverse


def _gompf_pair_tensor() -> PhiIotaComplex:
    """Underlying complex of the swallow-follow package on the double:
    the twist acting on the first factor only."""
    return tensor(_twisted_figure_eight(), figure_eight_iota_only(),
                  name="4_1#4_1[s|id]")


BUNDLED = {
    "unknot": unknot,
    "trivial": trivial,
    "4_1": figure_eight_with_actions,
    "4_1_iota": figure_eight_iota_only,
    "4_1_s": _twisted_figure_eight,
    "T2_3": lambda: torus_model(3),
    "T2_5": lambda: torus_model(5),
    "T2_7": lambda: torus_model(7),
    "mirror_T2_3": lambda: torus_model(-3),
    "T2_3#T2_3": lambda: tensor(torus_model(3), torus_model(3)),
    "4_1x4_1_tau": _tensor_tau_tau,
    "4_1x4_1_id": _tensor_id_id,
    "4_1x4_1_s": _gompf_pair_tensor,
    "stair_box_3": lambda: staircase_with_box(0, 3),
    "stair_box_5": lambda: staircase_with_box(0, 5),
}


def bundled(name: str) -> PhiIotaComplex:
    if name not in BUNDLED:
        raise KeyError(
            f"no bundled complex {name!r}; available: "
            f"{', '.join(sorted(BUNDLED))}")
    return BUNDLED[name]()
