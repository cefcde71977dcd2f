"""Rules mapping computed invariants plus surgery and twist parameters to
strong-cork conclusions.

Every positive conclusion carries a machine-verified certificate and a
rule identifier; the negative direction is never asserted, only
"inconclusive".  Rule identifiers name the obstruction:

* ``twist-nontrivial-swallow-follow``: an odd power of the longitudinal
  torus twist on the double of a twist-nontrivial knot (the meridional
  power is irrelevant), for odd surgery parameter.
* ``delta-positive``: the numerical obstruction of the cylinder complex,
  for positive odd surgery parameter; negative odd parameters dualise.
* ``split-no-local-map``: no local map from the dual of the second factor
  to the first, for positive odd parameter.
* ``periodic-square-root``: a chain symmetry squaring to the basepoint
  twist, powers not divisible by four, odd parameter.
* ``thin-arithmetic``: the classical-invariant shortcut for Floer-thin
  knots, equivalent to the homological route on the thin model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .complexes import (
    PhiIotaComplex,
    dual,
    sarkar_map,
    tensor,
    to_dict,
    validate,
)
from .connected import s_nontrivial
from .errors import ConsistencyError, ParseError, ValidationError
from .homotopy import homotopic, local_map_exists
from .invariants import DeltaResult, delta
from .models import phi_iota_from_dict, thin_model

STRONG_CORK = "StrongCork"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class KnotDescriptor:
    """Classical data of a knot as the census consumes it."""

    name: str
    tau_invariant: int
    arf: int
    determinant: int
    thin: bool

    def __post_init__(self):
        if self.arf not in (0, 1):
            raise ValidationError(f"{self.name}: Arf must be 0 or 1")
        if self.determinant <= 0 or self.determinant % 2 == 0:
            raise ValidationError(
                f"{self.name}: determinant must be odd and positive")
        if self.thin:
            q = self.determinant - 2 * abs(self.tau_invariant) - 1
            if q < 0 or q % 4:
                raise ValidationError(
                    f"{self.name}: (D - 2|tau| - 1)/4 is not a non-negative "
                    f"integer; not a thin knot's data")

    def box_parity_odd(self) -> bool:
        """Parity of the box count in the thin connected model."""
        if not self.thin:
            raise ValidationError(f"{self.name} is not thin")
        return ((self.determinant - 2 * abs(self.tau_invariant) - 1) // 4) % 2 == 1

    def model(self) -> PhiIotaComplex:
        if not self.thin:
            raise ValidationError(
                f"{self.name}: non-thin knots need an explicit complex file")
        return thin_model(self.tau_invariant, self.box_parity_odd(),
                          name=self.name)


@dataclass
class Verdict:
    conclusion: str
    rule: str
    knot: Optional[str] = None
    diffeo: Optional[str] = None
    m: Optional[int] = None
    reason: str = ""
    certificate: Optional[dict] = None

    def to_json_dict(self) -> dict:
        return {
            "knot": self.knot,
            "diffeo": self.diffeo,
            "m": self.m,
            "conclusion": self.conclusion,
            "rule": self.rule,
            "certificate_ref": (self.certificate or {}).get("ref"),
        }


# -- arithmetic rules -----------------------------------------------------------

def cor13_arithmetic(arf: int, tau_invariant: int) -> bool:
    """Thin-knot criterion: twice the Arf invariant plus |tau| is 1 or 2
    mod 4 exactly when the thin model keeps one box."""
    return (2 * arf + abs(tau_invariant)) % 4 in (1, 2)


def cor51_rule(s: int, n: int) -> bool:
    """Connected sums of s copies of the (2, 2n+1) torus knot qualify for
    n odd and s = 2 or 3 mod 4."""
    return n % 2 == 1 and s % 4 in (2, 3)


def torus_2_arf(n: int) -> int:
    """Arf((2, 2n+1) torus knot) = 1 for n = 1, 2 mod 4, else 0."""
    return 1 if n % 4 in (1, 2) else 0


# -- homological verdicts ---------------------------------------------------------

def _inconclusive(rule, reason, knot=None, diffeo=None, m=None) -> Verdict:
    return Verdict(conclusion=INCONCLUSIVE, rule=rule, reason=reason,
                   knot=knot, diffeo=diffeo, m=m)


def _twist_verdict(x, rule, name, diffeo, m, ref, trivial,
                   reason) -> Verdict:
    """The twist-nontriviality gate shared by the Gompf and periodic
    rules: inconclusive while the connected model is unverified or the
    basepoint twist is trivial on it (``trivial`` says so), else a strong
    cork certified by the connected model under ``ref``."""
    tw = s_nontrivial(x)
    if tw.caveat is not None:
        return _inconclusive(rule, f"connected model unverified "
                             f"({tw.caveat})", name, diffeo, m)
    if not tw.nontrivial:
        return _inconclusive(rule, trivial, name, diffeo, m)
    cert = {
        "ref": ref,
        "kind": "twist-nontrivial",
        "conn": to_dict(tw.conn.conn),
        "conn_shape": tw.conn.form.describe() if tw.conn.form else None,
    }
    return Verdict(conclusion=STRONG_CORK, rule=rule, knot=name,
                   diffeo=diffeo, m=m, certificate=cert, reason=reason)


def verdict_gompf(knot, m: int, i: int, j: int) -> Verdict:
    """Longitudinal-twist powers on the double of the knot.

    The meridional power j never affects the conclusion.  Requires m and i
    odd plus twist-nontriviality of the knot's complex; the certificate is
    the infeasibility of a homotopy from the twist to the identity on the
    connected model.
    """
    rule = "twist-nontrivial-swallow-follow"
    if isinstance(knot, KnotDescriptor):
        name = knot.name
        x = knot.model()
    else:
        x = knot
        name = x.complex.name
    diffeo = f"torus_twist(i={i}, j={j})"
    if m % 2 == 0:
        return _inconclusive(rule, "m is even", name, diffeo, m)
    if i % 2 == 0:
        return _inconclusive(rule, "longitudinal power is even", name,
                             diffeo, m)
    return _twist_verdict(
        x, rule, name, diffeo, m, f"gompf:{name}",
        "basepoint twist is homotopic to the identity on the connected "
        "model", "twist-nontrivial factor, m and i odd")


def verdict_delta(x: PhiIotaComplex, m: int,
                  known: Optional[DeltaResult] = None) -> Verdict:
    """Positive odd m: strong cork iff the numerical obstruction is
    positive.  Negative odd m: the same test on the dual.  Even m is
    always inconclusive.  ``known``, when given, is ``delta(x)``, and
    positive m reads it instead of computing it again."""
    rule = "delta-positive"
    name = x.complex.name
    if m % 2 == 0:
        return _inconclusive(rule, "m is even", name, "given action", m)
    y = x if m > 0 else dual(x)
    res = known if m > 0 and known is not None else delta(y)
    if res.delta > 0:
        cert = {
            "ref": f"delta:{name}:m={m}",
            "kind": "delta-positive",
            "complex": to_dict(y),
            "delta": res.delta,
            "witness_grading": res.max_grading,
        }
        return Verdict(conclusion=STRONG_CORK, rule=rule, knot=name,
                       diffeo="given action", m=m, certificate=cert,
                       reason=f"delta = {res.delta} > 0")
    return _inconclusive(rule, f"delta = {res.delta}", name,
                         "given action", m)


def verdict_split(x1: PhiIotaComplex, x2: PhiIotaComplex, m: int,
                  cross_check: bool = True) -> Verdict:
    """No local map from the dual of the second factor to the first, for
    positive odd m.

    The equivalent route through the numerical obstruction of the tensor
    product of the two factors is computed as a consistency gate when
    ``cross_check`` is set; disagreement is a bug, never a verdict.  When
    both factors are of S^3 type, so is their tensor product (Kuenneth
    over F2[U] and F2[V]: the free tower counts multiply to 1 and the
    tower tops add to 0), and ``delta`` skips re-checking it; otherwise
    ``delta`` checks the tensor in full.
    """
    rule = "split-no-local-map"
    name = f"{x1.complex.name} # {x2.complex.name}"
    if m % 2 == 0 or m < 0:
        return _inconclusive(rule, "m is not positive odd", name, "split", m)
    source = dual(x2)
    cert_map = local_map_exists(source, x1)
    if cross_check:
        res = delta(tensor(x1, x2),
                    validated=_s3_type(x1) and _s3_type(x2))
        if (res.delta == 0) != cert_map.exists:
            raise ConsistencyError(
                f"{name}: split-map route ({cert_map.exists}) disagrees "
                f"with the tensor delta route (delta={res.delta})")
    if cert_map.exists:
        return _inconclusive(rule, "a local map from the dual of the "
                             "second factor exists", name, "split", m)
    cert = {
        "ref": f"split:{name}:m={m}",
        "kind": "no-local-map",
        "source": to_dict(source),
        "target": to_dict(x1),
        "obstruction": cert_map.obstruction and
        {"shift": cert_map.obstruction.get("shift")},
    }
    return Verdict(conclusion=STRONG_CORK, rule=rule, knot=name,
                   diffeo="split", m=m, certificate=cert,
                   reason="no local map from the dual of the second factor")


def _s3_type(x: PhiIotaComplex) -> bool:
    report = validate(x.complex, require_s3_type=True)
    return report.ok and report.s3_type


def verdict_periodic(x: PhiIotaComplex, m: int, i: int) -> Verdict:
    """Powers of a chain symmetry whose square is the basepoint twist.

    The hypothesis tau^2 ~ s is machine-verified before the gates: odd m,
    power not divisible by 4, and twist-nontriviality."""
    rule = "periodic-square-root"
    name = x.complex.name
    diffeo = f"periodic_tau(i={i})"
    s = sarkar_map(x.complex)
    if homotopic(x.phi.compose(x.phi), s) is None:
        raise ValidationError(
            f"{name}: the supplied action does not square to the "
            f"basepoint twist")
    if m % 2 == 0:
        return _inconclusive(rule, "m is even", name, diffeo, m)
    if i % 4 == 0:
        return _inconclusive(rule, "power is divisible by 4", name,
                             diffeo, m)
    return _twist_verdict(
        x, rule, name, diffeo, m, f"periodic:{name}:i={i}",
        "basepoint twist is trivial on the connected model",
        "square root of a nontrivial twist")


# -- certificate replay ------------------------------------------------------------

# the fields each certificate kind is replayed from
_CERTIFICATE_FIELDS = {
    "twist-nontrivial": ("conn",),
    "delta-positive": ("complex", "delta", "witness_grading"),
    "no-local-map": ("source", "target"),
}


def replay_certificate(cert: dict) -> bool:
    """Re-run the decision recorded in a certificate and confirm it.  A
    certificate that is not an object, or lacks a field its kind is
    replayed from, is a ParseError saying so."""
    if not isinstance(cert, dict):
        raise ParseError("certificate must be an object")
    kind = cert.get("kind")
    for key in _CERTIFICATE_FIELDS.get(kind, ()):
        if key not in cert:
            raise ParseError(f"{kind} certificate has no {key!r} field")
    if kind == "twist-nontrivial":
        conn = phi_iota_from_dict(cert["conn"])
        model = conn.complex
        return homotopic(sarkar_map(model), model.identity()) is None
    if kind == "delta-positive":
        x = phi_iota_from_dict(cert["complex"])
        res = delta(x)
        return (res.delta == cert["delta"] and res.delta > 0
                and res.max_grading == cert["witness_grading"])
    if kind == "no-local-map":
        src = phi_iota_from_dict(cert["source"])
        tgt = phi_iota_from_dict(cert["target"])
        return not local_map_exists(src, tgt).exists
    raise ValidationError(f"unknown certificate kind {kind!r}")
