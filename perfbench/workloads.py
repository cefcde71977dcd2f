"""The three workloads: seeded inputs, query batches and expected answers.

Every input is a seed-scrambled copy of a base complex (a chain-isomorphic
basis change plus a relabelling, by ``scramble`` from ``tests/conftest.py``)
serialized to canonical text during set-up.  Each timed query parses its
text itself, as a user feeding files to the library or the CLI would.

Expected answers are values no scramble can change: conclusion, rule,
reason, delta value, connected-model shape, method and caveat, homology
tower and torsion.  For thin knots they follow from the classical
invariants alone; everything else is pinned in the tables below.
A replay query (``replay_certificate(...) is True``) follows every
positive verdict.  Two answer fields that a basis change does move at
this commit, through library defects, are reported but not counted
(:func:`advisory_keys`).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import corkscrew as ck
import corkscrew.cli  # noqa: F401  (binds ck.cli)
from conftest import scramble

STRONG = "StrongCork"
INCONCLUSIVE = "Inconclusive"
GOMPF_RULE = "twist-nontrivial-swallow-follow"
TWIST_TRIVIAL = ("basepoint twist is homotopic to the identity on the "
                 "connected model")
GREEDY = "connected model unverified (greedy nonmaximal: unverified)"


@dataclass
class Query:
    qid: str
    call: Callable[[], dict]  # the timed work; returns the answer signature
    expect: dict
    replay: bool = True  # replay the certificate of a positive verdict


# -- answer signatures --------------------------------------------------------

def verdict_sig(v) -> dict:
    cert = v.certificate or {}
    return {"conclusion": v.conclusion, "rule": v.rule, "reason": v.reason,
            "delta": cert.get("delta"), "conn_shape": cert.get("conn_shape"),
            "certificate": v.certificate}


def cli_json(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ck.cli.main(["--format", "json", *argv])
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def cli_verdict_sig(doc: dict) -> dict:
    v = doc["verdicts"][0]
    cert = doc["certificates"].get(v["certificate_ref"]) \
        if v["certificate_ref"] else None
    return {"conclusion": v["conclusion"], "rule": v["rule"],
            "delta": (cert or {}).get("delta"),
            "conn_shape": (cert or {}).get("conn_shape"),
            "certificate": cert}


def conn_sig(method, shape, caveat) -> dict:
    return {"method": method, "conn_shape": shape, "caveat": caveat}


def expect_verdict(conclusion, rule, reason=None, delta=None,
                   conn_shape=None) -> dict:
    """Expected signature; ``reason`` None means the CLI form (no reason)."""
    out = {"conclusion": conclusion, "rule": rule, "delta": delta,
           "conn_shape": conn_shape}
    if reason is not None:
        out["reason"] = reason
    return out


def expect_delta(d: int, cli: bool = False) -> dict:
    return expect_verdict(STRONG if d > 0 else INCONCLUSIVE, "delta-positive",
                          None if cli else
                          (f"delta = {d} > 0" if d > 0 else f"delta = {d}"),
                          d if d > 0 else None)


# -- query builders -----------------------------------------------------------

def parse(text):
    return ck.models.parse_complex_text(text)


def gompf_q(qid, text, m, i, j, expect):
    return Query(qid, lambda: verdict_sig(ck.verdict_gompf(parse(text), m, i,
                                                           j)), expect)


def cli_q(qid, argv, expect, sig=cli_verdict_sig):
    return Query(qid, lambda: sig(cli_json(argv)), expect)


def conn_doc_sig(doc):
    inv = doc["invariants"]
    return conn_sig(inv["method"], inv.get("conn_shape"), inv.get("caveat"))


def s_doc_sig(doc):
    inv = doc["invariants"]
    return {"s_nontrivial": inv["s_nontrivial"],
            **conn_sig(inv["conn_method"], inv.get("conn_shape"),
                       inv.get("caveat"))}


def s_api_sig(tw):
    c = tw.conn
    return {"s_nontrivial": tw.nontrivial,
            **conn_sig(c.method, c.form.describe() if c.form else None,
                       tw.caveat)}


def homology_q(qid, texts, expect):
    def call():
        xs = [parse(t) for t in texts]
        x = xs[0] if len(xs) == 1 else ck.tensor(*xs)
        h = ck.homology_u(ck.a0(x))
        return {"tower_top": h.tower_top, "torsion": list(h.torsion)}
    return Query(qid, call, {"tower_top": expect[0],
                             "torsion": list(expect[1])})


FALLBACK_FIELDS = ("reason", "method", "conn_shape", "caveat")


def advisory_keys(got: dict) -> tuple:
    """Answer fields that a basis change can move at this commit; they are
    compared and reported as known defects but not counted as failures.

    * ``torsion``: ``homology_u`` classifies each slice basis
      representative as torsion or not, so its torsion summary depends on
      the basis (the tower top does not).
    * When connected-model recognition misses a standard form in the
      scrambled basis, the library answers through its greedy fallback,
      labelled ``greedy nonmaximal: unverified``; the method, shape,
      caveat and reason then describe the fallback.  Conclusion, rule,
      delta, twist-nontriviality and certificate replay stay checked.
    """
    keys = ("torsion",)
    if got.get("method") == "greedy" or got.get("reason") == GREEDY:
        keys += FALLBACK_FIELDS
    return keys


class Inputs:
    """Scrambled copies, serialized; optionally written to files for the
    CLI.  All randomness comes from one seeded generator."""

    def __init__(self, rng: random.Random, workdir: str, tag: str):
        self.rng = rng
        self.workdir = workdir
        self.tag = tag
        self.count = 0

    def text(self, x, actions: bool = True) -> str:
        return ck.serialize(scramble(x, self.rng), include_actions=actions)

    def file(self, x, actions: bool = True) -> str:
        path = os.path.join(self.workdir, f"{self.tag}-{self.count}.json")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.text(x, actions))
        return path


def bare(cx):
    """A complex with a placeholder (zero) involution, for scrambling
    inputs that are serialized without actions."""
    from corkscrew.complexes import SKEW
    return ck.PhiIotaComplex(cx, cx.identity(), cx.zero_map(SKEW),
                             cx.identity())


# -- rulebook -----------------------------------------------------------------

# delta at m = +1 and m = -1 on every bundled model
BUNDLED_DELTA = {
    "unknot": (0, 0), "trivial": (0, 0), "4_1": (1, 1), "4_1_iota": (1, 1),
    "4_1_s": (1, 1), "T2_3": (1, 0), "T2_5": (1, 0), "T2_7": (2, 0),
    "mirror_T2_3": (0, 1), "T2_3#T2_3": (2, 0), "4_1x4_1_tau": (1, 1),
    "4_1x4_1_id": (0, 0), "4_1x4_1_s": (1, 1), "stair_box_3": (1, 3),
    "stair_box_5": (1, 5),
}
# homology of the diagonal subcomplex: (tower top, torsion)
BUNDLED_HOMOLOGY = {
    "unknot": (0, ()), "trivial": (0, ()), "4_1": (0, ((0, 1),)),
    "4_1_iota": (0, ((0, 1),)), "4_1_s": (0, ((0, 1),)), "T2_3": (-2, ()),
    "T2_5": (-2, ()), "T2_7": (-4, ()), "mirror_T2_3": (0, ((1, 1),)),
    "T2_3#T2_3": (-2, ()), "4_1x4_1_tau": (0, ((0, 1),) * 4),
    "4_1x4_1_id": (0, ((0, 1),) * 4), "4_1x4_1_s": (0, ((0, 1),) * 4),
    "stair_box_3": (0, ((0, 1), (2, 2), (4, 3))),
    "stair_box_5": (0, ((0, 1), (2, 2), (4, 3), (6, 4), (8, 5))),
}
# split pairs (first, second): does the split rule find a strong cork?
SPLIT_PAIRS = [
    ("4_1_s", "4_1_iota", True), ("4_1_iota", "4_1_iota", False),
    ("4_1_iota", "4_1_s", True), ("trivial", "trivial", False),
    ("T2_3", "mirror_T2_3", False), ("mirror_T2_3", "T2_3", False),
    ("4_1_s", "trivial", True), ("trivial", "4_1_iota", True),
    ("T2_3", "trivial", True), ("thin(1,odd)", "4_1_iota", True),
]
# bundled models whose action squares to the twist; True when the twist is
# nontrivial on the connected model
PERIODIC = {"4_1": True, "unknot": False, "trivial": False, "T2_3": False,
            "T2_5": False, "T2_7": False, "mirror_T2_3": False}
GOMPF_PER_KNOT = 30  # API verdict_gompf queries per thin knot and batch


def thin_shape(tau: int) -> str:
    return ("dot" if tau == 0 else f"staircase({tau})") + " + box(1)"


def gompf_expect(m, i, shape, cli=False):
    if m % 2 == 0:
        reason = "m is even"
    elif i % 2 == 0:
        reason = "longitudinal power is even"
    else:
        return expect_verdict(STRONG, GOMPF_RULE, None if cli else
                              "twist-nontrivial factor, m and i odd",
                              conn_shape=shape)
    return expect_verdict(INCONCLUSIVE, GOMPF_RULE, None if cli else reason)


def periodic_expect(m, i, nontrivial, cli=False):
    rule = "periodic-square-root"
    if m % 2 == 0:
        reason = "m is even"
    elif i % 4 == 0:
        reason = "power is divisible by 4"
    elif not nontrivial:
        reason = "basepoint twist is trivial on the connected model"
    else:
        return expect_verdict(STRONG, rule, None if cli else
                              "square root of a nontrivial twist",
                              conn_shape="dot + box(1)")
    return expect_verdict(INCONCLUSIVE, rule, None if cli else reason)


def split_expect(strong, cli=False):
    if strong:
        return expect_verdict(STRONG, "split-no-local-map", None if cli else
                              "no local map from the dual of the second "
                              "factor")
    return expect_verdict(INCONCLUSIVE, "split-no-local-map", None if cli
                          else "a local map from the dual of the second "
                          "factor exists")


class Rulebook:
    """About a thousand small questions: the interactive or batch user."""

    def __init__(self, seed, workdir, tiny=False):
        self.seed, self.workdir, self.tiny = seed, workdir, tiny
        table = ck.knot_table.bundled_table()
        self.knots = []  # (name, model, tau)
        for row in table.rows:
            if not row.census_eligible:
                continue
            d = row.descriptor()
            if (2 * d.arf + abs(d.tau_invariant)) % 4 in (1, 2):
                self.knots.append((row.name, d.model(), d.tau_invariant))
        self.models = {name: ck.bundled(name) for name in BUNDLED_DELTA}
        self.models["thin(1,odd)"] = ck.thin_model(1, True)

    def batch(self, k: int) -> list:
        rng = random.Random(f"rulebook:{self.seed}:{k}")
        src = Inputs(rng, self.workdir, f"rb{k}")
        qs = []
        per_knot = 2 if self.tiny else GOMPF_PER_KNOT
        for name, x, tau in self.knots:
            shape = thin_shape(tau)
            for n in range(per_knot):
                # mostly odd m and i, so most queries reach the model
                m = rng.choice((-3, -1, 1, 2, 3))
                i, j = rng.choice((1, 2, 3, 5)), rng.randint(0, 3)
                qs.append(gompf_q(f"gompf:{name}:{m},{i},{j}", src.text(x),
                                  m, i, j, gompf_expect(m, i, shape)))
            m, i = rng.choice((-1, 1, 2)), rng.randint(1, 4)
            qs.append(cli_q(f"cli-gompf-file:{name}:{m},{i}",
                            ["verdict", "gompf", "--file", src.file(x),
                             "-m", str(m), "-i", str(i), "-j", "1"],
                            gompf_expect(m, i, shape, cli=True)))
            qs.append(cli_q(f"cli-gompf-knot:{name}",
                            ["verdict", "gompf", "--knot", name, "-m", "1",
                             "-i", "1", "-j", "0"],
                            gompf_expect(1, 1, shape, cli=True)))
        for name, (dp, dm) in BUNDLED_DELTA.items():
            x = self.models[name]
            for m, d in ((1, dp), (-1, dm)):
                text = src.text(x)
                qs.append(Query(f"delta:{name}:{m}",
                                lambda t=text, m=m: verdict_sig(
                                    ck.verdict_delta(parse(t), m)),
                                expect_delta(d)))
            qs.append(cli_q(f"cli-delta:{name}",
                            ["delta", src.file(x), "--m", "1"],
                            expect_delta(dp, cli=True)))
            qs.append(homology_q(f"homology:{name}", [src.text(x)],
                                 BUNDLED_HOMOLOGY[name]))
        for a, b, strong in SPLIT_PAIRS:
            ta, tb = src.text(self.models[a]), src.text(self.models[b])
            qs.append(Query(f"split:{a}|{b}",
                            lambda ta=ta, tb=tb: verdict_sig(ck.verdict_split(
                                parse(ta), parse(tb), 1, cross_check=True)),
                            split_expect(strong)))
            qs.append(cli_q(f"cli-split:{a}|{b}",
                            ["verdict", "split", "--k1",
                             src.file(self.models[a]), "--k2",
                             src.file(self.models[b]), "-m", "1"],
                            split_expect(strong, cli=True)))
        for name, nontrivial in PERIODIC.items():
            x = self.models[name]
            for n in range(6):
                m, i = rng.choice((-1, 1, 2, 3)), rng.randint(1, 8)
                text = src.text(x)
                qs.append(Query(f"periodic:{name}:{m},{i}",
                                lambda t=text, m=m, i=i: verdict_sig(
                                    ck.verdict_periodic(parse(t), m, i)),
                                periodic_expect(m, i, nontrivial)))
            qs.append(cli_q(f"cli-periodic:{name}",
                            ["verdict", "periodic", "--file", src.file(x),
                             "-m", "1", "-i", "1"],
                            periodic_expect(1, 1, nontrivial, cli=True)))
        rng.shuffle(qs)
        return qs


# -- tensor ladder ------------------------------------------------------------

# factors (negative q: the mirror), connected-model shape, delta at m = 1
TORUS_SUMS = {
    "T2_3xT2_-3": ((3, -3), "dot", 0),
    "T2_3xT2_5": ((3, 5), "staircase(3)", 2),
    "T2_5xT2_-5": ((5, -5), "dot", 0),
    "T2_3xT2_3xT2_-3": ((3, 3, -3), "staircase(1)", 1),
}


def tensor_all(xs):
    out = xs[0]
    for x in xs[1:]:
        out = ck.tensor(out, x)
    return out


def sum_of(factors):
    """Parse (text, mirrored) factors and tensor them, inside the query."""
    return tensor_all([ck.dual(parse(t)) if mirrored else parse(t)
                       for t, mirrored in factors])


class TensorLadder:
    """A few large questions: tensor powers, torus sums, greedy inputs."""

    def __init__(self, seed, workdir, tiny=False):
        self.seed, self.workdir, self.tiny = seed, workdir, tiny
        f = ck.models.figure_eight_iota_only()
        self.double = ck.tensor(f, f)
        self.triple = ck.tensor(self.double, f)
        self.torus = {q: ck.torus_model(q) for q in (3, 5)}
        self.sums = {name: tensor_all([ck.torus_model(q) for q in qs])
                     for name, (qs, _, _) in TORUS_SUMS.items()}
        from corkscrew.models import box_complex, dot_complex
        self.greedy = {
            f"dot+box(1)+box({ell})": bare(ck.complexes.direct_sum(
                dot_complex("x"), box_complex(1, at=(0, 0), suffix="0"),
                box_complex(ell, at=(0, 0), suffix="1"),
                name=f"dot+box(1)+box({ell})"))
            for ell in (2, 3)}

    def _conn_queries(self, name, src, x, shape, nontrivial, kinds):
        m, i = self._odd_gates()
        exp_conn = conn_sig("exact-standard", shape, None)
        out = []
        if "gompf" in kinds:
            exp = (expect_verdict(STRONG, GOMPF_RULE,
                                  "twist-nontrivial factor, m and i odd",
                                  conn_shape=shape) if nontrivial else
                   expect_verdict(INCONCLUSIVE, GOMPF_RULE, TWIST_TRIVIAL))
            out.append(gompf_q(f"gompf:{name}", src.text(x), m, i,
                               self.rng.randint(0, 3), exp))
        if "conn" in kinds:
            out.append(cli_q(f"cli-conn:{name}", ["conn", src.file(x)],
                             exp_conn, conn_doc_sig))
        if "s-nontrivial" in kinds:
            out.append(cli_q(f"cli-s-nontrivial:{name}",
                             ["s-nontrivial", src.file(x)],
                             {"s_nontrivial": nontrivial, **exp_conn},
                             s_doc_sig))
        if "s-api" in kinds:
            text = src.text(x)
            out.append(Query(f"s-nontrivial:{name}",
                             lambda: s_api_sig(ck.s_nontrivial(parse(text))),
                             {"s_nontrivial": nontrivial, **exp_conn}))
        return out

    def _odd_gates(self):
        # odd m and i, so that every gompf query reaches the connected model
        return self.rng.choice((-3, -1, 1, 3)), self.rng.choice((1, 3, 5))

    def batch(self, k: int) -> list:
        self.rng = rng = random.Random(f"tensor-ladder:{self.seed}:{k}")
        src = Inputs(rng, self.workdir, f"tl{k}")
        qs = self._conn_queries("(4_1)^2", src, self.double, "dot", False,
                                ("gompf", "conn", "s-nontrivial"))
        qs.append(homology_q("homology:(4_1)^2", [src.text(self.double)],
                             (0, ((0, 1),) * 4)))
        if not self.tiny:
            # one question on the 125-generator triple per batch, rotating
            kind = ("gompf", "conn", "s-nontrivial")[(self.seed + k) % 3]
            qs += self._conn_queries("(4_1)^3", src, self.triple,
                                     "dot + box(1)", True, (kind,))
        for name, (qs_, shape, d) in TORUS_SUMS.items():
            qs += self._conn_queries(name, src, self.sums[name], shape,
                                     False, ("conn", "s-api"))
            # the API questions start from the factors; a mirror is a dual
            factors = [(src.text(self.torus[abs(q)]), q < 0) for q in qs_]
            m, i = self._odd_gates()
            qs.append(Query(f"gompf:{name}", lambda f=factors, m=m, i=i:
                            verdict_sig(ck.verdict_gompf(sum_of(f), m, i, 0)),
                            expect_verdict(INCONCLUSIVE, GOMPF_RULE,
                                           TWIST_TRIVIAL)))
            qs.append(Query(f"delta:{name}", lambda f=factors: verdict_sig(
                ck.verdict_delta(sum_of(f), 1)), expect_delta(d)))
        if not self.tiny:
            # no iota in the file: parsing runs the involution search
            for name, x in self.greedy.items():
                m, i = self._odd_gates()
                qs.append(gompf_q(f"gompf-greedy:{name}",
                                  src.text(x, actions=False), m, i, 0,
                                  expect_verdict(INCONCLUSIVE, GOMPF_RULE,
                                                 GREEDY)))
        rng.shuffle(qs)
        return qs


# -- split cross-check --------------------------------------------------------

SPLIT_HOMOLOGY = (0, ((0, 1),) * 60)  # diagonal homology of the 625 tensor


class SplitCrossCheck:
    """The split rule with its tensor-delta consistency gate on
    (4_1, tau)^2 pairs, plus the other large linear systems around it."""

    def __init__(self, seed, workdir, tiny=False):
        self.seed, self.workdir, self.tiny = seed, workdir, tiny
        self.f = ck.figure_eight_with_actions()
        self.x2 = ck.bundled("4_1x4_1_tau")
        self.x2_dual = ck.dual(self.x2)

    def batch(self, k: int) -> list:
        rng = random.Random(f"split-cross-check:{self.seed}:{k}")
        src = Inputs(rng, self.workdir, f"sc{k}")
        # every query gets its own scrambled copies: the cost of a large
        # query moves with its scramble, and independent scrambles average
        # that out over a batch instead of moving the whole batch together
        x2, f = self.x2, self.f
        qs = []
        if not self.tiny:
            a, b = src.text(x2), src.text(x2)
            qs.append(Query("split:x2|x2", lambda: verdict_sig(
                ck.verdict_split(parse(a), parse(b), 1, cross_check=True)),
                split_expect(True)))
            qs.append(cli_q("cli-split:x2|dual(x2)",
                            ["verdict", "split", "--k1", src.file(x2),
                             "--k2", src.file(self.x2_dual), "-m", "1"],
                            split_expect(False, cli=True)))
            dual_text, a_lm, f_lm = (src.text(self.x2_dual), src.text(x2),
                                     src.text(f))
            qs.append(Query(
                "local-map:dual(x2)->x2*4_1",
                lambda: {"exists": ck.local_map_exists(
                    parse(dual_text),
                    ck.tensor(parse(a_lm), parse(f_lm))).exists},
                {"exists": False}))
            qs.append(homology_q("homology:x2*x2",
                                 [src.text(x2), src.text(x2)],
                                 SPLIT_HOMOLOGY))
        for m in (1, -1):
            # the delta certificate of the 125-generator tensor is not
            # replayed: replay re-parses it, and parsing a complex of that
            # size with a nontrivial phi spends tens of seconds in
            # homotopy_inverse
            a_d, f_d = src.text(x2), src.text(f)
            qs.append(Query(f"delta:x2*4_1:{m}",
                            lambda m=m, a=a_d, f=f_d: verdict_sig(
                                ck.verdict_delta(ck.tensor(parse(a),
                                                           parse(f)), m)),
                            expect_delta(1), replay=False))
        m, i = rng.choice((-1, 1, 3)), rng.choice((1, 3))
        qs.append(gompf_q("gompf:x2", src.text(x2), m, i, 0,
                          expect_verdict(INCONCLUSIVE, GOMPF_RULE,
                                         TWIST_TRIVIAL)))
        qs.append(cli_q("cli-gompf-knot:4_1",
                        ["verdict", "gompf", "--knot", "4_1", "-m", str(m),
                         "-i", str(i), "-j", "0"],
                        gompf_expect(m, i, "dot + box(1)", cli=True)))
        rng.shuffle(qs)
        return qs


WORKLOADS = {"rulebook": Rulebook, "tensor-ladder": TensorLadder,
             "split-cross-check": SplitCrossCheck}
