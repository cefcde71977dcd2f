"""Shared helpers: randomized-but-seeded model scrambling and chain-map
sampling used by the property and consistency suites."""

from __future__ import annotations

import random

import pytest

from corkscrew.algebra import ones, slice_monomial
from corkscrew.complexes import (
    Endomorphism,
    KnotComplex,
    PhiIotaComplex,
    SKEW,
    STRAIGHT,
)
from corkscrew.homotopy import Left, MapShape, MapSystem, Right
from corkscrew.models import (
    figure_eight_iota_only,
    figure_eight_with_actions,
    staircase_model,
    staircase_with_box,
    thin_model,
    torus_model,
    unknot,
)


def transvect(cols, i, j):
    """Conjugate a map's bit columns, in place, by the basis change
    new_i = e_i + m e_j: column j is added to column i, then every
    column's coefficient on e_i is added to its coefficient on e_j.  The
    map stays homogeneous, so its monomials stay forced and the bits
    carry it exactly."""
    cols[i] ^= cols[j]
    for s, col in enumerate(cols):
        if (col >> i) & 1:
            cols[s] = col ^ (1 << j)


def scramble(x: PhiIotaComplex, rng: random.Random,
             moves: int = 10) -> PhiIotaComplex:
    """Conjugate everything by random admissible transvections and a
    random relabelling; the result is chain isomorphic to the input."""
    cx = x.complex
    diff, phi, iota = (list(cols)
                       for cols in (cx.diff, x.phi.cols, x.iota.cols))
    phi_inv = list(x.phi_inverse.cols) if x.phi_inverse else None
    maps = [diff, phi, iota] + ([phi_inv] if phi_inv is not None else [])
    n = cx.n
    done = 0
    attempts = 0
    while done < moves and attempts < 40 * moves:
        attempts += 1
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        # new_i = e_i + m e_j is homogeneous iff gr(e_j) + deg(m) = gr(e_i)
        if slice_monomial(cx.gradings[j], cx.gradings[i]) is None:
            continue
        for cols in maps:
            transvect(cols, i, j)
        done += 1
    perm = list(range(n))
    rng.shuffle(perm)

    def permute(cols):
        out = [0] * n
        for s in range(n):
            out[perm[s]] = sum(1 << perm[t] for t in ones(cols[s]))
        return tuple(out)

    gens = [None] * n
    grads = [None] * n
    for s in range(n):
        gens[perm[s]] = f"g{perm[s]}"
        grads[perm[s]] = cx.gradings[s]
    cx2 = KnotComplex(f"scrambled({cx.name})", tuple(gens), tuple(grads),
                      permute(diff))
    phi2 = Endomorphism(cx2, cx2, permute(phi), STRAIGHT, (0, 0))
    iota2 = Endomorphism(cx2, cx2, permute(iota), SKEW, (0, 0))
    inv2 = None
    if phi_inv is not None:
        inv2 = Endomorphism(cx2, cx2, permute(phi_inv), STRAIGHT, (0, 0))
    return PhiIotaComplex(cx2, phi2, iota2, inv2)


def base_models():
    return [
        unknot(),
        torus_model(3),
        torus_model(-3),
        torus_model(5),
        staircase_model(2),
        figure_eight_with_actions(),
        figure_eight_iota_only(),
        thin_model(1, True),
        thin_model(-1, True),
        thin_model(2, False),
        thin_model(0, True),
        staircase_with_box(2, 3),
        staircase_with_box(0, 2),
    ]


def random_s3_models(seed: int, count: int):
    """Seeded stream of scrambled S^3-type models with valid actions."""
    rng = random.Random(seed)
    bases = base_models()
    out = []
    while len(out) < count:
        x = scramble(bases[rng.randrange(len(bases))], rng,
                     moves=rng.randrange(0, 12))
        out.append(x)
    return out


def random_chain_maps(cx: KnotComplex, seed: int, count: int,
                      bidegree=(0, 0)):
    """Seeded sample of straight chain self-maps of the complex."""
    d = cx.boundary()
    sys = MapSystem()
    shape = MapShape(cx, cx, STRAIGHT, bidegree)
    sys.add_unknown("f", shape)
    sys.add_equation([("f", [Right(d), Left(d)])])
    sol = sys.solutions_bits()
    rng = random.Random(seed)
    out = []
    k = len(sol.kernel)
    for _ in range(count):
        bits = sol.particular
        for i in range(k):
            if rng.getrandbits(1):
                bits ^= sol.kernel[i]
        out.append(shape.assemble(bits))
    return out


@pytest.fixture
def fig8():
    return figure_eight_with_actions()


@pytest.fixture
def fig8_iota():
    return figure_eight_iota_only()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, status, dt, desc in sorted(RESULTS):
        terminalreporter.write_line(
            f"criterion {num:2d}: {status}  ({dt:6.2f}s)  {desc}")
