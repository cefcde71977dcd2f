"""The bit-column map algebra of ``complexes`` against the frozenset
arithmetic it replaced, kept in ``tests/oracle.py``: composition,
application, sums, derivative maps, tensor products and duals agree entry
for entry, monomials included, on scrambled bundled models, T(2,q) sums,
duals and the 125-generator (4_1,tau)^2 (x) 4_1.  An element is a bit
vector at a bigrading, and applying a map is ``mat_vec``."""

import random

from hypothesis import example, given, settings, strategies as st

from conftest import scramble
from corkscrew.algebra import gr_add, mat_vec
from corkscrew.complexes import SKEW, dual, phi_psi_maps, sarkar_map, tensor
from corkscrew.models import (
    BUNDLED,
    bundled,
    figure_eight_with_actions,
    staircase_with_box,
    torus_model,
)
from oracle import (
    dict_cols,
    image_grading,
    mono_deg,
    poly_element,
    reference_add,
    reference_apply,
    reference_compose,
    reference_phi_psi_maps,
    reference_tensor_maps,
    reference_transpose,
    slice_pairs,
)


def _torus_sum(*qs):
    x = torus_model(qs[0])
    for q in qs[1:]:
        x = tensor(x, torus_model(q))
    return x


def _models():
    f8 = figure_eight_with_actions()
    out = {name: bundled(name) for name in sorted(BUNDLED)}
    for qs in ((3, -3), (3, 5), (5, -5), (3, 3, -3)):
        out[f"T{qs}"] = _torus_sum(*qs)
    for tau, ell in ((0, 2), (2, 2), (1, 4)):  # even exponents
        out[f"stair({tau})+box({ell})"] = staircase_with_box(tau, ell)
    out["dual(4_1x4_1_tau)"] = dual(out["4_1x4_1_tau"])
    out["dual(T(3, 5))"] = dual(out["T(3, 5)"])
    out["4_1x4_1_tau(x)4_1"] = tensor(out["4_1x4_1_tau"], f8)
    return out


MODELS = _models()
SMALL = sorted(name for name, x in MODELS.items() if x.complex.n <= 9)
MAPS = ("boundary", "phi", "iota", "phi_inverse", "sarkar", "Phi", "Psi")


def _map(x, which):
    cx = x.complex
    if which == "boundary":
        return cx.boundary()
    if which == "sarkar":
        return sarkar_map(cx)
    if which in ("Phi", "Psi"):
        return phi_psi_maps(cx)[which == "Psi"]
    return getattr(x, which)


def _scrambled(name, seed):
    return scramble(MODELS[name], random.Random(seed))


def _element(gradings, rng):
    """A random homogeneous element: (bits, bigrading), the bigrading a
    random monomial below a random generator's."""
    g = gradings[rng.randrange(len(gradings))]
    bigrading = gr_add(g, mono_deg((rng.randrange(3), rng.randrange(3))))
    bits = sum(1 << i for _, i in slice_pairs(gradings, bigrading)
               if rng.getrandbits(1))
    return bits, bigrading


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(MODELS)), seed=st.integers(0, 999),
       f_name=st.sampled_from(MAPS), g_name=st.sampled_from(MAPS))
def test_compose_apply_and_add_match_the_reference(name, seed, f_name,
                                                    g_name):
    x = _scrambled(name, seed)
    f, g = _map(x, f_name), _map(x, g_name)
    fc, gc = dict_cols(f), dict_cols(g)
    skew = f.mode == SKEW
    assert dict_cols(f.compose(g)) == reference_compose(fc, skew, gc)
    if (f.mode, f.bidegree) == (g.mode, g.bidegree):
        assert dict_cols(f + g) == reference_add(fc, gc)
        assert (f + g).is_zero() == (f == g)
    bits, bigrading = _element(x.complex.gradings, random.Random(seed))
    vec = poly_element(x.complex.gradings, bits, bigrading)
    assert poly_element(f.target.gradings, mat_vec(f.cols, bits),
                        image_grading(f, bigrading)) == reference_apply(
        fc, skew, vec)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(MODELS)), seed=st.integers(0, 999))
# the complex of (4_1)^3, 125 generators; Phi and Psi read only the
# differential
@example(name="4_1x4_1_tau(x)4_1", seed=5)
def test_derivative_maps_match_the_reference(name, seed):
    x = _scrambled(name, seed)
    want = reference_phi_psi_maps(dict_cols(x.complex.boundary()))
    assert tuple(map(dict_cols, phi_psi_maps(x.complex))) == want


@settings(max_examples=30, deadline=None, derandomize=True)
@given(first=st.sampled_from(SMALL), second=st.sampled_from(SMALL),
       seed=st.integers(0, 999))
def test_tensor_matches_the_reference(first, second, seed):
    x1, x2 = _scrambled(first, seed), _scrambled(second, seed + 1)
    t = tensor(x1, x2)
    diff, phi, iota, inv = reference_tensor_maps(x1, x2)
    assert dict_cols(t.complex.boundary()) == diff
    assert dict_cols(t.phi) == phi
    assert dict_cols(t.iota) == iota
    assert (t.phi_inverse is None) == (inv is None)
    if inv is not None:
        assert dict_cols(t.phi_inverse) == inv


def test_tensor_matches_the_reference_at_125_generators():
    x1 = _scrambled("4_1x4_1_tau", 7)
    x2 = _scrambled("4_1", 8)
    t = tensor(x1, x2)
    assert t.complex.n == 125
    diff, phi, iota, inv = reference_tensor_maps(x1, x2)
    assert dict_cols(t.complex.boundary()) == diff
    assert dict_cols(t.phi) == phi
    assert dict_cols(t.iota) == iota
    assert dict_cols(t.phi_inverse) == inv


@settings(max_examples=30, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(MODELS)), seed=st.integers(0, 999))
def test_dual_matches_the_reference(name, seed):
    x = _scrambled(name, seed)
    d = dual(x)
    assert dict_cols(d.complex.boundary()) == reference_transpose(
        dict_cols(x.complex.boundary()), False)
    assert dict_cols(d.phi) == reference_transpose(
        dict_cols(x.phi_inverse), False)
    assert dict_cols(d.phi_inverse) == reference_transpose(
        dict_cols(x.phi), False)
    assert dict_cols(d.iota) == reference_transpose(dict_cols(x.iota), True)
