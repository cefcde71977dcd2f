"""Rule engine: arithmetic criteria, gates, certificates, route checks."""

import pytest

from corkscrew.complexes import tensor
from corkscrew.errors import ValidationError
from corkscrew.models import (
    bundled,
    figure_eight_iota_only,
    thin_model,
    torus_model,
    trivial,
    unknot,
)
from corkscrew.verdicts import (
    INCONCLUSIVE,
    KnotDescriptor,
    STRONG_CORK,
    cor13_arithmetic,
    cor51_rule,
    replay_certificate,
    torus_2_arf,
    verdict_delta,
    verdict_gompf,
    verdict_periodic,
    verdict_split,
)


class TestArithmetic:
    def test_figure_eight_knot(self):
        assert cor13_arithmetic(arf=1, tau_invariant=0)  # value 2

    def test_six_one_excluded(self):
        assert not cor13_arithmetic(arf=0, tau_invariant=0)  # value 0

    def test_double_trefoil(self):
        # Arf adds to 0 mod 2, tau adds to 2
        assert cor13_arithmetic(arf=0, tau_invariant=2)

    @pytest.mark.parametrize("s,n,want", [(2, 1, True), (1, 1, False),
                                          (4, 1, False), (3, 1, True),
                                          (2, 2, False), (2, 3, True),
                                          (6, 5, True), (7, 3, True),
                                          (5, 1, False), (8, 1, False)])
    def test_torus_sums(self, s, n, want):
        assert cor51_rule(s, n) is want

    @pytest.mark.parametrize("s", range(1, 9))
    @pytest.mark.parametrize("n", range(1, 6))
    def test_torus_sum_rule_matches_thin_arithmetic(self, s, n):
        arf = (s * torus_2_arf(n)) % 2
        tau = s * n
        assert cor51_rule(s, n) == cor13_arithmetic(arf, tau)


class TestKnotDescriptor:
    def test_figure_eight_parity(self):
        k = KnotDescriptor("4_1", tau_invariant=0, arf=1, determinant=5,
                           thin=True)
        assert k.box_parity_odd()

    def test_non_thin_data_rejected(self):
        with pytest.raises(ValidationError):
            KnotDescriptor("junk", tau_invariant=1, arf=0, determinant=5,
                           thin=True)  # (5 - 2 - 1)/4 not an integer

    def test_even_determinant_rejected(self):
        with pytest.raises(ValidationError):
            KnotDescriptor("junk", tau_invariant=0, arf=0, determinant=4,
                           thin=False)


class TestGompfVerdict:
    def test_figure_eight_strong_cork(self):
        k = KnotDescriptor("4_1", 0, 1, 5, thin=True)
        v = verdict_gompf(k, m=1, i=1, j=0)
        assert v.conclusion == STRONG_CORK
        assert v.certificate and replay_certificate(v.certificate)

    def test_even_m_gate(self):
        k = KnotDescriptor("4_1", 0, 1, 5, thin=True)
        assert verdict_gompf(k, m=2, i=1, j=0).conclusion == INCONCLUSIVE

    def test_even_i_gate(self):
        k = KnotDescriptor("4_1", 0, 1, 5, thin=True)
        assert verdict_gompf(k, m=1, i=2, j=0).conclusion == INCONCLUSIVE

    def test_trefoil_inconclusive(self):
        v = verdict_gompf(torus_model(3), m=1, i=1, j=0)
        assert v.conclusion == INCONCLUSIVE
        assert "identity" in v.reason

    @pytest.mark.parametrize("j", [-3, 0, 1, 5])
    def test_meridional_power_never_matters(self, j):
        k = KnotDescriptor("4_1", 0, 1, 5, thin=True)
        assert verdict_gompf(k, m=1, i=1, j=j).conclusion == STRONG_CORK
        assert verdict_gompf(k, m=1, i=2, j=j).conclusion == INCONCLUSIVE

    def test_negative_odd_m_allowed(self):
        k = KnotDescriptor("4_1", 0, 1, 5, thin=True)
        assert verdict_gompf(k, m=-3, i=1, j=0).conclusion == STRONG_CORK

    def test_slice_double_is_inconclusive_via_its_trivial_model(self,
                                                                 fig8_iota):
        x = tensor(fig8_iota, fig8_iota)
        v = verdict_gompf(x, m=1, i=1, j=0)
        assert v.conclusion == INCONCLUSIVE
        assert "identity" in v.reason

    @pytest.mark.parametrize("ell", [2, 3])
    def test_greedy_inputs_stay_inconclusive(self, ell):
        from corkscrew.complexes import direct_sum, iota_complex
        from corkscrew.models import box_complex, dot_complex, solve_involution
        cx = direct_sum(dot_complex("x"),
                        box_complex(1, at=(0, 0), suffix="0"),
                        box_complex(ell, at=(0, 0), suffix="1"),
                        name="mixed")
        iota, _ = solve_involution(cx)
        v = verdict_gompf(iota_complex(cx, iota), m=1, i=1, j=0)
        assert v.conclusion == INCONCLUSIVE
        assert v.reason == ("connected model unverified "
                            "(greedy nonmaximal: unverified)")


class TestDeltaVerdict:
    def test_periodic_double_positive(self):
        v = verdict_delta(bundled("4_1x4_1_tau"), m=1)
        assert v.conclusion == STRONG_CORK
        assert v.certificate["delta"] == 1
        assert replay_certificate(v.certificate)

    @pytest.mark.parametrize("grading", [12345, 0, -4])
    def test_replay_reads_the_witness_grading(self, grading):
        """The witness sits at grading -2 = -2 delta; a certificate that
        names any other grading does not replay."""
        cert = verdict_delta(bundled("4_1x4_1_tau"), m=1).certificate
        assert cert["witness_grading"] == -2
        assert replay_certificate(dict(cert, witness_grading=grading)) \
            is False

    def test_unknot_inconclusive(self):
        assert verdict_delta(unknot(), m=1).conclusion == INCONCLUSIVE

    def test_identity_double_inconclusive(self):
        assert verdict_delta(bundled("4_1x4_1_id"), m=1).conclusion \
            == INCONCLUSIVE

    def test_even_m_gate(self):
        assert verdict_delta(bundled("4_1x4_1_tau"), m=2).conclusion \
            == INCONCLUSIVE

    def test_negative_m_dualizes(self):
        v = verdict_delta(bundled("4_1x4_1_tau"), m=-1)
        assert v.conclusion == STRONG_CORK  # the dual pair obstructs too


class TestSplitVerdict:
    def test_gompf_pair(self):
        v = verdict_split(bundled("4_1_s"), bundled("4_1_iota"), m=1)
        assert v.conclusion == STRONG_CORK
        assert replay_certificate(v.certificate)

    def test_trivial_pair_inconclusive(self):
        assert verdict_split(trivial(), trivial(), m=1).conclusion \
            == INCONCLUSIVE

    def test_identity_pair_inconclusive(self):
        m = figure_eight_iota_only()
        assert verdict_split(m, m, m=1).conclusion == INCONCLUSIVE

    def test_even_or_negative_m_gate(self):
        pair = (bundled("4_1_s"), bundled("4_1_iota"))
        assert verdict_split(*pair, m=2).conclusion == INCONCLUSIVE
        assert verdict_split(*pair, m=-1).conclusion == INCONCLUSIVE

    def test_route_agreement_on_pairs(self):
        m_id = figure_eight_iota_only()
        m_s = bundled("4_1_s")
        t3 = torus_model(3)
        t3m = torus_model(-3)
        pairs = [
            (m_s, m_id), (m_id, m_id), (m_id, m_s),
            (trivial(), trivial()), (t3, t3m), (t3m, t3),
            (m_s, trivial()), (trivial(), m_id),
            (t3, trivial()), (thin_model(1, True), m_id),
        ]
        for x1, x2 in pairs:
            # verdict_split raises ConsistencyError if the local-map route
            # and the tensor delta route ever disagree
            verdict_split(x1, x2, m=1, cross_check=True)


class TestPeriodicVerdict:
    def test_figure_eight_periodic(self, fig8):
        v = verdict_periodic(fig8, m=1, i=1)
        assert v.conclusion == STRONG_CORK
        assert replay_certificate(v.certificate)

    def test_power_divisible_by_four(self, fig8):
        assert verdict_periodic(fig8, m=1, i=4).conclusion == INCONCLUSIVE

    def test_even_m(self, fig8):
        assert verdict_periodic(fig8, m=2, i=1).conclusion == INCONCLUSIVE

    @pytest.mark.parametrize("i", [1, 2, 3, 5, 6, 7])
    def test_powers_not_divisible_by_four_qualify(self, fig8, i):
        assert verdict_periodic(fig8, m=1, i=i).conclusion == STRONG_CORK

    def test_square_root_hypothesis_verified(self):
        # an action that does not square to the twist is rejected outright
        m = figure_eight_iota_only()  # phi = id, but id^2 != s here
        with pytest.raises(ValidationError, match="square"):
            verdict_periodic(m, m=1, i=1)


def test_census_agreement_with_homological_route():
    """The arithmetic gate and the thin-model pipeline agree on every
    eligible bundled knot."""
    from corkscrew.knot_table import bundled_table
    table = bundled_table()
    for row in table.rows:
        if not row.census_eligible:
            continue
        k = row.descriptor()
        arith = cor13_arithmetic(row.arf, row.tau_invariant)
        v = verdict_gompf(k, m=1, i=1, j=0)
        assert (v.conclusion == STRONG_CORK) == arith, row.name
