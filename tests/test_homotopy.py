"""Homotopy decisions, commutation, locality, self-local spaces."""

import pytest

from corkscrew.complexes import (
    PhiIotaComplex,
    dual,
    iota_complex,
    sarkar_map,
    tensor,
)
from corkscrew.errors import ValidationError
from corkscrew.homotopy import (
    commutes_up_to_homotopy,
    homotopic,
    homotopy_inverse,
    local_map_exists,
    self_local_space,
)
from corkscrew.models import (
    box_complex,
    figure_eight_iota_only,
    torus_model,
    trivial,
)

from conftest import random_chain_maps


class TestHomotopic:
    def test_equal_maps_zero_homotopy(self):
        cx = torus_model(3).complex
        h = homotopic(sarkar_map(cx), cx.identity())
        assert h is not None and h.matrix.is_zero()

    def test_twist_not_homotopic_to_id_on_unit_box(self):
        cx = box_complex(1)
        assert homotopic(sarkar_map(cx), cx.identity()) is None

    def test_identity_pair(self, fig8):
        cx = fig8.complex
        h = homotopic(cx.identity(), cx.identity())
        assert h is not None and h.matrix.is_zero()

    def test_witness_verifies_exactly(self, fig8):
        cx = fig8.complex
        s = sarkar_map(cx)
        sq = fig8.iota.compose(fig8.iota)
        h = homotopic(sq, s)
        assert h is not None
        assert h.verifies(sq, s)

    def test_shape_mismatch_rejected(self, fig8):
        cx = fig8.complex
        with pytest.raises(ValidationError):
            homotopic(fig8.iota, cx.identity())


class TestCommutation:
    def test_twist_commutes_with_sampled_chain_maps(self, fig8):
        cx = fig8.complex
        s = sarkar_map(cx)
        for f in random_chain_maps(cx, seed=11, count=12):
            assert commutes_up_to_homotopy(s, f) is not None

    def test_periodic_symmetry_commutes_with_involution(self, fig8):
        assert commutes_up_to_homotopy(fig8.iota, fig8.phi) is not None

    def test_identity_commutes(self, fig8):
        h = commutes_up_to_homotopy(fig8.complex.identity(), fig8.phi)
        assert h is not None and h.matrix.is_zero()


class TestHomotopyInverse:
    def test_twist_is_its_own_inverse(self, fig8):
        cx = fig8.complex
        s = sarkar_map(cx)
        g = homotopy_inverse(cx, s)
        assert g is not None
        assert homotopic(s.compose(g), cx.identity()) is not None

    def test_periodic_symmetry_inverse_found(self, fig8):
        g = homotopy_inverse(fig8.complex, fig8.phi)
        assert g is not None
        assert homotopic(g, fig8.phi_inverse) is not None


class TestLocalMaps:
    def test_trivial_to_trivial(self):
        cert = local_map_exists(trivial(), trivial())
        assert cert.exists
        assert cert.f.cols[0] == 1

    def test_gompf_obstruction_pair(self):
        # identity-action source, twist-action target: no local map
        m = figure_eight_iota_only()
        s = sarkar_map(m.complex)
        twisted = PhiIotaComplex(m.complex, s, m.iota, s)
        cert = local_map_exists(m, twisted)
        assert not cert.exists
        assert cert.obstruction is not None

    def test_self_map_exists(self):
        m = figure_eight_iota_only()
        cert = local_map_exists(m, m)
        assert cert.exists

    def test_witness_equations_hold(self):
        m = figure_eight_iota_only()
        t = trivial()
        cert = local_map_exists(t, tensor(m, m))
        assert cert.exists  # the double is locally trivial
        # grading-preserving chain map commuting with both actions
        # (checked exactly inside local_map_exists; spot-check one relation)
        f = cert.f
        d1 = t.complex.boundary()
        d2 = tensor(m, m).complex.boundary()
        assert (f.compose(d1) + d2.compose(f)).is_zero()

    def test_dualization_symmetry(self):
        m_id = figure_eight_iota_only()
        s = sarkar_map(m_id.complex)
        m_s = PhiIotaComplex(m_id.complex, s, m_id.iota, s)
        pairs = [(trivial(), m_id), (m_id, m_id), (m_id, m_s),
                 (trivial(), torus_model(3)), (torus_model(3), trivial())]
        for x1, x2 in pairs:
            fwd = local_map_exists(x1, x2).exists
            bwd = local_map_exists(dual(x2), dual(x1)).exists
            assert fwd == bwd, (x1.complex.name, x2.complex.name)

    def test_tower_drop_blocks_grading_preserving_maps(self):
        # the trefoil's diagonal tower tops out below zero, so nothing
        # grading-preserving can be local out of the trivial complex
        cert = local_map_exists(trivial(), torus_model(3))
        assert not cert.exists

    def test_allow_shift_finds_the_dropped_map(self):
        cert = local_map_exists(trivial(), torus_model(3), allow_shift=True)
        assert cert.exists
        assert cert.shift == -2


class TestSelfLocalSpace:
    def test_trivial_complex(self):
        sp = self_local_space(trivial())
        assert len(sp.basis) == 1
        assert sp.locality_bits == [1]

    def test_identity_is_a_member(self, fig8_iota):
        sp = self_local_space(fig8_iota)
        cx = fig8_iota.complex
        ident = cx.identity()
        found = False
        for sel in range(1 << min(len(sp.basis), 12)):
            if sp.members(sel) == ident:
                found = True
                assert sp.locality(sel) == 1
                break
        assert found

    def test_staircase_unique_local_class(self):
        x = torus_model(3)
        sp = self_local_space(iota_complex(x.complex, x.iota))
        # every local member restricts to the identity on the tower, and
        # the grading-zero slice pins it: the only local member is id
        locals_found = {sel for sel in range(1 << len(sp.basis))
                        if sp.locality(sel)}
        assert locals_found
        for sel in locals_found:
            assert sp.members(sel) == x.complex.identity()
