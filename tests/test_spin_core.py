import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullerene_readout import protocol
from fullerene_readout.spin_core import (MAX_MHZ, MechanicsParams,
                                         PhysicalConstants, SystemParams,
                                         check_weak_coupling, eigenenergies,
                                         outside_flip_frequency,
                                         transition_table, vibration_shift,
                                         zeeman_separation)
from reference import build_hamiltonian, spin_z_operator

STD = SystemParams(nu1=10000.0, nu2=10063.5, J=50.0)


class TestOperators:
    def test_sz_spin_half(self):
        assert np.allclose(spin_z_operator(2), np.diag([0.5, -0.5]))

    def test_sz_spin_three_half(self):
        assert np.allclose(spin_z_operator(4),
                           np.diag([1.5, 0.5, -0.5, -1.5]))

    @given(st.integers(min_value=2, max_value=12))
    def test_sz_traceless(self, n):
        assert abs(np.trace(spin_z_operator(n))) < 1e-12

    def test_sz_rejects_scalars(self):
        with pytest.raises(ValueError):
            spin_z_operator(1)


class TestHamiltonian:
    def test_reference_entry(self):
        h = build_hamiltonian(STD)
        # |3/2, +1/2> level: 3 nu1 + nu2 + 3J/4
        assert h[0, 0].real == pytest.approx(40101.0, rel=1e-12)

    def test_diagonal_and_real(self):
        h = build_hamiltonian(STD)
        assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0
        assert np.max(np.abs(np.diag(h).imag)) == 0

    def test_decoupled_limit_is_sum_of_zeeman_ladders(self):
        p = SystemParams(nu1=9000.0, nu2=11000.0, J=0.0)
        h = build_hamiltonian(p)
        for i, m1 in enumerate((1.5, 0.5, -0.5, -1.5)):
            for j, m2 in enumerate((0.5, -0.5)):
                assert h[2 * i + j, 2 * i + j].real == pytest.approx(
                    2 * p.nu1 * m1 + 2 * p.nu2 * m2)


class TestEigenenergies:
    def test_reference_level(self):
        # |3/2, -1/2>: 3 nu1 - nu2 - 3J/4
        levels = {(lv.m1, lv.m2): lv.energy for lv in eigenenergies(STD)}
        assert levels[(1.5, -0.5)] == pytest.approx(19899.0, rel=1e-12)

    def test_levels_sum_to_zero(self):
        assert sum(lv.energy for lv in eigenenergies(STD)) == pytest.approx(
            0.0, abs=1e-8)

    def test_anisotropy_shifts_levels(self):
        lv = eigenenergies(replace(STD, D2=10.0, D4=1.0))[0]
        assert lv.energy == pytest.approx(40101.0 + 10 * 2.25 + 5.0625)


class TestTransitionTable:
    def test_row_count_and_kinds(self):
        t = transition_table(STD)
        assert len(t) == 10
        assert [r.kind for r in t] == (["outside-flip"] * 4
                                       + ["inside-flip"] * 6)

    def test_outside_rows_are_the_flip_line(self):
        p = SystemParams(nu1=9000.0, nu2=9100.25, J=-30.0)
        for row in transition_table(p)[:4]:
            assert row.frequency == outside_flip_frequency(p, row.initial[0])
        assert protocol.outside_flip_frequency is outside_flip_frequency

    def test_selection_rules(self):
        for row in transition_table(STD):
            dm1 = row.initial[0] - row.final[0]
            dm2 = row.initial[1] - row.final[1]
            if row.kind == "outside-flip":
                assert dm1 == 0 and abs(dm2) == 1
            else:
                assert abs(dm1) == 1 and dm2 == 0
            assert row.frequency > 0

    def test_degenerate_limit(self):
        p = SystemParams(nu1=10000.0, nu2=10000.0, J=0.0)
        freqs = {round(r.frequency, 6) for r in transition_table(p)}
        assert freqs == {20000.0}

    def test_degeneracy_lifting_gap(self):
        # outside row 2nu1+2delta-3J/2 vs inside row 2nu1+J/2: gap 2d - 2J
        t = transition_table(STD)
        gap = t[3].frequency - t[4].frequency
        assert gap == pytest.approx(2 * 63.5 - 2 * 50.0)
        assert gap > 0


class TestHelpers:
    def test_zeeman_separation_scaling(self):
        c = PhysicalConstants()
        assert zeeman_separation(c, MechanicsParams(gradient=0.0)) == 0.0
        one = zeeman_separation(c, MechanicsParams(spacing=1e-9))
        two = zeeman_separation(c, MechanicsParams(spacing=2e-9))
        assert two == pytest.approx(2 * one)

    def test_vibration_shift_zero_gradient(self):
        shift = vibration_shift(PhysicalConstants(),
                                MechanicsParams(gradient=0.0))
        assert shift.shift == 0.0

    @settings(max_examples=50)
    @given(st.floats(min_value=0.0, max_value=1e7))
    def test_vibration_shift_negligible(self, gradient):
        shift = vibration_shift(PhysicalConstants(),
                                MechanicsParams(gradient=gradient))
        assert shift.ratio < 1e-5

    def test_weak_coupling_cases(self):
        ok = check_weak_coupling(STD)
        assert ok.ratio == pytest.approx(50.0 / 63.5) and ok.ok
        zero = check_weak_coupling(SystemParams(1e4, 1e4, 0.0))
        assert zero.ratio == 0.0 and zero.ok
        bad = check_weak_coupling(SystemParams(10000.0, 10063.5, 100.0))
        assert bad.ratio == pytest.approx(100.0 / 63.5) and not bad.ok
        inf = check_weak_coupling(SystemParams(1e4, 1e4, 5.0))
        assert math.isinf(inf.ratio) and not inf.ok


class TestValidation:
    def test_positive_frequencies_required(self):
        with pytest.raises(ValueError):
            SystemParams(nu1=-1.0, nu2=1.0, J=0.0)
        with pytest.raises(ValueError):
            SystemParams(nu1=1.0, nu2=0.0, J=0.0)

    def test_constants_positive(self):
        with pytest.raises(ValueError):
            PhysicalConstants(k_spring=0.0)

    def test_aniso_finite(self):
        with pytest.raises(ValueError):
            SystemParams(D2=math.nan)

    @pytest.mark.parametrize("cls,name", [
        (SystemParams, "nu1"), (SystemParams, "nu2"), (SystemParams, "J"),
        (SystemParams, "D2"), (SystemParams, "D4")])
    def test_frequencies_bounded(self, cls, name):
        # 1e308 MHz would make the level energies and lines overflow to inf
        cls(**{name: MAX_MHZ})
        with pytest.raises(ValueError, match=f"^{name}: must lie in"):
            cls(**{name: 1e308})
        if name in ("J", "D2", "D4"):
            with pytest.raises(ValueError, match=f"^{name}: "):
                cls(**{name: -1e308})

    def test_delta_definition(self):
        assert STD.delta == 63.5
