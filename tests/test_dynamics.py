import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullerene_readout.dynamics import (DecoherenceRates, PulseSpec,
                                        analytic_free_evolution,
                                        evolve_numeric, fig2_timeseries,
                                        flip_probability,
                                        imperfect_flip_state, lindblad_rhs)
from fullerene_readout.errors import NumericFailure
from reference import SIGMA_X, rabi_pulse, validate_density_matrix

RATES = DecoherenceRates()  # gamma0 = 4e-4, gammap = 0.04


def random_density_2x2(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a + a.conj().T


def explicit_rk4_step(rho, rates, h, dt):
    """The classical four-stage RK4 step, written out from lindblad_rhs."""
    k1 = lindblad_rhs(rho, rates, h)
    k2 = lindblad_rhs(rho + 0.5 * dt * k1, rates, h)
    k3 = lindblad_rhs(rho + 0.5 * dt * k2, rates, h)
    k4 = lindblad_rhs(rho + dt * k3, rates, h)
    return rho + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestImperfectFlip:
    def test_perfect_flip(self):
        rho = imperfect_flip_state(0.0)
        assert rho[0, 0].real == pytest.approx(1.0)
        assert abs(rho[0, 1]) == pytest.approx(0.0)

    def test_populations(self):
        rho = imperfect_flip_state(0.2)
        assert rho[0, 0].real == pytest.approx(math.cos(0.1 * math.pi) ** 2)
        assert rho[0, 0].real == pytest.approx(0.9045, abs=1e-4)

    def test_coherence_magnitude(self):
        rho = imperfect_flip_state(0.1)
        assert abs(rho[0, 1]) == pytest.approx(0.1545, abs=1e-4)

    def test_branch_changes_only_phase(self):
        plus = imperfect_flip_state(0.3, "+")
        minus = imperfect_flip_state(0.3, "-")
        assert np.allclose(np.diag(plus), np.diag(minus))
        assert plus[0, 1] == pytest.approx(-minus[0, 1])

    @given(st.floats(min_value=0.0, max_value=0.999))
    def test_always_a_valid_state(self, alpha):
        validate_density_matrix(imperfect_flip_state(alpha))

    def test_range_check(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                imperfect_flip_state(bad)


class TestLindbladRhs:
    def test_down_state_is_fixed_point(self):
        down = np.diag([0.0, 1.0]).astype(complex)
        assert np.max(np.abs(lindblad_rhs(down, RATES))) == 0.0

    def test_coherence_decay_coefficient(self):
        rho = imperfect_flip_state(0.2)
        rhs = lindblad_rhs(rho, RATES)
        rate = -rhs[0, 1] / rho[0, 1]
        assert rate.real == pytest.approx(RATES.gamma0 / 2 + 4 * RATES.gammap)
        assert abs(rate.imag) < 1e-15

    def test_population_decay_coefficient(self):
        rho = imperfect_flip_state(0.2)
        rhs = lindblad_rhs(rho, RATES)
        assert rhs[0, 0].real == pytest.approx(
            -RATES.gamma0 * rho[0, 0].real)

    @settings(max_examples=100)
    @given(st.integers(min_value=0, max_value=2 ** 31))
    def test_traceless(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_2x2(rng)
        rates = DecoherenceRates(gamma0=rng.uniform(0, 0.1),
                                 gammap=rng.uniform(0, 0.1))
        assert abs(np.trace(lindblad_rhs(rho, rates))) < 1e-14

    def test_hamiltonian_commutator_term(self):
        rho = imperfect_flip_state(0.2)
        h = np.diag([10.0, -10.0]).astype(complex)
        rhs = lindblad_rhs(rho, DecoherenceRates(0.0, 0.0), h)
        expected = -1j * 2 * math.pi / 1000 * (h @ rho - rho @ h)
        assert np.max(np.abs(rhs - expected)) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lindblad_rhs(imperfect_flip_state(0.1), RATES, np.eye(8))
        with pytest.raises(ValueError):
            lindblad_rhs(np.eye(3, dtype=complex) / 3, RATES)
        # the outside spin alone: the 8-level product state is refused
        eight = np.eye(8, dtype=complex) / 8
        with pytest.raises(ValueError):
            lindblad_rhs(eight, RATES)
        with pytest.raises(ValueError):
            evolve_numeric(eight, RATES, None, 1.0, 0.1)


class TestAnalyticEvolution:
    def test_no_relaxation_keeps_populations(self):
        rho0 = imperfect_flip_state(0.2)
        out = analytic_free_evolution(rho0, DecoherenceRates(0.0, 0.1), 500.0)
        assert out[0, 0] == pytest.approx(rho0[0, 0])

    def test_coherence_value(self):
        rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        out = analytic_free_evolution(
            rho0, DecoherenceRates(0.0, 0.04), 25.0)
        assert abs(out[0, 1]) == pytest.approx(9.158e-3, rel=1e-3)

    def test_population_value(self):
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        out = analytic_free_evolution(
            rho0, DecoherenceRates(4e-4, 0.0), 1000.0)
        assert out[0, 0].real == pytest.approx(0.6703, abs=1e-4)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            analytic_free_evolution(imperfect_flip_state(0.1), RATES, -1.0)


class TestNumericEvolution:
    def test_matches_analytic_oracle(self):
        rho0 = imperfect_flip_state(0.1)
        num = evolve_numeric(rho0, RATES, None, 1000.0, 0.05)
        ana = analytic_free_evolution(rho0, RATES, 1000.0)
        assert np.max(np.abs(num - ana)) < 1e-8

    def test_zero_rates_identity(self):
        rho0 = imperfect_flip_state(0.15)
        out = evolve_numeric(rho0, DecoherenceRates(0.0, 0.0), None,
                             100.0, 0.5)
        assert np.max(np.abs(out - rho0)) < 1e-14

    def test_trace_preserved_many_steps(self):
        rho0 = imperfect_flip_state(0.2)
        out = evolve_numeric(rho0, RATES, None, 200.0, 0.01)  # 2e4 steps
        assert abs(np.trace(out).real - 1.0) < 1e-10

    def test_state_stays_physical(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            rho0 = random_density_2x2(rng)
            rates = DecoherenceRates(gamma0=rng.uniform(0, 0.05),
                                     gammap=rng.uniform(0, 0.1))
            out = evolve_numeric(rho0, rates, None, rng.uniform(1, 200), 0.05)
            validate_density_matrix(out, tol=1e-9)

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            evolve_numeric(imperfect_flip_state(0.1), RATES, None, 1.0, 0.0)
        with pytest.raises(ValueError):
            evolve_numeric(imperfect_flip_state(0.1), RATES, None, -1.0, 0.1)

    def test_nan_state_fails(self):
        with pytest.raises(NumericFailure):
            evolve_numeric(np.full((2, 2), np.nan, complex), RATES, None,
                           1.0, 0.1)

    def test_coupled_hamiltonian_oscillates(self):
        # resonant rotating-frame drive reproduces a pi flip
        h = 0.5 * PulseSpec.calibrated(None).omega0 * np.array(
            [[0, 1], [1, 0]], dtype=complex)
        down = np.diag([0.0, 1.0]).astype(complex)
        out = evolve_numeric(down, DecoherenceRates(0.0, 0.0), h, 140.0, 0.01)
        assert out[0, 0].real == pytest.approx(1.0, abs=1e-8)


class TestTransferMap:
    """evolve_numeric applies RK4 as a cached matrix; check it against the
    four-stage step itself."""

    @pytest.mark.parametrize("dim, driven", [(2, False), (2, True)])
    def test_one_step_is_explicit_rk4(self, dim, driven):
        rng = np.random.default_rng(dim + 10 * driven)
        a = random_hermitian(rng, dim)
        rho = a @ a / np.trace(a @ a)
        h = 10.0 * random_hermitian(rng, dim) if driven else None
        out = evolve_numeric(rho, RATES, h, 0.1, 0.1)
        ref = explicit_rk4_step(rho, RATES, h, 0.1)
        assert np.max(np.abs(out - ref)) <= 1e-14

    def test_cache_keys_on_hamiltonian_content(self):
        rho = imperfect_flip_state(0.3)
        h = 5.0 * SIGMA_X
        first = evolve_numeric(rho, RATES, h, 0.1, 0.1)
        h *= 3.0   # same object, new content
        second = evolve_numeric(rho, RATES, h, 0.1, 0.1)
        assert np.max(np.abs(first - second)) > 1e-6
        assert np.max(np.abs(
            second - explicit_rk4_step(rho, RATES, h, 0.1))) <= 1e-14
        undriven = evolve_numeric(rho, RATES, None, 0.1, 0.1)
        assert np.max(np.abs(undriven - first)) > 1e-6

    def test_cache_keys_on_rates(self):
        rho = imperfect_flip_state(0.3)
        slow, fast = DecoherenceRates(1e-4, 0.01), DecoherenceRates(1e-3, 0.1)
        a = evolve_numeric(rho, slow, None, 0.1, 0.1)
        b = evolve_numeric(rho, fast, None, 0.1, 0.1)
        assert np.max(np.abs(a - b)) > 1e-4
        assert np.max(np.abs(
            b - explicit_rk4_step(rho, fast, None, 0.1))) <= 1e-14

    @pytest.mark.parametrize("rates", [RATES, DecoherenceRates(1e-3, 0.1)])
    @pytest.mark.parametrize("driven", [False, True])
    def test_power_cache_keys_on_step_count(self, rates, driven):
        rho = imperfect_flip_state(0.3)
        h = 5.0 * SIGMA_X if driven else None
        for steps in (3, 5, 3, 1):
            ref = rho
            for _ in range(steps):
                ref = explicit_rk4_step(ref, rates, h, 0.125)
            out = evolve_numeric(rho, rates, h, steps * 0.125, 0.125)
            assert np.max(np.abs(out - ref)) <= 1e-14

    def test_power_cache_keys_on_hamiltonian_content(self):
        rho = imperfect_flip_state(0.3)
        h = 5.0 * SIGMA_X
        first = evolve_numeric(rho, RATES, h, 0.5, 0.125)
        h *= 3.0   # same object, new content
        second = evolve_numeric(rho, RATES, h, 0.5, 0.125)
        ref = rho
        for _ in range(4):
            ref = explicit_rk4_step(ref, RATES, h, 0.125)
        assert np.max(np.abs(first - second)) > 1e-6
        assert np.max(np.abs(second - ref)) <= 1e-14

    def test_ten_million_steps_match_closed_form(self):
        # slow rates, so that the state at t = 1e6 ns is far from |down>
        rates = DecoherenceRates(1e-6, 2.5e-7)
        rho0 = imperfect_flip_state(0.3)
        out = evolve_numeric(rho0, rates, None, 1e6, 0.1)
        ana = analytic_free_evolution(rho0, rates, 1e6)
        assert ana[0, 0].real == pytest.approx(math.exp(-1.0) *
                                               rho0[0, 0].real)
        assert np.max(np.abs(out - ana)) <= 1e-8


class TestRabiPulse:
    PULSE = PulseSpec.calibrated(20202.0)
    DOWN = np.diag([0.0, 1.0]).astype(complex)

    def test_calibration(self):
        assert self.PULSE.omega0 == pytest.approx(500.0 / 140.0)

    def test_resonant_pi_pulse(self):
        out = rabi_pulse(self.DOWN, self.PULSE, 0.0, 140.0)
        assert out[0, 0].real == pytest.approx(1.0)

    def test_large_detuning_bound(self):
        cap = self.PULSE.omega0 ** 2 / (self.PULSE.omega0 ** 2 + 127.0 ** 2)
        assert cap == pytest.approx(7.9e-4, rel=2e-2)
        for tau in np.linspace(0.0, 300.0, 50):
            out = rabi_pulse(self.DOWN, self.PULSE, 127.0, tau)
            assert out[0, 0].real <= cap + 1e-12

    @settings(max_examples=50)
    @given(st.floats(min_value=0.0, max_value=0.9))
    def test_matches_imperfect_flip_state(self, alpha):
        out = rabi_pulse(self.DOWN, self.PULSE, 0.0, 140.0 * (1 + alpha))
        ref = imperfect_flip_state(alpha, "+")
        assert np.max(np.abs(np.diag(out) - np.diag(ref))) < 1e-12
        assert abs(abs(out[0, 1]) - abs(ref[0, 1])) < 1e-12

    @settings(max_examples=50)
    @given(st.floats(min_value=0.0, max_value=400.0),
           st.floats(min_value=-200.0, max_value=200.0))
    def test_scalar_flip_probability_agrees(self, tau, detuning):
        out = rabi_pulse(self.DOWN, self.PULSE, detuning, tau)
        assert out[0, 0].real == pytest.approx(
            flip_probability(self.PULSE.omega0, detuning, tau), abs=1e-12)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            rabi_pulse(self.DOWN, self.PULSE, 0.0, -1.0)


class TestPulseSpec:
    def test_duration_bounds(self):
        with pytest.raises(ValueError):
            PulseSpec(omega0=1.0, frequency=None, duration=0.0)
        with pytest.raises(ValueError):
            PulseSpec(omega0=-1.0, frequency=None)


class TestFig2:
    def test_coherence_gone_by_30ns(self):
        ts = fig2_timeseries(0.1, RATES, t_end=100.0, dt=0.5)
        i = np.searchsorted(ts.times, 28.8)
        assert ts.P2[i] / ts.P2[0] < 0.01

    def test_population_ordering_alpha02(self):
        ts = fig2_timeseries(0.2, RATES)
        assert ts.P1[-1] == pytest.approx(0.6063, abs=1e-4)
        assert ts.P3[-1] == pytest.approx(0.3937, abs=1e-4)
        assert np.all(ts.P1 > ts.P3)

    def test_no_coherence_for_perfect_flip(self):
        ts = fig2_timeseries(0.0, RATES)
        assert np.max(ts.P2) == 0.0

    def test_populations_sum_to_one(self):
        ts = fig2_timeseries(0.13, RATES)
        assert np.max(np.abs(ts.P1 + ts.P3 - 1.0)) < 1e-9


class TestCoherenceDecayFit:
    @pytest.mark.parametrize("gammap", [0.01, 0.04, 0.1])
    def test_fitted_rate(self, gammap):
        rates = DecoherenceRates(gamma0=4e-4, gammap=gammap)
        ts = fig2_timeseries(0.1, rates, t_end=3.0 / rates.coherence_rate,
                             dt=0.1 / rates.coherence_rate)
        slope = np.polyfit(ts.times, np.log(ts.P2), 1)[0]
        assert -slope == pytest.approx(rates.coherence_rate, rel=5e-3)
