import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullerene_readout.dynamics import (SIGMA_Z, DecoherenceRates, PulseSpec,
                                        _rk4_map, analytic_free_evolution,
                                        evolve_numeric, fig2_timeseries,
                                        imperfect_flip_state, lindblad_rhs,
                                        rabi_factors, rabi_transfer)
from fullerene_readout.errors import NumericFailure
from reference import (SIGMA_X, driven_evolution, rabi_pulse,
                       sampled_trajectory, validate_density_matrix)

RATES = DecoherenceRates()  # gamma0 = 4e-4, gammap = 0.04


def random_density_2x2(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def explicit_rk4_step(rho, rates, dt):
    """The classical four-stage RK4 step, written out from lindblad_rhs."""
    k1 = lindblad_rhs(rho, rates)
    k2 = lindblad_rhs(rho + 0.5 * dt * k1, rates)
    k3 = lindblad_rhs(rho + 0.5 * dt * k2, rates)
    k4 = lindblad_rhs(rho + dt * k3, rates)
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

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lindblad_rhs(np.eye(3, dtype=complex) / 3, RATES)
        # the outside spin alone: the 8-level product state is refused
        eight = np.eye(8, dtype=complex) / 8
        with pytest.raises(ValueError):
            lindblad_rhs(eight, RATES)
        with pytest.raises(ValueError):
            evolve_numeric(eight, RATES, 1.0, 0.1)
        with pytest.raises(ValueError, match="reduced 2x2 state"):
            analytic_free_evolution(eight, RATES, 1.0)


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

    def test_nan_time_rejected_infinite_time_relaxed(self):
        rho0 = imperfect_flip_state(0.1)
        for t in (math.nan, [1.0, math.nan]):
            with pytest.raises(ValueError, match="^t: must be non-negative$"):
                analytic_free_evolution(rho0, RATES, t)
        out = analytic_free_evolution(rho0, RATES, math.inf)
        assert np.array_equal(out, np.diag([0.0, 1.0]))

    @pytest.mark.parametrize("t", [0.0, 1e300, math.inf,
                                   [0.0, 1.0, math.inf]])
    def test_zero_rates_keep_the_state_at_every_t(self, t):
        # entries chosen so that 1 - rho_uu is rho_dd exactly
        rho0 = np.array([[0.75, 0.25 + 0.25j], [0.25 - 0.25j, 0.25]])
        out = analytic_free_evolution(rho0, DecoherenceRates(0.0, 0.0), t)
        assert np.array_equal(out, np.broadcast_to(rho0, out.shape))

    def test_overflowing_decay_is_relaxed_silently(self):
        # gamma0 * t and the coherence rate itself overflow; at t = 0
        # nothing has decayed yet (warnings are errors in this suite)
        rho0 = np.array([[0.75, 0.25 + 0.25j], [0.25 - 0.25j, 0.25]])
        out = analytic_free_evolution(rho0, DecoherenceRates(1e308, 1e308),
                                      [0.0, 2.0, math.inf])
        assert np.array_equal(out[0], rho0)
        assert np.array_equal(out[1:], [np.diag([0.0, 1.0])] * 2)


class TestNumericEvolution:
    def test_zero_rates_identity(self):
        rho0 = imperfect_flip_state(0.15)
        out = evolve_numeric(rho0, DecoherenceRates(0.0, 0.0), 100.0, 0.5)[0]
        assert np.max(np.abs(out - rho0)) < 1e-14

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            evolve_numeric(imperfect_flip_state(0.1), RATES, 1.0, 0.0)
        with pytest.raises(ValueError):
            evolve_numeric(imperfect_flip_state(0.1), RATES, -1.0, 0.1)
        with pytest.raises(ValueError, match="^samples must be positive$"):
            evolve_numeric(imperfect_flip_state(0.1), RATES, 1.0, 0.1,
                           samples=0)

    @pytest.mark.parametrize("t, dt, field", [
        (1.0, math.inf, "dt: must be positive and finite"),
        (1.0, math.nan, "dt: must be positive and finite"),
        (1.0, -math.inf, "dt: must be positive and finite"),
        (math.nan, 0.1, "t: must be non-negative and finite"),
        (math.inf, 0.1, "t: must be non-negative and finite"),
        (math.nan, math.nan, "dt: must be positive and finite"),
        (1e30, 1e-300, "dt: too small: t / dt overflows"),
        (1e308, 5e-324, "dt: too small: t / dt overflows")])
    @pytest.mark.parametrize("samples", [None, 10])   # None: the default
    def test_non_finite_times_name_their_field(self, t, dt, field, samples):
        kwargs = {} if samples is None else {"samples": samples}
        with pytest.raises(ValueError, match=f"^{field}$"):
            evolve_numeric(imperfect_flip_state(0.1), RATES, t, dt, **kwargs)

    def test_nan_state_fails(self):
        with pytest.raises(NumericFailure):
            evolve_numeric(np.full((2, 2), np.nan, complex), RATES, 1.0, 0.1)


def same_trajectory(rho, rates, t, dt, n):
    """Assert that `evolve_numeric(..., samples=n)` equals the per-sample
    loop bit for bit, or fails with its message, and return whether it
    failed."""
    try:
        want = sampled_trajectory(rho, rates, t, dt, n)
    except NumericFailure as failure:
        with pytest.raises(NumericFailure) as error:
            evolve_numeric(rho, rates, t, dt, samples=n)
        assert str(error.value) == str(failure)
        return True
    assert np.array_equal(evolve_numeric(rho, rates, t, dt, samples=n), want)
    return False


GRID_RATES = [RATES, DecoherenceRates(1e-3, 0.1), DecoherenceRates(0.0, 0.0),
              DecoherenceRates(0.05, 6.9)]


class TestSampledTrajectory:
    """`evolve_numeric(..., samples=n)` is the per-sample loop that its
    factor accumulations replaced, n chained calls over t/n, bit for bit,
    including where the chain first fails."""

    @pytest.mark.parametrize("rates", GRID_RATES)
    @pytest.mark.parametrize("alpha", [0.0, 0.05, 0.3, 0.9])
    @pytest.mark.parametrize("h, dt, n", [
        (1.0, 0.1, 200),    # fig2's sample: nine steps and a remainder
        (0.25, 0.1, 40),    # an interval dt does not divide
        (0.5, 0.125, 30),   # one dt divides exactly: no remainder step
        (7.0, 0.1, 1),
        (0.0, 0.1, 5)])
    def test_equals_chained_calls(self, rates, alpha, h, dt, n):
        # the trajectory fails only past RK4's real-axis stability edge (the
        # last rates at dt 0.125), and there as the per-sample loop does
        if same_trajectory(imperfect_flip_state(alpha), rates, n * h, dt, n):
            assert rates.coherence_rate * dt > 2.785

    def test_fails_where_the_chain_fails(self):
        # gammap 7 is past RK4's stability edge at 0.1 ns: a coherence of
        # 1.6e-10 grows ~25 % per ns until it exceeds the populations' bound
        rates, rho = DecoherenceRates(gammap=7.0), imperfect_flip_state(1e-10)
        message = "state stopped being a density matrix during integration"
        with pytest.raises(NumericFailure) as error:
            for k in range(1, 1001):
                rho = evolve_numeric(rho, rates, 1.0, 0.1)[0]
        assert (k, str(error.value)) == (95, message)
        rho = imperfect_flip_state(1e-10)
        assert np.array_equal(
            evolve_numeric(rho, rates, k - 1.0, 0.1, samples=k - 1),
            sampled_trajectory(rho, rates, k - 1.0, 0.1, k - 1))
        for n in (k, 1000):
            with pytest.raises(NumericFailure) as error:
                evolve_numeric(rho, rates, float(n), 0.1, samples=n)
            assert str(error.value) == message

    def test_random_states_equal_the_per_sample_loop(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            rho = random_density_2x2(rng)
            rates = DecoherenceRates(gamma0=rng.uniform(0, 0.5),
                                     gammap=rng.uniform(0, 2.0))
            assert not same_trajectory(rho, rates, 100.0, 0.1, 100)
            # not Hermitian: its Hermitian part is integrated
            rho = rho + 1e-3j * rng.standard_normal((2, 2))
            assert not same_trajectory(rho, rates, 5.0, 0.01, 20)

    # `test_overflowing_rk4_map_is_numeric_failure`'s rates on fig2's
    # alpha 0.1 trajectory: overflowing maps and RK4's stability edge
    @pytest.mark.parametrize("rates", [
        DecoherenceRates(gammap=1e10), DecoherenceRates(gamma0=1e300),
        DecoherenceRates(gammap=8), DecoherenceRates(gammap=6.97),
        DecoherenceRates(gamma0=27.86)])
    def test_failing_rates_fail_as_the_per_sample_loop(self, rates):
        assert same_trajectory(imperfect_flip_state(0.1), rates, 1000.0,
                               0.1, 1000)

    def test_non_hermitian_state_is_its_hermitian_part(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            rho = (random_density_2x2(rng)
                   + 1e-3j * rng.standard_normal((2, 2)))
            part = 0.5 * (rho + rho.conj().T)
            rates = DecoherenceRates(gamma0=rng.uniform(0, 0.5),
                                     gammap=rng.uniform(0, 2.0))
            for t, dt, samples in [(1.0, 0.1, 1), (5.0, 0.01, 1),
                                   (5.0, 0.01, 20), (100.0, 0.1, 100)]:
                assert np.array_equal(
                    evolve_numeric(rho, rates, t, dt, samples=samples),
                    evolve_numeric(part, rates, t, dt, samples=samples))

    def test_map_is_four_real_factors(self):
        basis = np.eye(4, dtype=complex).reshape(-1, 2, 2)
        on_pattern = np.zeros((4, 4), bool)
        on_pattern[[0, 1, 2, 3, 3], [0, 1, 2, 0, 3]] = True
        for rates in GRID_RATES + [DecoherenceRates(gamma0=27.86),
                                   DecoherenceRates(1e-6, 2.5e-7)]:
            for dt, n in [(0.1, 9), (0.1, 1), (0.0125, 0), (0.125, 8)]:
                # the n-step map, column j the image of basis matrix j under
                # n four-stage steps, independently of `_rk4_map`
                images = list(basis)
                for _ in range(n):
                    images = [explicit_rk4_step(e, rates, dt) for e in images]
                matrix = np.stack([e.ravel() for e in images], -1)
                assert (matrix[~on_pattern] == 0).all() and matrix[3, 3] == 1
                factors = _rk4_map(rates, dt, n)
                np.testing.assert_allclose(
                    factors, matrix[[0, 1, 2, 3], [0, 1, 2, 0]],
                    rtol=1e-12, atol=0)
                a, c, c2, b = factors
                assert c == c2 and a > 0 and c > 0 and np.isfinite(b)
        # an overflowed map, where infinities met the zeros, has NaN factors
        with np.errstate(over="ignore", invalid="ignore"):
            factors = _rk4_map(DecoherenceRates(gammap=1e10), 0.1, 9)
        assert np.isnan(factors).all()


class TestTransferMap:
    """Ten million cached RK4 steps against the closed form."""

    def test_ten_million_steps_match_closed_form(self):
        # slow rates, so that the state at t = 1e6 ns is far from |down>
        rates = DecoherenceRates(1e-6, 2.5e-7)
        rho0 = imperfect_flip_state(0.3)
        out = evolve_numeric(rho0, rates, 1e6, 0.1)[0]
        ana = analytic_free_evolution(rho0, rates, 1e6)
        assert ana[0, 0].real == pytest.approx(math.exp(-1.0) *
                                               rho0[0, 0].real)
        assert np.max(np.abs(out - ana)) <= 1e-8


class TestRabiPulse:
    PULSE = PulseSpec()
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
        ref = imperfect_flip_state(alpha)
        assert np.max(np.abs(np.diag(out) - np.diag(ref))) < 1e-12
        assert abs(abs(out[0, 1]) - abs(ref[0, 1])) < 1e-12

    @settings(max_examples=50)
    @given(st.floats(min_value=0.0, max_value=400.0),
           st.floats(min_value=-200.0, max_value=200.0))
    def test_scalar_flip_probability_agrees(self, tau, detuning):
        out = rabi_pulse(self.DOWN, self.PULSE, detuning, tau)
        assert out[0, 0].real == pytest.approx(rabi_transfer(
            *rabi_factors(self.PULSE.omega0, detuning), tau), abs=1e-12)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            rabi_pulse(self.DOWN, self.PULSE, 0.0, -1.0)

    @pytest.mark.parametrize("detuning", [0.0, 5.0, -40.0, 127.0])
    def test_driven_oracle_matches_flip_probability(self, detuning):
        # the exact propagator of the driven master equation, at zero rates
        omega0 = self.PULSE.omega0
        h = 0.5 * omega0 * SIGMA_X + 0.5 * detuning * SIGMA_Z
        for tau in (13.3, 70.0, 140.0, 300.0):
            out = driven_evolution(self.DOWN, DecoherenceRates(0.0, 0.0), h,
                                   tau)
            assert out[0, 0].real == pytest.approx(rabi_transfer(
                *rabi_factors(omega0, detuning), tau), abs=1e-12)

    def test_driven_oracle_without_drive_is_free_decay(self):
        rho0 = imperfect_flip_state(0.3)
        out = driven_evolution(rho0, RATES, np.zeros((2, 2)), 500.0)
        ana = analytic_free_evolution(rho0, RATES, 500.0)
        assert np.max(np.abs(out - ana)) <= 1e-12


class TestPulseSpec:
    def test_duration_bounds(self):
        with pytest.raises(ValueError):
            PulseSpec(omega0=1.0, duration=0.0)
        with pytest.raises(ValueError):
            PulseSpec(omega0=-1.0)


class TestFig2:
    def test_no_coherence_for_perfect_flip(self):
        ts = fig2_timeseries(0.0, RATES)
        assert np.max(ts["P2"]) == 0.0

    def test_populations_sum_to_one(self):
        ts = fig2_timeseries(0.13, RATES)
        assert np.max(np.abs(ts["P1"] + ts["P3"] - 1.0)) < 1e-9


class TestCoherenceDecayFit:
    @pytest.mark.parametrize("gammap", [0.01, 0.04, 0.1])
    def test_fitted_rate(self, gammap):
        rates = DecoherenceRates(gamma0=4e-4, gammap=gammap)
        dt = 0.1 / rates.coherence_rate
        times = np.arange(0.0, 3.0 / rates.coherence_rate + 0.5 * dt, dt)
        rho = analytic_free_evolution(imperfect_flip_state(0.1), rates, times)
        slope = np.polyfit(times, np.log(np.abs(rho[:, 0, 1])), 1)[0]
        assert -slope == pytest.approx(rates.coherence_rate, rel=5e-3)
