import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from fullerene_readout.dynamics import (DecoherenceRates, PulseSpec,
                                        analytic_free_evolution,
                                        evolve_numeric, flip_probability)
from fullerene_readout.protocol import (CurrentTrace, InsideSpinState,
                                        TunnelingParams, classify,
                                        fidelity_sweep,
                                        leak_resonance_frequency,
                                        outside_flip_frequency,
                                        resonance_frequency, run_window,
                                        sweep_states, write_events_csv)
from fullerene_readout.spin_core import SystemParams
from reference import SIGMA_X, rabi_pulse

SYS = SystemParams(nu1=10000.0, nu2=10063.5, J=50.0)
RATES = DecoherenceRates()
OUTER_UP = InsideSpinState(1.5, "outer")
OUTER_DOWN = InsideSpinState(-1.5, "outer")
INNER_UP = InsideSpinState(0.5, "inner")
MS_WINDOW = TunnelingParams(window=1e6)  # 6666 cycles


def outer_pulse():
    return PulseSpec.calibrated(resonance_frequency(OUTER_UP, SYS))


def window_events(params, n, seed, state=OUTER_UP, rates=RATES):
    """Event columns of an n-electron window."""
    trace = run_window(state, outer_pulse(), SYS,
                       replace(params, window=n * params.cycle_period),
                       rates, seed=seed, collect_events=True)
    assert trace.n_cycles == n
    return trace.events


class TestSampleDwell:
    """The dwell column of the array sampler."""

    def test_zero_alpha_is_exact(self):
        ev = window_events(TunnelingParams(alpha=0.0), 100, seed=0)
        assert np.all(ev.dwell == 150.0)

    def test_statistics(self):
        # headroom above t0 so truncation does not bias the draw
        params = TunnelingParams(alpha=0.1, cycle_period=1500.0)
        draws = window_events(params, 100_000, seed=123).dwell
        assert draws.mean() == pytest.approx(150.0, abs=0.15)
        assert draws.std() == pytest.approx(15.0, abs=0.5)

    def test_bounded_by_cycle(self):
        params = TunnelingParams(alpha=0.3)
        d = window_events(params, 10_000, seed=5).dwell
        assert np.all((0.0 < d) & (d <= params.cycle_period))

    def test_deterministic_for_fixed_seed(self):
        params = TunnelingParams(alpha=0.1)
        a = window_events(params, 1000, seed=42).dwell
        for _ in range(3):
            assert np.array_equal(window_events(params, 1000, seed=42).dwell,
                                  a)


class TestSourceEmit:
    """The spin column of the array sampler."""

    def test_perfect_filter(self):
        ev = window_events(TunnelingParams(), 1000, seed=0)
        assert not ev.spin_up.any()

    def test_leak_fraction(self):
        params = TunnelingParams(p_leak_source=0.05)
        ups = window_events(params, 100_000, seed=9).spin_up
        assert ups.mean() == pytest.approx(0.05, abs=0.003)


class TestFrequencies:
    def test_interrogation_rows(self):
        assert resonance_frequency(OUTER_UP, SYS) == pytest.approx(20202.0)
        assert resonance_frequency(INNER_UP, SYS) == pytest.approx(20152.0)

    def test_negative_state_interrogates_positive_row(self):
        assert resonance_frequency(OUTER_DOWN, SYS) == pytest.approx(
            20202.0)

    def test_uncoupled_frequencies_coincide(self):
        p = SystemParams(nu1=10000.0, nu2=10063.5, J=0.0)
        assert resonance_frequency(OUTER_UP, p) == resonance_frequency(
            InsideSpinState(0.5, "inner"), p)

    def test_leak_resonance_is_far_detuned(self):
        for state in (OUTER_UP, INNER_UP):
            detuning = (resonance_frequency(state, SYS)
                        - leak_resonance_frequency(SYS))
            assert detuning >= 2 * SYS.delta - 1e-9


class TestInsideSpinState:
    def test_encoding_consistency(self):
        with pytest.raises(ValueError, match=r"^m1: must be \+/-0.5 for "
                           "encoding 'inner'$"):
            InsideSpinState(1.5, "inner")
        with pytest.raises(ValueError, match=r"^m1: must be \+/-1.5 for "
                           "encoding 'outer'$"):
            InsideSpinState(0.5, "outer")
        with pytest.raises(ValueError,
                           match="^encoding: must be 'outer' or 'inner'$"):
            InsideSpinState(1.5, "sideways")


class TestElectronCycle:
    """Per-electron outcomes of the array sampler."""

    def test_resonant_perfect_pulse_blocks(self):
        # gamma0 = 0 so the residual dwell cannot repopulate |down>
        ev = window_events(TunnelingParams(alpha=0.0), 200, seed=0,
                           rates=DecoherenceRates(0.0, RATES.gammap))
        assert not ev.spin_up.any()
        assert ev.flip_prob == pytest.approx(np.ones(200))
        assert not ev.passed.any()

    def test_off_resonant_state_transmits(self):
        ev = window_events(TunnelingParams(alpha=0.0), 2000, seed=0,
                           state=OUTER_DOWN)
        cap = outer_pulse().omega0 ** 2 / (outer_pulse().omega0 ** 2 + 150 ** 2)
        assert np.all(ev.flip_prob <= cap + 1e-12)
        assert ev.passed.sum() >= 0.999 * ev.passed.size

    def test_matrix_path_agreement(self):
        # the array bookkeeping must reproduce rabi_pulse followed by
        # analytic_free_evolution
        pulse = outer_pulse()
        params = TunnelingParams(alpha=0.2)
        down = np.diag([0.0, 1.0]).astype(complex)
        dwell, m1 = (a.ravel() for a in np.meshgrid(
            [30.0, 120.0, 145.0, 150.0], [1.5, -1.5]))
        detuning = pulse.frequency - outside_flip_frequency(SYS, m1)
        eff = dwell * pulse.duration / params.t0
        flip = flip_probability(pulse.omega0, detuning, eff)
        for i in range(dwell.size):
            rho = rabi_pulse(down, pulse, detuning[i], eff[i])
            # flip_prob is pre-decoherence transfer probability
            assert flip[i] == pytest.approx(rho[0, 0].real, abs=1e-12)
            rho = analytic_free_evolution(
                rho, RATES, max(dwell[i] - pulse.duration, 0.0))
            assert (1.0 - rho[0, 0].real) > 0.0

    def test_requires_carrier(self):
        with pytest.raises(ValueError, match="carrier"):
            run_window(OUTER_UP, PulseSpec.calibrated(None), SYS,
                       TunnelingParams(), RATES, 0)
        with pytest.raises(ValueError, match="cycle period"):
            run_window(OUTER_UP, replace(outer_pulse(), duration=200.0), SYS,
                       TunnelingParams(), RATES, 0)


def mean_pass_probability(state, params, rates=RATES):
    """Exact mean drain-pass probability of one electron: quadrature of the
    per-electron pass probability over the dwell density, Normal(t0,
    (alpha t0)^2) truncated to (0, cycle_period], with the closed-form pulse
    and relaxation written out independently of the package."""
    pulse = PulseSpec.calibrated(None)
    carrier = outside_flip_frequency(SYS, state.positive.m1)
    t0, cp, sigma = params.t0, params.cycle_period, params.alpha * params.t0
    if sigma == 0.0:
        dwell, weight = np.array([t0]), np.array([1.0])
    else:
        # Simpson's rule on each side of the pulse end, where the
        # relaxation term has a kink.
        xs, ws = [], []
        for lo, hi in ((0.0, pulse.duration), (pulse.duration, cp)):
            x = np.linspace(lo, hi, 4001)
            w = np.where(np.arange(x.size) % 2 == 1, 4.0, 2.0)
            w[0] = w[-1] = 1.0
            xs.append(x)
            ws.append(w * (hi - lo) / (3 * (x.size - 1)))
        dwell = np.concatenate(xs)
        weight = np.concatenate(ws) * np.exp(-0.5 * ((dwell - t0) / sigma) ** 2)
        weight /= weight.sum()
    tau = dwell * pulse.duration / t0
    decay = np.exp(-rates.gamma0 * np.maximum(dwell - pulse.duration, 0.0))
    p_pass = 0.0
    for spin_up, share in ((False, 1.0 - params.p_leak_source),
                           (True, params.p_leak_source)):
        det = carrier - (leak_resonance_frequency(SYS) if spin_up
                         else outside_flip_frequency(SYS, state.m1))
        omega_r = math.hypot(pulse.omega0, det)
        flip = ((pulse.omega0 / omega_r) ** 2
                * np.sin(math.pi * omega_r * tau / 1000.0) ** 2)
        p_up = (1.0 - flip if spin_up else flip) * decay
        p_pass += share * np.dot(weight, 1.0 - (1.0 - params.p_leak_drain)
                                 * p_up)
    return float(p_pass)


class TestExactDistribution:
    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.2])
    @pytest.mark.parametrize("leak", [0.0, 0.05])
    def test_counts_within_six_sigma_of_exact_mean(self, alpha, leak):
        params = replace(MS_WINDOW, alpha=alpha, p_leak_source=leak,
                         p_leak_drain=leak)
        for state in sweep_states("both"):
            pulse = PulseSpec.calibrated(
                outside_flip_frequency(SYS, state.positive.m1))
            p = mean_pass_probability(state, params)
            for seed in range(3):
                trace = run_window(state, pulse, SYS, params, RATES, seed)
                n = trace.n_cycles
                sigma = math.sqrt(n * p * (1.0 - p))
                assert abs(trace.n_passed - n * p) <= 6.0 * sigma, (
                    state, seed, trace.n_passed, n * p)

    def test_quadrature_matches_small_alpha_law(self):
        # on resonance, E[sin^2(pi (tau - t0) / (2 t0))] ~ pi^2 alpha^2 / 4
        params = TunnelingParams(alpha=0.05)
        p = mean_pass_probability(OUTER_UP, params,
                                  DecoherenceRates(0.0, RATES.gammap))
        assert p == pytest.approx(math.pi ** 2 * 0.05 ** 2 / 4, rel=0.02)


class TestRunWindow:
    def test_cycle_count_default_window(self):
        trace = run_window(OUTER_UP, outer_pulse(), SYS, TunnelingParams(),
                           RATES, seed=0)
        assert trace.n_cycles == 66_666

    def test_blocked_window(self):
        trace = run_window(OUTER_UP, outer_pulse(), SYS, MS_WINDOW,
                           DecoherenceRates(0.0, RATES.gammap), seed=0)
        assert trace.n_passed == 0

    def test_nearly_blocked_with_relaxation(self):
        # residual-dwell relaxation leaks ~ gamma0 * 10 ns per cycle
        trace = run_window(OUTER_UP, outer_pulse(), SYS, MS_WINDOW, RATES,
                           seed=0)
        assert trace.n_passed < 0.01 * trace.n_cycles

    def test_transmitting_window(self):
        trace = run_window(OUTER_DOWN, outer_pulse(), SYS, MS_WINDOW, RATES,
                           seed=0)
        assert trace.n_passed >= 0.999 * trace.n_cycles

    def test_determinism(self):
        params = replace(MS_WINDOW, alpha=0.1, p_leak_source=0.02,
                         p_leak_drain=0.02)
        a = run_window(OUTER_UP, outer_pulse(), SYS, params, RATES, seed=3,
                       collect_events=True)
        b = run_window(OUTER_UP, outer_pulse(), SYS, params, RATES, seed=3,
                       collect_events=True)
        assert a == b
        c = run_window(OUTER_UP, outer_pulse(), SYS, params, RATES, seed=4)
        assert c.n_passed != a.n_passed or c.seed != a.seed

    def test_blockade_audit(self):
        params = replace(MS_WINDOW, alpha=0.15, window=1e5)
        trace = run_window(OUTER_UP, outer_pulse(), SYS, params, RATES,
                           seed=1, collect_events=True)
        ev = trace.events
        assert all(len(col) == trace.n_cycles for col in (
            ev.dwell, ev.spin_up, ev.flip_prob, ev.passed))
        assert np.all((0 < ev.dwell) & (ev.dwell <= params.cycle_period))
        assert ev.passed.sum() == trace.n_passed

    def test_on_resonance_transmission_small_alpha(self):
        # E[sin^2(pi (tau - t0) / (2 t0))] ~ pi^2 alpha^2 / 4
        params = replace(TunnelingParams(alpha=0.1), window=2e7)
        trace = run_window(OUTER_UP, outer_pulse(), SYS, params, RATES,
                           seed=0)
        assert trace.n_cycles >= 100_000
        expected = math.pi ** 2 * 0.01 / 4
        assert trace.n_passed / trace.n_cycles == pytest.approx(
            expected, rel=0.15)

    def test_events_csv(self, tmp_path):
        params = replace(MS_WINDOW, window=1e4, alpha=0.1)
        trace = run_window(OUTER_UP, outer_pulse(), SYS, params, RATES,
                           seed=2, collect_events=True)
        path = tmp_path / "events.csv"
        digest = write_events_csv(trace, path)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        lines = path.read_text().splitlines()
        assert lines[0] == "cycle,dwell_ns,spin_in,flip_prob,passed"
        assert len(lines) == trace.n_cycles + 1
        rows = [line.split(",") for line in lines[1:]]
        ev = trace.events
        assert [int(r[0]) for r in rows] == list(range(trace.n_cycles))
        assert [float(r[1]) for r in rows] == pytest.approx(ev.dwell,
                                                            rel=1e-11)
        assert [r[2] == "up" for r in rows] == ev.spin_up.tolist()
        assert [float(r[3]) for r in rows] == pytest.approx(ev.flip_prob,
                                                            rel=1e-11)
        assert [r[4] for r in rows] == [str(int(p)) for p in ev.passed]
        with pytest.raises(ValueError):
            write_events_csv(replace(trace, events=None), path)


class TestClassify:
    def test_suppressed_current_is_positive_state(self):
        trace = CurrentTrace(n_cycles=66_666, n_passed=5, events=None, seed=0)
        result = classify(trace, TunnelingParams(), "outer")
        assert result.classified.m1 == 1.5
        assert result.contrast == pytest.approx(0.99985, abs=1e-5)

    def test_full_current_is_negative_state(self):
        trace = CurrentTrace(n_cycles=1000, n_passed=1000, events=None,
                             seed=0)
        result = classify(trace, TunnelingParams(), "outer")
        assert result.classified.m1 == -1.5
        assert result.contrast == 0.0

    def test_threshold_tie_breaks_negative(self):
        trace = CurrentTrace(n_cycles=1000, n_passed=500, events=None, seed=0)
        result = classify(trace, TunnelingParams(), "inner")
        assert result.classified.m1 == -0.5

    def test_leak_shifts_baseline(self):
        params = TunnelingParams(p_leak_source=0.05)
        trace = CurrentTrace(n_cycles=1000, n_passed=0, events=None, seed=0)
        assert classify(trace, params, "outer").baseline == 950.0

    def test_empty_trace_rejected(self):
        trace = CurrentTrace(n_cycles=0, n_passed=0, events=None, seed=0)
        with pytest.raises(ValueError):
            classify(trace, TunnelingParams(), "outer")

    def test_unknown_encoding_names_field(self):
        trace = CurrentTrace(n_cycles=1000, n_passed=0, events=None, seed=0)
        with pytest.raises(ValueError, match=r"^encoding: "):
            classify(trace, TunnelingParams(), "sideways")


class TestIdealPulseAssumption:
    """run_window's pulse is the unitary flip_probability. The master
    equation with the drive on shows what that leaves out: at the default
    rates a calibrated resonant pi pulse is overdamped."""

    @pytest.mark.parametrize("gammap, rho_uu", [(0.04, 0.1699),
                                                (0.004, 0.6328),
                                                (0.0004, 0.9273)])
    def test_damped_pi_pulse_transfer(self, gammap, rho_uu):
        pulse = PulseSpec.calibrated(None)
        down = np.diag([0.0, 1.0]).astype(complex)
        out = evolve_numeric(down, DecoherenceRates(4e-4, gammap),
                             0.5 * pulse.omega0 * SIGMA_X, pulse.duration,
                             0.05)
        assert out[0, 0].real == pytest.approx(rho_uu, abs=1e-3)
        assert flip_probability(pulse.omega0, 0.0, pulse.duration) == (
            pytest.approx(1.0))


class TestFidelitySweep:
    def test_noiseless_grid_is_perfect(self):
        cells = fidelity_sweep("both", SYS, RATES, [0.0], [0.0], trials=2,
                               seed=0, tunneling=replace(MS_WINDOW,
                                                         window=1e5))
        assert len(cells) == 4
        assert all(c.misclassified == 0 for c in cells)

    def test_monotone_in_alpha(self):
        tun = replace(MS_WINDOW, window=1e5)
        cells = fidelity_sweep("outer", SYS, RATES, [0.0, 0.05, 0.1, 0.2],
                               [0.0], trials=50, seed=0, tunneling=tun)
        by_state = {}
        for c in cells:
            by_state.setdefault(c.true_state.m1, []).append((c.alpha, c.rate))
        for rows in by_state.values():
            rates_sorted = [r for _, r in sorted(rows)]
            assert rates_sorted == sorted(rates_sorted)

    def test_leak_degrades_contrast_not_classification(self):
        tun = replace(MS_WINDOW, alpha=0.0)
        results = {}
        for leak in (0.0, 0.05):
            params = replace(tun, p_leak_source=leak, p_leak_drain=leak)
            trace = run_window(OUTER_UP, outer_pulse(), SYS, params, RATES,
                               seed=0)
            results[leak] = classify(trace, params, "outer")
        assert results[0.05].contrast < results[0.0].contrast
        assert results[0.05].classified.m1 == results[0.0].classified.m1 == 1.5

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            fidelity_sweep("both", SYS, RATES, [], [0.0], 1, 0)
        with pytest.raises(ValueError):
            fidelity_sweep("both", SYS, RATES, [0.0], [0.0], 0, 0)

    def test_unknown_encoding_names_the_field(self):
        with pytest.raises(ValueError, match="^encoding: "):
            sweep_states("sideways")
        with pytest.raises(ValueError, match="^encoding: "):
            fidelity_sweep("sideways", SYS, RATES, [0.0], [0.0], 1, 0)


class TestTunnelingParams:
    def test_invariants(self):
        with pytest.raises(ValueError):
            TunnelingParams(alpha=1.5)
        with pytest.raises(ValueError):
            TunnelingParams(t0=0.0)
        with pytest.raises(ValueError):
            TunnelingParams(p_leak_source=1.0)
        with pytest.raises(ValueError):
            TunnelingParams(t0=200.0, cycle_period=150.0)
        with pytest.raises(ValueError):
            TunnelingParams(window=10.0)
        with pytest.raises(ValueError, match="cycles"):
            TunnelingParams(window=1e300)
