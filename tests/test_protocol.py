import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fullerene_readout import protocol
from fullerene_readout.dynamics import (DecoherenceRates, PulseSpec,
                                        analytic_free_evolution,
                                        rabi_factors, rabi_transfer)
from fullerene_readout.errors import NumericFailure
from fullerene_readout.protocol import (_BLOCK, CurrentTrace,
                                        InsideSpinState, TunnelEvents,
                                        TunnelingParams, _draw_dwell,
                                        _outcomes, _sure_pass, classify,
                                        fidelity_sweep,
                                        leak_resonance_frequency,
                                        outside_flip_frequency,
                                        resonance_frequency, run_window,
                                        sweep_states)
from fullerene_readout.spin_core import (SystemParams, eigenenergies,
                                        transition_table)
from reference import (SIGMA_X, collect_events, driven_evolution,
                       flip_probability, rabi_pulse, run_window_reference)

SYS = SystemParams(nu1=10000.0, nu2=10063.5, J=50.0)
RATES = DecoherenceRates()
OUTER_UP = InsideSpinState(1.5, "outer")
OUTER_DOWN = InsideSpinState(-1.5, "outer")
INNER_UP = InsideSpinState(0.5, "inner")
MS_WINDOW = TunnelingParams(window=1e6)  # 6666 cycles


def never(*args):
    raise AssertionError("reached past the overflow rule")


class TestSampleDwell:
    """The dwell column of the array sampler."""

    @pytest.mark.parametrize("alpha", [0.1, 0.5])
    @pytest.mark.parametrize("t0", [150.0, 140.0],
                             ids=["t0=cycle", "t0<cycle"])
    def test_truncated_normal_law(self, t0, alpha):
        # Kolmogorov-Smirnov distance of 10^6 draws from the CDF of
        # Normal(t0, (alpha t0)^2) truncated to (0, cycle_period], below its
        # critical value at the 0.001 level
        params = TunnelingParams(t0=t0, alpha=alpha)
        n = 10**6
        dwell = np.sort(_draw_dwell(params, np.random.default_rng(0), n))
        assert 0.0 < dwell[0] and dwell[-1] <= params.cycle_period
        scale = alpha * t0 * math.sqrt(2.0)
        lo = math.erf(-t0 / scale)
        hi = math.erf((params.cycle_period - t0) / scale)
        erf = np.fromiter(map(math.erf, ((dwell - t0) / scale).tolist()),
                          float, n)
        cdf = (erf - lo) / (hi - lo)
        i = np.arange(n)
        distance = max(np.max((i + 1) / n - cdf), np.max(cdf - i / n))
        assert distance < 1.95 / math.sqrt(n)

    def test_half_normal_overflow_is_redrawn_silently(self):
        # sigma |Z| overflows for |Z| > 1.17: that dwell is -inf, redrawn
        params = TunnelingParams(t0=1.7e308, cycle_period=1.7e308,
                                 window=1.7e308, alpha=0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dwell = _draw_dwell(params, np.random.default_rng(0), _BLOCK)
        assert np.all(np.isfinite(dwell))
        assert np.all((0.0 < dwell) & (dwell <= params.cycle_period))


class TestSourceEmit:
    """The spin column of the array sampler."""

    def test_leak_fraction(self):
        params = TunnelingParams(p_leak_source=0.05, window=1.5e7)
        _, ev = collect_events(run_window, OUTER_UP, PulseSpec(), SYS, params,
                               RATES, 9)
        assert ev.spin_up.mean() == pytest.approx(0.05, abs=0.003)


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
        # 2 delta + J (|m1| - 1/2): 77 MHz for outer at J = -50, delta = 63.5
        for J, delta in itertools.product((50.0, -50.0), (63.5, -63.5)):
            sys = replace(SYS, nu2=SYS.nu1 + delta, J=J)
            for state in (OUTER_UP, INNER_UP):
                detuning = (resonance_frequency(state, sys)
                            - leak_resonance_frequency(sys))
                assert detuning == 2 * delta + J * (state.m1 - 0.5)


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


class TestResultRecords:
    def test_results_refuse_assignment(self):
        trace, events = collect_events(run_window, OUTER_UP, PulseSpec(),
                                       SYS, MS_WINDOW, RATES, 0)
        for record in (eigenenergies(SYS)[0], transition_table(SYS)[0],
                       events, trace, classify(trace, MS_WINDOW, OUTER_UP)):
            for name in (*record._fields, "extra"):
                with pytest.raises(AttributeError):
                    setattr(record, name, 0)


class TestElectronCycle:
    """Per-electron outcomes of the array sampler."""

    def test_matrix_path_agreement(self):
        # the array bookkeeping must reproduce rabi_pulse followed by
        # analytic_free_evolution
        pulse = PulseSpec()
        params = TunnelingParams(alpha=0.2)
        down = np.diag([0.0, 1.0]).astype(complex)
        dwell, m1 = (a.ravel() for a in np.meshgrid(
            [30.0, 120.0, 145.0, 150.0], [1.5, -1.5]))
        carrier = resonance_frequency(OUTER_UP, SYS)
        detuning = carrier - outside_flip_frequency(SYS, m1)
        eff = dwell * pulse.duration / params.t0
        flip = rabi_transfer(*rabi_factors(pulse.omega0, detuning), eff)
        for i in range(dwell.size):
            rho = rabi_pulse(down, pulse, detuning[i], eff[i])
            # flip_prob is pre-decoherence transfer probability
            assert flip[i] == pytest.approx(rho[0, 0].real, abs=1e-12)
            rho = analytic_free_evolution(
                rho, RATES, max(dwell[i] - pulse.duration, 0.0))
            assert (1.0 - rho[0, 0].real) > 0.0

    def test_pulse_must_fit_cycle(self):
        # the config's rule and message, kept for callers without a config
        with pytest.raises(ValueError, match="^pulse.duration: exceeds "
                           "tunneling.cycle_period$"):
            run_window(OUTER_UP, replace(PulseSpec(), duration=200.0), SYS,
                       TunnelingParams(), RATES, 0)


def mean_pass_probability(state, params, rates=RATES):
    """Exact mean drain-pass probability of one electron: quadrature of the
    per-electron pass probability over the dwell density, Normal(t0,
    (alpha t0)^2) truncated to (0, cycle_period], with the closed-form pulse
    and relaxation written out independently of the package."""
    pulse = PulseSpec()
    carrier = outside_flip_frequency(SYS, abs(state.m1))
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
            p = mean_pass_probability(state, params)
            for seed in range(3):
                trace = run_window(state, PulseSpec(), SYS, params, RATES,
                                   seed)
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
        trace = run_window(OUTER_UP, PulseSpec(), SYS, TunnelingParams(),
                           RATES, seed=0)
        assert trace.n_cycles == 66_666

    def test_blocked_window(self):
        # gamma0 = 0 so the residual dwell cannot repopulate |down>
        rates = DecoherenceRates(0.0, RATES.gammap)
        trace, ev = collect_events(run_window, OUTER_UP, PulseSpec(), SYS,
                                   MS_WINDOW, rates, 0)
        assert not ev.spin_up.any() and not ev.passed.any()
        assert ev.flip_prob == pytest.approx(np.ones(trace.n_cycles))
        assert trace.n_passed == 0

    def test_transmitting_window(self):
        trace, ev = collect_events(run_window, OUTER_DOWN, PulseSpec(), SYS,
                                   MS_WINDOW, RATES, 0)
        omega0 = PulseSpec().omega0
        assert np.all(ev.flip_prob <= omega0 ** 2 / (omega0 ** 2 + 150 ** 2)
                      + 1e-12)
        assert trace.n_passed >= 0.999 * trace.n_cycles

    def test_determinism(self):
        params = replace(MS_WINDOW, alpha=0.1, p_leak_source=0.02,
                         p_leak_drain=0.02)
        a = collect_events(run_window, OUTER_UP, PulseSpec(), SYS, params,
                           RATES, 3)
        b = collect_events(run_window, OUTER_UP, PulseSpec(), SYS, params,
                           RATES, 3)
        assert a[0] == b[0]
        for name in TunnelEvents._fields:
            x, y = getattr(a[1], name), getattr(b[1], name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name
        c = collect_events(run_window, OUTER_UP, PulseSpec(), SYS, params,
                           RATES, 4)
        for name in ("dwell", "passed"):
            assert not np.array_equal(getattr(c[1], name),
                                      getattr(a[1], name)), name


class TestStreamGuard:
    """run_window draws the same numbers in the same order, and computes the
    same floats, as the per-electron block loop of the reference module."""

    @staticmethod
    def assert_same_window(state, pulse, params, seed, rates=RATES):
        got, got_events = collect_events(run_window, state, pulse, SYS,
                                         params, rates, seed)
        want, want_events = collect_events(run_window_reference, state,
                                           pulse, SYS, params, rates, seed)
        assert got.n_cycles == want.n_cycles
        assert got.n_passed == want.n_passed, (state, params)
        for name in TunnelEvents._fields:
            a, b = getattr(got_events, name), getattr(want_events, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (
                name, state, params)
        assert run_window(state, pulse, SYS, params, rates,
                          seed).n_passed == want.n_passed

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("leak", [0.0, 0.05, 0.3])
    @pytest.mark.parametrize("t0, omega0", [(150.0, None), (140.0, None),
                                            (150.0, 0.0)],
                             ids=["t0=cycle", "t0<cycle", "omega0=0"])
    def test_matches_per_electron_loop(self, alpha, leak, t0, omega0):
        # two blocks, the second partial; dwells up to cycle_period = 150
        params = TunnelingParams(t0=t0, alpha=alpha, p_leak_source=leak,
                                 p_leak_drain=leak,
                                 window=(_BLOCK + 123) * 150.0)
        for state in sweep_states("both"):
            pulse = PulseSpec(omega0=omega0)
            self.assert_same_window(state, pulse, params, seed=17)

    def test_overflowing_relaxation(self):
        # gamma0 * residual dwell overflows to inf; exp(-inf) = 0 is exact,
        # so every electron relaxes to |down> and passes, without a warning
        params = TunnelingParams(t0=1e10, cycle_period=1e10, window=3e10)
        pulse = PulseSpec()
        rates = DecoherenceRates(gamma0=1e300)
        self.assert_same_window(OUTER_UP, pulse, params, 0, rates)
        assert run_window(OUTER_UP, pulse, SYS, params, rates,
                          0).n_passed == 3

    # n_passed as drawn at the per-electron kernel, so that neither the
    # kernel nor its reference can drift with the other.
    @pytest.mark.parametrize("m1, encoding, tunneling, seed, n_passed", [
        (-1.5, "outer", dict(alpha=0.1, p_leak_source=0.05,
                             p_leak_drain=0.05, window=3e7), 3, 190524),
        (1.5, "outer", dict(alpha=0.2, p_leak_source=0.05,
                            p_leak_drain=0.05), 11, 8635),
        (0.5, "inner", dict(alpha=0.0, p_leak_source=0.05,
                            p_leak_drain=0.05), 11, 3626),
        (-0.5, "inner", dict(t0=140.0, cycle_period=150.0, alpha=0.3,
                             p_leak_source=0.3, p_leak_drain=0.3,
                             window=1_002_550.0), 5, 5243)])
    def test_pinned_counts(self, m1, encoding, tunneling, seed, n_passed):
        state = InsideSpinState(m1, encoding)
        pulse = PulseSpec()
        params = TunnelingParams(**tunneling)
        for run in (run_window, run_window_reference):
            assert run(state, pulse, SYS, params, RATES,
                       seed).n_passed == n_passed

    # The pulse-phase overflow rule, checked before a window's first draw: a
    # refused row reaches neither a dwell draw nor `_outcomes`, and an
    # accepted one matches the reference, whose per-block check must not
    # fire, at every seed. tau = 4e305 ns at t0 = 1 ns keeps the +3/2
    # interrogated line's phase finite and overflows the leak line's; the
    # rule checks the leak line only where the source leaks.
    @pytest.mark.parametrize("state, tunneling, duration, seeds, refused", [
        pytest.param(OUTER_UP, dict(t0=1.0, cycle_period=4e305,
                                    window=4e307), 4e305, [0], False,
                     id="leak-line-untaken"),
        pytest.param(OUTER_UP, dict(t0=1.0, cycle_period=4e305, window=4e307,
                                    p_leak_source=0.5), 4e305, [0], True,
                     id="leak-line-taken"),
        # at alpha 0 the longest dwell is t0, not cycle_period
        pytest.param(OUTER_DOWN, dict(t0=1.0, cycle_period=4e305,
                                      window=4e307), 1.0, [0], False,
                     id="constant-dwell"),
        # every drawn dwell, ~1 ns, keeps a finite phase; cycle_period's
        # would not, and no draw decides the outcome
        pytest.param(OUTER_DOWN, dict(t0=1.0, alpha=0.01,
                                      cycle_period=3.5e305, window=4e307),
                     3.5e305, [0], True, id="jittered-longest-dwell"),
        # dwell * duration itself overflows, on both lines
        *(pytest.param(OUTER_DOWN, dict(t0=1e300, cycle_period=1e300,
                                        window=1e300, alpha=alpha),
                       1e300, [0], True, id=f"dwell-times-duration-{alpha}")
          for alpha in (0.0, 0.1)),
        # 114 electrons at leak 0.005: whether one leaks depends on the
        # seed, whether the window is refused does not
        pytest.param(OUTER_UP, dict(t0=1.0, cycle_period=4e305,
                                    window=4.6e307, p_leak_source=0.005),
                     4e305, range(8), True, id="rare-leak")])
    def test_pulse_phase_overflow_rule(self, state, tunneling, duration,
                                       seeds, refused, monkeypatch):
        params = TunnelingParams(**tunneling)
        pulse = PulseSpec(duration=duration)
        if refused:
            monkeypatch.setattr(protocol, "_draw_dwell", never)
            monkeypatch.setattr(protocol, "_outcomes", never)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in seeds:
                if refused:
                    with pytest.raises(NumericFailure, match=(
                            "^pulse phase overflows: the pulse lasts too "
                            "long for its Rabi frequency$")):
                        run_window(state, pulse, SYS, params, RATES, seed)
                else:
                    self.assert_same_window(state, pulse, params, seed)


class TestSurePass:
    """A no-sink jittered window lets a spin-down electron whose drain
    uniform lies below `_sure_pass` of its line's amplitude pass
    unevaluated; that is exact only if no pass probability lies below it."""

    @pytest.mark.parametrize("amplitude", [0.0, 5.7e-4, 5.1e-3, 0.5,
                                           1.0 - 2.0**-53, 1.0])
    def test_spin_down_pass_probability_bounded_below(self, amplitude):
        pulse = PulseSpec()
        # dwells across (0, cycle_period], and dwell == duration, where the
        # relaxation factor is exactly 1
        dwell = np.append(np.linspace(0.0, 150.0, 10_001)[1:],
                          pulse.duration)
        spin_up = np.zeros(dwell.size, bool)
        sure = _sure_pass(amplitude)
        lowest = 1.0
        # t0 < cycle_period over-rotates; at the first rate, the default
        # pulse's on resonance, sin^2 reaches 1
        for t0, gamma0, leak in itertools.product(
                (150.0, 140.0), (0.0, RATES.gamma0), (0.0, 0.05, 0.3)):
            params = TunnelingParams(t0=t0, p_leak_drain=leak)
            rates = DecoherenceRates(gamma0, RATES.gammap)
            for rate in np.pi * np.array([500.0 / 140.0, 500.0 / t0, 150.0,
                                          1234.5]):
                factors = (np.full(2, amplitude), np.full(2, rate))
                _, p_pass = _outcomes(spin_up, dwell, factors, pulse,
                                      params, rates)
                assert p_pass.min() >= sure, (t0, gamma0, leak, rate)
                lowest = min(lowest, p_pass.min())
        # the grid reaches the bound's argument itself
        assert lowest == 1.0 - amplitude


class TestClassify:
    def test_suppressed_current_is_positive_state(self):
        trace = CurrentTrace(n_cycles=66_666, n_passed=5)
        result = classify(trace, TunnelingParams(), OUTER_DOWN)
        assert result.classified.m1 == 1.5
        assert result.contrast == pytest.approx(0.99985, abs=1e-5)

    def test_full_current_is_negative_state(self):
        trace = CurrentTrace(n_cycles=1000, n_passed=1000)
        result = classify(trace, TunnelingParams(), OUTER_UP)
        assert result.classified.m1 == -1.5
        assert result.contrast == 0.0

    def test_threshold_tie_breaks_negative(self):
        trace = CurrentTrace(n_cycles=1000, n_passed=500)
        result = classify(trace, TunnelingParams(), INNER_UP)
        assert result.classified.m1 == -0.5

    def test_leak_shifts_baseline(self):
        params = TunnelingParams(p_leak_source=0.05)
        trace = CurrentTrace(n_cycles=1000, n_passed=0)
        assert classify(trace, params, OUTER_UP).baseline == 950.0

    def test_empty_trace_rejected(self):
        trace = CurrentTrace(n_cycles=0, n_passed=0)
        with pytest.raises(ValueError):
            classify(trace, TunnelingParams(), OUTER_UP)


class TestIdealPulseAssumption:
    """run_window's pulse is the unitary flip_probability. The master
    equation with the drive on (the reference module's exact propagator)
    shows what that leaves out: at the default rates a calibrated resonant
    pi pulse is overdamped."""

    @pytest.mark.parametrize("gammap, rho_uu", [(0.04, 0.1699),
                                                (0.004, 0.6328),
                                                (0.0004, 0.9273)])
    def test_damped_pi_pulse_transfer(self, gammap, rho_uu):
        pulse = PulseSpec()
        down = np.diag([0.0, 1.0]).astype(complex)
        out = driven_evolution(down, DecoherenceRates(4e-4, gammap),
                               0.5 * pulse.omega0 * SIGMA_X, pulse.duration)
        assert out[0, 0].real == pytest.approx(rho_uu, abs=1e-3)
        assert flip_probability(pulse.omega0, 0.0, pulse.duration) == (
            pytest.approx(1.0))


class TestFidelitySweep:
    def test_noiseless_grid_is_perfect(self):
        table = fidelity_sweep("both", SYS, RATES, [0.0], [0.0], trials=2,
                               seed=0, tunneling=replace(MS_WINDOW,
                                                         window=1e5))
        assert table["misclassified"] == [0, 0, 0, 0]

    def test_monotone_in_alpha(self):
        tun = replace(MS_WINDOW, window=1e5)
        table = fidelity_sweep("outer", SYS, RATES, [0.0, 0.05, 0.1, 0.2],
                               [0.0], trials=50, seed=0, tunneling=tun)
        by_state = {}
        for m1, alpha, rate in zip(table["true_m1"], table["alpha"],
                                   table["rate"]):
            by_state.setdefault(m1, []).append((alpha, rate))
        for rows in by_state.values():
            rates_sorted = [r for _, r in sorted(rows)]
            assert rates_sorted == sorted(rates_sorted)

    def test_leak_degrades_contrast_not_classification(self):
        tun = replace(MS_WINDOW, alpha=0.0)
        results = {}
        for leak in (0.0, 0.05):
            params = replace(tun, p_leak_source=leak, p_leak_drain=leak)
            trace = run_window(OUTER_UP, PulseSpec(), SYS, params, RATES,
                               seed=0)
            results[leak] = classify(trace, params, OUTER_UP)
        assert results[0.05].contrast < results[0.0].contrast
        assert results[0.05].classified.m1 == results[0.0].classified.m1 == 1.5

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
