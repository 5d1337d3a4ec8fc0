import hashlib
import itertools
import math
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from fullerene_readout.dynamics import (DecoherenceRates, PulseSpec,
                                        analytic_free_evolution,
                                        rabi_factors, rabi_transfer)
from fullerene_readout.errors import NumericFailure
from fullerene_readout.protocol import (_BLOCK, EVENT_COLUMNS, CurrentTrace,
                                        InsideSpinState, TunnelEvents,
                                        TunnelingParams, _draw_dwell,
                                        _outcomes, _sure_pass, classify,
                                        fidelity_sweep,
                                        leak_resonance_frequency,
                                        outside_flip_frequency,
                                        resonance_frequency, run_window,
                                        sweep_states, write_events_csv)
from fullerene_readout.records import RecordWriter
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


def outer_pulse():
    return PulseSpec()


def window_events(params, n, seed, state=OUTER_UP, rates=RATES):
    """Event columns of an n-electron window."""
    trace, events = collect_events(
        run_window, state, outer_pulse(), SYS,
        replace(params, window=n * params.cycle_period), rates, seed)
    assert trace.n_cycles == n
    return events


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
        trace, events = collect_events(run_window, OUTER_UP, outer_pulse(),
                                       SYS, MS_WINDOW, RATES, 0)
        for record in (eigenenergies(SYS)[0], transition_table(SYS)[0],
                       events, trace, classify(trace, MS_WINDOW, OUTER_UP)):
            for name in (*record._fields, "extra"):
                with pytest.raises(AttributeError):
                    setattr(record, name, 0)


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
            run_window(OUTER_UP, replace(outer_pulse(), duration=200.0), SYS,
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
        a = collect_events(run_window, OUTER_UP, outer_pulse(), SYS, params,
                           RATES, 3)
        b = collect_events(run_window, OUTER_UP, outer_pulse(), SYS, params,
                           RATES, 3)
        assert a[0] == b[0]
        for name in TunnelEvents._fields:
            x, y = getattr(a[1], name), getattr(b[1], name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name
        c = collect_events(run_window, OUTER_UP, outer_pulse(), SYS, params,
                           RATES, 4)
        for name in ("dwell", "passed"):
            assert not np.array_equal(getattr(c[1], name),
                                      getattr(a[1], name)), name

    def test_blockade_audit(self):
        params = replace(MS_WINDOW, alpha=0.15, window=1e5)
        trace, ev = collect_events(run_window, OUTER_UP, outer_pulse(), SYS,
                                   params, RATES, 1)
        assert all(len(col) == trace.n_cycles for col in (
            ev.dwell, ev.spin_up, ev.flip_prob, ev.passed))
        assert np.array_equal(ev.cycle, np.arange(trace.n_cycles))
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
        path = tmp_path / "events.csv"
        with RecordWriter(path, EVENT_COLUMNS) as log:
            trace = run_window(OUTER_UP, outer_pulse(), SYS, params, RATES, 2,
                               partial(write_events_csv, log))
        _, ev = collect_events(run_window, OUTER_UP, outer_pulse(), SYS,
                               params, RATES, 2)
        assert log.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
        lines = path.read_text().splitlines()
        assert lines[0] == "cycle,dwell_ns,spin_in,flip_prob,passed"
        assert len(lines) == trace.n_cycles + 1
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(trace.n_cycles))
        assert [float(r[1]) for r in rows] == pytest.approx(ev.dwell,
                                                            rel=1e-11)
        assert [r[2] == "up" for r in rows] == ev.spin_up.tolist()
        assert [float(r[3]) for r in rows] == pytest.approx(ev.flip_prob,
                                                            rel=1e-11)
        assert [r[4] for r in rows] == [str(int(p)) for p in ev.passed]


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

    def test_overflow_on_a_line_no_electron_takes(self):
        # tau = 4e305 ns: the interrogated line's phase stays finite, the
        # leak line's overflows. Only a leaked electron may fail the window.
        params = TunnelingParams(t0=1.0, cycle_period=4e305, window=4e307)
        pulse = PulseSpec(duration=4e305)
        self.assert_same_window(OUTER_UP, pulse, params, seed=0)
        leaky = replace(params, p_leak_source=0.5)
        for run in (run_window, run_window_reference):
            with pytest.raises(NumericFailure, match="pulse phase overflows"):
                run(OUTER_UP, pulse, SYS, leaky, RATES, 0)

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

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_phase_overflow_is_numeric_failure(self, alpha):
        # dwell * duration overflows on both lines, with constant dwell and
        # with jitter alike; no RuntimeWarning may escape first
        params = TunnelingParams(t0=1e300, cycle_period=1e300, window=1e300,
                                 alpha=alpha)
        pulse = PulseSpec(duration=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericFailure, match="pulse phase overflows"):
                run_window(OUTER_DOWN, pulse, SYS, params, RATES, 0)


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

    def test_jittered_overflow_on_a_line_no_electron_takes(self):
        # dwell ~ 1 +/- 0.05 ns: the off state's interrogated line keeps a
        # finite phase, the leak line's overflows, and most electrons pass
        # unevaluated
        params = TunnelingParams(t0=1.0, alpha=0.01, cycle_period=3.5e305,
                                 window=4e307)
        pulse = PulseSpec(duration=3.5e305)
        TestStreamGuard.assert_same_window(OUTER_DOWN, pulse, params, seed=0)
        leaky = replace(params, p_leak_source=0.5)
        for run in (run_window, run_window_reference):
            with pytest.raises(NumericFailure, match="pulse phase overflows"):
                run(OUTER_DOWN, pulse, SYS, leaky, RATES, 0)


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
            trace = run_window(OUTER_UP, outer_pulse(), SYS, params, RATES,
                               seed=0)
            results[leak] = classify(trace, params, OUTER_UP)
        assert results[0.05].contrast < results[0.0].contrast
        assert results[0.05].classified.m1 == results[0.0].classified.m1 == 1.5

    @pytest.mark.parametrize("alphas, leaks, option", [
        ([0.1, 0.1], [0.0], "alphas"), ([0.1], [0, 0.0], "leaks")],
        ids=["alphas", "leaks"])
    def test_repeated_value_rejected(self, alphas, leaks, option,
                                     monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("run_window reached")

        monkeypatch.setattr("fullerene_readout.protocol.run_window", never)
        with pytest.raises(ValueError,
                           match=f"^sweep.{option}: must not repeat"):
            fidelity_sweep("both", SYS, RATES, alphas, leaks, 1, 0)

    def test_signed_zero_is_zero(self):
        # a 10-electron window at alpha 0.5 misclassifies often, so a grid
        # value drawn from another seed would show in the counts
        tun = TunnelingParams(window=1500.0)
        # a tuple, not a dict keyed by leak: 0.0 and -0.0 are one dict key
        zero, negative_zero = (
            fidelity_sweep("outer", SYS, RATES, [0.5], [leak], trials=200,
                           seed=0, tunneling=tun) for leak in (0.0, -0.0))
        assert negative_zero["misclassified"] == zero["misclassified"]
        assert any(zero["misclassified"])
        assert all(math.copysign(1.0, p) == 1.0
                   for p in negative_zero["p_leak"])
        alpha = fidelity_sweep("outer", SYS, RATES, [-0.0], [0.0], 1, 0,
                               tunneling=tun)["alpha"][0]
        assert math.copysign(1.0, alpha) == 1.0

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
