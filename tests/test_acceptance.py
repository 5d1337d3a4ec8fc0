"""
Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to see them).
"""

import contextlib
import hashlib
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fullerene_readout.cli import main as cli_main
from fullerene_readout.dynamics import (DecoherenceRates, PulseSpec,
                                        analytic_free_evolution,
                                        evolve_numeric, fig2_timeseries,
                                        rabi_factors, rabi_transfer)
from fullerene_readout.protocol import (TunnelingParams, classify,
                                        run_window, sweep_states)
from fullerene_readout.spin_core import (MechanicsParams, PhysicalConstants,
                                         SystemParams, eigenenergies,
                                         transition_table, vibration_shift,
                                         zeeman_separation)
from reference import build_hamiltonian

STD = SystemParams(nu1=10000.0, nu2=10063.5, J=50.0)
RATES = DecoherenceRates(gamma0=1 / 2500, gammap=1 / 25)


@contextlib.contextmanager
def criterion(number, name):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL "
              f"({time.monotonic() - start:.2f} s)")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS "
          f"({time.monotonic() - start:.2f} s)")


def random_params(rng):
    return SystemParams(nu1=rng.uniform(1e3, 5e4), nu2=rng.uniform(1e3, 5e4),
                        J=rng.uniform(0.0, 200.0))


def hamiltonian_frequency_oracle(params, row):
    """Transition frequency from the Hamiltonian diagonal, independent of
    the table's closed forms."""
    order = [(m1, m2) for m1 in (1.5, 0.5, -0.5, -1.5)
             for m2 in (0.5, -0.5)]
    diag = np.diag(build_hamiltonian(params)).real
    return abs(diag[order.index(row.initial)] - diag[order.index(row.final)])


def test_criterion_01_table_reproduction():
    with criterion(1, "Table reproduction"):
        start = time.monotonic()
        table = transition_table(STD)
        assert table[0].frequency == pytest.approx(20202.0, rel=1e-9)
        for row in table[4:7]:
            assert row.frequency == pytest.approx(20025.0, rel=1e-9)
        rng = np.random.default_rng(101)
        for _ in range(100):
            p = random_params(rng)
            for row in transition_table(p):
                oracle = hamiltonian_frequency_oracle(p, row)
                assert abs(row.frequency - oracle) <= 1e-9 * oracle
        assert time.monotonic() - start < 1.0


def test_criterion_02_eigenenergy_identity():
    with criterion(2, "Eigenenergy identity"):
        start = time.monotonic()
        rng = np.random.default_rng(102)
        for _ in range(1000):
            p = random_params(rng)
            diag = np.diag(build_hamiltonian(p)).real
            closed = np.array(
                [2 * p.nu1 * lv.m1 + 2 * p.nu2 * lv.m2
                 + p.J * lv.m1 * lv.m2 for lv in eigenenergies(p)])
            scale = np.abs(closed).max()
            assert np.max(np.abs(diag - closed)) <= 1e-9 * scale
        assert time.monotonic() - start < 1.0


def test_criterion_03_anisotropy_invariance():
    with criterion(3, "Anisotropy invariance"):
        start = time.monotonic()
        base = transition_table(STD)
        rng = np.random.default_rng(103)
        for _ in range(100):
            t = transition_table(replace(STD, D2=rng.uniform(-100, 100),
                                         D4=rng.uniform(-10, 10)))
            for b, r in zip(base[:4], t[:4]):
                assert r.frequency == b.frequency   # bitwise
            assert any(r.frequency != b.frequency for b, r in
                       zip(base[4:], t[4:]))
        assert time.monotonic() - start < 1.0


def test_criterion_04_gradient_bound():
    with criterion(4, "Gradient bound"):
        sep = zeeman_separation(PhysicalConstants(), MechanicsParams())
        assert sep == pytest.approx(127.8, rel=0.01)
        assert sep >= 127.0


def test_criterion_05_fig2_properties():
    with criterion(5, "Decay-curve properties"):
        start = time.monotonic()
        target = RATES.gamma0 / 2 + 4 * RATES.gammap
        for alpha in (0.1, 0.2):
            ts = fig2_timeseries(alpha, RATES)
            # (a) exponential rate of the coherence
            mask = ts["P2"] > 1e-300
            slope = np.polyfit(ts["t_ns"][:60][mask[:60]],
                               np.log(ts["P2"][:60][mask[:60]]), 1)[0]
            assert -slope == pytest.approx(target, rel=5e-3)
            # (b) coherence is gone within 50 ns
            i50 = int(np.searchsorted(ts["t_ns"], 50.0))
            assert ts["P2"][i50] / ts["P2"][0] < 4e-4
            # (c) the flip signature survives to 1000 ns
            assert ts["P1"][-1] > ts["P3"][-1]
        ts = fig2_timeseries(0.2, RATES)
        assert ts["P1"][-1] == pytest.approx(0.6063, abs=1e-4)
        assert ts["P3"][-1] == pytest.approx(0.3937, abs=1e-4)
        assert time.monotonic() - start < 5.0


def test_criterion_06_integrator_oracle():
    with criterion(6, "Integrator oracle"):
        start = time.monotonic()
        rng = np.random.default_rng(106)
        for _ in range(100):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rho0 = a @ a.conj().T
            rho0 /= np.trace(rho0)
            rates = DecoherenceRates(gamma0=rng.uniform(0, 0.1),
                                     gammap=rng.uniform(0, 0.1))
            t = rng.uniform(1.0, 50.0)
            num = evolve_numeric(rho0, rates, t, 0.02)
            ana = analytic_free_evolution(rho0, rates, t)
            assert np.max(np.abs(num - ana)) <= 1e-8
            assert abs(np.trace(num).real - 1.0) <= 1e-10
        assert time.monotonic() - start < 30.0


def truth_table(p_leak, alpha=0.1, window=1e6, seeds=range(20)):
    """Run every true state x encoding x seed; return per-case results."""
    params = TunnelingParams(alpha=alpha, p_leak_source=p_leak,
                             p_leak_drain=p_leak, window=window)
    cases = []
    for state in sweep_states("both"):
        pulse = PulseSpec()
        for seed in seeds:
            trace = run_window(state, pulse, STD, params, RATES, seed)
            result = classify(trace, params, state)
            cases.append((state, trace, result))
    return cases


def test_criterion_07_readout_truth_table():
    with criterion(7, "Readout truth table"):
        start = time.monotonic()
        cases = truth_table(p_leak=0.0)
        assert all(r.classified == s for s, _, r in cases)
        on_res = [(t.n_passed, t.n_cycles) for s, t, r in cases if s.m1 > 0]
        transmission = (sum(n for n, _ in on_res)
                        / sum(n for _, n in on_res))
        assert transmission == pytest.approx(math.pi ** 2 * 0.01 / 4,
                                             rel=0.15)
        # the suppressed-current (positive-state) windows keep high contrast
        for s, _, r in cases:
            if s.m1 > 0:
                assert r.contrast > 0.9
        assert time.monotonic() - start < 10.0


def test_criterion_08_leakage_robustness():
    with criterion(8, "Leakage robustness"):
        start = time.monotonic()
        omega0 = PulseSpec().omega0
        # leaked electrons sit >= 2*delta = 127 MHz off resonance
        bound = omega0 ** 2 / (omega0 ** 2 + 127.0 ** 2)
        assert bound <= 8e-4
        factors = rabi_factors(omega0, 127.0)
        for tau in np.linspace(0.0, 300.0, 61):
            assert rabi_transfer(*factors, tau) <= 8e-4
        cases = truth_table(p_leak=0.05)
        assert all(r.classified == s for s, _, r in cases)
        assert time.monotonic() - start < 10.0


def test_criterion_09_mechanics_report():
    with criterion(9, "Mechanics report"):
        shift = vibration_shift(PhysicalConstants(), MechanicsParams())
        assert shift.shift == pytest.approx(2.12e-18, rel=0.01)
        assert shift.shift / 4e-12 < 1e-5


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "Determinism"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tunneling": {"window": 3e5,
                                                 "alpha": 0.1}}))
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            for argv in (["table"],
                         ["readout", "--true-state=-3/2", "--seed", "9"],
                         ["fig2", "--alphas", "0.1"]):
                assert cli_main(argv + ["--config", str(cfg), "--out",
                                        str(out)]) == 0
            digests.append({
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.glob("*.csv"))})
        assert digests[0] and digests[0] == digests[1]
