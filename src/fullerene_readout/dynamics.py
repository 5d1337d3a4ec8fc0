"""
Open-system dynamics of the mobile (outside) spin.

Covers the field-free phenomenological master equation with relaxation rate
gamma0 and dephasing rate gammap (analytic closed form, and a fixed-step RK4
integrator whose cached transfer map is four real factors, so the end state
or a sampled trajectory is ufunc accumulations of them), the post-pulse
imperfect-flip state produced by dwell-time jitter,
the closed-form transfer probability of a detuned rotating-frame Rabi pulse,
and fig2's analytic columns.

Basis: index 0 = |up>, index 1 = |down>. The dephasing operator is the Pauli
sigma_z (eigenvalues +/-1), so the coherence dephases at gamma0/2 + 4*gammap.
Frequencies are ordinary MHz, times ns; angular factors 2*pi/1000 appear at
the point of use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure, require
from .spin_core import MAX_MHZ

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T

@dataclass(frozen=True)
class DecoherenceRates:
    """Lindblad rates in 1/ns.

    gamma0 is the relaxation (T1-type) rate of the outside spin and gammap
    the pure-dephasing (T2-type) rate.
    """

    gamma0: float = 4e-4   # 1/T1_out, default T1_out = 2500 ns
    gammap: float = 0.04   # dephasing, default 1/gammap = 25 ns

    def __post_init__(self):
        require(self.gamma0 >= 0, "gamma0", "must be non-negative")
        require(self.gammap >= 0, "gammap", "must be non-negative")

    @property
    def coherence_rate(self) -> float:
        """Decay rate of the off-diagonal element, 1/ns."""
        return self.gamma0 / 2.0 + 4.0 * self.gammap


@dataclass(frozen=True)
class PulseSpec:
    """A rectangular ESR pulse in the repetition train: the `pulse` config
    section. omega0 is the Rabi amplitude (MHz), pi-time 500/omega0 ns; None
    calibrates it so that a full-length resonant pulse is a pi pulse. The
    pulse repeats every `TunnelingParams.cycle_period`. Its carrier is no
    field: `protocol.run_window` tunes it to the inside state.
    """

    omega0: float | None = None
    duration: float = 140.0   # ns

    def __post_init__(self):
        require(self.duration > 0, "duration", "must be positive")
        if self.omega0 is None:
            object.__setattr__(self, "omega0", 500.0 / self.duration)
        require(0 <= self.omega0 <= MAX_MHZ, "omega0",
                f"must lie in [0, {MAX_MHZ:g}] MHz (null: 500 / duration)")

    @classmethod
    def calibrated(cls, _carrier=None, **kwargs) -> "PulseSpec":
        return cls(**kwargs)   # perfbench's tests still pass a carrier


def imperfect_flip_state(alpha: float) -> np.ndarray:
    """Pure post-pulse state for a dwell time t0*(1 + alpha),
    -i cos(alpha*pi/2)|up> - sin(alpha*pi/2)|down>. A dwell of t0*(1 - alpha)
    only flips the sign of rho_ud, which fig2 does not write."""
    require(0 <= alpha < 1, "alpha", "must lie in [0, 1)")
    psi = np.array([-1j * math.cos(alpha * math.pi / 2),
                    -math.sin(alpha * math.pi / 2)], dtype=complex)
    return np.outer(psi, psi.conj())


def lindblad_rhs(rho: np.ndarray, rates: DecoherenceRates) -> np.ndarray:
    """Right-hand side of the field-free master equation, 1/ns.

    (gamma0/2)(2 s- rho s+ - s+ s- rho - rho s+ s-) - gammap [sz, [sz, rho]],
    with rho the 2x2 state of the outside spin alone.
    """
    if rho.shape != (2, 2):
        raise ValueError("density matrix must be the 2x2 outside-spin state")
    sm, sp, sz = SIGMA_MINUS, SIGMA_PLUS, SIGMA_Z
    n = sp @ sm
    out = rates.gamma0 / 2.0 * (2.0 * (sm @ rho @ sp) - n @ rho - rho @ n)
    inner = sz @ rho - rho @ sz
    out -= rates.gammap * (sz @ inner - inner @ sz)
    return out


def analytic_free_evolution(rho0: np.ndarray, rates: DecoherenceRates,
                            t: float | np.ndarray) -> np.ndarray:
    """Closed-form solution of the field-free master equation.

    rho_uu(t) = rho_uu(0) e^{-gamma0 t}, rho_dd = 1 - rho_uu,
    rho_ud(t) = rho_ud(0) e^{-(gamma0/2 + 4 gammap) t}.
    t may be an array of times; the result then has shape t.shape + (2, 2).
    A decay is 1 where the rate or t is 0, even at t = inf or an infinite
    rate, and 0 where rate * t overflows: its exact limit, with no warning.
    """
    t = np.asarray(t, dtype=float)
    require((t >= 0).all(), "t", "must be non-negative")
    if rho0.shape != (2, 2):
        raise ValueError("analytic solution is for the reduced 2x2 state")
    with np.errstate(over="ignore", invalid="ignore"):
        p_up, coh = (np.where((t == 0) | (rate == 0), 1.0, np.exp(-rate * t))
                     for rate in (rates.gamma0, rates.coherence_rate))
    p_up, coh = rho0[0, 0].real * p_up, rho0[0, 1] * coh
    return np.stack([np.stack([p_up, coh], -1),
                     np.stack([coh.conjugate(), 1.0 - p_up], -1)], -2)


@functools.lru_cache(maxsize=16)
def _rk4_map(rates: DecoherenceRates, dt: float, n: int = 1) -> np.ndarray:
    """n RK4 steps of dt of the master equation as the real factors
    (a, c, c, b) of its matrix on vec(rho) = (uu, ud, du, dd), read-only and
    cached: every fig2 trajectory steps its samples with the same two maps.

    The generator is linear and time-independent, so its 4x4 matrix L comes
    from `lindblad_rhs` applied to the four basis matrices, and one RK4 step
    is exactly sum_{k<=4} (dt L)^k / k!. L only decays uu into dd and scales
    ud and du alike, so the n-step matrix is four real factors and zeros:
    uu <- a uu, dd <- dd + b uu (its [3, 3] entry is exactly 1), ud <- c ud
    and du <- c du. Only a map that overflowed (an infinity met its zeros)
    breaks that pattern; its factors are NaN.
    """
    basis = np.eye(4, dtype=complex).reshape(-1, 2, 2)
    dt_gen = dt * np.stack([lindblad_rhs(e, rates).ravel() for e in basis], -1)
    term = step = np.eye(4, dtype=complex)
    for k in range(1, 5):
        term = term @ dt_gen / k
        step = step + term
    power = np.linalg.matrix_power(step, n)
    factors = power.real[[0, 1, 2, 3], [0, 1, 2, 0]]
    pattern = np.diag(np.r_[factors[:3], 1.0])
    pattern[3, 0] = factors[3]
    if not np.array_equal(power, pattern):
        factors[:] = np.nan
    factors.setflags(write=False)
    return factors


def evolve_numeric(rho0: np.ndarray, rates: DecoherenceRates, t: float,
                   dt: float, samples: int | None = None) -> np.ndarray:
    """Fixed-step RK4 integration of the master equation over t ns.

    floor(t / dt) steps of dt, then one step of the remainder when it
    exceeds 1e-12 ns, each a cached map of four real factors (`_rk4_map`):
    the (2, 2) state at t. The state integrated is rho0's Hermitian part
    (rho0 + rho0^H) / 2, taken once, on entry.

    With `samples=n`, returns the (n, 2, 2) states at t/n, 2t/n, ..., t
    instead, each interval h = t/n stepped as a call with t=h steps it, so
    state k equals k chained calls bit for bit. On a Hermitian state each
    map is (uu, Re ud, Im ud) *= (a, c, c), dd += b uu, so every sample is
    `np.multiply.accumulate` and `np.add.accumulate` of those factors, which
    round each product and sum in the chain's order, and is Hermitian.

    Raises NumericFailure at the first sample whose trace drifted by more
    than 1e-6 over its interval, as when the rates overflow, or that is no
    density matrix within 1e-6: a population below -1e-6, or |rho_ud|^2
    above rho_uu * rho_dd + 1e-6, as past RK4's stability edge. A sample
    that fails both is reported as a drift.
    """
    if rho0.shape != (2, 2):
        raise ValueError("density matrix must be the 2x2 outside-spin state")
    require(0 < dt < math.inf, "dt", "must be positive and finite")
    require(0 <= t < math.inf, "t", "must be non-negative and finite")
    if not (samples is None or samples >= 1):
        raise ValueError("samples must be positive")
    n = 1 if samples is None else samples
    h = t / n
    require(h // dt < math.inf, "dt", "too small: t / dt overflows")
    n_full = int(h // dt)
    remainder = h - n_full * dt
    rho = rho0.astype(complex)
    rho = 0.5 * (rho + rho.conj().T)
    trace0 = (rho[0, 0] + rho[1, 1]).real
    states = np.empty((n, 2, 2), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        maps = [_rk4_map(rates, dt, n_full)]
        if remainder > 1e-12:
            maps.append(_rk4_map(rates, remainder))
        # one row per map, in the order applied; then (uu, Re ud, Im ud)
        # and dd after each map
        factors = np.tile(np.stack(maps), (n, 1))
        scaled = np.multiply.accumulate(np.r_[
            [[rho[0, 0].real, rho[0, 1].real, rho[0, 1].imag]],
            factors[:, :3]])
        populations = np.add.accumulate(np.r_[
            rho[1, 1].real, scaled[:-1, 0] * factors[:, 3]])
        sampled = slice(len(maps), None, len(maps))
        states[:, 0, 0] = scaled[sampled, 0]
        states[:, 0, 1].real = scaled[sampled, 1]
        states[:, 0, 1].imag = scaled[sampled, 2]
        states[:, 1, 0] = states[:, 0, 1].conj()
        states[:, 1, 1] = populations[sampled]
        # each interval's drift is measured from the state it started at
        uu, dd = states[:, 0, 0].real, states[:, 1, 1].real
        drift = np.abs(np.diff(uu + dd, prepend=trace0))
        physical = ((uu >= -1e-6) & (dd >= -1e-6)
                    & (np.abs(states[:, 0, 1]) ** 2 <= uu * dd + 1e-6))
        bad = np.flatnonzero(~((drift <= 1e-6) & physical))
    if bad.size:
        k = bad[0]
        if not drift[k] <= 1e-6:
            raise NumericFailure(
                f"trace drifted by {drift[k]:.3e} during integration")
        raise NumericFailure(
            "state stopped being a density matrix during integration")
    return states if samples is not None else states[0]


def rabi_factors(omega0, detuning):
    """The detuning-only factors of the pulse's transfer probability
    (omega0^2 / Omega_R^2) * sin^2(pi * Omega_R * tau / 1000), with
    Omega_R = sqrt(omega0^2 + detuning^2): the amplitude (omega0 / Omega_R)^2,
    0 where Omega_R = 0, and the rate pi * Omega_R. A caller that applies one
    line to many durations computes them once."""
    omega_r = np.hypot(omega0, detuning)
    # Omega_R = 0 only when omega0 = 0, so any nonzero divisor gives 0 there.
    ratio = omega0 / np.where(omega_r == 0.0, 1.0, omega_r)
    return ratio ** 2, np.pi * omega_r


def rabi_transfer(amplitude, rate, effective_duration):
    """The |up> population after a rotating-frame pulse of effective
    duration tau ns from |down>, with no dissipation during the pulse:
    amplitude * sin^2(rate * tau / 1000), from `rabi_factors`. Arguments may
    be scalars or broadcastable arrays."""
    return amplitude * np.sin(rate * effective_duration / 1000.0) ** 2


def fig2_timeseries(alpha: float, rates: DecoherenceRates) -> dict:
    """Free decay of the imperfect-flip state every 1 ns over 0..1000 ns:
    fig2's analytic columns, t_ns, P1 = rho_uu, P2 = |rho_ud| and
    P3 = rho_dd."""
    times = np.arange(0.0, 1000.5, 1.0)
    rho = analytic_free_evolution(imperfect_flip_state(alpha), rates, times)
    return {"t_ns": times, "P1": rho[:, 0, 0].real,
            "P2": np.abs(rho[:, 0, 1]), "P3": rho[:, 1, 1].real}
