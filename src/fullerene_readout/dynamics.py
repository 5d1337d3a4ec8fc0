"""
Open-system dynamics of the mobile (outside) spin.

Covers the phenomenological master equation with relaxation rate gamma0 and
dephasing rate gammap (analytic closed form, and a fixed-step RK4 integrator
applied as a cached transfer matrix), the post-pulse imperfect-flip state
produced by dwell-time jitter, the closed-form transfer probability of a
detuned rotating-frame Rabi pulse, and the population/coherence time series
used for plotting.

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

# Ordinary-frequency (MHz) times time (ns) to phase (rad).
_PHASE = 2.0 * math.pi / 1000.0


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
    """A rectangular ESR pulse in the repetition train.

    frequency is the carrier (MHz), set per interrogated state: it has no
    default and is no config key. omega0 is the Rabi amplitude (MHz), pi-time
    500/omega0 ns; None calibrates it so that a full-length resonant pulse is
    a pi pulse. The pulse repeats every `TunnelingParams.cycle_period`.
    """

    frequency: float | None
    omega0: float | None = None
    duration: float = 140.0   # ns

    def __post_init__(self):
        require(self.duration > 0, "duration", "must be positive")
        if self.omega0 is None:
            object.__setattr__(self, "omega0", 500.0 / self.duration)
        require(0 <= self.omega0 <= MAX_MHZ, "omega0",
                f"must lie in [0, {MAX_MHZ:g}] MHz (null: 500 / duration)")
        require(self.frequency is None or math.isfinite(self.frequency),
                "frequency", "must be finite")

    @classmethod
    def calibrated(cls, frequency: float | None, **kwargs) -> "PulseSpec":
        """Amplitude chosen so a full-length resonant pulse is a pi pulse;
        kwargs are the other fields but omega0."""
        return cls(omega0=None, frequency=frequency, **kwargs)


@dataclass(frozen=True)
class TimeSeries:
    """Sampled density-matrix elements: P1 = rho_uu, P2 = |rho_ud|, P3 = rho_dd."""

    times: np.ndarray
    P1: np.ndarray
    P2: np.ndarray
    P3: np.ndarray


def imperfect_flip_state(alpha: float, branch: str = "+") -> np.ndarray:
    """Pure post-pulse state for a dwell time t0*(1 +/- alpha).

    -i cos(alpha*pi/2)|up>  -/+  sin(alpha*pi/2)|down>, branch '+' -> minus.
    """
    require(0 <= alpha < 1, "alpha", "must lie in [0, 1)")
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    sign = -1.0 if branch == "+" else 1.0
    psi = np.array([-1j * math.cos(alpha * math.pi / 2),
                    sign * math.sin(alpha * math.pi / 2)], dtype=complex)
    return np.outer(psi, psi.conj())


def lindblad_rhs(rho: np.ndarray, rates: DecoherenceRates,
                 hamiltonian: np.ndarray | None = None) -> np.ndarray:
    """Right-hand side of the master equation, 1/ns.

    (gamma0/2)(2 s- rho s+ - s+ s- rho - rho s+ s-) - gammap [sz, [sz, rho]]
    - i (2*pi/1000) [H, rho], the last term only when a Hamiltonian (MHz)
    is supplied. rho is the 2x2 state of the outside spin alone.
    """
    if rho.shape != (2, 2):
        raise ValueError("density matrix must be the 2x2 outside-spin state")
    sm, sp, sz = SIGMA_MINUS, SIGMA_PLUS, SIGMA_Z
    n = sp @ sm
    out = rates.gamma0 / 2.0 * (2.0 * (sm @ rho @ sp) - n @ rho - rho @ n)
    inner = sz @ rho - rho @ sz
    out -= rates.gammap * (sz @ inner - inner @ sz)
    if hamiltonian is not None:
        if hamiltonian.shape != rho.shape:
            raise ValueError("hamiltonian dimension mismatch")
        out = out - 1j * _PHASE * (hamiltonian @ rho - rho @ hamiltonian)
    return out


def analytic_free_evolution(rho0: np.ndarray, rates: DecoherenceRates,
                            t: float | np.ndarray) -> np.ndarray:
    """Closed-form solution of the field-free master equation (dim 2).

    rho_uu(t) = rho_uu(0) e^{-gamma0 t}, rho_dd = 1 - rho_uu,
    rho_ud(t) = rho_ud(0) e^{-(gamma0/2 + 4 gammap) t}.
    t may be an array of times; the result then has shape t.shape + (2, 2).
    """
    t = np.asarray(t, dtype=float)
    if (t < 0).any():
        raise ValueError("t must be non-negative")
    if rho0.shape != (2, 2):
        raise ValueError("analytic solution is for the reduced 2x2 state")
    p_up = rho0[0, 0].real * np.exp(-rates.gamma0 * t)
    coh = rho0[0, 1] * np.exp(-rates.coherence_rate * t)
    return np.stack([np.stack([p_up, coh], -1),
                     np.stack([coh.conjugate(), 1.0 - p_up], -1)], -2)


@functools.lru_cache(maxsize=16)
def _rk4_map(rates: DecoherenceRates, dim: int, dt: float,
             h_key: tuple | None) -> np.ndarray:
    """One RK4 step of the master equation as a matrix on vec(rho).

    The generator is linear and time-independent, so its d^2 x d^2 matrix L
    comes from `lindblad_rhs` applied to the d^2 basis matrices, and one RK4
    step is exactly sum_{k<=4} (dt L)^k / k!. h_key is None or the
    Hamiltonian's (shape, complex128 bytes), a content key for the cache.
    """
    h = None if h_key is None else np.frombuffer(
        h_key[1], dtype=complex).reshape(h_key[0])
    basis = np.eye(dim * dim, dtype=complex).reshape(-1, dim, dim)
    dt_gen = dt * np.stack([lindblad_rhs(e, rates, h).ravel()
                            for e in basis], -1)
    term = step = np.eye(dim * dim, dtype=complex)
    for k in range(1, 5):
        term = term @ dt_gen / k
        step = step + term
    step.setflags(write=False)
    return step


@functools.lru_cache(maxsize=16)
def _rk4_power(rates: DecoherenceRates, dim: int, dt: float,
               h_key: tuple | None, n: int) -> np.ndarray:
    """n RK4 steps of dt as one matrix, `_rk4_map(...)^n`, cached: a fig2
    run evolves its 4,000 samples over the same n steps."""
    power = np.linalg.matrix_power(_rk4_map(rates, dim, dt, h_key), n)
    power.setflags(write=False)
    return power


def evolve_numeric(rho0: np.ndarray, rates: DecoherenceRates,
                   hamiltonian: np.ndarray | None, t: float,
                   dt: float) -> np.ndarray:
    """Fixed-step RK4 integration of the master equation over t ns.

    floor(t / dt) steps of dt, then one step of the remainder when it
    exceeds 1e-12 ns. Each step is applied as a cached transfer matrix
    (`_rk4_map`), and the full steps as one cached matrix power
    (`_rk4_power`). Re-Hermitizes the result once, at the end. Raises
    NumericFailure if the trace drifts by more than 1e-6.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t < 0:
        raise ValueError("t must be non-negative")
    rho = rho0.astype(complex)
    dim = rho.shape[0]
    h_key = None
    if hamiltonian is not None:
        h = np.asarray(hamiltonian, dtype=complex)
        h_key = (h.shape, h.tobytes())
    trace0 = np.trace(rho).real
    n_full = int(t // dt)
    remainder = t - n_full * dt
    vec = _rk4_power(rates, dim, dt, h_key, n_full) @ rho.ravel()
    if remainder > 1e-12:
        vec = _rk4_map(rates, dim, remainder, h_key) @ vec
    rho = vec.reshape(rho.shape)
    rho = 0.5 * (rho + rho.conj().T)
    drift = abs(np.trace(rho).real - trace0)
    if not drift <= 1e-6:
        raise NumericFailure(f"trace drifted by {drift:.3e} during integration")
    return rho


def flip_probability(omega0, detuning, effective_duration):
    """Population transfer probability of the rotating-frame pulse.

    (omega0^2 / Omega_R^2) * sin^2(pi * Omega_R * tau / 1000), and 0 where
    Omega_R = 0, with Omega_R = sqrt(omega0^2 + detuning^2): the |up>
    population after a rotation by 2 pi Omega_R tau / 1000 about the axis
    (omega0, 0, detuning) / Omega_R, starting from |down>, with no
    dissipation during the pulse.
    Arguments may be scalars or broadcastable arrays.
    """
    omega_r = np.hypot(omega0, detuning)
    # Omega_R = 0 only when omega0 = 0, so any nonzero divisor gives 0 there.
    ratio = omega0 / np.where(omega_r == 0.0, 1.0, omega_r)
    half = np.pi * omega_r * effective_duration / 1000.0
    return ratio ** 2 * np.sin(half) ** 2


def fig2_timeseries(alpha: float, rates: DecoherenceRates,
                    t_end: float = 1000.0, dt: float = 1.0) -> TimeSeries:
    """Free decay of the imperfect-flip state on a uniform grid."""
    times = np.arange(0.0, t_end + 0.5 * dt, dt)
    rho = analytic_free_evolution(imperfect_flip_state(alpha, "+"), rates,
                                  times)
    return TimeSeries(times=times, P1=rho[:, 0, 0].real,
                      P2=np.abs(rho[:, 0, 1]), P3=rho[:, 1, 1].real)
