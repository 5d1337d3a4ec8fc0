"""Forms that the tests hold the production code against.

`fullerene_readout` computes level energies, lines and pulse transfer from
closed forms; the operators here build the same physics as matrices, and
`driven_evolution` keeps the pulse's damping that production leaves out.
`flip_probability` is the pulse transfer in one closed form. `chained` is
`evolve_numeric(..., samples=n)` as n calls, one per sample, and
`fig2_numeric` reads `sim fig2`'s RK4 columns from it; `sampled_trajectory`
is the same trajectory as the loop over samples that the factor
accumulations replaced.
`run_window_reference` is the readout window's per-electron block loop, the
stream `protocol.run_window` must reproduce bit for bit, and
`collect_events` collects either one's per-electron columns.
`template_csv` is the row-template CSV writer, the oracle of the block
encoder in `records`. Test modules import them with `from reference import
...`.
"""

from __future__ import annotations

import math

import numpy as np

from fullerene_readout.dynamics import (SIGMA_Z, DecoherenceRates, PulseSpec,
                                        _rk4_map, evolve_numeric,
                                        lindblad_rhs)
from fullerene_readout.errors import NumericFailure
from fullerene_readout.protocol import (_BLOCK, CurrentTrace, InsideSpinState,
                                        TunnelEvents, TunnelingParams,
                                        leak_resonance_frequency)
from fullerene_readout.spin_core import SystemParams, outside_flip_frequency
from outputs import text

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def spin_z_operator(multiplicity: int) -> np.ndarray:
    """Sz in the descending-m basis: diag(s, s-1, ..., -s)."""
    if multiplicity < 2:
        raise ValueError("multiplicity must be >= 2")
    s = (multiplicity - 1) / 2
    return np.diag([s - k for k in range(multiplicity)]).astype(complex)


def build_hamiltonian(params: SystemParams) -> np.ndarray:
    """8x8 diagonal Hamiltonian in MHz, basis descending (m1, m2).

    H = 2 nu1 Sz1 x I2 + 2 nu2 I1 x Sz2 + J Sz1 x Sz2
        + D2 Sz1^2 x I2 + D4 Sz1^4 x I2
    """
    sz1 = spin_z_operator(4)
    sz2 = spin_z_operator(2)
    i1 = np.eye(4, dtype=complex)
    i2 = np.eye(2, dtype=complex)
    h = (2.0 * params.nu1 * np.kron(sz1, i2)
         + 2.0 * params.nu2 * np.kron(i1, sz2)
         + params.J * np.kron(sz1, sz2))
    if params.D2 or params.D4:
        sz1_sq = sz1 @ sz1
        h = h + params.D2 * np.kron(sz1_sq, i2)
        h = h + params.D4 * np.kron(sz1_sq @ sz1_sq, i2)
    return h


def validate_density_matrix(rho: np.ndarray, tol: float = 1e-10) -> None:
    """Assert Hermiticity, unit trace, and positivity within tolerance."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        raise ValueError("density matrix not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > tol or abs(np.trace(rho).imag) > tol:
        raise ValueError("density matrix trace differs from 1")
    if np.min(np.linalg.eigvalsh(rho)) < -tol:
        raise ValueError("density matrix has a negative eigenvalue")


def rabi_pulse(rho: np.ndarray, pulse: PulseSpec, detuning: float,
               effective_duration: float) -> np.ndarray:
    """Rotating-frame unitary for a rectangular pulse segment (dim 2).

    Rotation by 2*pi*sqrt(omega0^2 + detuning^2)*tau/1000 radians about the
    axis (omega0, 0, detuning)/Omega_R; no dissipation during the pulse.
    On resonance the angle is pi * effective_duration * omega0 / 500.
    """
    if effective_duration < 0:
        raise ValueError("effective_duration must be non-negative")
    if rho.shape != (2, 2):
        raise ValueError("rabi_pulse acts on the reduced 2x2 state")
    omega_r = math.hypot(pulse.omega0, detuning)
    if omega_r == 0.0 or effective_duration == 0.0:
        return rho.astype(complex)
    half = math.pi * omega_r * effective_duration / 1000.0  # phi/2
    nx = pulse.omega0 / omega_r
    nz = detuning / omega_r
    u = (math.cos(half) * np.eye(2, dtype=complex)
         - 1j * math.sin(half) * (nx * SIGMA_X + nz * SIGMA_Z))
    return u @ rho @ u.conj().T


def driven_evolution(rho: np.ndarray, rates: DecoherenceRates,
                     h: np.ndarray, t: float) -> np.ndarray:
    """The master equation with a rotating-frame drive H (MHz) on, solved
    exactly over t ns: exp(t L) vec(rho), the damped nutation of Torrey
    (Phys. Rev. 76, 1059 (1949)).

    L is the field-free generator of `lindblad_rhs` plus
    -i (2*pi/1000) [H, .], both taken on the four basis matrices. The
    exponential is a Taylor series after scaling t L below norm 1/2, then
    squared back: an eigendecomposition of L would be ill-conditioned at
    zero rates, where L is degenerate.
    """
    if rho.shape != (2, 2) or h.shape != (2, 2):
        raise ValueError("driven_evolution acts on the reduced 2x2 state")
    basis = np.eye(4, dtype=complex).reshape(-1, 2, 2)
    gen = np.stack([(lindblad_rhs(e, rates)
                     - 2j * math.pi / 1000.0 * (h @ e - e @ h)).ravel()
                    for e in basis], -1)
    a = t * gen
    norm = np.abs(a).sum(0).max()
    squarings = max(0, math.ceil(math.log2(2.0 * norm))) if norm else 0
    a = a / 2.0 ** squarings
    term = prop = np.eye(4, dtype=complex)
    for k in range(1, 25):
        term = term @ a / k
        prop = prop + term
    for _ in range(squarings):
        prop = prop @ prop
    return (prop @ rho.astype(complex).ravel()).reshape(2, 2)


def flip_probability(omega0, detuning, effective_duration):
    """Population transfer probability of the rotating-frame pulse, the
    closed form that `dynamics.rabi_factors` and `rabi_transfer` split in two.

    (omega0^2 / Omega_R^2) * sin^2(pi * Omega_R * tau / 1000), and 0 where
    Omega_R = 0, with Omega_R = sqrt(omega0^2 + detuning^2): the |up>
    population after a rotation by 2 pi Omega_R tau / 1000 about the axis
    (omega0, 0, detuning) / Omega_R, starting from |down>, with no
    dissipation during the pulse.
    Arguments may be scalars or broadcastable arrays.
    """
    omega_r = np.hypot(omega0, detuning)
    ratio = omega0 / np.where(omega_r == 0.0, 1.0, omega_r)
    half = np.pi * omega_r * effective_duration / 1000.0
    return ratio ** 2 * np.sin(half) ** 2


def chained(rho: np.ndarray, rates: DecoherenceRates, h: float, dt: float,
            n: int) -> np.ndarray:
    """n calls of `evolve_numeric` over h, each from the last one's state."""
    states = []
    for _ in range(n):
        rho = evolve_numeric(rho, rates, h, dt)[0]
        states.append(rho)
    return np.array(states)


def fig2_numeric(rho: np.ndarray, rates: DecoherenceRates,
                 times: np.ndarray, dt: float) -> np.ndarray:
    """fig2's numeric columns (rho_uu, |rho_ud|, rho_dd) on the uniform grid
    `times`, from `chained` calls: the loop that
    `evolve_numeric(..., samples=n)` replaced in `sim fig2`."""
    states = chained(rho, rates, times[1] - times[0], dt, len(times) - 1)
    return np.array([[s[0, 0].real, abs(s[0, 1]), s[1, 1].real]
                     for s in [rho, *states]])


def sampled_trajectory(rho: np.ndarray, rates: DecoherenceRates, t: float,
                       dt: float, samples: int) -> np.ndarray:
    """`evolve_numeric(rho, rates, t, dt, samples=samples)` one sample at a
    time: rho's Hermitian part, then each sample applies the interval's
    cached RK4 maps to the last state and checks it. Each map is the matrix
    diag(a, c, c, 1) with b at [3, 0], from `_rk4_map`'s factors, applied as
    elementwise products summed in index order, not `@`, so that no BLAS
    kernel's order of operations enters the oracle."""
    h = t / samples
    n_full = int(h // dt)
    remainder = h - n_full * dt
    rho = rho.astype(complex)
    rho = 0.5 * (rho + rho.conj().T)
    trace = (rho[0, 0] + rho[1, 1]).real
    states = np.empty((samples, 2, 2), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        factors = [_rk4_map(rates, dt, n_full)]
        if remainder > 1e-12:
            factors.append(_rk4_map(rates, remainder))
        maps = []
        for a, c, c2, b in factors:
            m = np.diag([a, c, c2, 1.0]).astype(complex)
            m[3, 0] = b
            maps.append(m)
        for k in range(samples):
            vec = rho.ravel()
            for m in maps:
                out = m[:, 0] * vec[0]
                for j in range(1, 4):
                    out = out + m[:, j] * vec[j]
                vec = out
            states[k] = rho = vec.reshape(2, 2)
            uu, dd = rho[0, 0].real, rho[1, 1].real
            drift, trace = abs(uu + dd - trace), uu + dd
            if not drift <= 1e-6:
                raise NumericFailure(
                    f"trace drifted by {drift:.3e} during integration")
            if not (uu >= -1e-6 and dd >= -1e-6
                    and abs(rho[0, 1]) ** 2 <= uu * dd + 1e-6):
                raise NumericFailure("state stopped being a density matrix "
                                     "during integration")
    return states


def _draw_dwell(params: TunnelingParams, rng: np.random.Generator,
                n: int) -> np.ndarray:
    """Normal(t0, sigma^2) truncated to (0, cycle_period], by redrawing the
    electrons still outside it. At t0 == cycle_period the cut is at the
    mean, and a draw is the half-normal t0 - sigma |Z|."""
    if params.alpha == 0.0:
        return np.full(n, float(params.t0))
    t0, cycle_period = params.t0, params.cycle_period
    sigma = params.alpha * t0
    dwell = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        if t0 == cycle_period:
            with np.errstate(over="ignore"):   # -inf is redrawn below
                d = t0 - sigma * np.abs(rng.standard_normal(todo.size))
        else:
            d = rng.normal(t0, sigma, todo.size)
        dwell[todo] = d
        todo = todo[(d <= 0.0) | (d > cycle_period)]
    return dwell


def run_window_reference(inside: InsideSpinState, pulse: PulseSpec,
                         sys: SystemParams, params: TunnelingParams,
                         rates: DecoherenceRates, seed: int,
                         sink=None) -> CurrentTrace:
    """`protocol.run_window` with every electron's flip, pass probability
    and dwell computed on its own: the same draws, in the same order, and
    the same float operations per electron."""
    n_cycles = params.n_cycles
    rng = np.random.Generator(np.random.PCG64(seed))
    carrier = outside_flip_frequency(sys, abs(inside.m1))
    detuning_down = carrier - outside_flip_frequency(sys, inside.m1)
    detuning_up = carrier - leak_resonance_frequency(sys)
    n_passed = 0
    for start in range(0, n_cycles, _BLOCK):
        n = min(_BLOCK, n_cycles - start)
        spin_up = rng.random(n) < params.p_leak_source
        dwell = _draw_dwell(params, rng, n)
        detuning = np.where(spin_up, detuning_up, detuning_down)
        with np.errstate(over="ignore", invalid="ignore"):
            flip = flip_probability(pulse.omega0, detuning,
                                     dwell * pulse.duration / params.t0)
        if not np.isfinite(flip).all():
            raise NumericFailure("pulse phase overflows: the pulse lasts "
                                 "too long for its Rabi frequency")
        p_up = np.where(spin_up, 1.0 - flip, flip)
        with np.errstate(over="ignore"):
            p_up *= np.exp(-rates.gamma0
                           * np.maximum(dwell - pulse.duration, 0.0))
        passed = rng.random(n) < (1.0 - p_up) + params.p_leak_drain * p_up
        n_passed += int(np.count_nonzero(passed))
        if sink is not None:
            sink(TunnelEvents(np.arange(start, start + n), dwell, spin_up,
                              flip, passed))
    return CurrentTrace(n_cycles=n_cycles, n_passed=n_passed)


def collect_events(run, *args) -> tuple[CurrentTrace, TunnelEvents]:
    """`run(*args, sink)`, for `run_window` or `run_window_reference`: its
    trace, and the columns its sink was handed, joined over the blocks."""
    blocks = []
    trace = run(*args, blocks.append)
    return trace, TunnelEvents(*(
        np.concatenate([getattr(b, name) for b in blocks])
        for name in TunnelEvents._fields))


def template_csv(path, columns):
    """Row by row, each value's `outputs.text`: the block encoder's oracle."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        block = [c.tolist() if isinstance(c, np.ndarray) else c
                 for c in columns.values()]
        fh.writelines(",".join(map(text, row)) + "\n"
                      for row in zip(*block))
