"""Matrix forms that the tests hold the closed-form production code against.

`fullerene_readout` computes level energies, lines and pulse transfer from
closed forms; the operators here build the same physics as matrices. Test
modules import them with `from reference import ...`.
"""

from __future__ import annotations

import math

import numpy as np

from fullerene_readout.dynamics import SIGMA_Z, PulseSpec
from fullerene_readout.spin_core import (ANISO_OFF, AnisotropyParams,
                                         SystemParams)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def spin_z_operator(multiplicity: int) -> np.ndarray:
    """Sz in the descending-m basis: diag(s, s-1, ..., -s)."""
    if multiplicity < 2:
        raise ValueError("multiplicity must be >= 2")
    s = (multiplicity - 1) / 2
    return np.diag([s - k for k in range(multiplicity)]).astype(complex)


def build_hamiltonian(params: SystemParams,
                      aniso: AnisotropyParams = ANISO_OFF) -> np.ndarray:
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
    if aniso:
        sz1_sq = sz1 @ sz1
        h = h + aniso.D2 * np.kron(sz1_sq, i2)
        h = h + aniso.D4 * np.kron(sz1_sq @ sz1_sq, i2)
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
