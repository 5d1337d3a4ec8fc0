"""
Static two-spin problem for the coupled fullerene pair.

Builds spin operators and the diagonal two-spin Hamiltonian (inside spin
S=3/2, outside spin S=1/2, secular dipolar coupling), produces the exact
eigenenergies and the ten selection-rule-allowed ESR transition frequencies,
and provides small helpers for the dipolar coupling strength at a given
distance, the gradient-induced Zeeman separation between the two sites, and
the spin-vibration decoupling estimate.

Conventions
-----------
- Sz operators carry magnetic quantum numbers m (eigenvalues ±3/2, ±1/2 for
  the inside spin, ±1/2 for the outside spin), not Pauli ±1.
- Basis ordering is descending lexicographic in (m1, m2):
  (3/2,1/2), (3/2,-1/2), (1/2,1/2), ...
- All frequencies are ordinary frequencies in MHz; times in ns. Phase
  accumulation multiplies by 2*pi at the point of use.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import require

M1_VALUES = (1.5, 0.5, -0.5, -1.5)
M2_VALUES = (0.5, -0.5)

# Largest magnitude of a Zeeman, coupling or anisotropy frequency, MHz: far
# above any ESR line, and small enough that every level energy, line and
# detuning derived from the parameters is finite.
MAX_MHZ = 1e9


class WeakCouplingWarning(UserWarning):
    """Raised when the secular approximation behind the model is strained."""


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental and device constants. Units noted per field."""

    g: float = 2.0023               # electron g-factor
    muB_over_h: float = 13996.245   # Bohr magneton / Planck constant, MHz/T
    muB: float = 9.274e-24          # Bohr magneton, J/T
    k_spring: float = 70.0          # SET binding force constant, N/m

    def __post_init__(self):
        for name in ("g", "muB_over_h", "muB", "k_spring"):
            require(getattr(self, name) > 0, name, "must be strictly positive")


def _require_mhz(params, name: str) -> None:
    require(abs(getattr(params, name)) <= MAX_MHZ, name,
            f"must lie in [-{MAX_MHZ:g}, {MAX_MHZ:g}] MHz")


@dataclass(frozen=True)
class SystemParams:
    """Static-problem parameters: Zeeman half-frequencies and coupling, MHz."""

    nu1: float = 10000.0
    nu2: float = 10063.5
    J: float = 50.0

    def __post_init__(self):
        for name in ("nu1", "nu2"):
            require(0 < getattr(self, name) <= MAX_MHZ, name,
                    f"must lie in (0, {MAX_MHZ:g}] MHz")
        _require_mhz(self, "J")

    @property
    def delta(self) -> float:
        """Site frequency offset delta = nu2 - nu1 (MHz)."""
        return self.nu2 - self.nu1


@dataclass(frozen=True)
class AnisotropyParams:
    """Axial anisotropy coefficients for the inside spin, MHz.

    Applied to the inside spin only: for the spin-1/2 outside spin, (Sz)^2
    and (Sz)^4 are multiples of identity and physically unobservable shifts.
    """

    D2: float = 0.0
    D4: float = 0.0

    def __post_init__(self):
        _require_mhz(self, "D2")
        _require_mhz(self, "D4")

    def __bool__(self) -> bool:
        return self.D2 != 0.0 or self.D4 != 0.0


ANISO_OFF = AnisotropyParams()


@dataclass(frozen=True)
class MechanicsParams:
    """Field-gradient geometry and the Coulomb displacement reference."""

    gradient: float = 4e6        # dB/dz, T/m
    spacing: float = 1.14e-9     # inter-fullerene distance, m
    coulomb_shift: float = 4e-12  # reference displacement, m

    def __post_init__(self):
        require(self.gradient >= 0, "gradient", "must be non-negative")
        require(self.spacing > 0, "spacing", "must be positive")
        require(self.coulomb_shift > 0, "coulomb_shift", "must be positive")


@dataclass(frozen=True)
class EnergyLevel:
    """One (m1, m2) product level and its energy in MHz."""

    m1: float
    m2: float
    energy: float


@dataclass(frozen=True)
class Transition:
    """A selection-rule-allowed transition between product levels."""

    initial: tuple[float, float]   # (m1, m2)
    final: tuple[float, float]
    kind: str                      # "outside-flip" | "inside-flip"
    frequency: float               # MHz, positive
    formula: str                   # closed form in nu1, delta, J, D2, D4


@dataclass(frozen=True)
class TransitionTable:
    """The ten allowed resonance lines, in fixed order (outside flips first)."""

    rows: tuple[Transition, ...]

    def outside_rows(self) -> tuple[Transition, ...]:
        return tuple(r for r in self.rows if r.kind == "outside-flip")

    def inside_rows(self) -> tuple[Transition, ...]:
        return tuple(r for r in self.rows if r.kind == "inside-flip")


def spin_z_operator(multiplicity: int) -> np.ndarray:
    """Sz in the descending-m basis: diag(s, s-1, ..., -s)."""
    if multiplicity < 2:
        raise ValueError("multiplicity must be >= 2")
    s = (multiplicity - 1) / 2
    return np.diag([s - k for k in range(multiplicity)]).astype(complex)


def spin_ladder_operators(multiplicity: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard (S+, S-) with matrix elements sqrt(s(s+1) - m(m+1))."""
    if multiplicity < 2:
        raise ValueError("multiplicity must be >= 2")
    s = (multiplicity - 1) / 2
    sp = np.zeros((multiplicity, multiplicity), dtype=complex)
    for k in range(1, multiplicity):
        m = s - k  # the state being raised
        sp[k - 1, k] = math.sqrt(s * (s + 1) - m * (m + 1))
    return sp, sp.conj().T


def level_energy(m1: float, m2: float, params: SystemParams,
                 aniso: AnisotropyParams = ANISO_OFF) -> float:
    """Closed-form product-level energy, MHz."""
    return (2.0 * params.nu1 * m1 + 2.0 * params.nu2 * m2
            + params.J * m1 * m2 + aniso.D2 * m1 ** 2 + aniso.D4 * m1 ** 4)


class WeakCouplingCheck(NamedTuple):
    ratio: float
    ok: bool


def check_weak_coupling(params: SystemParams) -> WeakCouplingCheck:
    """|J| / |nu2 - nu1|; the secular model needs ratio < 1."""
    if params.J == 0:
        return WeakCouplingCheck(0.0, True)
    denom = abs(params.delta)
    if denom == 0:
        return WeakCouplingCheck(math.inf, False)
    ratio = abs(params.J) / denom
    return WeakCouplingCheck(ratio, ratio < 1)


def build_hamiltonian(params: SystemParams,
                      aniso: AnisotropyParams = ANISO_OFF) -> np.ndarray:
    """8x8 diagonal Hamiltonian in MHz, basis descending (m1, m2).

    H = 2 nu1 Sz1 x I2 + 2 nu2 I1 x Sz2 + J Sz1 x Sz2
        + D2 Sz1^2 x I2 + D4 Sz1^4 x I2
    """
    check = check_weak_coupling(params)
    if not check.ok:
        warnings.warn(
            f"weak-coupling condition |J| < |nu2 - nu1| violated "
            f"(ratio {check.ratio:.3g})", WeakCouplingWarning, stacklevel=2)
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


def eigenenergies(params: SystemParams,
                  aniso: AnisotropyParams = ANISO_OFF) -> list[EnergyLevel]:
    """All eight product levels in basis order (descending m1, then m2)."""
    return [EnergyLevel(m1, m2, level_energy(m1, m2, params, aniso))
            for m1 in M1_VALUES for m2 in M2_VALUES]


def _signed_term(coeff: float, symbol: str) -> str:
    """Render '+ c*symbol' / '- c*symbol' with small-rational coefficients."""
    sign = "+" if coeff >= 0 else "-"
    c = abs(coeff)
    if c == int(c):
        mag = f"{int(c)}*{symbol}" if c != 1 else symbol
    else:
        num = int(round(c * 2))
        mag = f"{num}*{symbol}/2" if num != 1 else f"{symbol}/2"
    return f" {sign} {mag}"


def outside_flip_frequency(params: SystemParams, m1: float) -> float:
    """Outside-spin flip line for inside level m1, 2 nu2 + J m1 (MHz)."""
    return 2.0 * params.nu2 + params.J * m1


def transition_table(params: SystemParams,
                     aniso: AnisotropyParams = ANISO_OFF) -> TransitionTable:
    """The ten allowed lines, ordered as: outside flips for m1 = 3/2 ... -3/2,
    then inside flips for m2 = +1/2, then m2 = -1/2.

    Outside-flip frequencies 2 nu2 + J m1 are independent of the inside-spin
    anisotropy and are computed from the anisotropy-free closed form, so they
    are bitwise identical with and without (D2, D4).
    """
    rows: list[Transition] = []
    for m1 in M1_VALUES:
        freq = outside_flip_frequency(params, m1)
        formula = "2*nu1 + 2*delta" + _signed_term(m1, "J")
        rows.append(Transition((m1, 0.5), (m1, -0.5), "outside-flip",
                               freq, formula))
    inside_pairs = ((1.5, 0.5), (0.5, -0.5), (-0.5, -1.5))
    for m2 in M2_VALUES:
        for hi, lo in inside_pairs:
            d2 = hi ** 2 - lo ** 2
            d4 = hi ** 4 - lo ** 4
            freq = (2.0 * params.nu1 + params.J * m2
                    + aniso.D2 * d2 + aniso.D4 * d4)
            formula = "2*nu1" + _signed_term(m2, "J")
            if d2:
                formula += _signed_term(d2, "D2")
            if d4:
                formula += _signed_term(d4, "D4")
            rows.append(Transition((hi, m2), (lo, m2), "inside-flip",
                                   freq, formula))
    return TransitionTable(tuple(rows))


def dipolar_coupling_at(r: float) -> float:
    """Dipole-dipole coupling J at center distance r (meters), MHz.

    Normalized to 50 MHz at 1 nm, scaling as r^-3.
    """
    if not r > 0:
        raise ValueError("distance must be positive")
    return 50.0 * (r / 1e-9) ** -3


def zeeman_separation(constants: PhysicalConstants,
                      mech: MechanicsParams) -> float:
    """Full Zeeman-frequency difference between the two sites, MHz.

    g * (muB/h) * (dB/dz) * spacing.
    """
    return constants.g * constants.muB_over_h * mech.gradient * mech.spacing


class VibrationShift(NamedTuple):
    shift: float   # meters
    ratio: float   # shift / coulomb_shift


def vibration_shift(constants: PhysicalConstants,
                    mech: MechanicsParams) -> VibrationShift:
    """Gradient-induced equilibrium displacement (2 g muB / k) dB/dz, meters,
    and its ratio to the Coulomb-arrival displacement reference."""
    shift = (2.0 * constants.g * constants.muB / constants.k_spring
             * mech.gradient)
    return VibrationShift(shift, shift / mech.coulomb_shift)
