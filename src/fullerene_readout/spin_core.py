"""
Static two-spin problem for the coupled fullerene pair.

Closed forms of the diagonal two-spin Hamiltonian of `SystemParams` (inside
spin S=3/2 with axial anisotropy D2, D4; outside spin S=1/2; secular dipolar
coupling): the exact product-level energies, the ten selection-rule-allowed
ESR transition frequencies, the weak-coupling check, the gradient-induced
Zeeman separation between the two sites, and the spin-vibration decoupling
estimate.

Conventions
-----------
- Levels are labelled by magnetic quantum numbers m (±3/2, ±1/2 for the
  inside spin, ±1/2 for the outside spin), not Pauli ±1.
- Level ordering is descending lexicographic in (m1, m2):
  (3/2,1/2), (3/2,-1/2), (1/2,1/2), ...
- All frequencies are ordinary frequencies in MHz; times in ns. Phase
  accumulation multiplies by 2*pi at the point of use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import require

M1_VALUES = (1.5, 0.5, -0.5, -1.5)
M2_VALUES = (0.5, -0.5)

# Largest magnitude of a Zeeman, coupling or anisotropy frequency, MHz: far
# above any ESR line, and small enough that every level energy, line and
# detuning derived from the parameters is finite.
MAX_MHZ = 1e9


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


@dataclass(frozen=True)
class SystemParams:
    """Static-problem parameters, MHz: Zeeman half-frequencies, coupling,
    and the axial anisotropy D2 (Sz)^2 + D4 (Sz)^4 of the inside spin (on
    the spin-1/2 outside spin both terms are unobservable constant shifts)."""

    nu1: float = 10000.0
    nu2: float = 10063.5
    J: float = 50.0
    D2: float = 0.0
    D4: float = 0.0

    def __post_init__(self):
        for name in ("nu1", "nu2"):
            require(0 < getattr(self, name) <= MAX_MHZ, name,
                    f"must lie in (0, {MAX_MHZ:g}] MHz")
        for name in ("J", "D2", "D4"):
            require(abs(getattr(self, name)) <= MAX_MHZ, name,
                    f"must lie in [-{MAX_MHZ:g}, {MAX_MHZ:g}] MHz")

    @property
    def delta(self) -> float:
        """Site frequency offset delta = nu2 - nu1 (MHz)."""
        return self.nu2 - self.nu1


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


class EnergyLevel(NamedTuple):
    """One (m1, m2) product level and its energy in MHz."""

    m1: float
    m2: float
    energy: float


class Transition(NamedTuple):
    """A selection-rule-allowed transition between product levels."""

    initial: tuple[float, float]   # (m1, m2)
    final: tuple[float, float]
    kind: str                      # "outside-flip" | "inside-flip"
    frequency: float               # MHz, positive
    formula: str                   # closed form in nu1, delta, J, D2, D4


def level_energy(m1: float, m2: float, params: SystemParams) -> float:
    """Closed-form product-level energy, MHz."""
    return (2.0 * params.nu1 * m1 + 2.0 * params.nu2 * m2
            + params.J * m1 * m2 + params.D2 * m1 ** 2 + params.D4 * m1 ** 4)


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


def eigenenergies(params: SystemParams) -> list[EnergyLevel]:
    """All eight product levels in basis order (descending m1, then m2)."""
    return [EnergyLevel(m1, m2, level_energy(m1, m2, params))
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


def transition_table(params: SystemParams) -> tuple[Transition, ...]:
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
                    + params.D2 * d2 + params.D4 * d4)
            formula = "2*nu1" + _signed_term(m2, "J")
            if d2:
                formula += _signed_term(d2, "D2")
            if d4:
                formula += _signed_term(d4, "D4")
            rows.append(Transition((hi, m2), (lo, m2), "inside-flip",
                                   freq, formula))
    return tuple(rows)


REQUIRED_SEPARATION_MHZ = 127.0   # Zeeman separation the readout needs


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
