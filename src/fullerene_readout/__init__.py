"""SET-based single-spin readout simulator for coupled fullerene pairs."""

__version__ = "0.1.0"

from .config import SimulationConfig, config_from_dict, parse_config
from .dynamics import (DecoherenceRates, PulseSpec, TimeSeries,
                       analytic_free_evolution, evolve_numeric,
                       fig2_timeseries, flip_probability,
                       imperfect_flip_state, lindblad_rhs, rabi_pulse,
                       validate_density_matrix)
from .errors import ConfigError, NumericFailure
from .protocol import (CurrentTrace, InsideSpinState, ReadoutResult,
                       SweepCell, TunnelEvents, TunnelingParams, classify,
                       fidelity_sweep, resonance_frequency, run_window)
from .spin_core import (AnisotropyParams, EnergyLevel, MechanicsParams,
                        PhysicalConstants, SystemParams, Transition,
                        TransitionTable, build_hamiltonian,
                        check_weak_coupling, dipolar_coupling_at,
                        eigenenergies, spin_ladder_operators,
                        spin_z_operator, transition_table, vibration_shift,
                        zeeman_separation)
