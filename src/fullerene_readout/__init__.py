"""SET-based single-spin readout simulator for coupled fullerene pairs."""

__version__ = "0.1.0"

from .config import SimulationConfig, config_from_dict, parse_config
from .dynamics import (DecoherenceRates, PulseSpec, TimeSeries,
                       analytic_free_evolution, evolve_numeric,
                       fig2_timeseries, flip_probability,
                       imperfect_flip_state, lindblad_rhs)
from .errors import ConfigError, NumericFailure
from .protocol import (CurrentTrace, InsideSpinState, ReadoutResult,
                       SweepCell, TunnelEvents, TunnelingParams, classify,
                       fidelity_sweep, resonance_frequency, run_window)
from .spin_core import (AnisotropyParams, EnergyLevel, MechanicsParams,
                        PhysicalConstants, SystemParams, Transition,
                        check_weak_coupling, eigenenergies, transition_table,
                        vibration_shift, zeeman_separation)
