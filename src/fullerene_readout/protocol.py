"""
Seeded Monte Carlo of the current-based readout cycle.

One electron tunnels onto the island per cycle period (Coulomb blockade),
carrying spin-down unless the source filter leaks. An ESR pulse, tuned to the
outside-spin flip frequency conditioned on the positive inside-spin state,
rotates the electron spin for a time scaled by the electron's dwell
(`dwell * duration / t0`), so dwell-time jitter under- or over-rotates it.
The electron then relaxes for the residual dwell after the pulse and is
Bernoulli-sampled at the drain filter (a projective spin measurement). A
window of cycles yields a detector count that classifies the inside spin.

The electrons of a window are independent given the config, so a window is
drawn as numpy arrays, `_BLOCK` electrons at a time, from one
`numpy.random.Generator(PCG64(seed))`. Per block the draws are, in order: the
source spin, the dwell (rejected entries redrawn until all lie in
(0, cycle_period]) and the drain Bernoulli. Per-electron records, when asked
for, are kept as columns (`TunnelEvents`), not one object per electron.

Model assumption: the dwell is Normal(t0, (alpha t0)^2) truncated to
(0, cycle_period]. With the defaults t0 == cycle_period the truncation cuts
the normal at its mean: no electron outstays t0, every jittered pulse is
under-rotated, and there is no overshoot.

Population bookkeeping uses the closed forms of the rotating-frame pulse
(`dynamics.flip_probability`) and of the field-free relaxation; the test
suite cross-checks both against the matrix forms in its reference module.

Model assumption: the pulse is ideal. `run_window` treats it as the unitary
rotation `flip_probability`, with neither gamma0 nor gammap acting during
it; gamma0 acts only over the residual dwell after the pulse, and gammap
never enters the readout. The master equation measures what this leaves
out: at the defaults the calibrated Rabi frequency (500/140 MHz, 0.022
rad/ns) lies far below the coherence decay rate (gamma0/2 + 4 gammap =
0.16/ns), so a resonant 140 ns pulse from |down> under `evolve_numeric`
transfers 0.170 of the population, not 1 (0.633 at gammap = 0.004, 0.927 at
0.0004).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace

import numpy as np

from .dynamics import DecoherenceRates, PulseSpec, flip_probability
from .errors import NumericFailure, as_option, require
from .records import write_records
from .spin_core import SystemParams, outside_flip_frequency

_ENCODING_M1 = {"outer": 1.5, "inner": 0.5}

# Electrons drawn per block of a window. Keeps the sampler's working arrays
# at a few hundred kB whatever the window length, while the per-block Python
# overhead stays negligible.
_BLOCK = 8192

# Largest number of cycles a window may hold (15 s of readout at the default
# 150 ns period); a larger window is refused, not run.
MAX_CYCLES = 10**8

# Largest window `sim readout --events` may log: the event columns take
# ~50 B per electron in memory, so ~0.5 GB at this cap.
MAX_EVENT_CYCLES = 10**7

# Largest number of electrons one sweep may draw over all its cells and
# trials: about 15-20 minutes at ~10^7 electrons/s. A larger sweep is
# refused before anything is sampled.
MAX_SWEEP_ELECTRONS = 10**10


@dataclass(frozen=True)
class TunnelingParams:
    """Stochastic description of the SET cycle. Times in ns."""

    t0: float = 150.0            # mean dwell time
    alpha: float = 0.0           # relative dwell deviation sigma/t0
    p_leak_source: float = 0.0   # wrong-spin pass probability, source filter
    p_leak_drain: float = 0.0    # wrong-spin pass probability, drain filter
    cycle_period: float = 150.0
    window: float = 1e7          # total readout duration (default 10 ms)

    def __post_init__(self):
        require(self.t0 > 0, "t0", "must be positive")
        for name in ("alpha", "p_leak_source", "p_leak_drain"):
            require(0 <= getattr(self, name) < 1, name, "must lie in [0, 1)")
        require(self.cycle_period >= self.t0, "cycle_period",
                "must be at least t0")
        require(self.window >= self.cycle_period, "window",
                "must cover at least one cycle")
        require(self.window // self.cycle_period <= MAX_CYCLES, "window",
                f"must hold at most {MAX_CYCLES} cycles of cycle_period")

    @property
    def n_cycles(self) -> int:
        """Electrons in one window: floor(window / cycle_period)."""
        return int(self.window // self.cycle_period)


@dataclass(frozen=True)
class InsideSpinState:
    """The stationary spin-3/2 level under readout and its qubit encoding."""

    m1: float
    encoding: str   # "outer" (|±3/2>) or "inner" (|±1/2>)

    def __post_init__(self):
        require(self.encoding in _ENCODING_M1, "encoding",
                "must be 'outer' or 'inner'")
        require(abs(self.m1) == _ENCODING_M1[self.encoding], "m1",
                f"must be +/-{_ENCODING_M1[self.encoding]:g} for encoding "
                f"'{self.encoding}'")

    @property
    def positive(self) -> "InsideSpinState":
        return InsideSpinState(abs(self.m1), self.encoding)


@dataclass(frozen=True, eq=False)
class TunnelEvents:
    """Per-electron audit columns of one window; row i is cycle i."""

    dwell: np.ndarray       # ns
    spin_up: np.ndarray     # bool: the source filter passed a spin-up
    flip_prob: np.ndarray   # pulse transfer probability, before relaxation
    passed: np.ndarray      # bool: counted at the drain

    def __eq__(self, other) -> bool:
        if not isinstance(other, TunnelEvents):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


@dataclass(frozen=True)
class CurrentTrace:
    """Detector-count record for one readout window."""

    n_cycles: int
    n_passed: int
    events: TunnelEvents | None
    seed: int


@dataclass(frozen=True)
class ReadoutResult:
    classified: InsideSpinState
    counts_on: int
    baseline: float    # expected off-resonant clicks
    contrast: float    # (baseline - counts_on) / (baseline + counts_on)
    threshold: float


@dataclass(frozen=True)
class SweepCell:
    """Misclassification statistics for one (alpha, leak, true state) cell."""

    alpha: float
    p_leak: float
    true_state: InsideSpinState
    trials: int
    misclassified: int

    @property
    def rate(self) -> float:
        return self.misclassified / self.trials


def leak_resonance_frequency(sys: SystemParams) -> float:
    """Resonance relevant to a leaked spin-up electron, 2 nu1 + J/2 (MHz).

    With a nonzero gradient this sits at least 2*delta away from either
    interrogation frequency, so leaked electrons are far off resonance.
    """
    return 2.0 * sys.nu1 + 0.5 * sys.J


def resonance_frequency(inside: InsideSpinState, sys: SystemParams) -> float:
    """Interrogation frequency: the outside-flip line of the encoding's
    positive-m1 level, regardless of the true state."""
    return outside_flip_frequency(sys, _ENCODING_M1[inside.encoding])


def _draw_dwell(params: TunnelingParams, rng: np.random.Generator,
                n: int) -> np.ndarray:
    """n dwell draws from Normal(t0, (alpha*t0)^2), each rejected draw redrawn
    until it lies in (0, cycle_period]. alpha = 0 gives exactly t0 and draws
    nothing."""
    if params.alpha == 0.0:
        return np.full(n, float(params.t0))
    sigma = params.alpha * params.t0
    dwell = rng.normal(params.t0, sigma, n)
    redraw = np.flatnonzero((dwell <= 0.0) | (dwell > params.cycle_period))
    while redraw.size:
        d = rng.normal(params.t0, sigma, redraw.size)
        dwell[redraw] = d
        redraw = redraw[(d <= 0.0) | (d > params.cycle_period)]
    return dwell


def run_window(inside: InsideSpinState, pulse: PulseSpec, sys: SystemParams,
               params: TunnelingParams, rates: DecoherenceRates, seed: int,
               collect_events: bool = False) -> CurrentTrace:
    """One readout window of floor(window / cycle_period) blockaded
    electrons: emit, dwell, pulse, relax, drain. Drawn in blocks from a
    dedicated PCG64 stream; deterministic for a fixed seed."""
    if pulse.frequency is None:
        raise ValueError("pulse carrier frequency is unset")
    if pulse.duration > params.cycle_period:
        raise ValueError("pulse does not fit in the cycle period")
    n_cycles = params.n_cycles
    rng = np.random.Generator(np.random.PCG64(seed))
    detuning_down = pulse.frequency - outside_flip_frequency(sys, inside.m1)
    detuning_up = pulse.frequency - leak_resonance_frequency(sys)
    n_passed = 0
    blocks = []
    for start in range(0, n_cycles, _BLOCK):
        n = min(_BLOCK, n_cycles - start)
        spin_up = rng.random(n) < params.p_leak_source
        dwell = _draw_dwell(params, rng, n)
        detuning = np.where(spin_up, detuning_up, detuning_down)
        # Departure mid-pulse truncates the rotation: on resonance the angle
        # is pi * dwell / t0. An overflowing phase is reported just below.
        with np.errstate(over="ignore", invalid="ignore"):
            flip = flip_probability(pulse.omega0, detuning,
                                    dwell * pulse.duration / params.t0)
        if not np.isfinite(flip).all():
            raise NumericFailure("pulse phase overflows: the pulse lasts "
                                 "too long for its Rabi frequency")
        p_up = np.where(spin_up, 1.0 - flip, flip)
        p_up *= np.exp(-rates.gamma0 * np.maximum(dwell - pulse.duration, 0.0))
        passed = rng.random(n) < (1.0 - p_up) + params.p_leak_drain * p_up
        n_passed += int(np.count_nonzero(passed))
        if collect_events:
            blocks.append((dwell, spin_up, flip, passed))
    events = (TunnelEvents(*map(np.concatenate, zip(*blocks)))
              if collect_events else None)
    return CurrentTrace(n_cycles=n_cycles, n_passed=n_passed, events=events,
                        seed=seed)


def classify(trace: CurrentTrace, params: TunnelingParams,
             encoding: str) -> ReadoutResult:
    """Half-baseline threshold: suppressed current means the positive-m1
    state. Counts exactly at threshold classify as the negative state."""
    if trace.n_cycles == 0:
        raise ValueError("cannot classify an empty trace")
    baseline = trace.n_cycles * (1.0 - params.p_leak_source)
    threshold = baseline / 2.0
    positive = trace.n_passed < threshold
    # An unknown encoding gets m1 0 here; InsideSpinState then rejects it.
    m1 = _ENCODING_M1.get(encoding, 0.0) * (1.0 if positive else -1.0)
    contrast = (baseline - trace.n_passed) / (baseline + trace.n_passed)
    return ReadoutResult(classified=InsideSpinState(m1, encoding),
                         counts_on=trace.n_passed, baseline=baseline,
                         contrast=contrast, threshold=threshold)


def derive_seed(base: int, *parts) -> int:
    """Stable 64-bit sub-seed from a base seed and a label tuple."""
    tag = json.dumps([base, *parts], sort_keys=True).encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:8], "big")


def sweep_states(encoding: str) -> list[InsideSpinState]:
    require(encoding == "both" or encoding in _ENCODING_M1, "encoding",
            "must be 'outer', 'inner' or 'both'")
    if encoding == "both":
        return [InsideSpinState(m, e)
                for e, mref in _ENCODING_M1.items() for m in (mref, -mref)]
    return [InsideSpinState(s * _ENCODING_M1[encoding], encoding)
            for s in (1.0, -1.0)]


def fidelity_sweep(encoding: str, sys: SystemParams, rates: DecoherenceRates,
                   alphas: list[float], leaks: list[float], trials: int,
                   seed: int, tunneling: TunnelingParams = TunnelingParams(),
                   pulse: PulseSpec = PulseSpec(None)) -> list[SweepCell]:
    """Misclassification rates over an (alpha, leak) grid.

    Each cell runs `trials` independent windows per true state, each with
    `pulse` at the state's `resonance_frequency` as `sim readout` does; leak
    sets both filters. Fully deterministic given the base seed. Every grid
    value is checked, and a sweep of more than MAX_SWEEP_ELECTRONS electrons
    refused, before the grid is built or any electron drawn.
    """
    require(len(alphas) > 0, "sweep.alphas", "must be non-empty")
    require(len(leaks) > 0, "sweep.leaks", "must be non-empty")
    require(trials >= 1, "sweep.trials", "must be >= 1")
    with as_option("sweep.alphas"):
        for a in alphas:
            replace(tunneling, alpha=a)
    with as_option("sweep.leaks"):
        for leak in leaks:
            replace(tunneling, p_leak_source=leak, p_leak_drain=leak)
    states = sweep_states(encoding)
    electrons = (len(alphas) * len(leaks) * len(states) * trials
                 * tunneling.n_cycles)
    require(electrons <= MAX_SWEEP_ELECTRONS, "sweep.trials",
            "cells x trials x cycles per window must be at most "
            f"{MAX_SWEEP_ELECTRONS:.0e} electrons")
    pulses = [replace(pulse, frequency=resonance_frequency(state, sys))
              for state in states]
    cells: list[SweepCell] = []
    for a in alphas:
        for leak in leaks:
            params = replace(tunneling, alpha=a, p_leak_source=leak,
                             p_leak_drain=leak)
            for state, tuned in zip(states, pulses):
                bad = 0
                for trial in range(trials):
                    s = derive_seed(seed, a, leak, state.m1, state.encoding,
                                    trial)
                    trace = run_window(state, tuned, sys, params, rates, s)
                    result = classify(trace, params, state.encoding)
                    if result.classified.m1 != state.m1:
                        bad += 1
                cells.append(SweepCell(alpha=a, p_leak=leak, true_state=state,
                                       trials=trials, misclassified=bad))
    return cells


def write_events_csv(trace: CurrentTrace, path) -> str:
    """Per-electron audit log: cycle,dwell_ns,spin_in,flip_prob,passed.
    Returns the sha256 hex digest of the file."""
    ev = trace.events
    if ev is None:
        raise ValueError("trace was recorded without event logging")
    return write_records(path, {
        "cycle": range(ev.dwell.size), "dwell_ns": ev.dwell,
        "spin_in": np.where(ev.spin_up, "up", "down"),
        "flip_prob": ev.flip_prob, "passed": ev.passed.astype(np.uint8)})
