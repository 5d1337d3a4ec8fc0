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
source spin, the dwell (none at alpha = 0; see `_draw_dwell`) and the drain
Bernoulli. Per-electron records, when asked for, go to a sink block by
block, as numbered columns (`TunnelEvents`), as soon as the block is drawn.
The window keeps none of them, so its memory is that of one block whatever
the number of cycles.

An electron's detuning takes one of two values per window: the interrogated
line for a spin-down electron, the leak line for a leaked spin-up one. So the
pulse's detuning-only factors (`dynamics.rabi_factors`) are computed once per
window, on the two lines, and gathered per electron by spin. With alpha = 0
every dwell is exactly t0, so the flip and drain-pass probabilities take one
value per line as well: they are evaluated once per window, and a block
draws its two uniform arrays and gathers. A jittered block evaluates the
time-dependent part (`dynamics.rabi_transfer`) per electron; with no sink,
where no flip probability is logged, only for the electrons its drain
uniforms u leave undecided. A spin-down electron on a line of amplitude a
passes whatever its dwell when u < fl(1 - a), less a few ulps
(`_sure_pass`): the float sin^2 is at most 1 and the relaxation factor at
most 1, so its pass probability (1 - p_up) + p_leak_drain * p_up is at
least fl(1 - a), and the drain leak only adds. Off resonance a is 5.7e-4
(outer) or 5.1e-3 (inner), so a block evaluates its leaked electrons and
about a fraction a of the rest; on resonance a = 1, and it evaluates all.
A window is refused before any draw if its pulse phase rate * (dwell *
duration / t0) overflows at the longest dwell (t0 at alpha = 0, else
cycle_period) on the interrogated line or, if the source leaks, the leak
line: each float step scales by a positive constant, so no phase exceeds it.
Every path gives the counts, and where it evaluates the floats, of
evaluating each electron on its own; the test suite holds the window to
that per-electron loop, kept in its reference module.

Model assumption: the dwell is Normal(t0, (alpha t0)^2) truncated to
(0, cycle_period]. With the defaults t0 == cycle_period the truncation cuts
the normal at its mean: no electron outstays t0, every jittered pulse is
under-rotated, and there is no overshoot.

Model assumption: a leaked spin-up electron is detuned from the leak line
`leak_resonance_frequency` = 2 nu1 + J/2, the inside spin's flip line at
m2 = +1/2, while a spin-down one is detuned from the interrogated line.
`spin_core.level_energy` gives an outside flip 2 nu2 + J m1 in either
direction, so nothing in the level scheme derives the leak line; it stays
until the benchmark's oracle, which pins it, can move with it (ROADMAP
Open item 12).

Population bookkeeping uses the closed forms of the rotating-frame pulse
(`dynamics.rabi_factors` and `rabi_transfer`) and of the field-free
relaxation; the test suite cross-checks both against the matrix forms in its
reference module.

Model assumption: the pulse is ideal. `run_window` treats it as the unitary
rotation of `rabi_transfer`, with neither gamma0 nor gammap acting during
it; gamma0 acts only over the residual dwell after the pulse, and gammap
never enters the readout. The driven master equation, kept in the test
suite's reference module, measures what this leaves out: at the defaults
the calibrated Rabi frequency (500/140 MHz, 0.022 rad/ns) lies far below the
coherence decay rate (gamma0/2 + 4 gammap = 0.16/ns), so a resonant 140 ns
pulse from |down> transfers 0.170 of the population, not 1 (0.633 at
gammap = 0.004, 0.927 at 0.0004).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import (DecoherenceRates, PulseSpec, rabi_factors,
                       rabi_transfer)
from .errors import NumericFailure, check_grid, require
from .spin_core import SystemParams, outside_flip_frequency

_ENCODING_M1 = {"outer": 1.5, "inner": 0.5}

# Electrons drawn per block of a window. Keeps the sampler's working arrays
# at a few hundred kB whatever the window length, while the per-block Python
# overhead stays negligible.
_BLOCK = 8192

# Largest number of cycles a window may hold (15 s of readout at the default
# 150 ns period); a larger window is refused, not run.
MAX_CYCLES = 10**8

# Largest window `sim readout --events` may log. The log is streamed, so
# memory does not grow with it; the bound is the disk: ~47 B of text per
# row, so ~0.47 GB of events.csv at this cap.
MAX_EVENT_CYCLES = 10**7

# Columns of the per-electron audit log, events.csv.
EVENT_COLUMNS = ("cycle", "dwell_ns", "spin_in", "flip_prob", "passed")

# Columns of the misclassification table, sweep.csv: one row per
# (alpha, leak, true state) cell, as `fidelity_sweep` returns it.
SWEEP_COLUMNS = ("alpha", "p_leak", "encoding", "true_m1", "trials",
                 "misclassified", "rate", "base_seed")

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


class TunnelEvents(NamedTuple):
    """A block of a window's per-electron audit log, in EVENT_COLUMNS order."""

    cycle: np.ndarray       # the electron's cycle number in the window
    dwell: np.ndarray       # ns
    spin_up: np.ndarray     # bool: the source filter passed a spin-up
    flip_prob: np.ndarray   # pulse transfer probability, before relaxation
    passed: np.ndarray      # bool: counted at the drain


class CurrentTrace(NamedTuple):
    """Detector-count record for one readout window."""

    n_cycles: int
    n_passed: int


class ReadoutResult(NamedTuple):
    classified: InsideSpinState
    baseline: float    # expected off-resonant clicks
    contrast: float    # (baseline - n_passed) / (baseline + n_passed)
    threshold: float


def leak_resonance_frequency(sys: SystemParams) -> float:
    """Resonance relevant to a leaked spin-up electron, 2 nu1 + J/2 (MHz).

    An encoding's interrogation line, 2 nu2 + J |m1|, lies 2 delta +
    J (|m1| - 1/2) above it: 2 delta + J for outer, 2 delta for inner. So
    leaked electrons are far off resonance at the defaults, but the outer
    gap closes at J = -2 delta, which the config accepts.
    """
    return 2.0 * sys.nu1 + 0.5 * sys.J


def resonance_frequency(inside: InsideSpinState, sys: SystemParams) -> float:
    """Interrogation frequency: the outside-flip line of the encoding's
    positive-m1 level, regardless of the true state."""
    return outside_flip_frequency(sys, _ENCODING_M1[inside.encoding])


def _draw_dwell(params: TunnelingParams, rng: np.random.Generator,
                n: int) -> np.ndarray:
    """n dwell draws from Normal(t0, (alpha*t0)^2) truncated to
    (0, cycle_period], all t0 at alpha == 0: each draw t0 + sigma*Z (the
    float `normal(t0, sigma)` gives) outside it is redrawn until all lie
    inside. At t0 == cycle_period the cut is at the mean, so Z is folded to
    -|Z|: the half-normal t0 - sigma*|Z|, where only a dwell <= 0 is redrawn
    (probability 2 Phi(-1/alpha))."""
    t0, cycle_period = params.t0, params.cycle_period
    if params.alpha == 0.0:
        return np.full(n, float(t0))
    sigma = params.alpha * t0
    def draw(k):
        z = rng.standard_normal(k)
        if t0 == cycle_period:
            np.negative(np.abs(z, out=z), out=z)
        # an overflow is an infinite dwell, redrawn: the draw stays exact
        with np.errstate(over="ignore"):
            np.multiply(z, sigma, out=z)
            return np.add(t0, z, out=z)
    dwell = draw(n)
    redraw = np.flatnonzero((dwell <= 0.0) | (dwell > cycle_period))
    while redraw.size:
        dwell[redraw] = d = draw(redraw.size)
        redraw = redraw.compress((d <= 0.0) | (d > cycle_period))
    return dwell


def _sure_pass(amplitude: float) -> float:
    """The drain uniform below which a spin-down electron passes whatever
    its dwell, for its line's `rabi_factors` amplitude: fl(1 - amplitude)
    (see the module docstring), four ulps of 1 lower for a sin or exp that
    is off by a few ulps. Negative on resonance: no electron is sure."""
    return float(1.0 - amplitude) - 4 * np.finfo(float).eps


def _outcomes(spin_up: np.ndarray, dwell: np.ndarray, factors: tuple,
              pulse: PulseSpec, params: TunnelingParams,
              rates: DecoherenceRates) -> tuple[np.ndarray, np.ndarray]:
    """Flip and drain-pass probabilities of electrons with these spins and
    dwells; `factors` are the `rabi_factors` of the two lines, spin-down
    first."""
    line = spin_up.view(np.uint8)
    amplitude, rate = (f.take(line) for f in factors)
    # Departure mid-pulse truncates the rotation: on resonance the angle is
    # pi * dwell / t0. Past `run_window`'s overflow rule, only the alpha = 0
    # table's leak-line entry, which no electron takes, can overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        flip = rabi_transfer(amplitude, rate,
                             dwell * pulse.duration / params.t0)
    p_up = np.where(spin_up, 1.0 - flip, flip)
    with np.errstate(over="ignore"):   # exp(-inf) = 0, the exact limit
        p_up *= np.exp(-rates.gamma0
                       * np.maximum(dwell - pulse.duration, 0.0))
    return flip, (1.0 - p_up) + params.p_leak_drain * p_up


def run_window(inside: InsideSpinState, pulse: PulseSpec, sys: SystemParams,
               params: TunnelingParams, rates: DecoherenceRates, seed: int,
               sink: Callable[[TunnelEvents], None] | None = None
               ) -> CurrentTrace:
    """One readout window of floor(window / cycle_period) blockaded
    electrons: emit, dwell, pulse, relax, drain. The pulse's carrier is
    tuned to `resonance_frequency(inside, sys)`. Drawn in blocks from a
    dedicated PCG64 stream; deterministic for a fixed seed. `sink`, if
    given, is called with each block's `TunnelEvents`, in cycle order, as
    soon as the block is drawn."""
    require(pulse.duration <= params.cycle_period, "pulse.duration",
            "exceeds tunneling.cycle_period")
    n_cycles = params.n_cycles
    rng = np.random.Generator(np.random.PCG64(seed))
    carrier = resonance_frequency(inside, sys)
    factors = rabi_factors(pulse.omega0, np.array([
        carrier - outside_flip_frequency(sys, inside.m1),
        carrier - leak_resonance_frequency(sys)]))
    constant_dwell = params.alpha == 0.0
    longest = params.t0 if constant_dwell else params.cycle_period
    tau = float(longest) * pulse.duration / params.t0
    lines = factors[1].tolist()[:2 if params.p_leak_source > 0.0 else 1]
    if not np.isfinite([rate * tau for rate in lines]).all():
        raise NumericFailure("pulse phase overflows: the pulse lasts "
                             "too long for its Rabi frequency")
    if constant_dwell:
        # Every dwell is t0: one flip and one pass probability per line.
        line_flip, line_pass = _outcomes(np.array([False, True]),
                                         np.full(2, float(params.t0)),
                                         factors, pulse, params, rates)
    sure = _sure_pass(factors[0][0])
    skip = sink is None and sure > 0.0
    n_passed = 0
    for start in range(0, n_cycles, _BLOCK):
        n = min(_BLOCK, n_cycles - start)
        spin_up = rng.random(n) < params.p_leak_source
        dwell = _draw_dwell(params, rng, n)
        u = rng.random(n)
        if constant_dwell:
            line = spin_up.view(np.uint8)
            flip, p_pass = line_flip.take(line), line_pass.take(line)
        else:
            if skip:
                undecided = u >= sure
                undecided |= spin_up
                todo = np.flatnonzero(undecided)
                if todo.size < n:
                    n_passed += n - todo.size
                    spin_up, dwell, u = (a.take(todo)
                                         for a in (spin_up, dwell, u))
            flip, p_pass = _outcomes(spin_up, dwell, factors, pulse, params,
                                     rates)
        passed = u < p_pass
        n_passed += int(np.count_nonzero(passed))
        if sink is not None:
            sink(TunnelEvents(np.arange(start, start + n), dwell, spin_up,
                              flip, passed))
    return CurrentTrace(n_cycles=n_cycles, n_passed=n_passed)


def classify(trace: CurrentTrace, params: TunnelingParams,
             inside: InsideSpinState) -> ReadoutResult:
    """Classify `trace`, read out from `inside`, as +/-|inside.m1| in
    `inside.encoding`, by a half-baseline threshold: suppressed current
    means the positive-m1 state. Counts exactly at threshold classify as
    the negative state."""
    if trace.n_cycles == 0:
        raise ValueError("cannot classify an empty trace")
    baseline = trace.n_cycles * (1.0 - params.p_leak_source)
    threshold = baseline / 2.0
    m1 = abs(inside.m1) if trace.n_passed < threshold else -abs(inside.m1)
    contrast = (baseline - trace.n_passed) / (baseline + trace.n_passed)
    return ReadoutResult(classified=InsideSpinState(m1, inside.encoding),
                         baseline=baseline, contrast=contrast,
                         threshold=threshold)


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
                   pulse: PulseSpec = PulseSpec()) -> dict[str, list]:
    """Misclassification rates over an (alpha, leak) grid, as the table
    `{column: values}` of SWEEP_COLUMNS, one row per (alpha, leak, true
    state) cell; `rate` is misclassified / trials.

    Each cell runs `trials` independent windows of `pulse` per true state,
    as `sim readout` does; leak sets both filters. Fully deterministic given
    the base seed. Every grid value is checked, a grid that repeats a value
    (whose cells would rerun the same seeds) refused, and so is a sweep of
    more than MAX_SWEEP_ELECTRONS electrons, before the grid is built or any
    electron drawn.
    """
    alphas = check_grid(alphas, "sweep.alphas",
                        lambda a: replace(tunneling, alpha=a))
    leaks = check_grid(leaks, "sweep.leaks", lambda leak: replace(
        tunneling, p_leak_source=leak, p_leak_drain=leak))
    require(trials >= 1, "sweep.trials", "must be >= 1")
    states = sweep_states(encoding)
    electrons = (len(alphas) * len(leaks) * len(states) * trials
                 * tunneling.n_cycles)
    require(electrons <= MAX_SWEEP_ELECTRONS, "sweep.trials",
            "cells x trials x cycles per window must be at most "
            f"{MAX_SWEEP_ELECTRONS:.0e} electrons")
    cells = []   # rows, in SWEEP_COLUMNS order
    for a in alphas:
        for leak in leaks:
            params = replace(tunneling, alpha=a, p_leak_source=leak,
                             p_leak_drain=leak)
            for state in states:
                bad = 0
                for trial in range(trials):
                    s = derive_seed(seed, a, leak, state.m1, state.encoding,
                                    trial)
                    trace = run_window(state, pulse, sys, params, rates, s)
                    result = classify(trace, params, state)
                    if result.classified.m1 != state.m1:
                        bad += 1
                cells.append((a, leak, state.encoding, state.m1, trials, bad,
                              bad / trials, seed))
    return dict(zip(SWEEP_COLUMNS, map(list, zip(*cells))))


def write_events_csv(log, events: TunnelEvents) -> None:
    """Append one block to the per-electron audit log `log`, a
    `records.RecordWriter` opened on EVENT_COLUMNS or any `write(columns)`."""
    log.write([events.cycle, events.dwell,
               np.where(events.spin_up, "up", "down"), events.flip_prob,
               events.passed.view(np.uint8)])
