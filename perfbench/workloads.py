"""The benchmark's workloads: the `sim` argv and config each child gets, the
work it does, the counts a traced run must reproduce, and output checks that
hold for every RNG stream.

- `sweep`: the jitter x leak figure of merit. `protocol` does ~95 % of the
  work; `dynamics` is reached only through `flip_probability`.
- `fig2`: the free-decay check. `dynamics` (the RK4 oracle) dominates and
  `protocol` is never called.
- `readout-events`: one long window with per-electron records, so the
  record and write path (events.csv, manifest sha256) is ~1/4 of the run.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Model constants of the seed commit's defaults, used only by the oracle.
NU1, NU2, J = 10000.0, 10063.5, 50.0
GAMMA0 = 4e-4               # 1/ns
PULSE_DURATION = 140.0      # ns; omega0 calibrates it as a pi pulse
OMEGA0 = 500.0 / PULSE_DURATION
DEFAULT_TUNNELING = {"t0": 150.0, "alpha": 0.0, "p_leak_source": 0.0,
                     "p_leak_drain": 0.0, "cycle_period": 150.0,
                     "window": 1e7}

SWEEP_ALPHAS = (0.0, 0.1, 0.2)
SWEEP_LEAKS = (0.0, 0.05)
SWEEP_STATES = 4            # --encoding both: +-3/2 outer, +-1/2 inner
FIG2_ALPHAS = (0.05, 0.1, 0.2, 0.3)
FIG2_ROWS = 1001            # 0..1000 ns at 1 ns
FIG2_STEPS_PER_NS = 10      # dt_numeric = 0.1 ns
FIG2_GATE = 1e-8            # criterion 06's analytic/RK4 deviation gate
READOUT_M1 = -1.5
READOUT_TUNNELING = {"alpha": 0.1, "p_leak_source": 0.05,
                     "p_leak_drain": 0.05, "window": 3e7}
PASS_SIGMAS = 6.0


def n_cycles(tunneling: dict) -> int:
    t = {**DEFAULT_TUNNELING, **tunneling}
    return int(t["window"] // t["cycle_period"])


def _grid(values) -> str:
    return ",".join(f"{v:g}" for v in values)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep(out: Path, config: dict) -> list[str]:
    rows = read_csv(out / "sweep.csv")
    want = len(SWEEP_ALPHAS) * len(SWEEP_LEAKS) * SWEEP_STATES
    problems = []
    if len(rows) != want:
        problems.append(f"sweep.csv: {len(rows)} rows, expected {want}")
    for r in rows:
        if int(r["misclassified"]) != 0:
            problems.append(
                f"sweep.csv: alpha={r['alpha']} p_leak={r['p_leak']} "
                f"m1={r['true_m1']} misclassified {r['misclassified']}")
    return problems


def check_fig2(out: Path, config: dict) -> list[str]:
    problems = []
    for alpha in FIG2_ALPHAS:
        name = f"fig2_alpha_{alpha:g}.csv"
        rows = read_csv(out / name)
        if len(rows) != FIG2_ROWS:
            problems.append(f"{name}: {len(rows)} rows, expected {FIG2_ROWS}")
    dev = json.loads((out / "manifest.json").read_text())["max_abs_deviation"]
    if not dev <= FIG2_GATE:
        problems.append(f"manifest: max_abs_deviation {dev} > {FIG2_GATE}")
    return problems


def expected_pass_probability(tunneling: dict, m1: float) -> float:
    """Mean drain-pass probability of one electron in an `outer` readout of
    inside level m1, by quadrature over the dwell density: Normal(t0,
    (alpha t0)^2) truncated to (0, cycle_period]."""
    t = {**DEFAULT_TUNNELING, **tunneling}
    t0, cp, sigma = t["t0"], t["cycle_period"], t["alpha"] * t["t0"]
    carrier = 2.0 * NU2 + J * 1.5          # interrogates the +3/2 line
    detunings = {"down": carrier - (2.0 * NU2 + J * m1),
                 "up": carrier - (2.0 * NU1 + 0.5 * J)}
    if sigma == 0.0:
        dwell, weight = np.array([t0]), np.array([1.0])
    else:
        # Simpson's rule, split at the pulse end where the decay term kinks.
        pieces = []
        for lo, hi in ((0.0, min(PULSE_DURATION, cp)),
                       (min(PULSE_DURATION, cp), cp)):
            if hi > lo:
                x = np.linspace(lo, hi, 20001)
                w = np.full(x.size, 2.0)
                w[1::2] = 4.0
                w[0] = w[-1] = 1.0
                pieces.append((x, w * (hi - lo) / (3 * (x.size - 1))))
        dwell = np.concatenate([p[0] for p in pieces])
        density = np.exp(-0.5 * ((dwell - t0) / sigma) ** 2)
        weight = np.concatenate([p[1] for p in pieces]) * density
        weight /= weight.sum()
    effective = dwell * PULSE_DURATION / t0
    decay = np.exp(-GAMMA0 * np.maximum(dwell - PULSE_DURATION, 0.0))
    mean = {}
    for spin, det in detunings.items():
        omega_r = math.hypot(OMEGA0, det)
        flip = (OMEGA0 / omega_r) ** 2 * np.sin(
            math.pi * omega_r * effective / 1000.0) ** 2
        p_up = (flip if spin == "down" else 1.0 - flip) * decay
        mean[spin] = float(np.dot(weight, 1.0 - (1.0 - t["p_leak_drain"])
                                  * p_up))
    ps = t["p_leak_source"]
    return (1.0 - ps) * mean["down"] + ps * mean["up"]


def check_readout_events(out: Path, config: dict) -> list[str]:
    tunneling = config.get("tunneling", {})
    (row,) = read_csv(out / "readout.csv")
    n, counts_on = int(row["n_cycles"]), int(row["counts_on"])
    problems = []
    if float(row["classified_m1"]) != READOUT_M1:
        problems.append(f"readout.csv: classified m1 {row['classified_m1']},"
                        f" true {READOUT_M1:g}")
    if n != n_cycles(tunneling):
        problems.append(f"readout.csv: n_cycles {n}, expected "
                        f"{n_cycles(tunneling)}")
    with open(out / "events.csv", newline="") as fh:
        reader = csv.reader(fh)
        passed_col = next(reader).index("passed")
        n_rows = passed = 0
        for rec in reader:
            n_rows += 1
            passed += int(rec[passed_col])
    if n_rows != n:
        problems.append(f"events.csv: {n_rows} rows, n_cycles {n}")
    if passed != counts_on:
        problems.append(f"events.csv: passed sum {passed}, counts_on "
                        f"{counts_on}")
    p = expected_pass_probability(tunneling, READOUT_M1)
    sigma = math.sqrt(n * p * (1.0 - p))
    if not abs(counts_on - n * p) <= PASS_SIGMAS * sigma:
        problems.append(f"readout.csv: counts_on {counts_on} is "
                        f"{(counts_on - n * p) / sigma:+.1f} sigma from the "
                        f"expected {n * p:.1f}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    work: int                # electrons, or RK4 steps for fig2
    check: Callable[[Path, dict], list[str]]
    # Work sizes fixed by the argv and config, so any implementation of the
    # same command must reproduce them; 0 where the workload skips a layer.
    exact_counts: dict[str, int]
    # Counters that must be non-zero. `lindblad_rhs` calls are not pinned:
    # a transfer-map RK4 makes far fewer of them for the same steps.
    positive_counts: tuple[str, ...] = ()
    tunneling: dict = field(default_factory=dict)

    def config(self, seed: int) -> dict:
        doc = {"seed": seed}
        if self.tunneling:
            doc["tunneling"] = dict(self.tunneling)
        return doc


_SWEEP_ELECTRONS = (len(SWEEP_ALPHAS) * len(SWEEP_LEAKS) * SWEEP_STATES
                    * n_cycles({}))
_FIG2_STEPS = len(FIG2_ALPHAS) * (FIG2_ROWS - 1) * FIG2_STEPS_PER_NS
_READOUT_ELECTRONS = n_cycles(READOUT_TUNNELING)

WORKLOADS = {w.name: w for w in (
    Workload("sweep",
             ("sweep", "--alphas", _grid(SWEEP_ALPHAS), "--leaks",
              _grid(SWEEP_LEAKS), "--trials", "1", "--encoding", "both"),
             _SWEEP_ELECTRONS, check_sweep,
             {"protocol.electrons": _SWEEP_ELECTRONS,
              "dynamics.rk4_steps": 0, "dynamics.lindblad_rhs.calls": 0}),
    Workload("fig2", ("fig2", "--alphas", _grid(FIG2_ALPHAS)),
             _FIG2_STEPS, check_fig2,
             {"protocol.electrons": 0, "dynamics.rk4_steps": _FIG2_STEPS},
             positive_counts=("dynamics.lindblad_rhs.calls",)),
    Workload("readout-events",
             ("readout", "--true-state=-3/2", "--events"),
             _READOUT_ELECTRONS, check_readout_events,
             {"protocol.electrons": _READOUT_ELECTRONS,
              "dynamics.rk4_steps": 0, "dynamics.lindblad_rhs.calls": 0},
             tunneling=READOUT_TUNNELING),
)}
