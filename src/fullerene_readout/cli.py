"""
Command-line harness: `sim table|fig2|readout|sweep|mechanics`.

Every command loads a JSON config (all fields defaulted), writes CSV data
files into the output directory, and records a manifest.json echoing the
config, command line, wall time, and sha256 digests of everything written.
Exit codes: 0 success, 1 validation error, 2 io error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import SimulationConfig, parse_config
from .dynamics import evolve_numeric, fig2_timeseries, imperfect_flip_state
from .errors import ConfigError, NumericFailure, as_option, require
from .protocol import (MAX_EVENT_CYCLES, InsideSpinState, classify,
                       fidelity_sweep, resonance_frequency, run_window,
                       write_events_csv)
from .records import write_records
from .spin_core import (check_weak_coupling, eigenenergies, transition_table,
                        vibration_shift, zeeman_separation)

OUTPUT_DIR_ENV = "SIM_OUTPUT_DIR"

_STATE_NAMES = {"+3/2": 1.5, "3/2": 1.5, "-3/2": -1.5,
                "+1/2": 0.5, "1/2": 0.5, "-1/2": -0.5}


class Manifest:
    """Collects outputs for the per-invocation manifest.json."""

    def __init__(self, command: str, argv: list[str],
                 config: SimulationConfig, out_dir: Path):
        self.command = command
        self.argv = argv
        self.config = config
        self.out_dir = out_dir
        self.outputs: list[tuple[Path, str]] = []
        self.extra: dict = {}
        self._start = time.monotonic()

    def add(self, path: Path, sha256: str) -> None:
        self.outputs.append((path, sha256))

    def add_records(self, name: str, columns: dict) -> None:
        """Write one CSV or JSONL output file and record it."""
        path = self.out_dir / name
        self.add(path, write_records(path, columns))

    def write(self) -> None:
        doc = {
            "artifact_version": __version__,
            "command": self.command,
            "argv": self.argv,
            "config": self.config.to_dict(),
            "duration_s": time.monotonic() - self._start,
            "outputs": [{"path": p.name, "sha256": digest}
                        for p, digest in self.outputs],
        }
        doc.update(self.extra)
        try:
            text = json.dumps(doc, indent=2, allow_nan=False)
        except ValueError as exc:
            raise NumericFailure(f"manifest.json: {exc}") from exc
        (self.out_dir / "manifest.json").write_text(text + "\n")


def cmd_table(config: SimulationConfig, manifest: Manifest) -> None:
    rows = transition_table(config.system, config.aniso)
    levels = eigenenergies(config.system, config.aniso)
    manifest.add_records("transitions.csv", {
        "row": range(1, len(rows) + 1), "kind": [r.kind for r in rows],
        "m1_initial": [r.initial[0] for r in rows],
        "m2_initial": [r.initial[1] for r in rows],
        "m1_final": [r.final[0] for r in rows],
        "m2_final": [r.final[1] for r in rows],
        "formula": [f'"{r.formula}"' for r in rows],
        "frequency_mhz": [r.frequency for r in rows]})
    manifest.add_records("levels.csv", {
        "m1": [lv.m1 for lv in levels], "m2": [lv.m2 for lv in levels],
        "energy_mhz": [lv.energy for lv in levels]})
    check = check_weak_coupling(config.system)
    print(f"weak-coupling |J|/|nu2-nu1| = {check.ratio:.4g} "
          f"({'ok' if check.ok else 'VIOLATED'})")
    print(f"wrote transitions.csv ({len(rows)} rows), "
          f"levels.csv ({len(levels)} levels)")


def cmd_fig2(config: SimulationConfig, manifest: Manifest,
             alphas: list[float], dt_numeric: float = 0.1) -> None:
    require(len(alphas) > 0, "fig2.alphas", "must be non-empty")
    with as_option("fig2.alphas"):
        starts = [imperfect_flip_state(alpha, "+") for alpha in alphas]
    names = [f"fig2_alpha_{alpha:g}.csv" for alpha in alphas]
    for i, name in enumerate(names):
        require(name not in names[:i], "fig2.alphas",
                f"two values would write {name}: they must differ in their "
                "first 6 significant digits")
    overall = 0.0
    for alpha, name, rho in zip(alphas, names, starts):
        series = fig2_timeseries(alpha, config.rates)
        num = np.empty((len(series.times), 3))
        num[0] = [rho[0, 0].real, abs(rho[0, 1]), rho[1, 1].real]
        for i in range(1, len(series.times)):
            step = series.times[i] - series.times[i - 1]
            rho = evolve_numeric(rho, config.rates, None, step, dt_numeric)
            num[i] = [rho[0, 0].real, abs(rho[0, 1]), rho[1, 1].real]
        dev = np.max(np.abs(
            num - np.column_stack([series.P1, series.P2, series.P3])), axis=1)
        overall = max(overall, float(dev.max()))
        manifest.add_records(name, {
            "t_ns": series.times, "P1": series.P1, "P2": series.P2,
            "P3": series.P3, "P1_numeric": num[:, 0], "P2_numeric": num[:, 1],
            "P3_numeric": num[:, 2], "max_abs_dev": dev})
        print(f"alpha={alpha:g}: max analytic/numeric deviation "
              f"{dev.max():.3e}")
    manifest.extra["max_abs_deviation"] = overall


def cmd_readout(config: SimulationConfig, manifest: Manifest,
                inside: InsideSpinState, events: bool) -> None:
    if events:
        require(config.tunneling.n_cycles <= MAX_EVENT_CYCLES,
                "tunneling.window", f"must hold at most {MAX_EVENT_CYCLES:.0e}"
                " cycles of cycle_period with --events")
    freq = resonance_frequency(inside, config.system)
    pulse = dataclasses.replace(config.pulse, frequency=freq)
    trace = run_window(inside, pulse, config.system, config.tunneling,
                       config.rates, config.seed, collect_events=events)
    result = classify(trace, config.tunneling, inside.encoding)
    manifest.extra["interrogation_mhz"] = freq
    row = {"true_m1": [inside.m1], "encoding": [inside.encoding],
           "interrogation_mhz": [freq], "n_cycles": [trace.n_cycles],
           "counts_on": [result.counts_on], "baseline": [result.baseline],
           "threshold": [result.threshold],
           "classified_m1": [result.classified.m1],
           "contrast": [result.contrast], "seed": [trace.seed]}
    manifest.add_records("readout.csv", row)
    manifest.add_records("readout.jsonl", row)
    if events:
        epath = manifest.out_dir / "events.csv"
        manifest.add(epath, write_events_csv(trace, epath))
    print(f"classified m1 = {result.classified.m1:+g} ({inside.encoding}), "
          f"counts {result.counts_on}/{trace.n_cycles}, "
          f"contrast {result.contrast:.6f}")


def cmd_sweep(config: SimulationConfig, manifest: Manifest,
              alphas: list[float], leaks: list[float], trials: int,
              encoding: str) -> None:
    cells = fidelity_sweep(encoding, config.system, config.rates, alphas,
                           leaks, trials, config.seed,
                           tunneling=config.tunneling, pulse=config.pulse)
    rows = {"alpha": [c.alpha for c in cells],
            "p_leak": [c.p_leak for c in cells],
            "encoding": [c.true_state.encoding for c in cells],
            "true_m1": [c.true_state.m1 for c in cells],
            "trials": [c.trials for c in cells],
            "misclassified": [c.misclassified for c in cells],
            "rate": [c.rate for c in cells],
            "base_seed": [config.seed] * len(cells)}
    manifest.add_records("sweep.csv", rows)
    manifest.add_records("sweep.jsonl", rows)
    worst = max(c.rate for c in cells)
    print(f"sweep: {len(cells)} cells, worst misclassification rate "
          f"{worst:.4g}")


def cmd_mechanics(config: SimulationConfig, manifest: Manifest) -> None:
    shift = vibration_shift(config.constants, config.mechanics)
    sep = zeeman_separation(config.constants, config.mechanics)
    report = {"vibration_shift_m": shift.shift, "shift_ratio": shift.ratio,
              "zeeman_separation_mhz": sep}
    for name, value in report.items():
        if not math.isfinite(value):
            raise NumericFailure(f"manifest.json: {name} is {value}")
    ok = sep >= 127.0
    print(f"vibration shift dz = {shift.shift:.4g} m "
          f"({shift.shift * 1e12:.4g} pm)")
    print(f"Coulomb displacement reference = "
          f"{config.mechanics.coulomb_shift:.4g} m")
    print(f"ratio dz / reference = {shift.ratio:.4g}")
    print(f"Zeeman separation = {sep:.4g} MHz "
          f"({'>=127 MHz satisfied' if ok else 'below 127 MHz'})")
    manifest.extra.update(report, separation_ok=ok)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim",
        description="SET-based single-spin readout simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")

    common(sub.add_parser("table", help="transition table and levels"))
    p = sub.add_parser("fig2", help="free-decay time series")
    common(p)
    p.add_argument("--alphas", default="0.1,0.2",
                   help="comma-separated flip-error fractions")
    p = sub.add_parser("readout", help="single readout window")
    common(p)
    p.add_argument("--true-state", default="+3/2",
                   choices=sorted(_STATE_NAMES))
    p.add_argument("--events", action="store_true",
                   help="write per-electron event log")
    p = sub.add_parser("sweep", help="misclassification-rate grid")
    common(p)
    p.add_argument("--alphas", default="0,0.1,0.2")
    p.add_argument("--leaks", default="0,0.05")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--encoding", default="both",
                   choices=["outer", "inner", "both"])
    common(sub.add_parser("mechanics", help="spin-vibration report"))
    return parser


def _parse_grid(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"invalid grid '{text}'") from exc


def run(argv: list[str]) -> None:
    args = build_parser().parse_args(argv)
    config = parse_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    out_dir = Path(args.out or os.environ.get(OUTPUT_DIR_ENV)
                   or config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(args.command, list(argv), config, out_dir)
    if args.command == "table":
        cmd_table(config, manifest)
    elif args.command == "fig2":
        cmd_fig2(config, manifest, _parse_grid(args.alphas))
    elif args.command == "readout":
        m1 = _STATE_NAMES[args.true_state]
        inside = InsideSpinState(m1, "outer" if abs(m1) == 1.5 else "inner")
        cmd_readout(config, manifest, inside, args.events)
    elif args.command == "sweep":
        cmd_sweep(config, manifest, _parse_grid(args.alphas),
                  _parse_grid(args.leaks), args.trials, args.encoding)
    elif args.command == "mechanics":
        cmd_mechanics(config, manifest)
    manifest.write()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        run(argv)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    raise SystemExit(main())
