"""
Command-line harness: `sim table|fig2|readout|sweep|mechanics`.

Every command loads a JSON config (all fields defaulted), writes CSV data
files into the output directory (`--out`, default `out`), and records a
manifest.json echoing the config, command line, wall time, and sha256 digests
of everything written, listed in the order their files were completed.
Exit codes: 0 success, 1 validation error (a bad config or command line),
2 io error, 3 numeric failure.
A command's report is printed only once the manifest is written. A run that
fails removes every file it wrote and prints no report, so no output is left
or named without its manifest.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from contextlib import contextmanager, nullcontext
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import SimulationConfig, parse_config
from .dynamics import evolve_numeric, fig2_timeseries, imperfect_flip_state
from .errors import ConfigError, NumericFailure, check_grid, require
from .protocol import (EVENT_COLUMNS, MAX_EVENT_CYCLES, classify,
                       fidelity_sweep, resonance_frequency, run_window,
                       sweep_states, write_events_csv)
from .records import RecordWriter
from .spin_core import (REQUIRED_SEPARATION_MHZ, check_weak_coupling,
                        eigenenergies, transition_table, vibration_shift,
                        zeeman_separation)

_FIG2_DT = 0.1   # ns, RK4 step of fig2's numeric cross-check

# --true-state: each state the sweep reads, named by its m1 ("-3/2")
_STATES = {f"{2 * s.m1:+g}/2": s for s in sweep_states("both")}


class Manifest:
    """Collects outputs for the per-invocation manifest.json."""

    def __init__(self, command: str, argv: list[str],
                 config: SimulationConfig, out_dir: Path):
        self.command = command
        self.argv = argv
        self.config = config
        self.out_dir = out_dir
        self.outputs: list[tuple[Path, str]] = []   # in order of completion
        self.extra: dict = {}
        self._start = time.monotonic()

    def discard(self) -> None:
        """Remove every file this run wrote: a failed run leaves none."""
        for path, _ in self.outputs:
            path.unlink(missing_ok=True)

    @contextmanager
    def writer(self, name: str, names):
        """A `RecordWriter` of `name` in the output directory. The file is
        listed once the writer closes cleanly; a failed writer removes it."""
        with RecordWriter(self.out_dir / name, names) as out:
            yield out
        self.outputs.append((out.path, out.sha256))

    def add_records(self, name: str, columns: dict) -> None:
        """Write one CSV or JSONL output file in one block, and list it."""
        with self.writer(name, columns) as out:
            out.write(columns.values())

    def write(self) -> None:
        doc = {
            "artifact_version": __version__,
            "command": self.command,
            "argv": self.argv,
            "config": dataclasses.asdict(self.config),
            "duration_s": time.monotonic() - self._start,
            "outputs": [{"path": p.name, "sha256": digest}
                        for p, digest in self.outputs],
        }
        doc.update(self.extra)
        for key, value in self.extra.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise NumericFailure(f"manifest.json: {key} is {value}")
        text = json.dumps(doc, indent=2, allow_nan=False)
        path = self.out_dir / "manifest.json"
        with open(path, "w") as fh:
            self.outputs.append((path, ""))   # so that discard() removes it
            fh.write(text + "\n")


def cmd_table(config: SimulationConfig, manifest: Manifest, args) -> str:
    rows = transition_table(config.system)
    levels = eigenenergies(config.system)
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
    return (f"weak-coupling |J|/|nu2-nu1| = {check.ratio:.4g} "
            f"({'ok' if check.ok else 'VIOLATED'})\n"
            f"wrote transitions.csv ({len(rows)} rows), "
            f"levels.csv ({len(levels)} levels)")


def cmd_fig2(config: SimulationConfig, manifest: Manifest, args) -> str:
    alphas = check_grid(_parse_grid(args.alphas, "fig2.alphas"),
                        "fig2.alphas", imperfect_flip_state)
    names = [f"fig2_alpha_{alpha:g}.csv" for alpha in alphas]
    for i, name in enumerate(names):
        require(name not in names[:i], "fig2.alphas",
                f"two values would write {name}: they must differ in their "
                "first 6 significant digits")
    overall, report = 0.0, []
    for alpha, name in zip(alphas, names):
        rho = imperfect_flip_state(alpha)
        series = fig2_timeseries(alpha, config.rates)
        t = series["t_ns"]
        states = evolve_numeric(rho, config.rates, t=t[-1], dt=_FIG2_DT,
                                samples=len(t) - 1)
        num = np.empty((len(t), 3))
        num[0] = [rho[0, 0].real, abs(rho[0, 1]), rho[1, 1].real]
        num[1:, 0] = states[:, 0, 0].real
        # hypot, as the scalar abs(rho[0, 1]) of row 0 computes it; the
        # vector loop of np.abs on complex arrays can differ in the last bit
        np.hypot(states[:, 0, 1].real, states[:, 0, 1].imag, out=num[1:, 1])
        num[1:, 2] = states[:, 1, 1].real
        del states   # its 64 kB would raise the writer's peak RSS
        dev = np.max(np.abs(num - np.column_stack(
            [series["P1"], series["P2"], series["P3"]])), axis=1)
        overall = max(overall, float(dev.max()))
        manifest.add_records(name, {
            **series, "P1_numeric": num[:, 0], "P2_numeric": num[:, 1],
            "P3_numeric": num[:, 2], "max_abs_dev": dev})
        report.append(f"alpha={alpha:g}: max analytic/numeric deviation "
                      f"{dev.max():.3e}")
    manifest.extra["max_abs_deviation"] = overall
    return "\n".join(report)


def cmd_readout(config: SimulationConfig, manifest: Manifest, args) -> str:
    inside = _STATES[args.true_state]
    if args.events:
        require(config.tunneling.n_cycles <= MAX_EVENT_CYCLES,
                "tunneling.window", f"must hold at most {MAX_EVENT_CYCLES:.0e}"
                " cycles of cycle_period with --events")
    freq = resonance_frequency(inside, config.system)
    # events.csv is written block by block, as the window draws them
    with (manifest.writer("events.csv", EVENT_COLUMNS) if args.events
          else nullcontext()) as log:
        sink = None if log is None else partial(write_events_csv, log)
        trace = run_window(inside, config.pulse, config.system,
                           config.tunneling, config.rates, config.seed, sink)
    result = classify(trace, config.tunneling, inside)
    manifest.extra["interrogation_mhz"] = freq
    row = {"true_m1": [inside.m1], "encoding": [inside.encoding],
           "interrogation_mhz": [freq], "n_cycles": [trace.n_cycles],
           "counts_on": [trace.n_passed], "baseline": [result.baseline],
           "threshold": [result.threshold],
           "classified_m1": [result.classified.m1],
           "contrast": [result.contrast], "seed": [config.seed]}
    manifest.add_records("readout.csv", row)
    manifest.add_records("readout.jsonl", row)
    return (f"classified m1 = {result.classified.m1:+g} ({inside.encoding}), "
            f"counts {trace.n_passed}/{trace.n_cycles}, "
            f"contrast {result.contrast:.6f}")


def cmd_sweep(config: SimulationConfig, manifest: Manifest, args) -> str:
    rows = fidelity_sweep(args.encoding, config.system, config.rates,
                          _parse_grid(args.alphas, "sweep.alphas"),
                          _parse_grid(args.leaks, "sweep.leaks"), args.trials,
                          config.seed, tunneling=config.tunneling,
                          pulse=config.pulse)
    manifest.add_records("sweep.csv", rows)
    manifest.add_records("sweep.jsonl", rows)
    return (f"sweep: {len(rows['rate'])} cells, worst misclassification "
            f"rate {max(rows['rate']):.4g}")


def cmd_mechanics(config: SimulationConfig, manifest: Manifest, args) -> str:
    shift = vibration_shift(config.constants, config.mechanics)
    sep = zeeman_separation(config.constants, config.mechanics)
    ok = sep >= REQUIRED_SEPARATION_MHZ
    need = f"{REQUIRED_SEPARATION_MHZ:g} MHz"
    manifest.extra.update(vibration_shift_m=shift.shift,
                          shift_ratio=shift.ratio, zeeman_separation_mhz=sep,
                          separation_ok=ok)
    return (f"vibration shift dz = {shift.shift:.4g} m "
            f"({shift.shift * 1e12:.4g} pm)\n"
            f"Coulomb displacement reference = "
            f"{config.mechanics.coulomb_shift:.4g} m\n"
            f"ratio dz / reference = {shift.ratio:.4g}\n"
            f"Zeeman separation = {sep:.4g} MHz "
            f"({f'>={need} satisfied' if ok else f'below {need}'})")


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError (exit 1), not by exiting
    2; its subparsers are of this class too."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sim",
        description="SET-based single-spin readout simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, cmd, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(cmd=cmd)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="out", help="output directory")
        return p

    command("table", cmd_table, "transition table and levels")
    p = command("fig2", cmd_fig2, "free-decay time series")
    p.add_argument("--alphas", default="0.1,0.2",
                   help="comma-separated flip-error fractions")
    p = command("readout", cmd_readout, "single readout window")
    p.add_argument("--true-state", default="+3/2",
                   choices=_STATES)
    p.add_argument("--events", action="store_true",
                   help="write per-electron event log")
    p = command("sweep", cmd_sweep, "misclassification-rate grid")
    p.add_argument("--alphas", default="0,0.1,0.2")
    p.add_argument("--leaks", default="0,0.05")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--encoding", default="both",
                   choices=["outer", "inner", "both"])
    command("mechanics", cmd_mechanics, "spin-vibration report")
    return parser


def _parse_grid(text: str, option: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"{option}: invalid grid '{text}'") from exc


def run(argv: list[str]) -> None:
    args = build_parser().parse_args(argv)
    config = parse_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(args.command, list(argv), config, out_dir)
    try:
        report = args.cmd(config, manifest, args)
        manifest.write()
    except BaseException:
        manifest.discard()
        raise
    print(report)


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
