"""Benchmark of the `sim` command, run from the root of a source checkout.

    python3 perfbench/run.py --workload {sweep,fig2,readout-events} \
        --seed N --seconds S --trace {0,1}

A closed loop with one caller: child processes run one at a time, each a
fresh single-threaded interpreter (BLAS threads pinned to 1) that imports the
checkout's `src/` and calls `fullerene_readout.cli.main` with a config and
argv generated from the seed. Children are started while the next one
should end within S seconds. Each child's outputs are checked; a nonzero exit
or a failed check counts as a failed run.

`--trace 0` reports the end-to-end metrics: medians over children of wall
time, set-up time, work per second of `cli.main` and peak RSS. `--trace 1`
alternates untraced and traced children and reports per-layer metrics from
the traced ones, checks their work counts, and reports the tracing overhead.
The last line of stdout is the JSON result; the line before it records the
environment.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from tracer import summarize
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "SIM_OUTPUT_DIR")}
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workdir: Path, src: Path, config: dict, mode: str,
              argv: tuple[str, ...] = ()) -> dict:
    """Run one child in `workdir`; returns its report plus wall time, exit
    code and resource usage from `os.wait4`."""
    workdir.mkdir(parents=True)
    (workdir / "config.json").write_text(json.dumps(config))
    cmd = [sys.executable, str(HERE / "child.py"), "report.json", str(src),
           "config.json", mode, *argv, "--config", "config.json",
           "--out", "out"]
    with open(workdir / "stdout.txt", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=workdir, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        report = json.loads((workdir / "report.json").read_text())
    except (OSError, ValueError):
        report = {}
    report.update(wall_s=wall, returncode=proc.returncode,
                  cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0)
    return report


def output_size(out: Path) -> tuple[int, int]:
    files = [p for p in out.iterdir() if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def run_work_child(workdir: Path, src: Path, wl: Workload, seed: int,
                   mode: str) -> dict:
    config = wl.config(seed)
    r = run_child(workdir, src, config, mode, wl.argv)
    problems = []
    if r["returncode"] != 0:
        log = (workdir / "stdout.txt").read_text(errors="replace").strip()
        problems.append(f"exit code {r['returncode']}: "
                        f"{log.splitlines()[-1] if log else 'no output'}")
    else:
        out = workdir / "out"
        try:
            problems += wl.check(out, config)
            r["files_written"], r["bytes_written"] = output_size(out)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        if mode == "trace":
            counts = r.get("trace", {}).get("counts", {})
            for key, want in wl.exact_counts.items():
                if counts.get(key, 0) != want:
                    problems.append(f"trace count {key} = "
                                    f"{counts.get(key, 0)}, expected {want}")
            for key in wl.positive_counts:
                if counts.get(key, 0) <= 0:
                    problems.append(f"trace count {key} = 0, expected > 0")
            r["events_bytes"] = ((out / "events.csv").stat().st_size
                                 if (out / "events.csv").exists() else 0)
    r["problems"] = problems
    shutil.rmtree(workdir)
    return r


def layer_metrics(r: dict) -> dict[str, float]:
    """Per-layer metrics of one traced child."""
    counts = r["trace"]["counts"]
    fns = summarize(r["trace"]["spans"])

    def s(fn: str, key: str = "s") -> float:
        return fns.get(fn, {}).get(key, 0.0)

    def rate(n: float, seconds: float) -> float:
        return n / seconds if seconds > 0 else 0.0

    electrons = counts.get("protocol.electrons", 0)
    steps = counts.get("dynamics.rk4_steps", 0)
    return {
        "protocol.run_window.calls": counts.get("protocol.run_window.calls", 0),
        "protocol.run_window.s": s("protocol.run_window"),
        "protocol.electrons": electrons,
        "protocol.electrons_per_s": rate(electrons, s("protocol.run_window")),
        "protocol.fidelity_sweep.self_s": s("protocol.fidelity_sweep",
                                            "self_s"),
        "protocol.classify.s": s("protocol.classify"),
        "protocol.write_events_csv.s": s("protocol.write_events_csv"),
        "protocol.events_mb_per_s": rate(r["events_bytes"] / 1e6,
                                         s("protocol.write_events_csv")),
        "dynamics.evolve_numeric.calls":
            counts.get("dynamics.evolve_numeric.calls", 0),
        "dynamics.evolve_numeric.s": s("dynamics.evolve_numeric"),
        "dynamics.rk4_steps": steps,
        "dynamics.rk4_steps_per_s": rate(steps, s("dynamics.evolve_numeric")),
        "dynamics.lindblad_rhs.calls":
            counts.get("dynamics.lindblad_rhs.calls", 0),
        "spin_core.transition_table.calls":
            counts.get("spin_core.transition_table.calls", 0),
        "spin_core.transition_table.s": s("spin_core.transition_table"),
        "cli.parse_config.s": s("cli.parse_config"),
        "cli.main.s": s("cli.main"),
        "cli.self_s": s("cli.main", "self_s"),
        "cli.bytes_written": r["bytes_written"],
        "cli.files_written": r["files_written"],
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """HEAD of the checkout at `root`, or "unknown" outside a git work tree
    (git must not pick up a repository above `root`)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root: Path, args, load_before) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "loadavg_before": load_before,
            "loadavg_after": list(os.getloadavg()),
            "git_commit": git_commit(root),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def measure(wl: Workload, src: Path, tmp: Path, seed: int, seconds: float,
            trace: bool) -> tuple[list[dict], list[dict]]:
    """Run children for about `seconds`: returns (untraced runs, traced
    runs)."""
    rng = random.Random(seed)
    workdirs = (tmp / f"child-{i}" for i in itertools.count())

    def work_child(mode: str) -> dict:
        return run_work_child(next(workdirs), src, wl, rng.getrandbits(31),
                              mode)

    # Warms the file cache and writes bytecode; not kept.
    warm = run_child(tmp / "warm-up", src, wl.config(seed), "setup")
    if warm["returncode"] != 0:
        raise RuntimeError(f"set-up child exited with code "
                           f"{warm['returncode']}")
    plain, traced, steps = [], [], []
    start = time.perf_counter()
    # A step is one untraced child, plus one traced child with --trace 1.
    # The next step starts only if it should end within `seconds`, so that
    # a run lasts about `seconds`.
    while not steps or (time.perf_counter() - start + median(steps)
                        <= seconds):
        step_start = time.perf_counter()
        plain.append(work_child("run"))
        if trace:
            traced.append(work_child("trace"))
        steps.append(time.perf_counter() - step_start)
    return plain, traced


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "fullerene_readout" / "cli.py").is_file():
        print(f"perfbench: no fullerene_readout package under {src}; run "
              f"from the root of a source checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {kind: {m["name"]: m["unit"] for m in spec[kind]}
                for kind in ("end_to_end", "per_layer")}
    load_before = list(os.getloadavg())
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        plain, traced = measure(wl, src, Path(tmp), args.seed, args.seconds,
                                bool(args.trace))
    runs = plain + traced
    failed = [r for r in runs if r["problems"]]
    for r in failed:
        print("FAILED:", "; ".join(r["problems"]), file=sys.stderr)
    ok = [r for r in plain if not r["problems"]]
    if not args.trace:
        metrics = {
            "wall_s": median(r["wall_s"] for r in ok),
            "setup_s": median(r["setup_s"] for r in ok),
            "work_per_s": median(wl.work / r["main_s"] for r in ok),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in ok),
        }
        units = declared["end_to_end"]
    else:
        # median_low keeps each value one child's own, so counts stay exact.
        layers = [layer_metrics(r) for r in traced if not r["problems"]]
        metrics = {k: statistics.median_low(m[k] for m in layers)
                   for k in layers[0]} if layers else \
            {k: float("nan") for k in declared["per_layer"]}
        metrics["proc.cpu_s"] = median(r["cpu_s"] for r in ok)
        # Each traced child runs right after an untraced one; differencing
        # the pairs cancels the machine's slow drift in speed.
        metrics["trace.overhead_s"] = median(
            t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced)
            if not (p["problems"] or t["problems"]))
        units = declared["per_layer"]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           f"differ from BENCHMARK.json")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"fail_rate {len(failed) / len(runs)!r} ratio "
          f"({len(failed)}/{len(runs)} runs)")
    print("environment", json.dumps(environment(root, args, load_before)))
    print(json.dumps({
        "correct": not failed, "attempted": len(runs), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
