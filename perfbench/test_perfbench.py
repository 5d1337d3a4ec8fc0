"""Tests of the benchmark's own checks, oracle and tracer.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import types
from pathlib import Path

import pytest

import workloads
from tracer import Tracer, self_times, summarize
from workloads import (READOUT_TUNNELING, WORKLOADS, check_readout_events,
                       check_sweep, expected_pass_probability)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def write_sweep(out: Path, bad_cell: int | None = None) -> None:
    out.mkdir()
    lines = ["alpha,p_leak,encoding,true_m1,trials,misclassified,rate,"
             "base_seed"]
    i = 0
    for a in workloads.SWEEP_ALPHAS:
        for leak in workloads.SWEEP_LEAKS:
            for enc, m1 in (("outer", 1.5), ("outer", -1.5),
                            ("inner", 0.5), ("inner", -0.5)):
                bad = int(i == bad_cell)
                lines.append(f"{a:g},{leak:g},{enc},{m1:g},1,{bad},{bad},0")
                i += 1
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")


def test_sweep_check_accepts_clean_grid(tmp_path):
    write_sweep(tmp_path / "out")
    assert check_sweep(tmp_path / "out", {}) == []


def test_sweep_check_rejects_one_misclassified_cell(tmp_path):
    write_sweep(tmp_path / "out", bad_cell=17)
    problems = check_sweep(tmp_path / "out", {})
    assert len(problems) == 1 and "misclassified 1" in problems[0]


SMALL_READOUT = {**READOUT_TUNNELING, "window": 150.0 * 4000}


def write_readout(out: Path, counts_on: int, passed: int) -> None:
    """readout.csv with `counts_on` and an events.csv whose passed column
    sums to `passed`, for a 4000-cycle window."""
    n = workloads.n_cycles(SMALL_READOUT)
    out.mkdir()
    (out / "readout.csv").write_text(
        "true_m1,encoding,interrogation_mhz,n_cycles,counts_on,baseline,"
        "threshold,classified_m1,contrast,seed\n"
        f"-1.5,outer,20202,{n},{counts_on},3800,1900,-1.5,0,0\n")
    rows = [f"{i},150,down,0.0001,{int(i < passed)}" for i in range(n)]
    (out / "events.csv").write_text(
        "cycle,dwell_ns,spin_in,flip_prob,passed\n" + "\n".join(rows) + "\n")


def test_readout_check_accepts_consistent_events(tmp_path):
    n = workloads.n_cycles(SMALL_READOUT)
    k = round(n * expected_pass_probability(SMALL_READOUT, -1.5))
    write_readout(tmp_path / "out", k, k)
    config = {"tunneling": SMALL_READOUT}
    assert check_readout_events(tmp_path / "out", config) == []


def test_readout_check_rejects_passed_sum_mismatch(tmp_path):
    n = workloads.n_cycles(SMALL_READOUT)
    k = round(n * expected_pass_probability(SMALL_READOUT, -1.5))
    write_readout(tmp_path / "out", k, k - 1)
    problems = check_readout_events(tmp_path / "out",
                                    {"tunneling": SMALL_READOUT})
    assert len(problems) == 1 and "passed sum" in problems[0]


def test_readout_check_rejects_improbable_count(tmp_path):
    n = workloads.n_cycles(SMALL_READOUT)
    k = round(n * 0.9)     # ~17 sigma below the expectation
    write_readout(tmp_path / "out", k, k)
    problems = check_readout_events(tmp_path / "out",
                                    {"tunneling": SMALL_READOUT})
    assert len(problems) == 1 and "sigma" in problems[0]


@pytest.mark.parametrize("tunneling,m1", [
    ({"alpha": 0.1, "p_leak_source": 0.05, "p_leak_drain": 0.05}, -1.5),
    ({"alpha": 0.2, "p_leak_source": 0.1, "p_leak_drain": 0.02}, 1.5),
])
def test_pass_probability_matches_simulator(tunneling, m1):
    """The quadrature oracle agrees with the simulator's Monte Carlo."""
    sys.path.insert(0, str(SRC))
    try:
        from fullerene_readout import (DecoherenceRates, InsideSpinState,
                                       PulseSpec, SystemParams,
                                       TunnelingParams, run_window)
    finally:
        sys.path.remove(str(SRC))
    tunneling = {**tunneling, "window": 150.0 * 100_000}
    system = SystemParams(nu1=workloads.NU1, nu2=workloads.NU2,
                          J=workloads.J)
    pulse = PulseSpec.calibrated(2 * workloads.NU2 + 1.5 * workloads.J)
    trace = run_window(InsideSpinState(m1, "outer"), pulse, system,
                       TunnelingParams(**tunneling), DecoherenceRates(),
                       seed=11)
    p = expected_pass_probability(tunneling, m1)
    sigma = math.sqrt(trace.n_cycles * p * (1 - p))
    assert abs(trace.n_passed - trace.n_cycles * p) <= 5 * sigma


def test_workload_sizes():
    assert WORKLOADS["sweep"].work == 1_599_984
    assert WORKLOADS["fig2"].work == 40_000
    assert WORKLOADS["fig2"].exact_counts["dynamics.rk4_steps"] == 40_000
    assert WORKLOADS["readout-events"].work == 200_000


def test_self_time_on_synthetic_tree():
    spans = [
        [0, None, "cli.main", "cli.main", 0.0, 10.0],
        [1, 0, "cli.a", "x.a", 1.0, 3.0],
        [2, 1, "x.b", "x.b", 1.5, 2.5],
        [3, 0, "cli.c", "x.c", 2.0, 5.0],    # overlaps span 1
        [4, 0, "cli.a", "x.a", 6.0, 7.0],
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(1.0)
    assert (selfs[2], selfs[3], selfs[4]) == pytest.approx((1.0, 3.0, 1.0))
    totals = summarize(spans)
    assert totals["x.a"] == pytest.approx({"s": 3.0, "self_s": 2.0})
    assert totals["cli.main"]["self_s"] == pytest.approx(5.0)


def test_tracer_records_nesting_and_restores():
    mod = types.ModuleType("pkg.layer")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(mod.leaf(x)) + mod.hot()

    mod.leaf, mod.outer, mod.hot = leaf, outer, lambda: 0
    tracer = Tracer(clock=iter(range(100)).__next__)
    tracer.wrap(mod, "outer", "layer.outer",
                lambda args, kwargs, result: {"work": result})
    tracer.wrap(mod, "leaf", "layer.leaf")
    hot = mod.hot
    tracer.count(mod, "hot", "layer.hot")
    assert mod.outer(1) == 3
    tracer.restore()
    assert (mod.leaf, mod.outer, mod.hot) == (leaf, outer, hot)
    assert tracer.counts == {"layer.outer.calls": 1, "layer.leaf.calls": 2,
                             "layer.hot.calls": 1, "work": 3}
    assert [(s[0], s[1], s[2], s[3]) for s in tracer.spans] == [
        (0, None, "layer.outer", "layer.outer"),
        (1, 0, "layer.leaf", "layer.leaf"),
        (2, 0, "layer.leaf", "layer.leaf")]
    assert json.loads(json.dumps(tracer.to_dict()))["counts"]["work"] == 3


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
