"""One benchmark child process: set up, then run `sim` once via `cli.main`.

    python3 child.py REPORT SRC CONFIG MODE [SIM_ARGV...]

MODE is `setup` (import and parse only), `run`, or `trace` (run with the
layer functions wrapped). Writes a JSON report to REPORT and exits with
`cli.main`'s code.
"""

from __future__ import annotations

import json
import sys
import time

from tracer import Tracer


def _rk4_steps(args, kwargs, result) -> dict[str, int]:
    """RK4 steps `evolve_numeric(rho0, rates, hamiltonian, t, dt)` takes:
    floor(t / dt) full steps plus one for a remainder above 1e-12."""
    t = kwargs["t"] if "t" in kwargs else args[3]
    dt = kwargs["dt"] if "dt" in kwargs else args[4]
    full = int(t // dt)
    return {"dynamics.rk4_steps": full + int(t - full * dt > 1e-12)}


def _electrons(args, kwargs, trace) -> dict[str, int]:
    return {"protocol.electrons": trace.n_cycles}


def instrument(tracer: Tracer) -> None:
    """Wrap the layer functions at each module that calls them."""
    from fullerene_readout import cli, dynamics, protocol

    hooks = {"run_window": _electrons, "evolve_numeric": _rk4_steps}
    sites = [(cli, name) for name in (
        "main", "parse_config", "transition_table", "resonance_frequency",
        "run_window", "classify", "write_events_csv", "fidelity_sweep",
        "fig2_timeseries", "imperfect_flip_state", "evolve_numeric")]
    sites += [(protocol, "run_window"), (protocol, "classify")]
    for module, name in sites:
        layer = getattr(module, name).__module__.rsplit(".", 1)[-1]
        layer = {"config": "cli"}.get(layer, layer)   # parse_config
        tracer.wrap(module, name, f"{layer}.{name}", hooks.get(name))
    tracer.count(dynamics, "lindblad_rhs", "dynamics.lindblad_rhs")


def main(argv: list[str]) -> int:
    report_path, src, config_path, mode, *sim_argv = argv
    start = time.perf_counter()
    sys.path.insert(0, src)
    from fullerene_readout import cli
    cli.parse_config(config_path)
    report = {"setup_s": time.perf_counter() - start}
    code = 0
    if mode != "setup":
        tracer = Tracer()
        if mode == "trace":
            instrument(tracer)
        start = time.perf_counter()
        try:
            code = cli.main(sim_argv)
        finally:
            report["main_s"] = time.perf_counter() - start
            tracer.restore()
        if mode == "trace":
            report["trace"] = tracer.to_dict()
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
