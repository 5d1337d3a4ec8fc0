import hashlib
import json
import math
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np
import pytest

from fullerene_readout import protocol
from fullerene_readout.cli import Manifest, main
from fullerene_readout.config import (_SECTIONS, SimulationConfig,
                                      config_from_dict, parse_config)
from fullerene_readout.dynamics import (DecoherenceRates, PulseSpec,
                                        analytic_free_evolution,
                                        fig2_timeseries, imperfect_flip_state)
from fullerene_readout.errors import ConfigError, NumericFailure
from fullerene_readout.protocol import (_BLOCK, MAX_EVENT_CYCLES,
                                        InsideSpinState, TunnelingParams)
from fullerene_readout.spin_core import (MechanicsParams, PhysicalConstants,
                                         SystemParams)
from outputs import check_run
from reference import (collect_events, fig2_numeric, run_window_reference,
                       template_csv)

PARAMS = (SystemParams, PhysicalConstants, DecoherenceRates, PulseSpec,
          TunnelingParams, MechanicsParams)

# Every key of every section and the top level, in manifest order, each set
# to a valid value other than its default.
EVERY_KEY = {
    "system": {"nu1": 9000.0, "nu2": 9100.5, "J": -40.0, "D2": 7.5,
               "D4": -1.25},
    "constants": {"g": 2.5, "muB_over_h": 14000.0, "muB": 9e-24,
                  "k_spring": 50.0},
    "rates": {"gamma0": 0.001, "gammap": 0.02},
    "pulse": {"omega0": 4.0, "duration": 120.0},
    "tunneling": {"t0": 140.0, "alpha": 0.05, "p_leak_source": 0.01,
                  "p_leak_drain": 0.02, "cycle_period": 160.0,
                  "window": 3.2e5},
    "mechanics": {"gradient": 2e6, "spacing": 1.2e-9, "coulomb_shift": 5e-12},
    "seed": 9,
}


# A JSON document nested past the decoder's recursion limit
TOO_DEEP = "[" * 100000 + "]" * 100000


class TestConfig:
    def test_empty_document_gives_defaults(self):
        cfg = config_from_dict({})
        assert SimulationConfig() == cfg == parse_config(None)
        assert cfg.system.nu1 == 10000.0
        assert cfg.system.delta == 63.5
        assert cfg.rates.gammap == pytest.approx(1 / 25)
        assert cfg.rates.gamma0 == pytest.approx(1 / 2500)
        assert cfg.tunneling.t0 == 150.0
        assert cfg.mechanics.gradient == 4e6
        assert cfg.pulse.omega0 == pytest.approx(500.0 / 140.0)
        assert cfg.seed == 0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_dict({"sistem": {}})
        with pytest.raises(ConfigError, match="tunneling.t_zero"):
            config_from_dict({"tunneling": {"t_zero": 100.0}})
        with pytest.raises(ConfigError, match="pulse.period: unknown key"):
            config_from_dict({"pulse": {"period": 150.0}})
        with pytest.raises(ConfigError, match="pulse.frequency: unknown key"):
            config_from_dict({"pulse": {"frequency": 12345.0}})

    def test_validation_names_field(self):
        with pytest.raises(ConfigError, match="tunneling.alpha"):
            config_from_dict({"tunneling": {"alpha": 1.5}})
        with pytest.raises(ConfigError, match="system"):
            config_from_dict({"system": {"nu1": -5.0}})
        # values whose levels or pi-time would overflow to inf
        with pytest.raises(ConfigError, match="^system.nu1: "):
            config_from_dict({"system": {"nu1": 1e308, "nu2": 1e308}})
        with pytest.raises(ConfigError, match="^pulse.omega0: "):
            config_from_dict({"pulse": {"omega0": 1e308}})
        with pytest.raises(ConfigError, match="^pulse.omega0: "):
            config_from_dict({"pulse": {"duration": 5e-324}})

    def test_negative_delta_accepted(self):
        cfg = config_from_dict({"system": {"nu1": 10063.5, "nu2": 10000.0}})
        assert cfg.system.delta == -63.5

    def test_non_numeric_rejected(self):
        with pytest.raises(ConfigError, match="system.J"):
            config_from_dict({"system": {"J": "fifty"}})
        with pytest.raises(ConfigError, match="tunneling.alpha"):
            config_from_dict({"tunneling": {"alpha": None}})
        with pytest.raises(ConfigError, match="^system: expected an object$"):
            config_from_dict({"system": 3})
        with pytest.raises(ConfigError,
                           match="^top level: expected an object$"):
            config_from_dict([1])

    def test_missing_file_is_io_error(self):
        with pytest.raises(OSError):
            parse_config("/nonexistent/cfg.json")

    def test_parse_file_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"system": {"J": 25.0}, "seed": 11}))
        cfg = parse_config(path)
        assert cfg.system.J == 25.0 and cfg.seed == 11
        assert asdict(cfg)["system"]["J"] == 25.0

    def test_invalid_json_is_validation_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        for text in ["{nope", TOO_DEEP]:
            path.write_text(text)
            with pytest.raises(ConfigError, match="^invalid JSON: "):
                parse_config(path)

    def test_every_key_round_trips_in_order(self):
        defaults = asdict(config_from_dict({}))
        for name, section in EVERY_KEY.items():
            if isinstance(section, dict):
                assert all(v != defaults[name][k] for k, v in section.items())
            else:
                assert section != defaults[name]
        assert (json.dumps(asdict(config_from_dict(EVERY_KEY)))
                == json.dumps(EVERY_KEY))

    def test_section_fields_are_its_keys(self):
        # a section dataclass holds its config keys and nothing else
        doc = asdict(config_from_dict({}))
        for name, cls in _SECTIONS.items():
            assert [f.name for f in fields(cls)] == list(doc[name]), name

    def test_pulse_must_fit_cycle(self):
        with pytest.raises(ConfigError, match="pulse.duration"):
            config_from_dict({"pulse": {"duration": 300.0}})

    def test_readme_config_block_is_the_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = json.loads(
            re.search(r"```json\n(.*?)```", readme, re.S).group(1))
        assert config_from_dict(block) == config_from_dict({})
        defaults = asdict(config_from_dict({}))
        defaults["pulse"]["omega0"] = None   # null: calibrated from duration
        assert block == defaults


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(example, {})
    assert "classified=InsideSpinState(m1=1.5" in capsys.readouterr().out


@pytest.mark.parametrize("cls,name", [
    (cls, f.name) for cls in PARAMS for f in fields(cls)
    if f.default_factory is MISSING], ids=lambda v: getattr(v, "__name__", v))
def test_nan_field_rejected(cls, name):
    required = {f.name: 1.0 for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    with pytest.raises(ValueError, match=f"^{name}: "):
        cls(**{**required, name: math.nan})


def never(*args, **kwargs):
    raise AssertionError("run_window reached")


SMALL = {"tunneling": {"window": 3e5, "alpha": 0.1}}
EVENTS = ("readout", "--true-state=-3/2", "--events")


def sim(tmp_path, *argv, config=None, out="o"):
    """Run `sim` in process with `--out tmp_path/out`, and with `config` (a
    document, or raw JSON text) written to `out`.json beside that directory;
    return the exit code and the output directory."""
    out = tmp_path / out
    if config is not None:
        path = tmp_path / f"{out.name}.json"
        path.write_text(config if isinstance(config, str)
                        else json.dumps(config))
        argv += ("--config", str(path))
    return main([*argv, "--out", str(out)]), out


class TestTableCommand:
    def test_reference_row(self, tmp_path, capsys):
        code, out = sim(tmp_path, "table")
        assert code == 0
        lines = (out / "transitions.csv").read_text().splitlines()
        assert len(lines) == 11
        row1 = lines[1].split(",")
        assert float(row1[-1]) == pytest.approx(20202.0, rel=1e-12)
        assert "weak-coupling" in capsys.readouterr().out

    def test_anisotropy_leaves_outside_rows(self, tmp_path):
        code, base = sim(tmp_path, "table", out="a")
        assert code == 0
        code, aniso = sim(tmp_path, "table", out="b",
                          config={"system": {"D2": 10.0, "D4": 0.5}})
        assert code == 0
        rows_a = (base / "transitions.csv").read_text().splitlines()[1:]
        rows_b = (aniso / "transitions.csv").read_text().splitlines()[1:]
        assert rows_a[:4] == rows_b[:4]
        assert rows_a[4:] != rows_b[4:]

    def test_roundtrip_against_levels(self, tmp_path):
        code, out = sim(tmp_path, "table")
        assert code == 0
        levels = {}
        for line in (out / "levels.csv").read_text().splitlines()[1:]:
            m1, m2, e = (float(v) for v in line.split(","))
            levels[(m1, m2)] = e
        for line in (out / "transitions.csv").read_text().splitlines()[1:]:
            parts = line.split(",")
            ini = (float(parts[2]), float(parts[3]))
            fin = (float(parts[4]), float(parts[5]))
            freq = float(parts[-1])
            assert abs(levels[ini] - levels[fin]) == pytest.approx(
                freq, rel=1e-9)

    def test_manifest_written(self, tmp_path):
        code, out = sim(tmp_path, "table")
        assert code == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["command"] == "table"
        assert {o["path"] for o in doc["outputs"]} == {"transitions.csv",
                                                       "levels.csv"}
        assert doc["config"]["system"]["nu1"] == 10000.0

    def test_manifest_echoes_every_key(self, tmp_path):
        code, out = sim(tmp_path, "table", config=EVERY_KEY)
        assert code == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert json.dumps(doc["config"]) == json.dumps(EVERY_KEY)


class TestFig2Command:
    def test_outputs(self, tmp_path):
        code, out = sim(tmp_path, "fig2", "--alphas", "0.1")
        assert code == 0
        lines = (out / "fig2_alpha_0.1.csv").read_text().splitlines()
        assert lines[0].startswith("t_ns,P1,P2,P3")
        assert len(lines) == 1002
        first = [float(v) for v in lines[1].split(",")]
        assert first[2] == pytest.approx(0.1545, abs=1e-4)
        devs = [float(ln.split(",")[-1]) for ln in lines[1:]]
        assert max(devs) < 1e-8

    def test_analytic_columns_are_the_written_table(self, tmp_path):
        # fig2_timeseries hands over the CSV's first four columns, in order,
        # each the closed form on the 1 ns grid bit for bit; at alpha 0 the
        # flip is perfect and the coherence P2 is all zeros
        code, out = sim(tmp_path, "fig2", "--alphas", "0,0.05,0.5")
        assert code == 0
        times = np.arange(0.0, 1001.0)
        for alpha in (0.0, 0.05, 0.5):
            path = out / f"fig2_alpha_{alpha:g}.csv"
            header = path.read_text().splitlines()[0].split(",")
            for rates in (DecoherenceRates(), DecoherenceRates(0.5, 3.0)):
                series = fig2_timeseries(alpha, rates)
                assert list(series) == header[:4]
                rho = analytic_free_evolution(imperfect_flip_state(alpha),
                                              rates, times)
                expected = [times, rho[:, 0, 0].real, np.abs(rho[:, 0, 1]),
                            rho[:, 1, 1].real]
                for (name, column), want in zip(series.items(), expected):
                    assert column.tobytes() == want.tobytes(), name
        check_run(out)

    @pytest.mark.parametrize("alphas,why", [
        (",", "must be non-empty"), ("0.1,1.5", r"must lie in \[0, 1\)"),
        ("0.1,0.1000001", r"two values would write fig2_alpha_0\.1\.csv"),
        ("0,-0", "must not repeat a value"),
        ("0.1,0.1", "must not repeat a value"),
        ("0.1,abc", r"invalid grid '0\.1,abc'")])
    def test_bad_grid_rejected(self, alphas, why, tmp_path, capsys):
        code, out = sim(tmp_path, "fig2", "--alphas", alphas)
        assert code == 1
        assert re.search(f"fig2.alphas: {why}", capsys.readouterr().err)
        assert not list(out.iterdir())

    def test_numeric_columns_match_oracle(self, tmp_path, monkeypatch):
        # the columns as handed to the writer, so that equality is bitwise
        written = {}
        add_records = Manifest.add_records

        def spy(manifest, name, columns):
            written[name] = columns
            add_records(manifest, name, columns)

        monkeypatch.setattr(Manifest, "add_records", spy)
        assert sim(tmp_path, "fig2", "--alphas", "0.05,0.3")[0] == 0
        for alpha in (0.05, 0.3):
            columns = written[f"fig2_alpha_{alpha:g}.csv"]
            series = fig2_timeseries(alpha, DecoherenceRates())
            num = fig2_numeric(imperfect_flip_state(alpha),
                               DecoherenceRates(), series["t_ns"], 0.1)
            dev = np.max(np.abs(num - np.column_stack(
                [series["P1"], series["P2"], series["P3"]])), axis=1)
            for i, name in enumerate(["P1", "P2", "P3"]):
                assert np.array_equal(columns[f"{name}_numeric"], num[:, i])
            assert np.array_equal(columns["max_abs_dev"], dev)

    def test_alpha_02_initial_population(self, tmp_path):
        code, out = sim(tmp_path, "fig2", "--alphas", "0.2")
        assert code == 0
        lines = (out / "fig2_alpha_0.2.csv").read_text().splitlines()
        first = [float(v) for v in lines[1].split(",")]
        assert first[1] == pytest.approx(0.9045, abs=1e-4)


class TestReadoutCommand:
    def test_blocked_case(self, tmp_path):
        code, out = sim(tmp_path, "readout", "--true-state", "+3/2",
                        config={"tunneling": {"window": 3e5},
                                "rates": {"gamma0": 0.0}})
        assert code == 0
        row = (out / "readout.csv").read_text().splitlines()[1]
        fields = row.split(",")
        assert int(fields[4]) == 0           # counts_on
        assert float(fields[7]) == 1.5       # classified_m1

    def test_transmitting_case_with_jitter(self, tmp_path, capsys):
        code, out = sim(tmp_path, *EVENTS, "--seed", "7", config=SMALL)
        assert code == 0
        assert "classified m1 = -1.5" in capsys.readouterr().out
        events = (out / "events.csv").read_text().splitlines()
        assert events[0] == "cycle,dwell_ns,spin_in,flip_prob,passed"
        assert len(events) == 2001
        summary = json.loads((out / "readout.jsonl").read_text())
        assert summary["classified_m1"] == -1.5
        assert (out / "readout.csv").read_text().startswith(
            "true_m1,encoding,interrogation_mhz,n_cycles,counts_on,baseline,"
            "threshold,classified_m1,contrast,seed\n")
        check_run(out)

    def test_inner_interrogation_frequency_recorded(self, tmp_path):
        code, out = sim(tmp_path, "readout", "--true-state", "+1/2",
                        config=SMALL)
        assert code == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["interrogation_mhz"] == pytest.approx(20152.0)

    def test_interrogation_reads_no_transition_table(self, tmp_path,
                                                     monkeypatch):
        # the interrogation line is the flip-line formula, not a table row
        def no_table(*args, **kwargs):
            raise AssertionError("transition_table reached")

        for module in ("spin_core", "protocol", "cli"):
            monkeypatch.setattr(f"fullerene_readout.{module}.transition_table",
                                no_table, raising=False)
        assert sim(tmp_path, "readout", "--true-state=+1/2", config=SMALL,
                   out="r")[0] == 0
        assert sim(tmp_path, "sweep", "--alphas", "0.1", "--leaks", "0",
                   "--trials", "1", config=SMALL, out="s")[0] == 0


class TestSweepCommand:
    def test_sweep_uses_configured_pulse(self, tmp_path, capsys):
        # omega0 = 0 is no pulse at all: nothing is ever blocked, so every
        # state reads as negative, in the sweep as in a single readout
        doc = {"pulse": {"omega0": 0}, "tunneling": {"window": 3e5}}
        assert sim(tmp_path, "readout", "--true-state=+3/2", config=doc,
                   out="r")[0] == 0
        assert "classified m1 = -1.5" in capsys.readouterr().out
        code, out = sim(tmp_path, "sweep", "--alphas", "0", "--leaks", "0",
                        "--trials", "1", config=doc, out="s")
        assert code == 0
        rows = [json.loads(line)
                for line in (out / "sweep.jsonl").read_text().splitlines()]
        assert len(rows) == 4
        for row in rows:
            assert row["rate"] == (1.0 if row["true_m1"] > 0 else 0.0)

    @pytest.mark.parametrize("option,grid", [
        ("alphas", "0,0.1,1.5"), ("leaks", "1"), ("leaks", "0,nan")])
    def test_grid_checked_before_sampling(self, option, grid, tmp_path,
                                          capsys, monkeypatch):
        monkeypatch.setattr("fullerene_readout.protocol.run_window", never)
        start = time.perf_counter()
        assert sim(tmp_path, "sweep", f"--{option}", grid)[0] == 1
        assert time.perf_counter() - start < 0.5
        assert (f"sweep.{option}: must lie in [0, 1)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("option,grid", [("alphas", "0.1,0.1"),
                                             ("leaks", "0,0.0")])
    def test_repeated_grid_value_rejected(self, option, grid, tmp_path,
                                          capsys, monkeypatch):
        monkeypatch.setattr("fullerene_readout.protocol.run_window", never)
        code, out = sim(tmp_path, "sweep", f"--{option}", grid, "--trials",
                        "2")
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"validation error: sweep.{option}: must not repeat a value")
        assert not list(out.iterdir())

    @pytest.mark.parametrize("option", ["alphas", "leaks"])
    def test_negative_zero_is_zero(self, option, tmp_path):
        # -0 is the same grid value as 0: same seeds, same rows
        outputs = []
        for value in ("0", "-0"):
            code, out = sim(tmp_path, "sweep", f"--{option}", value,
                            "--trials", "2", config=SMALL, out=value)
            assert code == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("sweep.csv", "sweep.jsonl")])
        assert outputs[0] == outputs[1]

    def test_grid_shape_and_zero_misclassification(self, tmp_path):
        code, out = sim(tmp_path, "sweep", "--alphas", "0.1,0.2", "--leaks",
                        "0,0.05", "--trials", "3", config=SMALL)
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 17     # 4 cells x 4 states
        assert all(line.split(",")[6] == "0" for line in lines[1:])
        assert lines[0] == ("alpha,p_leak,encoding,true_m1,trials,"
                            "misclassified,rate,base_seed")
        check_run(out)

    def test_empty_grid_is_validation_error(self, tmp_path, capsys):
        assert sim(tmp_path, "sweep", "--alphas", "", config=SMALL)[0] == 1
        assert sim(tmp_path, "sweep", "--leaks", "0,x", config=SMALL)[0] == 1
        assert capsys.readouterr().err.endswith(
            "validation error: sweep.leaks: invalid grid '0,x'\n")


class TestMechanicsCommand:
    def test_report(self, tmp_path, capsys):
        assert sim(tmp_path, "mechanics")[0] == 0
        out = capsys.readouterr().out
        assert "2.122e-18" in out
        assert "5.306e-07" in out
        assert "127.8" in out and ">=127 MHz satisfied" in out

    def test_overflow_is_numeric_failure(self, tmp_path, capsys):
        assert sim(tmp_path, "mechanics", config={
            "constants": {"muB_over_h": 1e308},
            "mechanics": {"spacing": 1.0}})[0] == 3
        out, err = capsys.readouterr()
        assert "manifest.json" in err
        assert out == ""

    def test_zero_gradient(self, tmp_path, capsys):
        assert sim(tmp_path, "mechanics",
                   config={"mechanics": {"gradient": 0.0}})[0] == 0
        assert "below 127 MHz" in capsys.readouterr().out


class TestExitCodes:
    def test_missing_config_is_io_error(self, tmp_path):
        assert sim(tmp_path, "table", "--config",
                   str(tmp_path / "nope.json"))[0] == 2

    def test_bad_value_is_validation_error(self, tmp_path):
        assert sim(tmp_path, "table",
                   config={"tunneling": {"alpha": 1.5}})[0] == 1

    def test_negative_seed_rejected(self, tmp_path):
        assert sim(tmp_path, "table", "--seed", "-1")[0] == 1

    def test_config_nested_too_deeply_is_validation_error(self, tmp_path,
                                                          capsys):
        # one error line: no traceback, nothing printed before it
        code, out = sim(tmp_path, "table", config=TOO_DEEP)
        assert code == 1
        assert re.fullmatch(r"validation error: invalid JSON: [^\n]*\n",
                            capsys.readouterr().err)
        assert not out.exists()

    # argparse's usage errors exit 1 like any other bad input, before the
    # output directory is made
    @pytest.mark.parametrize("argv,named", [
        (["readout", "--true-state=5/2"], "--true-state"),
        (["readout", "--true-state=3/2"], "--true-state"),
        (["fig2", "--alphas", "-0.5,0.3"], "--alphas"),
        (["table", "--bogus"], "--bogus")],
        ids=["bad-choice", "unsigned-state", "grid-read-as-flag",
             "unknown-flag"])
    def test_bad_command_line_is_validation_error(self, argv, named,
                                                   tmp_path, capsys):
        code, out = sim(tmp_path, *argv)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and named in err
        assert not out.exists()

    @pytest.mark.parametrize("section,key,value", [
        ("rates", "gamma0", "NaN"),
        ("pulse", "omega0", "NaN"),
        ("rates", "gammap", "Infinity"),
        ("tunneling", "window", "Infinity"),
        ("mechanics", "gradient", "NaN"),
        ("system", "J", "1" + "0" * 400),
    ])
    def test_non_finite_number_rejected(self, section, key, value, tmp_path,
                                        capsys):
        assert sim(tmp_path, "readout",
                   config=f'{{"{section}": {{"{key}": {value}}}}}')[0] == 1
        assert (f"{section}.{key}: expected a finite number"
                in capsys.readouterr().err)

    def test_window_beyond_cycle_cap_rejected(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setattr("fullerene_readout.cli.run_window", never)
        start = time.perf_counter()
        assert sim(tmp_path, "readout",
                   config={"tunneling": {"window": 1e300}})[0] == 1
        assert time.perf_counter() - start < 0.5
        assert "tunneling.window" in capsys.readouterr().err

    def test_events_window_capped(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("fullerene_readout.cli.run_window", never)
        doc = {"tunneling": {"window": 150.0 * (MAX_EVENT_CYCLES + 1)}}
        start = time.perf_counter()
        assert sim(tmp_path, "readout", "--events", config=doc)[0] == 1
        assert time.perf_counter() - start < 0.5
        assert "tunneling.window" in capsys.readouterr().err

    def test_overflowing_pulse_is_numeric_failure(self, tmp_path, capsys):
        # dwell * duration overflows: the flip probability would be NaN and
        # every electron silently blocked
        doc = {"tunneling": {"t0": 1e300, "cycle_period": 1e300,
                             "window": 1e300},
               "pulse": {"duration": 1e300}}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert sim(tmp_path, "readout", "--true-state=-3/2",
                       config=doc)[0] == 3
        assert "pulse phase overflows" in capsys.readouterr().err
        assert caught == []

    def test_overflowing_dwell_draw_is_silent(self, tmp_path, capsys):
        # seed 3's first half-normal draw overflows sigma |Z| and is
        # redrawn; the dwell * duration of the pulse then overflows
        doc = {"tunneling": {"t0": 1.7e308, "cycle_period": 1.7e308,
                             "window": 1.7e308, "alpha": 0.9}}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert sim(tmp_path, "readout", "--seed", "3",
                       config=doc)[0] == 3
        assert capsys.readouterr().err == (
            "numeric failure: pulse phase overflows: the pulse lasts too "
            "long for its Rabi frequency\n")
        assert caught == []

    def test_overflowing_relaxation_decays_silently(self, tmp_path, capsys):
        # gamma0 * residual dwell overflows to inf; exp(-inf) = 0 is exact
        doc = {"rates": {"gamma0": 1e300},
               "tunneling": {"t0": 1e10, "cycle_period": 1e10,
                             "window": 3e10}}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert sim(tmp_path, "readout", config=doc)[0] == 0
        assert capsys.readouterr().err == ""
        assert caught == []

    # Rates of 1e10 and more overflow the RK4 map to NaN; at gamma0 1e308
    # the analytic decay's rate * t overflows too, and decays to 0 silently.
    # Past RK4's stability edge at 0.1 ns (gammap ~6.96, gamma0 ~27.85) the
    # map is finite, but fig2's alpha 0.1 trajectory leaves the density
    # matrices: at its first sample for gammap 6.97 and 8, at its third for
    # gamma0 27.86
    @pytest.mark.parametrize("rates", [{"gammap": 1e10}, {"gamma0": 1e300},
                                       {"gammap": 8}, {"gammap": 6.97},
                                       {"gamma0": 27.86}, {"gamma0": 1e308}])
    def test_overflowing_rk4_map_is_numeric_failure(self, rates, tmp_path,
                                                     capsys):
        failure = ("trace drifted by nan" if max(rates.values()) >= 1e10
                   else "state stopped being a density matrix")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = sim(tmp_path, "fig2", config={"rates": rates})
        assert code == 3
        assert capsys.readouterr().err == (
            f"numeric failure: {failure} during integration\n")
        assert caught == []
        assert not list(out.iterdir())

    def test_sweep_beyond_work_cap_rejected(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setattr("fullerene_readout.protocol.run_window", never)
        start = time.perf_counter()
        assert sim(tmp_path, "sweep", "--trials", "1000000000")[0] == 1
        assert time.perf_counter() - start < 0.5
        assert "sweep.trials" in capsys.readouterr().err


class TestEventStreaming:
    """`readout --events` writes events.csv block by block as the window is
    drawn."""

    LEAKY = {"alpha": 0.1, "p_leak_source": 0.05, "p_leak_drain": 0.05}

    @pytest.mark.parametrize("error, code", [
        (NumericFailure("injected"), 3), (OSError("injected"), 2),
        (KeyboardInterrupt(), None)], ids=["numeric", "io", "interrupt"])
    def test_failed_run_leaves_no_events_csv(self, error, code, tmp_path,
                                             monkeypatch):
        # the first block is written before the second one fails
        outcomes, calls = protocol._outcomes, []

        def fail_second_block(*args):
            calls.append(None)
            if len(calls) == 2:
                raise error
            return outcomes(*args)

        monkeypatch.setattr(protocol, "_outcomes", fail_second_block)
        doc = {"tunneling": {**self.LEAKY,
                             "window": 150.0 * (_BLOCK + 123)}}
        if code is None:
            with pytest.raises(KeyboardInterrupt):
                sim(tmp_path, *EVENTS, config=doc)
            out = tmp_path / "o"
        else:
            got, out = sim(tmp_path, *EVENTS, config=doc)
            assert got == code
        assert len(calls) == 2
        assert out.is_dir() and not (out / "events.csv").exists()

    def test_memory_does_not_grow_with_window(self, tmp_path):
        def peak(cycles):
            doc = {"tunneling": {**self.LEAKY, "window": 150.0 * cycles}}
            tracemalloc.start()
            try:
                code, _ = sim(tmp_path, *EVENTS, config=doc, out=f"w{cycles}")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            return peak

        small, large = peak(10**5), peak(10**6)
        assert large <= 1.5 * small, (small, large)

    @pytest.mark.parametrize("t0", [150.0, 140.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_block_boundaries_do_not_show(self, alpha, t0, tmp_path):
        doc = {"seed": 11, "tunneling": {
            **self.LEAKY, "alpha": alpha, "t0": t0,
            "window": 150.0 * (_BLOCK + 123)}}
        config = config_from_dict(doc)
        want = tmp_path / "want.csv"
        _, ev = collect_events(
            run_window_reference, InsideSpinState(-1.5, "outer"),
            config.pulse, config.system, config.tunneling, config.rates,
            config.seed)
        template_csv(want, {
            "cycle": range(ev.dwell.size), "dwell_ns": ev.dwell,
            "spin_in": np.where(ev.spin_up, "up", "down"),
            "flip_prob": ev.flip_prob, "passed": ev.passed.astype(np.uint8)})
        code, out = sim(tmp_path, *EVENTS, config=doc)
        assert code == 0
        assert (out / "events.csv").read_bytes() == want.read_bytes()


class TestFailedRunLeavesNothing:
    """A run that fails removes every file it wrote, and only those."""

    @staticmethod
    def outputs(out):
        return sorted(p.name for p in out.iterdir())

    def test_failure_after_the_window(self, tmp_path):
        # events.csv and readout.csv are complete when readout.jsonl fails
        out = tmp_path / "o"
        (out / "readout.jsonl").mkdir(parents=True)
        (out / "notes.txt").write_text("not ours\n")
        assert sim(tmp_path, *EVENTS, config=SMALL)[0] == 2
        assert self.outputs(out) == ["notes.txt", "readout.jsonl"]
        assert (out / "notes.txt").read_text() == "not ours\n"

    @pytest.mark.parametrize("argv", [
        ["table"], ["fig2", "--alphas", "0.1"],
        list(EVENTS),
        ["sweep", "--trials", "1"], ["mechanics"]], ids=lambda a: a[0])
    def test_failed_manifest_write(self, argv, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "manifest.json").mkdir(parents=True)
        assert sim(tmp_path, *argv, config=SMALL)[0] == 2
        assert self.outputs(out) == ["manifest.json"]
        # no report names the files that the failure removed
        assert capsys.readouterr().out == ""

    def test_manifest_write_fails_midway(self, tmp_path, monkeypatch):
        class DiskFull:
            """A file that takes a few bytes, then reports a full disk."""

            def __init__(self, path, mode):
                self.file = open(path, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

            def write(self, text):
                self.file.write(text[:10])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr("fullerene_readout.cli.open", DiskFull,
                            raising=False)
        code, out = sim(tmp_path, *EVENTS, config=SMALL)
        assert code == 2
        assert self.outputs(out) == []


class TestManifest:
    # outputs are listed in the order their files were completed
    @pytest.mark.parametrize("argv,paths", [
        (["table"], ["transitions.csv", "levels.csv"]),
        (["fig2", "--alphas", "0.1"], ["fig2_alpha_0.1.csv"]),
        (list(EVENTS), ["events.csv", "readout.csv", "readout.jsonl"]),
        (["sweep", "--trials", "1"], ["sweep.csv", "sweep.jsonl"])],
        ids=["table", "fig2", "readout", "sweep"])
    def test_digests_match_files(self, argv, paths, tmp_path):
        code, out = sim(tmp_path, *argv, config=SMALL)
        assert code == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert [entry["path"] for entry in doc["outputs"]] == paths
        check_run(out)

    @pytest.mark.parametrize("argv", [
        ["table"], ["fig2", "--alphas", "0,0.3"],
        list(EVENTS),
        ["sweep", "--trials", "1", "--alphas", "0.5", "--leaks", "0.05"]],
        ids=["table", "fig2", "readout", "sweep"])
    def test_run_replays_from_its_manifest(self, argv, tmp_path):
        # the manifest's config and argv rerun the same outputs
        code, first = sim(tmp_path, *argv, out="first", config={
            "tunneling": {"window": 3e5, "alpha": 0.1, "p_leak_source": 0.05,
                          "p_leak_drain": 0.05}, "seed": 3})
        assert code == 0
        doc = json.loads((first / "manifest.json").read_text())
        code, again = sim(tmp_path, *doc["argv"], config=doc["config"],
                          out="again")
        assert code == 0
        redo = json.loads((again / "manifest.json").read_text())
        assert redo["outputs"] == doc["outputs"]
        assert redo["config"] == doc["config"]


class TestCheckRun:
    @staticmethod
    def mutant(tmp_path, name, pattern, new, rehash=True):
        """A checked `readout --events` run with one re.sub on one file; its
        manifest lists the new digests if rehash is true."""
        code, out = sim(tmp_path, *EVENTS, config=SMALL)
        assert code == 0 and len(check_run(out)) == 4
        path = out / name
        text = path.read_text() if path.exists() else ""
        path.write_text(re.sub(pattern, new, text, count=1))
        doc = json.loads((out / "manifest.json").read_text())
        for entry in doc["outputs"] if rehash else []:
            data = (out / entry["path"]).read_bytes()
            entry["sha256"] = hashlib.sha256(data).hexdigest()
        (out / "manifest.json").write_text(json.dumps(doc))
        return out

    # a real run passes `outputs.check_run`, and a mutant per rule fails it;
    # all but the digest's update the manifest, so that their rule fires
    @pytest.mark.parametrize("name,pattern,new,message", [
        # a trailing zero, which '%.12g' never writes after the point
        ("events.csv", r"(,down,[^,]*)\d,", r"\g<1>0,", "row 1, flip_prob"),
        ("events.csv", r",1\n", ",1.0\n", r"row \d+, passed"),
        ("readout.csv", ",", ";", "not as .* lists"),
        ("stray.csv", "^", "x\n", "not as .* lists"),
        ("readout.jsonl", '"counts_on": ', '"counts_on": 1', "row 1, counts"),
        ("events.csv", r"[^\n]*\n\Z", "", "1999 rows, not 2000"),
        ("events.csv", r",down,[^,]*,", ",down,nan,", "row 1, flip_prob")],
        ids=["digit", "integer", "digest", "stray", "jsonl", "rows", "nan"])
    def test_mutant_rejected(self, name, pattern, new, message, tmp_path):
        out = self.mutant(tmp_path, name, pattern, new,
                          rehash=name != "readout.csv")
        with pytest.raises(AssertionError, match=f"^{name}: {message}"):
            check_run(out)

    def test_script_refuses_optimized_python(self, tmp_path):
        # the rules are asserts, which python -O strips: the script refuses
        # to run there rather than pass a run that breaks them
        out = self.mutant(tmp_path, "events.csv", ",down,", ",dwn,")
        with pytest.raises(AssertionError, match="^events.csv: row 1, spin"):
            check_run(out)
        proc = subprocess.run(
            [sys.executable, "-O", str(Path(__file__).with_name("outputs.py")),
             str(out)], capture_output=True, text=True)
        assert proc.returncode == 1 and proc.stdout == ""
        assert re.fullmatch(r"outputs\.py: [^\n]* -O[^\n]*\n", proc.stderr)


class TestOutputDirSelection:
    def test_out_is_the_only_source(self, tmp_path, monkeypatch):
        # without --out a run writes to out/ in the working directory; the
        # environment names no output directory
        monkeypatch.chdir(tmp_path)
        elsewhere = tmp_path / "env_out"
        monkeypatch.setenv("SIM_OUTPUT_DIR", str(elsewhere))
        assert main(["mechanics"]) == 0
        assert (tmp_path / "out" / "manifest.json").exists()
        assert not elsewhere.exists()


def test_console_entrypoint_smoke(tmp_path):
    def sim_m(*argv):   # `sim` as `python -m fullerene_readout`
        return subprocess.run([sys.executable, "-m", "fullerene_readout",
                               *argv], capture_output=True, text=True)

    assert sim_m("table", "--out", str(tmp_path)).returncode == 0
    assert (tmp_path / "transitions.csv").exists()
    # a refused run's exit code comes through SystemExit, after one error
    # line and no traceback, and it makes no output directory
    deep = tmp_path / "deep.json"
    deep.write_text(TOO_DEEP)
    proc = sim_m("table", "--config", str(deep), "--out", str(tmp_path / "d"))
    assert proc.returncode == 1
    assert re.fullmatch(r"validation error: invalid JSON: [^\n]*\n",
                        proc.stderr)
    assert not (tmp_path / "d").exists()
