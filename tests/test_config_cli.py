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


def run_cli(*args):
    return main(list(args))


def never(*args, **kwargs):
    raise AssertionError("run_window reached")


def assert_table(out, stem, header):
    """`stem.csv` in `out` has exactly the header line `header`, and each
    row of `stem.jsonl` has its keys, in order, and gives each field's
    text: '%.12g' of a float, str of anything else."""
    lines = (out / f"{stem}.csv").read_text().splitlines()
    assert lines[0] == header
    rows = [json.loads(line)
            for line in (out / f"{stem}.jsonl").read_text().splitlines()]
    assert len(rows) == len(lines) - 1
    for row, line in zip(rows, lines[1:]):
        assert ",".join(row) == header
        assert [("%.12g" % v if isinstance(v, float) else str(v))
                for v in row.values()] == line.split(","), line


SMALL = {"tunneling": {"window": 3e5, "alpha": 0.1}}


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


class TestTableCommand:
    def test_reference_row(self, tmp_path, capsys):
        assert run_cli("table", "--out", str(tmp_path)) == 0
        lines = (tmp_path / "transitions.csv").read_text().splitlines()
        assert len(lines) == 11
        row1 = lines[1].split(",")
        assert float(row1[-1]) == pytest.approx(20202.0, rel=1e-12)
        assert "weak-coupling" in capsys.readouterr().out

    def test_anisotropy_leaves_outside_rows(self, tmp_path):
        base, aniso = tmp_path / "a", tmp_path / "b"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": {"D2": 10.0, "D4": 0.5}}))
        assert run_cli("table", "--out", str(base)) == 0
        assert run_cli("table", "--config", str(cfg), "--out",
                       str(aniso)) == 0
        rows_a = (base / "transitions.csv").read_text().splitlines()[1:]
        rows_b = (aniso / "transitions.csv").read_text().splitlines()[1:]
        assert rows_a[:4] == rows_b[:4]
        assert rows_a[4:] != rows_b[4:]

    def test_roundtrip_against_levels(self, tmp_path):
        assert run_cli("table", "--out", str(tmp_path)) == 0
        levels = {}
        for line in (tmp_path / "levels.csv").read_text().splitlines()[1:]:
            m1, m2, e = (float(v) for v in line.split(","))
            levels[(m1, m2)] = e
        for line in (tmp_path / "transitions.csv").read_text(
        ).splitlines()[1:]:
            parts = line.split(",")
            ini = (float(parts[2]), float(parts[3]))
            fin = (float(parts[4]), float(parts[5]))
            freq = float(parts[-1])
            assert abs(levels[ini] - levels[fin]) == pytest.approx(
                freq, rel=1e-9)

    def test_manifest_written(self, tmp_path):
        assert run_cli("table", "--out", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["command"] == "table"
        assert {o["path"] for o in doc["outputs"]} == {"transitions.csv",
                                                       "levels.csv"}
        assert doc["config"]["system"]["nu1"] == 10000.0

    def test_manifest_echoes_every_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(EVERY_KEY))
        out = tmp_path / "o"
        assert run_cli("table", "--config", str(cfg), "--out", str(out)) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert json.dumps(doc["config"]) == json.dumps(EVERY_KEY)


class TestFig2Command:
    def test_outputs(self, tmp_path):
        assert run_cli("fig2", "--alphas", "0.1", "--out", str(tmp_path)) == 0
        lines = (tmp_path / "fig2_alpha_0.1.csv").read_text().splitlines()
        assert lines[0].startswith("t_ns,P1,P2,P3")
        assert len(lines) == 1002
        first = [float(v) for v in lines[1].split(",")]
        assert first[2] == pytest.approx(0.1545, abs=1e-4)
        devs = [float(ln.split(",")[-1]) for ln in lines[1:]]
        assert max(devs) < 1e-8

    def test_analytic_columns_are_the_written_table(self, tmp_path):
        # fig2_timeseries hands over the CSV's first four columns, in order,
        # each the closed form on the 1 ns grid bit for bit
        assert run_cli("fig2", "--alphas", "0,0.05,0.5", "--out",
                       str(tmp_path)) == 0
        times = np.arange(0.0, 1001.0)
        for alpha in (0.0, 0.05, 0.5):
            path = tmp_path / f"fig2_alpha_{alpha:g}.csv"
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

    @pytest.mark.parametrize("alphas,why", [
        (",", "must be non-empty"), ("0.1,1.5", r"must lie in \[0, 1\)"),
        ("0.1,0.1000001", r"two values would write fig2_alpha_0\.1\.csv"),
        ("0,-0", "must not repeat a value"),
        ("0.1,0.1", "must not repeat a value"),
        ("0.1,abc", r"invalid grid '0\.1,abc'")])
    def test_bad_grid_rejected(self, alphas, why, tmp_path, capsys):
        assert run_cli("fig2", "--alphas", alphas, "--out",
                       str(tmp_path)) == 1
        assert re.search(f"fig2.alphas: {why}", capsys.readouterr().err)
        assert not list(tmp_path.iterdir())

    def test_numeric_columns_match_oracle(self, tmp_path, monkeypatch):
        # the columns as handed to the writer, so that equality is bitwise
        written = {}
        add_records = Manifest.add_records

        def spy(manifest, name, columns):
            written[name] = columns
            add_records(manifest, name, columns)

        monkeypatch.setattr(Manifest, "add_records", spy)
        assert run_cli("fig2", "--alphas", "0.05,0.3", "--out",
                       str(tmp_path)) == 0
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
        assert run_cli("fig2", "--alphas", "0.2", "--out", str(tmp_path)) == 0
        lines = (tmp_path / "fig2_alpha_0.2.csv").read_text().splitlines()
        first = [float(v) for v in lines[1].split(",")]
        assert first[1] == pytest.approx(0.9045, abs=1e-4)


class TestReadoutCommand:
    def test_blocked_case(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tunneling": {"window": 3e5},
                                   "rates": {"gamma0": 0.0}}))
        assert run_cli("readout", "--config", str(cfg), "--true-state",
                       "+3/2", "--out", str(tmp_path / "o")) == 0
        row = (tmp_path / "o" / "readout.csv").read_text().splitlines()[1]
        fields = row.split(",")
        assert int(fields[4]) == 0           # counts_on
        assert float(fields[7]) == 1.5       # classified_m1

    def test_transmitting_case_with_jitter(self, small_cfg, tmp_path,
                                           capsys):
        out = tmp_path / "o"
        assert run_cli("readout", "--config", small_cfg,
                       "--true-state=-3/2", "--seed", "7", "--events",
                       "--out", str(out)) == 0
        assert "classified m1 = -1.5" in capsys.readouterr().out
        events = (out / "events.csv").read_text().splitlines()
        assert events[0] == "cycle,dwell_ns,spin_in,flip_prob,passed"
        assert len(events) == 2001
        summary = json.loads((out / "readout.jsonl").read_text())
        assert summary["classified_m1"] == -1.5
        assert_table(out, "readout", "true_m1,encoding,interrogation_mhz,"
                     "n_cycles,counts_on,baseline,threshold,classified_m1,"
                     "contrast,seed")

    def test_inner_interrogation_frequency_recorded(self, small_cfg,
                                                    tmp_path):
        out = tmp_path / "o"
        assert run_cli("readout", "--config", small_cfg, "--true-state",
                       "+1/2", "--out", str(out)) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["interrogation_mhz"] == pytest.approx(20152.0)

    def test_interrogation_reads_no_transition_table(self, small_cfg,
                                                     tmp_path, monkeypatch):
        # the interrogation line is the flip-line formula, not a table row
        def no_table(*args, **kwargs):
            raise AssertionError("transition_table reached")

        for module in ("spin_core", "protocol", "cli"):
            monkeypatch.setattr(f"fullerene_readout.{module}.transition_table",
                                no_table, raising=False)
        assert run_cli("readout", "--config", small_cfg, "--true-state=+1/2",
                       "--out", str(tmp_path / "r")) == 0
        assert run_cli("sweep", "--config", small_cfg, "--alphas", "0.1",
                       "--leaks", "0", "--trials", "1", "--out",
                       str(tmp_path / "s")) == 0


class TestSweepCommand:
    def test_sweep_uses_configured_pulse(self, tmp_path, capsys):
        # omega0 = 0 is no pulse at all: nothing is ever blocked, so every
        # state reads as negative, in the sweep as in a single readout
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pulse": {"omega0": 0},
                                   "tunneling": {"window": 3e5}}))
        assert run_cli("readout", "--true-state=+3/2", "--config", str(cfg),
                       "--out", str(tmp_path / "r")) == 0
        assert "classified m1 = -1.5" in capsys.readouterr().out
        out = tmp_path / "s"
        assert run_cli("sweep", "--alphas", "0", "--leaks", "0", "--trials",
                       "1", "--config", str(cfg), "--out", str(out)) == 0
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
        assert run_cli("sweep", f"--{option}", grid, "--out",
                       str(tmp_path)) == 1
        assert time.perf_counter() - start < 0.5
        assert (f"sweep.{option}: must lie in [0, 1)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("option,grid", [("alphas", "0.1,0.1"),
                                             ("leaks", "0,0.0")])
    def test_repeated_grid_value_rejected(self, option, grid, tmp_path,
                                          capsys, monkeypatch):
        monkeypatch.setattr("fullerene_readout.protocol.run_window", never)
        assert run_cli("sweep", f"--{option}", grid, "--trials", "2",
                       "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err.startswith(
            f"validation error: sweep.{option}: must not repeat a value")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("option", ["alphas", "leaks"])
    def test_negative_zero_is_zero(self, option, small_cfg, tmp_path):
        # -0 is the same grid value as 0: same seeds, same rows
        outputs = []
        for value in ("0", "-0"):
            out = tmp_path / value
            assert run_cli("sweep", "--config", small_cfg, f"--{option}",
                           value, "--trials", "2", "--out", str(out)) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("sweep.csv", "sweep.jsonl")])
        assert outputs[0] == outputs[1]

    def test_grid_shape_and_zero_misclassification(self, small_cfg,
                                                   tmp_path):
        out = tmp_path / "o"
        assert run_cli("sweep", "--config", small_cfg, "--alphas", "0.1,0.2",
                       "--leaks", "0,0.05", "--trials", "3", "--out",
                       str(out)) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 17     # 4 cells x 4 states
        assert all(line.split(",")[6] == "0" for line in lines[1:])
        assert_table(out, "sweep", "alpha,p_leak,encoding,true_m1,trials,"
                     "misclassified,rate,base_seed")

    def test_empty_grid_is_validation_error(self, small_cfg, tmp_path,
                                            capsys):
        assert run_cli("sweep", "--config", small_cfg, "--alphas", "",
                       "--out", str(tmp_path)) == 1
        assert run_cli("sweep", "--config", small_cfg, "--leaks", "0,x",
                       "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err.endswith(
            "validation error: sweep.leaks: invalid grid '0,x'\n")


class TestMechanicsCommand:
    def test_report(self, tmp_path, capsys):
        assert run_cli("mechanics", "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "2.122e-18" in out
        assert "5.306e-07" in out
        assert "127.8" in out and ">=127 MHz satisfied" in out

    def test_overflow_is_numeric_failure(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"constants": {"muB_over_h": 1e308},
                                   "mechanics": {"spacing": 1.0}}))
        assert run_cli("mechanics", "--config", str(cfg), "--out",
                       str(tmp_path)) == 3
        out, err = capsys.readouterr()
        assert "manifest.json" in err
        assert out == ""

    def test_zero_gradient(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mechanics": {"gradient": 0.0}}))
        assert run_cli("mechanics", "--config", str(cfg), "--out",
                       str(tmp_path)) == 0
        assert "below 127 MHz" in capsys.readouterr().out


class TestExitCodes:
    def test_missing_config_is_io_error(self, tmp_path):
        assert run_cli("table", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path)) == 2

    def test_bad_value_is_validation_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tunneling": {"alpha": 1.5}}))
        assert run_cli("table", "--config", str(cfg), "--out",
                       str(tmp_path)) == 1

    def test_negative_seed_rejected(self, tmp_path):
        assert run_cli("table", "--seed", "-1", "--out", str(tmp_path)) == 1

    def test_config_nested_too_deeply_is_validation_error(self, tmp_path,
                                                          capsys):
        cfg, out = tmp_path / "deep.json", tmp_path / "o"
        cfg.write_text(TOO_DEEP)
        assert run_cli("table", "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(
            "validation error: invalid JSON")
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
        out = tmp_path / "o"
        assert run_cli(*argv, "--out", str(out)) == 1
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
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"{section}": {{"{key}": {value}}}}}')
        assert run_cli("readout", "--config", str(cfg), "--out",
                       str(tmp_path / "o")) == 1
        assert (f"{section}.{key}: expected a finite number"
                in capsys.readouterr().err)

    def test_window_beyond_cycle_cap_rejected(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setattr("fullerene_readout.cli.run_window", never)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tunneling": {"window": 1e300}}))
        start = time.perf_counter()
        assert run_cli("readout", "--config", str(cfg), "--out",
                       str(tmp_path / "o")) == 1
        assert time.perf_counter() - start < 0.5
        assert "tunneling.window" in capsys.readouterr().err

    def test_events_window_capped(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("fullerene_readout.cli.run_window", never)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"tunneling": {"window": 150.0 * (MAX_EVENT_CYCLES + 1)}}))
        start = time.perf_counter()
        assert run_cli("readout", "--events", "--config", str(cfg), "--out",
                       str(tmp_path / "o")) == 1
        assert time.perf_counter() - start < 0.5
        assert "tunneling.window" in capsys.readouterr().err

    def test_overflowing_pulse_is_numeric_failure(self, tmp_path, capsys):
        # dwell * duration overflows: the flip probability would be NaN and
        # every electron silently blocked
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "tunneling": {"t0": 1e300, "cycle_period": 1e300,
                          "window": 1e300},
            "pulse": {"duration": 1e300}}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("readout", "--true-state=-3/2", "--config",
                           str(cfg), "--out", str(tmp_path / "o")) == 3
        assert "pulse phase overflows" in capsys.readouterr().err
        assert caught == []

    def test_overflowing_dwell_draw_is_silent(self, tmp_path, capsys):
        # seed 3's first half-normal draw overflows sigma |Z| and is
        # redrawn; the dwell * duration of the pulse then overflows
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "tunneling": {"t0": 1.7e308, "cycle_period": 1.7e308,
                          "window": 1.7e308, "alpha": 0.9}}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("readout", "--seed", "3", "--config", str(cfg),
                           "--out", str(tmp_path / "o")) == 3
        assert capsys.readouterr().err == (
            "numeric failure: pulse phase overflows: the pulse lasts too "
            "long for its Rabi frequency\n")
        assert caught == []

    def test_overflowing_relaxation_decays_silently(self, tmp_path, capsys):
        # gamma0 * residual dwell overflows to inf; exp(-inf) = 0 is exact
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "rates": {"gamma0": 1e300},
            "tunneling": {"t0": 1e10, "cycle_period": 1e10,
                          "window": 3e10}}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("readout", "--config", str(cfg), "--out",
                           str(tmp_path / "o")) == 0
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
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rates": rates}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("fig2", "--config", str(cfg), "--out",
                           str(tmp_path / "o")) == 3
        assert capsys.readouterr().err == (
            f"numeric failure: {failure} during integration\n")
        assert caught == []
        assert not list((tmp_path / "o").iterdir())

    def test_sweep_beyond_work_cap_rejected(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setattr("fullerene_readout.protocol.run_window", never)
        start = time.perf_counter()
        assert run_cli("sweep", "--trials", "1000000000", "--out",
                       str(tmp_path)) == 1
        assert time.perf_counter() - start < 0.5
        assert "sweep.trials" in capsys.readouterr().err


class TestEventStreaming:
    """`readout --events` writes events.csv block by block as the window is
    drawn."""

    LEAKY = {"alpha": 0.1, "p_leak_source": 0.05, "p_leak_drain": 0.05}

    @staticmethod
    def readout(tmp_path, doc, name="o"):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / name
        code = run_cli("readout", "--true-state=-3/2", "--events",
                       "--config", str(cfg), "--out", str(out))
        return code, out

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
                self.readout(tmp_path, doc)
            out = tmp_path / "o"
        else:
            got, out = self.readout(tmp_path, doc)
            assert got == code
        assert len(calls) == 2
        assert out.is_dir() and not (out / "events.csv").exists()

    def test_memory_does_not_grow_with_window(self, tmp_path):
        def peak(cycles):
            doc = {"tunneling": {**self.LEAKY, "window": 150.0 * cycles}}
            tracemalloc.start()
            try:
                code, _ = self.readout(tmp_path, doc, f"w{cycles}")
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
        code, out = self.readout(tmp_path, doc)
        assert code == 0
        assert (out / "events.csv").read_bytes() == want.read_bytes()


class TestFailedRunLeavesNothing:
    """A run that fails removes every file it wrote, and only those."""

    @staticmethod
    def outputs(out):
        return sorted(p.name for p in out.iterdir())

    def test_failure_after_the_window(self, small_cfg, tmp_path):
        # events.csv and readout.csv are complete when readout.jsonl fails
        out = tmp_path / "o"
        (out / "readout.jsonl").mkdir(parents=True)
        (out / "notes.txt").write_text("not ours\n")
        assert run_cli("readout", "--true-state=-3/2", "--events",
                       "--config", small_cfg, "--out", str(out)) == 2
        assert self.outputs(out) == ["notes.txt", "readout.jsonl"]
        assert (out / "notes.txt").read_text() == "not ours\n"

    @pytest.mark.parametrize("argv", [
        ["table"], ["fig2", "--alphas", "0.1"],
        ["readout", "--true-state=-3/2", "--events"],
        ["sweep", "--trials", "1"], ["mechanics"]], ids=lambda a: a[0])
    def test_failed_manifest_write(self, argv, small_cfg, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "manifest.json").mkdir(parents=True)
        assert run_cli(*argv, "--config", small_cfg, "--out", str(out)) == 2
        assert self.outputs(out) == ["manifest.json"]
        # no report names the files that the failure removed
        assert capsys.readouterr().out == ""

    def test_manifest_write_fails_midway(self, small_cfg, tmp_path,
                                         monkeypatch):
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
        out = tmp_path / "o"
        assert run_cli("readout", "--true-state=-3/2", "--events",
                       "--config", small_cfg, "--out", str(out)) == 2
        assert self.outputs(out) == []


class TestManifest:
    # outputs are listed in the order their files were completed
    @pytest.mark.parametrize("argv,paths", [
        (["table"], ["transitions.csv", "levels.csv"]),
        (["fig2", "--alphas", "0.1"], ["fig2_alpha_0.1.csv"]),
        (["readout", "--true-state=-3/2", "--events"],
         ["events.csv", "readout.csv", "readout.jsonl"]),
        (["sweep", "--trials", "1"], ["sweep.csv", "sweep.jsonl"])],
        ids=["table", "fig2", "readout", "sweep"])
    def test_digests_match_files(self, argv, paths, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL))
        out = tmp_path / "o"
        assert run_cli(*argv, "--config", str(cfg), "--out", str(out)) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert [entry["path"] for entry in doc["outputs"]] == paths
        for entry in doc["outputs"]:
            data = (out / entry["path"]).read_bytes()
            assert entry["sha256"] == hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("argv", [
        ["table"], ["fig2", "--alphas", "0,0.3"],
        ["readout", "--true-state=-3/2", "--events"],
        ["sweep", "--trials", "1", "--alphas", "0.5", "--leaks", "0.05"]],
        ids=["table", "fig2", "readout", "sweep"])
    def test_run_replays_from_its_manifest(self, argv, tmp_path):
        # the manifest's config and argv rerun the same outputs
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tunneling": {
            "window": 3e5, "alpha": 0.1, "p_leak_source": 0.05,
            "p_leak_drain": 0.05}, "seed": 3}))
        first, again = tmp_path / "first", tmp_path / "again"
        assert run_cli(*argv, "--config", str(cfg), "--out", str(first)) == 0
        doc = json.loads((first / "manifest.json").read_text())
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps(doc["config"]))
        assert run_cli(*doc["argv"], "--config", str(replay), "--out",
                       str(again)) == 0
        redo = json.loads((again / "manifest.json").read_text())
        assert redo["outputs"] == doc["outputs"]
        assert redo["config"] == doc["config"]


class TestOutputDirSelection:
    def test_out_is_the_only_source(self, tmp_path, monkeypatch):
        # without --out a run writes to out/ in the working directory; the
        # environment names no output directory
        monkeypatch.chdir(tmp_path)
        elsewhere = tmp_path / "env_out"
        monkeypatch.setenv("SIM_OUTPUT_DIR", str(elsewhere))
        assert run_cli("mechanics") == 0
        assert (tmp_path / "out" / "manifest.json").exists()
        assert not elsewhere.exists()


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("table",),
        ("readout", "--true-state=-3/2", "--seed", "5"),
        ("sweep", "--alphas", "0.1", "--leaks", "0", "--trials", "2"),
    ])
    def test_reruns_are_byte_identical(self, argv, small_cfg, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run_cli(*argv, "--config", small_cfg, "--out",
                           str(out)) == 0
            outs.append(out)
        csvs = sorted(p.name for p in outs[0].glob("*.csv"))
        assert csvs
        for name in csvs:
            assert (outs[0] / name).read_bytes() == (
                outs[1] / name).read_bytes()


def test_console_entrypoint_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "fullerene_readout", "table", "--out",
         str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "transitions.csv").exists()
