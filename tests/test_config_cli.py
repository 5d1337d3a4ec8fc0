import hashlib
import json
import math
import re
import subprocess
import sys
import time
import warnings
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from fullerene_readout.cli import main
from fullerene_readout.config import config_from_dict, parse_config
from fullerene_readout.dynamics import DecoherenceRates, PulseSpec
from fullerene_readout.errors import ConfigError
from fullerene_readout.protocol import MAX_EVENT_CYCLES, TunnelingParams
from fullerene_readout.spin_core import (AnisotropyParams, MechanicsParams,
                                         PhysicalConstants, SystemParams)

PARAMS = (SystemParams, AnisotropyParams, PhysicalConstants, DecoherenceRates,
          PulseSpec, TunnelingParams, MechanicsParams)


class TestConfig:
    def test_empty_document_gives_defaults(self):
        cfg = config_from_dict({})
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

    def test_missing_file_is_io_error(self):
        with pytest.raises(OSError):
            parse_config("/nonexistent/cfg.json")

    def test_parse_file_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"system": {"J": 25.0}, "seed": 11}))
        cfg = parse_config(path)
        assert cfg.system.J == 25.0 and cfg.seed == 11
        assert cfg.to_dict()["system"]["J"] == 25.0

    def test_invalid_json_is_validation_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_pulse_must_fit_cycle(self):
        with pytest.raises(ConfigError, match="pulse.duration"):
            config_from_dict({"pulse": {"duration": 300.0}})

    def test_readme_config_block_is_the_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = json.loads(
            re.search(r"```json\n(.*?)```", readme, re.S).group(1))
        assert config_from_dict(block) == config_from_dict({})
        defaults = config_from_dict({}).to_dict()
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

    @pytest.mark.parametrize("alphas,why", [
        (",", "must be non-empty"), ("0.1,1.5", r"must lie in \[0, 1\)"),
        ("0.1,0.1000001", r"two values would write fig2_alpha_0\.1\.csv")])
    def test_bad_grid_rejected(self, alphas, why, tmp_path, capsys):
        assert run_cli("fig2", "--alphas", alphas, "--out",
                       str(tmp_path)) == 1
        assert re.search(f"fig2.alphas: {why}", capsys.readouterr().err)
        assert not list(tmp_path.iterdir())

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

    def test_grid_shape_and_zero_misclassification(self, small_cfg,
                                                   tmp_path):
        out = tmp_path / "o"
        assert run_cli("sweep", "--config", small_cfg, "--alphas", "0.1,0.2",
                       "--leaks", "0,0.05", "--trials", "3", "--out",
                       str(out)) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 17     # 4 cells x 4 states
        assert all(line.split(",")[6] == "0" for line in lines[1:])

    def test_empty_grid_is_validation_error(self, small_cfg, tmp_path):
        assert run_cli("sweep", "--config", small_cfg, "--alphas", "",
                       "--out", str(tmp_path)) == 1


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

    def test_sweep_beyond_work_cap_rejected(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setattr("fullerene_readout.protocol.run_window", never)
        start = time.perf_counter()
        assert run_cli("sweep", "--trials", "1000000000", "--out",
                       str(tmp_path)) == 1
        assert time.perf_counter() - start < 0.5
        assert "sweep.trials" in capsys.readouterr().err


class TestManifest:
    @pytest.mark.parametrize("argv", [
        ["table"], ["fig2", "--alphas", "0.1"],
        ["readout", "--true-state=-3/2", "--events"],
        ["sweep", "--trials", "1"]], ids=lambda argv: argv[0])
    def test_digests_match_files(self, argv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL))
        out = tmp_path / "o"
        assert run_cli(*argv, "--config", str(cfg), "--out", str(out)) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["outputs"]
        for entry in doc["outputs"]:
            data = (out / entry["path"]).read_bytes()
            assert entry["sha256"] == hashlib.sha256(data).hexdigest()


class TestOutputDirSelection:
    def test_env_var_override(self, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("SIM_OUTPUT_DIR", str(target))
        assert run_cli("mechanics") == 0
        assert (target / "manifest.json").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SIM_OUTPUT_DIR", str(tmp_path / "env_out"))
        flag = tmp_path / "flag_out"
        assert run_cli("mechanics", "--out", str(flag)) == 0
        assert (flag / "manifest.json").exists()


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
