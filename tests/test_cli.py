"""Command-line behavior: exit codes, overrides, standalone fits."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bosetherm
from bosetherm.cli import main
from bosetherm.runner import _jsonify, _relaxation_entry, write_csv


def write_config(path, config) -> str:
    path.write_text(json.dumps(config))
    return str(path)


def rabi_config(outdir) -> dict:
    return {
        "model": {"num_modes": 2, "num_particles": 1, "level_spacing": 0.0,
                  "hopping": 1.0, "u_intra": 0.0, "u_inter": 0.0},
        "initial_state": {"kind": "occupation", "occupation": [1, 0]},
        "measurement": {"observables": ["occupations"],
                        "times": {"start": 0.0, "stop": 6.0, "count": 25},
                        "tau_max": 2.0, "tau_step": 0.1,
                        "energy_grid": {"start": -8.0, "stop": 8.0,
                                        "count": 161}},
        "stages": ["evolve"],
        "output_dir": str(outdir),
        "seed": 1,
    }


def test_importing_the_cli_loads_no_scipy_optimize():
    # scipy.optimize would also load scipy.fft, scipy.special and
    # scipy.spatial: about 19 MiB and 0.3 s in every process
    code = ("import json, sys, bosetherm.cli; print(json.dumps(sorted("
            "{'.'.join(m.split('.')[:2]) for m in sys.modules} & {"
            "'scipy.optimize', 'scipy.fft', 'scipy.special', "
            "'scipy.spatial'})))")
    source = str(Path(bosetherm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == []


def test_run_returns_zero(tmp_path):
    config = write_config(tmp_path / "run.json", rabi_config(tmp_path / "out"))
    assert main(["run", config]) == 0
    assert (tmp_path / "out" / "occupations.csv").exists()
    assert (tmp_path / "out" / "manifest.json").exists()


def test_config_problems_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["run", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    cfg = rabi_config(tmp_path / "out")
    cfg["model"]["num_modes"] = 0
    assert main(["run", write_config(tmp_path / "zero.json", cfg)]) == 2
    mixed = rabi_config(tmp_path / "mixed_out")
    mixed["initial_state"]["window"] = [-2.0, 2.0]
    assert main(["run", write_config(tmp_path / "mixed.json", mixed)]) == 2
    assert not (tmp_path / "mixed_out").exists()
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "unknown key 'window' in initial_state" in err


def test_numerics_problems_exit_three(tmp_path, capsys):
    cfg = rabi_config(tmp_path / "out")
    # the two levels sit at -1 and +1, so the window holds none of them
    cfg["initial_state"] = {"kind": "microcanonical", "window": [5.0, 6.0]}
    cfg["stages"] = ["build-spectrum", "evolve"]
    assert main(["run", write_config(tmp_path / "empty.json", cfg)]) == 3
    err = capsys.readouterr().err
    assert "numerics error: no levels in [5.0, 6.0]" in err
    # the failure still left a manifest behind
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["stages"]["evolve"]["status"] == "failed"


def test_greens_pair_and_time_override(tmp_path):
    cfg = rabi_config(tmp_path / "out")
    config = write_config(tmp_path / "run.json", cfg)
    assert main(["greens", config, "--pair", "0,1", "--time", "1.5"]) == 0
    index = json.loads((tmp_path / "out" / "greens_index.json").read_text())
    assert index["green_pairs"] == [[0, 1]]
    assert (tmp_path / "out" / "green_lesser_0_1_t0.csv").exists()
    assert main(["greens", config, "--pair", "zero,one"]) == 2


@pytest.mark.parametrize("measurement", [None, []], ids=["null", "list"])
def test_greens_overrides_need_a_measurement_object(tmp_path, capsys,
                                                    measurement):
    cfg = rabi_config(tmp_path / "out")
    cfg["measurement"] = measurement
    config = write_config(tmp_path / "run.json", cfg)
    assert main(["greens", config, "--pair", "0,1", "--time", "1.5"]) == 2
    assert "measurement must be an object" in capsys.readouterr().err


def test_single_stage_commands(tmp_path):
    cfg = rabi_config(tmp_path / "out")
    cfg["model"] = {"num_modes": 3, "num_particles": 2}
    cfg["initial_state"] = {"kind": "occupation", "occupation": [2, 0, 0]}
    config = write_config(tmp_path / "run.json", cfg)
    assert main(["build-spectrum", config]) == 0
    assert main(["chaos", config]) == 0
    report = json.loads((tmp_path / "out" / "chaos.json").read_text())
    assert 0.0 < report["mean_ratio"] < 1.0


def test_fit_bose_model(tmp_path, capsys):
    temperature = 2.5
    energies = np.array([1.0, 2.0, 4.0, 8.0])
    occupations = 1.0 / np.expm1(energies / temperature)
    table = tmp_path / "occ.csv"
    write_csv(table, ["E_over_J", "occupation"], [energies, occupations])
    assert main(["fit", str(table), "--model", "bose"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"] == "bose"
    assert payload["thermal"] is True
    assert abs(payload["temperature"] - temperature) < 1e-6 * temperature


def test_fit_biexp_model(tmp_path, capsys):
    rng = np.random.default_rng(11)
    t = np.linspace(0.0, 12.0, 241)
    deviation = 3.0 * np.exp(-t / 0.25) + 0.4 * np.exp(-t / 1.5)
    curve = 5.15 + deviation + 0.01 * rng.normal(size=t.size)
    table = tmp_path / "relax.csv"
    write_csv(table, ["Jt", "signal"], [t, curve])
    out = tmp_path / "fit.json"
    assert main(["fit", str(table), "--model", "biexp",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["tau_fast"] - 0.25) < 0.15 * 0.25
    assert abs(payload["tau_slow"] - 1.5) < 0.15 * 1.5
    assert abs(payload["plateau"] - 5.15) < 0.01
    printed = json.loads(capsys.readouterr().out)
    assert printed == payload


def test_fit_biexp_flags_a_decay_longer_than_the_trace(tmp_path, capsys):
    # a ripple that does not die out reads as a decay longer than the trace;
    # the command flags it as the fit stage does
    t = np.arange(0.0, 200.25, 0.5)
    curve = 1.0 + 0.5 * np.exp(-t / 3.0) + 0.05 * np.cos(1.3 * t)
    table = tmp_path / "entropy.csv"
    write_csv(table, ["Jt", "entropy"], [t, curve])
    assert main(["fit", str(table), "--model", "biexp"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["tau_slow"] > t[-1] - t[0]
    assert printed["flags"] == ["tau_slow exceeds the sampled span"]
    stage = _relaxation_entry(t, curve, 0.2)
    assert printed == json.loads(json.dumps(_jsonify(
        {"model": "biexp", "column": "entropy", **stage})))


def test_fit_biexp_failure_exits_three(tmp_path, capsys):
    # a tail of 5 samples cannot define a plateau
    t = np.linspace(0.0, 10.0, 25)
    table = tmp_path / "short.csv"
    write_csv(table, ["Jt", "signal"], [t, np.exp(-t)])
    assert main(["fit", str(table), "--model", "biexp"]) == 3
    assert "ShortSeriesError" in capsys.readouterr().err


def test_fit_fdt_model(tmp_path, capsys):
    beta = 0.02
    energies = np.linspace(-30.0, 30.0, 301)
    forward = np.exp(-np.abs(energies) / 15.0) * np.exp(beta * energies / 2.0)
    reverse = np.exp(-np.abs(energies) / 15.0) * np.exp(-beta * energies / 2.0)
    table = tmp_path / "pair.csv"
    write_csv(table, ["E_over_J", "forward", "reversed"],
              [energies, forward, reverse])
    assert main(["fit", str(table), "--model", "fdt"]) == 2
    assert main(["fit", str(table), "--model", "fdt",
                 "--window", "1.0", "25.0"]) == 0
    outputs = [line for line in capsys.readouterr().out.splitlines() if line]
    payload = json.loads("\n".join(outputs))
    assert abs(payload["beta"] - beta) < 1e-6
    assert payload["thermal"] is True


def test_fit_rejects_bad_tables(tmp_path):
    assert main(["fit", str(tmp_path / "nope.csv"), "--model", "bose"]) == 2
    narrow = tmp_path / "one.csv"
    narrow.write_text("x\n1.0\n2.0\n")
    assert main(["fit", str(narrow), "--model", "bose"]) == 2


def test_fit_bose_refuses_a_non_positive_energy(tmp_path, capsys):
    table = tmp_path / "occ.csv"
    write_csv(table, ["E_over_J", "occupation"],
              [[0.0, 1.0, 2.0], [3.0, 0.5, 0.2]])
    assert main(["fit", str(table), "--model", "bose"]) == 2
    assert "energies must be positive" in capsys.readouterr().err


def test_fit_fdt_refuses_a_reversed_window(tmp_path, capsys):
    energies = np.linspace(-10.0, 10.0, 41)
    table = tmp_path / "pair.csv"
    write_csv(table, ["E_over_J", "forward", "reversed"],
              [energies, np.exp(0.1 * energies), np.exp(-0.1 * energies)])
    assert main(["fit", str(table), "--model", "fdt",
                 "--window", "5", "1"]) == 2
    assert "window must be ordered" in capsys.readouterr().err


def test_greens_without_particles_exits_two(tmp_path, capsys):
    cfg = {
        "model": {"num_modes": 3, "num_particles": 0},
        "initial_state": {"kind": "occupation", "occupation": [0, 0, 0]},
        "measurement": {"com_times": [1.0], "tau_max": 1.0, "tau_step": 0.1,
                        "energy_grid": {"start": -5, "stop": 25,
                                        "count": 61}},
        "stages": ["greens"],
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["run", write_config(tmp_path / "auto.json", cfg)]) == 2
    assert "num_particles" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["base_step", "taylor_order", "branching",
                                 "depth", "target_error"])
def test_taylor_ladder_keys_exit_two(tmp_path, capsys, key):
    # a run propagates exactly in the eigenbasis, so neither the Taylor
    # ladder's shape nor its error budget is a setting of its propagation
    # block
    value = {"base_step": 0.001, "taylor_order": 4, "branching": 2,
             "depth": 4, "target_error": 1e-6}[key]
    cfg = rabi_config(tmp_path / "out")
    cfg["propagation"] = {key: value}
    config = write_config(tmp_path / "ladder.json", cfg)
    assert main(["run", config]) == 2
    assert f"unknown key '{key}' in propagation" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_greens_walks_beyond_the_centre_time_horizon(tmp_path):
    # max|t| + tau_max/2 falls short of tau_max, the span of the sector walks
    cfg = rabi_config(tmp_path / "out")
    cfg["model"] = {"num_modes": 3, "num_particles": 2}
    cfg["initial_state"] = {"kind": "occupation", "occupation": [2, 0, 0]}
    cfg["measurement"] = {"com_times": [0.5]}
    cfg["stages"] = ["greens"]
    assert main(["run", write_config(tmp_path / "short.json", cfg)]) == 0


def test_stage_command_checks_the_stage_it_runs(tmp_path, capsys):
    cfg = {
        "model": {"num_modes": 3, "num_particles": 0},
        "initial_state": {"kind": "occupation", "occupation": [0, 0, 0]},
        "measurement": {"com_times": [1.0], "tau_max": 1.0, "tau_step": 0.1},
        "stages": ["build-spectrum"],
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["greens", write_config(tmp_path / "vacuum.json", cfg)]) == 2
    assert "num_particles" in capsys.readouterr().err


def test_evolve_refuses_spectrum_artifacts_of_other_couplings(tmp_path,
                                                              capsys):
    cfg = {
        "model": {"num_modes": 3, "num_particles": 4, "u_inter": 0.1},
        "initial_state": {"kind": "microcanonical", "window": [5.0, 25.0]},
        "measurement": {"observables": ["occupations"],
                        "times": {"start": 0.0, "stop": 6.0, "count": 25}},
        "stages": ["build-spectrum", "evolve"],
        "output_dir": str(tmp_path / "out"),
    }
    config = write_config(tmp_path / "fresh.json", cfg)
    assert main(["build-spectrum", config]) == 0
    assert main(["evolve", config]) == 0
    # same sector dimension, other eigenpairs
    cfg["model"]["u_inter"] = 2.0
    stale = write_config(tmp_path / "stale.json", cfg)
    assert main(["evolve", stale]) == 2
    assert main(["chaos", stale]) == 2
    err = capsys.readouterr().err
    assert err.count("spectrum artifacts do not match") == 2
    assert main(["build-spectrum", stale]) == 0
    assert main(["evolve", stale]) == 0
    state = json.loads((tmp_path / "out" / "initial_state.json").read_text())
    assert state["level_count"] == 2


def test_greens_refuses_spectrum_artifacts_of_other_couplings(tmp_path,
                                                              capsys):
    # an occupation state needs no spectrum, but greens propagates the model
    # sector with the artifacts' eigensystem, so stale ones are refused
    cfg = {
        "model": {"num_modes": 3, "num_particles": 4, "u_inter": 0.1},
        "initial_state": {"kind": "occupation", "occupation": [4, 0, 0]},
        "measurement": {"com_times": [1.0], "tau_max": 1.0, "tau_step": 0.1,
                        "energy_grid": {"start": -10.0, "stop": 10.0,
                                        "count": 21}},
        "output_dir": str(tmp_path / "out"),
    }
    config = write_config(tmp_path / "fresh.json", cfg)
    assert main(["build-spectrum", config]) == 0
    cfg["model"]["u_inter"] = 2.0
    stale = write_config(tmp_path / "stale.json", cfg)
    assert main(["greens", stale]) == 2
    assert "spectrum artifacts do not match" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("green_*.csv"))
    assert main(["build-spectrum", stale]) == 0
    assert main(["greens", stale]) == 0
    assert list((tmp_path / "out").glob("green_*.csv"))


def test_fit_stage_reruns_alone_through_run(tmp_path):
    cfg = json.loads(Path(__file__).with_name("small_quench.json").read_text())
    cfg["output_dir"] = str(tmp_path / "out")
    # its one fitted level reads an FDT ratio below 1 and warns about it
    with pytest.warns(UserWarning, match="unphysical occupation"):
        assert main(["run", write_config(tmp_path / "all.json", cfg)]) == 0
    report = json.loads((tmp_path / "out" / "thermometry.json").read_text())
    (level,) = report["bose"][0]["levels"]
    assert "FDT ratio below 1" in level["flags"]
    fits = tmp_path / "out" / "relaxation_fits.json"
    fits.unlink()
    # `bosetherm fit` is the standalone CSV fitter and does not take a config
    config = write_config(tmp_path / "fit.json", dict(cfg, stages=["fit"]))
    with pytest.raises(SystemExit) as exit_info:
        main(["fit", config])
    assert exit_info.value.code == 2
    assert main(["run", config]) == 0
    assert fits.exists()
