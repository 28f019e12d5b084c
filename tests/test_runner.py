"""Pipeline tests: validation, determinism, stage wiring, artifacts."""

import json
from pathlib import Path

import numpy as np
import pytest

from bosetherm import (ConfigError, EmptyWindowError, HamiltonianParams,
                       PropagatorConfig, SectorLadders, StateVector,
                       build_hamiltonian, build_ladder, build_partition,
                       build_sector_ladders, choose_base_step, diagonalize,
                       entanglement_entropy, fit_bose_einstein,
                       occupation_state, read_csv, reduced_density,
                       resolve_times, run, single_particle_correlators,
                       tau_grid, to_energy, validate_config, write_csv)
from bosetherm.fock import sector_dimension
from bosetherm.runner import STAGES

import oracles

# the all-stage config that CI also runs through the console script
SMALL_QUENCH = Path(__file__).with_name("small_quench.json")


def rabi_config(outdir) -> dict:
    """One particle hopping between two degenerate modes."""
    return {
        "model": {"num_modes": 2, "num_particles": 1, "level_spacing": 0.0,
                  "hopping": 1.0, "u_intra": 0.0, "u_inter": 0.0},
        "initial_state": {"kind": "occupation", "occupation": [1, 0]},
        "measurement": {"observables": ["occupations"],
                        "times": {"start": 0.0, "stop": 6.0, "count": 25}},
        "stages": ["evolve"],
        "output_dir": str(outdir),
        "seed": 1,
    }


def small_quench_config(outdir) -> dict:
    """Two particles on three levels, everything switched on."""
    return dict(json.loads(SMALL_QUENCH.read_text()), output_dir=str(outdir))


def run_small_quench(cfg, **kwargs) -> dict:
    """run() through a thermometry stage on tests/small_quench.json, whose
    one fitted level reads an FDT ratio below 1 and warns about it."""
    with pytest.warns(UserWarning, match="unphysical occupation"):
        manifest = run(cfg, **kwargs)
    report = json.loads(
        (Path(cfg["output_dir"]) / "thermometry.json").read_text())
    (level,) = report["bose"][0]["levels"]
    assert "FDT ratio below 1" in level["flags"]
    return manifest


def test_validate_config_applies_defaults(tmp_path):
    cfg = validate_config({"model": {"num_modes": 3, "num_particles": 2},
                           "output_dir": str(tmp_path)},
                          stages=["build-spectrum"])
    assert cfg["model"]["level_spacing"] == 10.0
    assert cfg["model"]["u_inter"] == 0.1
    assert cfg["propagation"] == {"horizon": None}
    assert cfg["measurement"]["green_pairs"] == [[0, 0], [1, 1], [2, 2]]
    assert cfg["measurement"]["window"] == "hann"
    assert cfg["stages"] == list(STAGES)
    assert cfg["seed"] == 1


@pytest.mark.parametrize("patch,fragment", [
    ({"model": None}, "model block is required"),
    ({"model": {"num_modes": 3}}, "num_particles is required"),
    ({"model": {"num_modes": 0, "num_particles": 1}}, "num_modes"),
    ({"typo": 1}, "unknown key 'typo'"),
    ({"initial_state": {"kind": "occupation", "occupation": [1, 0, 0]}},
     "must sum to 2"),
    ({"initial_state": {"kind": "microcanonical", "window": [2.0, 1.0]}},
     "ordered"),
    ({"measurement": {"tau_max": 1.0, "tau_step": 0.3}}, "multiple"),
    ({"measurement": {"tau_step": 0.5,
                      "energy_grid": {"start": -20.0, "stop": 20.0,
                                      "count": 11}}}, "resolves"),
    ({"measurement": {"system_modes": [3]}}, "mode indices"),
    ({"stages": ["evolve", "evolve"]}, "repeat"),
    ({"stages": ["warmup"]}, "stages entries"),
    ({"fits": {"tail_fraction": 0.0}}, "tail_fraction"),
    ({"measurement": {"times": {"start": 0.0, "stop": 1.0, "count": 5,
                                "spacing": "cubic"}}}, "spacing"),
    ({"model": {"num_modes": 3, "num_particles": 2, "hopping": 10 ** 400}},
     "hopping"),
    # the other kind's keys are not dropped silently
    ({"initial_state": {"kind": "occupation", "occupation": [2, 0, 0],
                        "window": [0, 1], "random_phases": True}},
     "unknown key 'window' in initial_state"),
    # the model sector fits under the cap, its N+1 sector does not
    ({"model": {"num_modes": 2, "num_particles": 39999},
      "initial_state": {"kind": "occupation", "occupation": [39999, 0]},
      "measurement": {"com_times": [1.0]}, "stages": ["greens"]},
     "40000-particle sector has dimension 40001"),
])
def test_validate_config_rejects(tmp_path, patch, fragment):
    raw = {"model": {"num_modes": 3, "num_particles": 2},
           "output_dir": str(tmp_path)}
    raw.update(patch)
    if raw["model"] is None:
        del raw["model"]
    with pytest.raises(ConfigError, match=fragment):
        validate_config(raw)


def test_stage_requirements_follow_active_stages(tmp_path):
    raw = {"model": {"num_modes": 3, "num_particles": 2},
           "output_dir": str(tmp_path), "stages": ["build-spectrum"]}
    validate_config(raw)
    with pytest.raises(ConfigError, match="initial_state"):
        validate_config(raw, stages=["evolve"])
    with pytest.raises(ConfigError, match="com_times"):
        validate_config({**raw,
                         "initial_state": {"kind": "occupation",
                                           "occupation": [2, 0, 0]}},
                        stages=["greens"])


def test_resolve_times_grids():
    linear = resolve_times({"start": 0.0, "stop": 2.0, "count": 5,
                            "spacing": "linear", "include_zero": False})
    assert np.allclose(linear, [0.0, 0.5, 1.0, 1.5, 2.0])
    logged = resolve_times({"start": 0.1, "stop": 10.0, "count": 3,
                            "spacing": "log", "include_zero": True})
    assert logged[0] == 0.0
    assert np.allclose(logged[1:], [0.1, 1.0, 10.0])
    explicit = resolve_times({"list": [3.0, 1.0, 2.0]})
    assert np.allclose(explicit, [3.0, 1.0, 2.0]) or \
        np.allclose(explicit, [1.0, 2.0, 3.0])


def test_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(7)
    a = rng.standard_normal(40)
    b = np.exp(rng.standard_normal(40) * 20.0)
    path = tmp_path / "table.csv"
    write_csv(path, ["a", "b"], [a, b])
    cols = read_csv(path)
    assert np.array_equal(cols["a"], a)
    assert np.array_equal(cols["b"], b)


def test_csv_rows_match_per_value_formatting(tmp_path):
    # the reference formats each numpy scalar on its own, as rows once were
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e-300,
               0.1, 1.0 / 3.0, 123456789.0, 2.0 ** 60]
    rng = np.random.default_rng(3)
    a = np.concatenate([special, rng.standard_normal(20)])
    b = np.concatenate([special[::-1], np.exp(rng.standard_normal(20) * 50)])
    c = np.arange(a.size)
    path = tmp_path / "table.csv"
    write_csv(path, ["a", "b", "c"], [a, b, c])
    cols = [np.asarray(col, dtype=float) for col in (a, b, c)]
    expected = ["a,b,c"] + [",".join(format(v, ".17g") for v in row)
                            for row in zip(*cols)]
    assert path.read_text() == "\n".join(expected) + "\n"
    lines = path.read_text().splitlines()
    assert lines[1] == "nan,1.152921504606847e+18,0"
    assert lines[4] == "-0,0.10000000000000001,3"
    assert lines[6] == "4.9406564584124654e-324,1.0000000000000001e+300,5"
    assert lines[11] == "123456789,inf,10"


def test_rabi_occupation_curve(tmp_path):
    manifest = run(rabi_config(tmp_path / "out"))
    assert manifest["stages"]["evolve"]["status"] == "ok"
    cols = read_csv(tmp_path / "out" / "occupations.csv")
    expected = np.sin(cols["Jt"]) ** 2
    assert np.abs(cols["n_1"] - expected).max() < 1e-6
    assert np.abs(cols["n_0"] + cols["n_1"] - 1.0).max() < 1e-9


def test_rerun_writes_identical_artifacts(tmp_path):
    outdir = tmp_path / "out"
    run_small_quench(small_quench_config(outdir))
    first = {p.name: p.read_bytes() for p in outdir.iterdir()
             if p.name != "manifest.json"}
    run_small_quench(small_quench_config(outdir))
    second = {p.name: p.read_bytes() for p in outdir.iterdir()
              if p.name != "manifest.json"}
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} changed between runs"


def test_manifest_inventory_and_versions(tmp_path):
    outdir = tmp_path / "out"
    manifest = run_small_quench(small_quench_config(outdir))
    assert set(manifest["versions"]) == {"bosetherm", "numpy", "scipy",
                                         "python", "blas", "threads"}
    assert set(manifest["versions"]["threads"]) == {
        "BOSETHERM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS"}
    listed = set(manifest["files"])
    on_disk = {p.name for p in outdir.iterdir() if p.name != "manifest.json"}
    assert listed == on_disk
    for name, record in manifest["files"].items():
        assert (outdir / name).stat().st_size == record["bytes"]
        assert len(record["sha256"]) == 64
    for stage in manifest["stages"].values():
        assert stage["status"] == "ok"
        assert stage["seconds"] >= 0.0
    # each stage records the process's peak resident set when it ended, in
    # bytes: an interpreter with numpy loaded holds far more than 1 MiB
    peaks = [manifest["stages"][name]["peak_rss_bytes"]
             for name in STAGES if name in manifest["stages"]]
    assert len(peaks) == len(manifest["stages"])
    assert all(type(peak) is int and peak > 2 ** 20 for peak in peaks)
    assert peaks == sorted(peaks)
    # the manifest echoes the configured grid; the times that ran are the
    # snapped lattice times in the Jt column and the greens diagnostics
    configured = validate_config(small_quench_config(outdir))["measurement"]
    assert manifest["config"]["measurement"] == configured
    evolve = manifest["stages"]["evolve"]["diagnostics"]
    dt = evolve["base_step"]
    cols = read_csv(outdir / "entropy.csv")
    assert cols["Jt"].tolist() == [
        round(t / dt) * dt for t in resolve_times(configured["times"])]
    greens = manifest["stages"]["greens"]["diagnostics"]
    assert greens["com_times"] == [
        round(t / greens["base_step"]) * greens["base_step"]
        for t in configured["com_times"]]
    # each stage records the lattice it was picked at: evolve for its
    # largest time, greens for max|t| + tau_max/2 + tau_step on the
    # tau_step/2 grid
    params = HamiltonianParams(3, 2, 10.0, 1.0, 1.0, 0.1)
    lattices = {"evolve": choose_base_step(build_hamiltonian(params), 40.0),
                "greens": build_sector_ladders(params, 3.1,
                                               tau_step=0.1).center.config}
    for stage, diag in (("evolve", evolve), ("greens", greens)):
        lattice = lattices[stage]
        assert (diag["base_step"], diag["depth"]) == (lattice.base_step,
                                                      lattice.depth)
        assert "taylor_order" not in diag


def test_a_run_diagonalizes_each_sector_once(tmp_path, monkeypatch):
    import sys

    import bosetherm.hamiltonian as hamiltonian

    # particle numbers of the sectors each function was called on
    calls = {"diagonalize": [], "build_hamiltonian": []}
    for name, sectors in calls.items():
        real = getattr(hamiltonian, name)

        def spy(*args, real=real, sectors=sectors, **kwargs):
            out = real(*args, **kwargs)
            sectors.append(out.basis.num_particles)
            return out
        # the module's own name and every name imported from it
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("bosetherm") and \
                    getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, spy)

    run_small_quench(small_quench_config(tmp_path / "out"))
    # build-spectrum diagonalizes N; evolve and greens reuse its artifacts
    # and greens diagonalizes N - 1 and N + 1
    assert sorted(calls["diagonalize"]) == [1, 2, 3]
    assert sorted(calls["build_hamiltonian"]) == [1, 2, 2, 2, 3]


def test_missing_artifacts_name_their_stage(tmp_path):
    cfg = small_quench_config(tmp_path / "out")
    with pytest.raises(ConfigError, match="greens stage"):
        run(cfg, stages=["thermometry"])
    with pytest.raises(ConfigError, match="build-spectrum stage"):
        run(cfg, stages=["chaos"])
    with pytest.raises(ConfigError, match="evolve stage"):
        run(cfg, stages=["fit"])


def test_stages_rerun_from_persisted_artifacts(tmp_path):
    cfg = small_quench_config(tmp_path / "out")
    run(cfg, stages=["build-spectrum"])
    run(cfg, stages=["evolve"])
    run(cfg, stages=["greens"])
    run_small_quench(cfg, stages=["thermometry", "chaos", "fit"])
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    done = {name for name, rec in manifest["stages"].items()
            if rec["status"] == "ok"}
    assert done == set(STAGES)
    # the fit stage alone rewrites its artifact byte for byte
    fits = tmp_path / "out" / "relaxation_fits.json"
    written = fits.read_bytes()
    fits.unlink()
    run(cfg, stages=["fit"])
    assert fits.read_bytes() == written


def test_failed_stage_recorded_with_partial_artifacts(tmp_path):
    cfg = rabi_config(tmp_path / "out")
    cfg["stages"] = ["build-spectrum", "chaos"]
    # two levels cannot carry a gap-ratio statistic
    with pytest.raises(EmptyWindowError):
        run(cfg)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["stages"]["build-spectrum"]["status"] == "ok"
    assert manifest["stages"]["chaos"]["status"] == "failed"
    assert "EmptyWindowError" in manifest["stages"]["chaos"]["error"]
    assert (tmp_path / "out" / "spectrum.csv").exists()


def test_microcanonical_eigenstate_is_static(tmp_path):
    params = HamiltonianParams(3, 2, 10.0, 1.0, 1.0, 0.1)
    eig = diagonalize(build_hamiltonian(params))
    gaps = np.diff(eig.energies)
    pick = 1 + int(np.argmax(np.minimum(gaps[:-1], gaps[1:])))
    e0 = eig.energies[pick]

    cfg = {
        "model": {"num_modes": 3, "num_particles": 2},
        "initial_state": {"kind": "microcanonical",
                          "window": [e0 - 1e-6, e0 + 1e-6]},
        "measurement": {"observables": ["occupations"],
                        "times": {"start": 0.0, "stop": 50.0, "count": 11}},
        "stages": ["build-spectrum", "evolve"],
        "output_dir": str(tmp_path / "out"),
        "seed": 4,
    }
    run(cfg)
    cols = read_csv(tmp_path / "out" / "occupations.csv")
    for m in range(3):
        col = cols[f"n_{m}"]
        assert np.abs(col - col[0]).max() < 1e-8
    state = json.loads((tmp_path / "out" / "initial_state.json").read_text())
    assert state["level_count"] == 1
    assert abs(state["mean_energy"] - e0) < 1e-9
    assert state["spectral_width"] < 1e-9


def test_greens_stage_matches_direct_calls(tmp_path):
    outdir = tmp_path / "out"
    cfg = small_quench_config(outdir)
    run(cfg, stages=["greens"])

    params = HamiltonianParams(3, 2, 10.0, 1.0, 1.0, 0.1)
    horizon = 2.0 + 1.0 + 0.1
    ladders = build_sector_ladders(params, horizon, tau_step=0.1)
    psi0 = occupation_state(ladders.center.basis, (2, 0, 0))
    tau = tau_grid(2.0, 0.1)
    lesser, _ = single_particle_correlators(psi0, ladders, (0, 0), 2.0, tau)
    energies = np.linspace(-5.0, 25.0, 121)
    spec = to_energy(lesser, energies, window="hann")

    cols = read_csv(outdir / "green_lesser_0_0_t0.csv")
    assert np.array_equal(cols["E_over_J"], energies)
    stored = cols["re"] + 1j * cols["im"]
    assert np.abs(stored - spec.values).max() < 1e-15


def test_unknown_stage_rejected(tmp_path):
    # an override obeys the rule of the config's own stage list
    with pytest.raises(ConfigError, match="stages entries must come from"):
        run(rabi_config(tmp_path / "out"), stages=["warmup"])
    with pytest.raises(ConfigError, match="stages must not repeat"):
        run(rabi_config(tmp_path / "out"), stages=["evolve", "evolve"])
    assert not (tmp_path / "out").exists()


def test_validate_config_reads_every_key(tmp_path):
    raw = {
        "model": {"num_modes": 4, "num_particles": 3, "level_spacing": 7.5,
                  "hopping": 0.5, "u_intra": 2.0, "u_inter": 0.3},
        "propagation": {"horizon": 50},
        "initial_state": {"kind": "microcanonical", "window": [20, 40.0],
                          "random_phases": True},
        "measurement": {"system_modes": [2, 3], "observables": ["entropy"],
                        "times": {"start": 0.5, "stop": 30, "count": 7,
                                  "spacing": "log", "include_zero": True},
                        "green_pairs": [[0, 1], [2, 2]],
                        "density_pairs": [[1, 1]],
                        "com_times": [3, 4.5], "tau_max": 4.0,
                        "tau_step": 0.2,
                        "energy_grid": {"start": -10, "stop": 12.0,
                                        "count": 45},
                        "window": "rect"},
        "fits": {"peak_count": 2, "seed_centers": [1, 12.5],
                 "fdt_window": [0.5, 9.0], "tail_fraction": 0.5},
        "chaos": {"window": [5.0, 60]},
        "stages": ["fit", "greens", "evolve", "build-spectrum"],
        "output_dir": str(tmp_path),
        "seed": 17,
    }
    expected = {
        "model": {"num_modes": 4, "num_particles": 3, "level_spacing": 7.5,
                  "hopping": 0.5, "u_intra": 2.0, "u_inter": 0.3},
        "propagation": {"horizon": 50.0},
        "initial_state": {"kind": "microcanonical", "window": [20.0, 40.0],
                          "random_phases": True},
        "measurement": {"system_modes": [2, 3], "observables": ["entropy"],
                        "times": {"start": 0.5, "stop": 30.0, "count": 7,
                                  "spacing": "log", "include_zero": True},
                        "green_pairs": [[0, 1], [2, 2]],
                        "density_pairs": [[1, 1]],
                        "com_times": [3.0, 4.5], "tau_max": 4.0,
                        "tau_step": 0.2,
                        "energy_grid": {"start": -10.0, "stop": 12.0,
                                        "count": 45},
                        "window": "rect"},
        "fits": {"peak_count": 2, "seed_centers": [1.0, 12.5],
                 "fdt_window": [0.5, 9.0], "tail_fraction": 0.5},
        "chaos": {"window": [5.0, 60.0]},
        "stages": ["build-spectrum", "evolve", "greens", "fit"],
        "output_dir": str(tmp_path),
        "seed": 17,
    }
    cfg = validate_config(raw)
    assert cfg == expected
    # the JSON text also tells an integer from a float
    assert json.dumps(cfg, sort_keys=True) == \
        json.dumps(expected, sort_keys=True)


def test_validate_config_names_the_com_times_field(tmp_path):
    raw = {"model": {"num_modes": 3, "num_particles": 2},
           "measurement": {"com_times": [1.0, "late"]},
           "stages": ["build-spectrum"], "output_dir": str(tmp_path)}
    with pytest.raises(ConfigError) as info:
        validate_config(raw)
    assert "measurement.com_times" in str(info.value)
    assert "com_times.t" not in str(info.value)


def test_evolve_stage_propagates_in_the_eigenbasis(tmp_path, monkeypatch):
    import bosetherm.correlators as correlators

    built = []
    real = correlators.build_eigen_propagator
    monkeypatch.setattr(correlators, "build_eigen_propagator",
                        lambda op, cfg, *held:
                        built.append(op.basis.num_particles)
                        or real(op, cfg, *held))

    cfg = rabi_config(tmp_path / "auto")
    cfg["stages"] = ["build-spectrum", "evolve"]
    manifest = run(cfg)
    assert built == [1]
    assert np.load(tmp_path / "auto" / "eigenvectors.npy").dtype == \
        np.float64
    # the automatic step still sets the lattice the times snap to
    op = build_hamiltonian(HamiltonianParams(2, 1, 0.0, 1.0, 0.0, 0.0))
    lattice = choose_base_step(op, 6.0)
    diag = manifest["stages"]["evolve"]["diagnostics"]
    assert (diag["base_step"], diag["depth"]) == (lattice.base_step,
                                                  lattice.depth)
    cols = read_csv(tmp_path / "auto" / "occupations.csv")
    assert np.abs(cols["n_1"] - np.sin(cols["Jt"]) ** 2).max() < 1e-12


# a longer horizon gives a finer lattice, and the times snap to it
@pytest.mark.parametrize("propagation, tol", [({}, 1e-12),
                                               ({"horizon": 400.0}, 1e-12)])
def test_evolve_stage_matches_exact_evolution_at_the_snapped_times(
        tmp_path, propagation, tol):
    # 25 times in a sector of dimension 6: the time block is wider than dim
    cfg = small_quench_config(tmp_path / "out")
    cfg["measurement"]["times"] = {"start": 0.0, "stop": 40.0, "count": 25}
    cfg["propagation"] = propagation
    cfg["stages"] = ["evolve"]
    run(cfg)
    params = HamiltonianParams(3, 2, 10.0, 1.0, 1.0, 0.1)
    eig = diagonalize(build_hamiltonian(params))
    basis = eig.basis
    psi0 = occupation_state(basis, [2, 0, 0]).amplitudes
    occupations = read_csv(tmp_path / "out" / "occupations.csv")
    entropy = read_csv(tmp_path / "out" / "entropy.csv")
    assert occupations["Jt"].size == 25 > basis.dim
    pm = build_partition(basis, [1, 2])
    for k, t in enumerate(occupations["Jt"]):
        amps = oracles.exact_evolve(eig.energies, eig.vectors, psi0, t)
        want = np.abs(amps) ** 2 @ basis.states
        got = [occupations[f"n_{m}"][k] for m in range(3)]
        assert np.abs(got - want).max() < tol
        rdm = reduced_density(StateVector(basis, amps), pm)
        assert abs(entropy["entropy"][k] - entanglement_entropy(rdm)) < tol


def test_evolve_drift_diagnostics_match_the_ladder_states(tmp_path,
                                                        monkeypatch):
    import bosetherm.runner as runner

    # the stage measures its drifts on the states it propagated; a Taylor
    # ladder is unitary only up to truncation, so at this step and horizon
    # both drifts stand well above rounding
    op = build_hamiltonian(HamiltonianParams(3, 2, 10.0, 1.0, 1.0, 0.1))
    ladder = build_ladder(op, PropagatorConfig(base_step=2e-3, depth=14))
    monkeypatch.setattr(runner, "build_sector_ladders",
                        lambda *args, **kwargs: SectorLadders(center=ladder))
    cfg = small_quench_config(tmp_path / "out")
    cfg["stages"] = ["evolve"]
    diag = run(cfg)["stages"]["evolve"]["diagnostics"]
    assert (diag["base_step"], diag["depth"]) == (2e-3, 14)
    psi0 = occupation_state(op.basis, [2, 0, 0]).amplitudes
    jt = read_csv(tmp_path / "out" / "occupations.csv")["Jt"]
    states = [StateVector(op.basis, ladder.advance(
        psi0, round(t / diag["base_step"]))) for t in jt]
    norms = np.array([np.linalg.norm(s.amplitudes) for s in states])
    energies = np.array([op.expectation(s).real for s in states])
    norm_drift = np.abs(norms - 1.0).max()
    energy_drift = (np.abs(energies - energies[0]).max()
                    / max(1.0, abs(energies[0])))
    assert norm_drift > 1e-9 and energy_drift > 1e-9
    # both drifts are already relative: to the unit norm and to
    # max(1, |E(0)|)
    assert abs(diag["norm_drift"] - norm_drift) <= 1e-12
    assert abs(diag["energy_drift"] - energy_drift) <= 1e-12


@pytest.mark.parametrize("levels, seeds, flagged", [
    # (center, width, occupation) per level; one is wider than the grid
    ([(5.0, 0.5, 1.0), (10.0, 0.5, 0.5), (15.0, 60.0, 0.3), (20.0, 0.5, 0.25)],
     [5.0, 10.0, 15.0, 20.0], {2: ["width exceeds the energy grid span"]}),
    # one is centred beyond the top of the grid
    ([(5.0, 0.5, 1.0), (10.0, 0.5, 0.5), (20.0, 0.5, 0.25), (60.0, 3.0, 0.1)],
     [5.0, 10.0, 20.0, 45.0], {3: ["center outside the energy grid"]}),
    # one is narrower than the grid spacing of 0.25; the fit's trial steps
    # reach large log-widths, which must not overflow
    *[([(5.0, 0.5, 1.0), (10.0, width, 0.5), (15.0, 0.5, 0.3),
        (20.0, 0.5, 0.25)],
       [5.0, 10.0, 15.0, 20.0], {1: ["width below the energy grid spacing"]})
      for width in (0.15, 0.1, 0.05)],
])
def test_thermometry_flags_levels_off_the_energy_grid(tmp_path, levels, seeds,
                                                      flagged):
    manifest, record = run_synthetic_thermometry(tmp_path / "out", levels,
                                                 seeds)
    assert manifest["stages"]["thermometry"]["diagnostics"][
        "flagged_levels"] == len(flagged)
    assert record["warnings"] == []
    fitted = record["levels"]
    assert [lv.get("flags") for lv in fitted] == [
        flagged.get(p) for p in range(len(levels))]
    for lv, (center, width, occ) in zip(fitted, levels):
        assert lv["center"] == pytest.approx(center, abs=1e-6)
        assert lv["width"] == pytest.approx(width, rel=1e-6)
        assert lv["occupation"] == pytest.approx(occ, abs=1e-6)
    # the Bose-Einstein fit reads only the unflagged levels
    kept = [lv for lv in fitted if "flags" not in lv]
    want = fit_bose_einstein([lv["center"] for lv in kept],
                             [lv["occupation"] for lv in kept])
    assert record["bose"]["points"] == 3
    assert record["bose"]["temperature"] == want.temperature


def test_thermometry_keeps_unphysical_levels_out_of_the_fit(tmp_path):
    # the one level tests/small_quench.json fits has spectral weight -0.57
    # and occupation -4.69
    outdir = tmp_path / "out"
    with pytest.warns(UserWarning, match="unphysical occupation"):
        manifest = run(small_quench_config(outdir))
    assert manifest["stages"]["thermometry"]["diagnostics"][
        "flagged_levels"] == 1
    record = json.loads((outdir / "thermometry.json").read_text())["bose"][0]
    (level,) = record["levels"]
    assert level["spectral_weight"] == pytest.approx(-0.57, abs=0.01)
    assert level["occupation"] == pytest.approx(-4.69, abs=0.01)
    assert level["flags"] == ["spectral weight not positive",
                              "FDT ratio below 1"]
    # a negative occupation among positive ones: the fit reads the others
    levels = [(5.0, 0.5, 1.0), (10.0, 0.5, -0.3), (15.0, 0.5, 0.3),
              (20.0, 0.5, 0.25)]
    with pytest.warns(UserWarning, match="unphysical occupation"):
        manifest, record = run_synthetic_thermometry(
            tmp_path / "synthetic", levels, [5.0, 10.0, 15.0, 20.0])
    assert [lv.get("flags") for lv in record["levels"]] == [
        None, ["FDT ratio below 1"], None, None]
    kept = [lv for lv in record["levels"] if "flags" not in lv]
    want = fit_bose_einstein([lv["center"] for lv in kept],
                             [lv["occupation"] for lv in kept])
    assert record["bose"]["points"] == 3
    assert record["bose"]["temperature"] == want.temperature


# a longer horizon deepens the lattice's span but adds no bytes
@pytest.mark.parametrize("propagation", [{}, {"horizon": 1000.0}])
def test_stage_diagnostics_record_the_propagator_bytes(tmp_path,
                                                       propagation):
    cfg = small_quench_config(tmp_path / "out")
    cfg["propagation"] = propagation
    manifest = run(cfg, stages=["evolve", "greens"])
    for stage, sectors in (("evolve", [2]), ("greens", [1, 2, 3])):
        diag = manifest["stages"][stage]["diagnostics"]
        # real eigenvectors and energies, 8 d (d + 1) bytes per sector
        dims = [sector_dimension(3, n) for n in sectors]
        assert diag["propagator_bytes"] == sum(8 * d * (d + 1) for d in dims)
    # the largest block a correlator sweep walks at once
    block = manifest["stages"]["greens"]["diagnostics"]["sweep_block_bytes"]
    assert isinstance(block, int) and block > 0


def test_thermometry_records_the_warnings_of_its_fits(tmp_path):
    # a Keldysh weight below the spectral one reads as a negative occupation
    levels = [(5.0, 0.5, 1.0), (10.0, 0.5, -0.3), (15.0, 0.5, 0.3)]
    texts = []
    for _ in range(2):
        with pytest.warns(UserWarning, match="unphysical occupation"):
            _, record = run_synthetic_thermometry(tmp_path / "out", levels,
                                                  [5.0, 10.0, 15.0])
        texts.append((tmp_path / "out" / "thermometry.json").read_text())
    assert record["warnings"] == [
        {"category": "UserWarning",
         "message": "unphysical occupation -3.000e-01 from ratio 0.400000 < 1"}]
    # a rerun in the same process records the same list
    assert texts[0] == texts[1]


def run_synthetic_thermometry(outdir, levels, seeds):
    """The thermometry stage on a synthetic trace of Lorentzian levels given
    as (center, width, occupation); returns the manifest and the record."""
    outdir.mkdir(exist_ok=True)
    energies = np.linspace(-5.0, 40.0, 181)

    def lorentzian(center, width):
        return width / np.pi / ((energies - center) ** 2 + width ** 2)

    spectral = sum(lorentzian(e, g) for e, g, _ in levels)
    keldysh = sum((2 * n + 1) * lorentzian(e, g) for e, g, n in levels)
    zeros = np.zeros_like(energies)
    write_csv(outdir / "trace_spectral_t0.csv", ["E_over_J", "re", "im"],
              [energies, spectral, zeros])
    # the stage fits i G_K, so G_K carries the positive peaks as -i
    write_csv(outdir / "trace_keldysh_t0.csv", ["E_over_J", "re", "im"],
              [energies, zeros, -keldysh])
    grid = {"start": -5.0, "stop": 40.0, "count": 181}
    (outdir / "greens_index.json").write_text(json.dumps({
        "window": "hann", "tau_max": 8.0, "tau_step": 0.1,
        "energy_grid": grid,
        "green_pairs": [[m, m] for m in range(len(levels))],
        "density_pairs": [],
        "entries": [{"time_index": 0, "com_time": 0.0, "green_files": {},
                     "density_files": {},
                     "trace_files": {"spectral": "trace_spectral_t0.csv",
                                     "keldysh": "trace_keldysh_t0.csv"}}]}))
    cfg = {"model": {"num_modes": len(levels), "num_particles": 2},
           "measurement": {"energy_grid": grid, "density_pairs": []},
           "fits": {"peak_count": len(levels), "seed_centers": seeds},
           "output_dir": str(outdir)}
    manifest = run(cfg, stages=["thermometry"])
    report = json.loads((outdir / "thermometry.json").read_text())
    return manifest, report["bose"][0]


@pytest.mark.parametrize("step, stop, slow, ripple, flags", [
    # decays over 3 and 30, both resolved by the samples
    (1.0, 400.0, 0.3, 0.0, None),
    # the fast decay is shorter than the sample step
    (4.0, 400.0, 0.3, 0.0, ["tau_fast below the sample step"]),
    # a ripple that does not die out reads as a decay longer than the trace
    (0.5, 200.0, 0.0, 0.05, ["tau_slow exceeds the sampled span"]),
])
def test_relaxation_fits_flag_time_scales_the_trace_cannot_resolve(
        tmp_path, step, stop, slow, ripple, flags):
    outdir = tmp_path / "out"
    outdir.mkdir()
    t = np.arange(0.0, stop + step / 2, step)
    entropy = (1.0 + 0.5 * np.exp(-t / 3.0) + slow * np.exp(-t / 30.0)
               + ripple * np.cos(1.3 * t))
    write_csv(outdir / "entropy.csv", ["Jt", "entropy", "entropy_bound"],
              [t, entropy, np.full(t.size, 2.0)])
    run({"model": {"num_modes": 3, "num_particles": 2},
         "output_dir": str(outdir)}, stages=["fit"])
    entry = json.loads(
        (outdir / "relaxation_fits.json").read_text())["entropy"]
    assert entry.get("flags") == flags
    assert (entry["tau_fast"] < step) == (flags is not None
                                          and "tau_fast" in flags[0])
    assert (entry["tau_slow"] > stop) == (flags is not None
                                          and "tau_slow" in flags[0])


def test_fit_stage_records_the_warnings_of_its_fits(tmp_path):
    t = np.arange(0.0, 400.5, 1.0)
    entropy = 1.0 + 0.5 * np.exp(-t / 3.0) + 0.3 * np.exp(-t / 30.0)

    def fit_entry(outdir, values):
        outdir.mkdir()
        write_csv(outdir / "entropy.csv", ["Jt", "entropy", "entropy_bound"],
                  [t, values, np.full(t.size, 2.0)])
        run({"model": {"num_modes": 3, "num_particles": 2},
             "output_dir": str(outdir)}, stages=["fit"])
        return json.loads(
            (outdir / "relaxation_fits.json").read_text())["entropy"]

    # a clean trace writes no warnings key, so its file keeps its bytes
    clean = fit_entry(tmp_path / "clean", entropy)
    assert "warnings" not in clean and "error" not in clean
    # one corrupt sample in the tail overflows the plateau spread
    with pytest.warns(RuntimeWarning, match="overflow"):
        glitched = fit_entry(tmp_path / "glitched",
                             np.append(entropy[:-1], 1e300))
    assert glitched["plateau_std"] is None
    assert glitched["error"].startswith("ShortSeriesError")
    assert [w["category"] for w in glitched["warnings"]] == ["RuntimeWarning"]
    assert "overflow" in glitched["warnings"][0]["message"]


def test_thermometry_records_the_warnings_of_each_fdt_fit(tmp_path):
    # detailed balance f / r = exp(E / T) at T = 5, at two centre times; at
    # the second, one energy of both spectra holds a corrupt 1e307
    energies = np.linspace(-20.0, 20.0, 161)
    shape = np.exp(-energies ** 2 / 200.0)
    outdir = tmp_path / "out"
    outdir.mkdir()
    entries = []
    for time_index, glitch in enumerate((None, 1e307)):
        forward = shape * np.exp(energies / 10.0)
        reverse = shape * np.exp(-energies / 10.0)
        if glitch is not None:
            forward[120] = reverse[120] = glitch
        files = {}
        for way, values in (("forward", forward), ("reversed", reverse)):
            files[way] = f"density_{way}_t{time_index}.csv"
            write_csv(outdir / files[way], ["E_over_J", "re", "im"],
                      [energies, values, np.zeros_like(energies)])
        entries.append({"time_index": time_index,
                        "com_time": 10.0 * time_index, "green_files": {},
                        "density_files": {"0,0": files}})
    grid = {"start": -20.0, "stop": 20.0, "count": 161}
    (outdir / "greens_index.json").write_text(json.dumps({
        "window": "hann", "tau_max": 8.0, "tau_step": 0.1,
        "energy_grid": grid, "green_pairs": [], "density_pairs": [[0, 0]],
        "entries": entries}))
    cfg = {"model": {"num_modes": 2, "num_particles": 2},
           "measurement": {"energy_grid": grid, "green_pairs": [],
                           "density_pairs": [[0, 0]]},
           "fits": {"fdt_window": [2.0, 18.0]},
           "output_dir": str(outdir)}
    with pytest.warns(RuntimeWarning, match="overflow"):
        run(cfg, stages=["thermometry"])
    clean, glitched = json.loads(
        (outdir / "thermometry.json").read_text())["fdt"]["0,0"]
    assert clean["temperature"] == pytest.approx(5.0, rel=1e-12)
    assert clean["warnings"] == []
    assert not glitched["thermal"]
    assert [w["category"] for w in glitched["warnings"]] == ["RuntimeWarning"]
    assert "overflow" in glitched["warnings"][0]["message"]
