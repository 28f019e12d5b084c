"""One benchmark op, run in a fresh process so its peak memory is its own.

    python3 perfbench/op.py SPEC_JSON --spawned T [--traced] [--perturb]

SPEC_JSON holds the workload name and the inputs that run.py generated from
the seed; the program sees only those inputs. ``--spawned`` is the parent's
``time.monotonic()`` just before it started this process, so the pipeline
workload can count interpreter start as set-up. ``--traced`` wraps the
package's public functions in spans (see spans.py). ``--perturb`` corrupts
the result after timing so the self-test can show the checks catch it.

Prints one JSON line: the op's timings, peak RSS, the problems the
correctness checks found, and (traced) the per-layer metrics.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import sys
import tempfile
import time
import warnings
from pathlib import Path

import spans

# Correctness tolerances; the ladders' own error budgets are 1e-8 (quench)
# and 1e-6 (thermometry).
STATE_TOL = 1e-6
DRIFT_TOL = 1e-6
SUM_RULE_TOL = 1e-6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _require(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _reference(bt, np, op, psi0, times) -> list:
    """Exact states at the given times from a full diagonalization."""
    eig = bt.diagonalize(op)
    coeff = eig.vectors.conj().T @ psi0.amplitudes
    return [eig.vectors @ (np.exp(-1j * eig.energies * t) * coeff)
            for t in times]


# ---------------------------------------------------------------------------
# workloads: each runs its timed region and returns (first, set-up done,
# last) timestamps and a finish(perturb) function. finish runs after the
# timed region with tracing off, checks the result against references and
# returns {"problems": [...], ...}.


def quench(spec: dict):
    import numpy as np
    import bosetherm as bt

    params = bt.HamiltonianParams(**spec["model"])
    checkpoints = set(spec["check_index"])
    t_first = time.perf_counter()
    basis = bt.enumerate_basis(params.num_modes, params.num_particles)
    op = bt.build_hamiltonian(params, basis)
    config = bt.choose_base_step(op, spec["horizon"])
    ladder = bt.build_ladder(op, config)
    t_setup = time.perf_counter()
    pm = bt.build_partition(basis, spec["system_modes"])
    psi0 = bt.occupation_state(basis, spec["occupation"])
    times = spec["times"]
    norms = np.empty(len(times))
    energies = np.empty(len(times))
    entropies = np.empty(len(times))
    occupations = np.empty((len(times), basis.num_modes))
    kept = {}
    amps = psi0.amplitudes
    done = 0
    for k, t in enumerate(times):
        m, actual = ladder.snap(t)
        amps = ladder.advance(amps, m - done)
        done = m
        occupations[k] = np.abs(amps) ** 2 @ basis.states
        norms[k] = np.linalg.norm(amps)
        energies[k] = np.vdot(amps, op.matrix @ amps).real
        rdm = bt.reduced_density(bt.StateVector(basis, amps), pm)
        entropies[k] = bt.entanglement_entropy(rdm)
        if k in checkpoints:
            kept[k] = (actual, amps.copy())
    t_last = time.perf_counter()

    def finish(perturb: bool) -> dict:
        problems = []
        if perturb:
            k0 = min(kept)
            kept[k0] = (kept[k0][0], kept[k0][1] * (1.0 + 1e-4))
        _require(problems, np.abs(norms - 1.0).max() <= DRIFT_TOL,
                 f"norm drift {np.abs(norms - 1.0).max():.3e}")
        drift = np.abs(energies - energies[0]).max() / abs(energies[0])
        _require(problems, drift <= DRIFT_TOL, f"energy drift {drift:.3e}")
        _require(problems, abs(occupations.sum(axis=1)
                               - params.num_particles).max() <= DRIFT_TOL
                 * params.num_particles, "particle number drift")
        _require(problems, entropies.min() >= -1e-12
                 and entropies.max() <= pm.max_entropy + 1e-9,
                 "entropy outside [0, ln(min side)]")
        checked = [kept[k] for k in sorted(kept)]
        wanted = _reference(bt, np, op, psi0, [t for t, _ in checked])
        for (actual, got), want in zip(checked, wanted):
            err = float(np.abs(got - want).max())
            _require(problems, err <= STATE_TOL,
                     f"state at t={actual:.3f} off the eigenbasis reference "
                     f"by {err:.3e}")
        return {"problems": problems}

    return (t_first, t_setup, t_last), finish


def thermometry(spec: dict):
    import numpy as np
    import bosetherm as bt

    params = bt.HamiltonianParams(**spec["model"])
    pairs = [tuple(p) for p in spec["green_pairs"]]
    t_first = time.perf_counter()
    ladders = bt.build_sector_ladders(params, spec["horizon"],
                                      tau_step=spec["tau_step"],
                                      target_error=spec["target_error"])
    t_setup = time.perf_counter()
    basis = ladders.center.basis
    psi0 = bt.occupation_state(basis, spec["occupation"])
    taus = bt.tau_grid(spec["tau_max"], spec["tau_step"])
    series = bt.single_particle_correlator_set(psi0, ladders, pairs,
                                               spec["com_time"], taus)
    fwd, rev = bt.density_correlators(psi0, ladders,
                                      tuple(spec["density_pair"]),
                                      spec["com_time"], taus)
    energies = np.linspace(*spec["green_energies"])
    points = []
    for pair, (lesser, greater) in series.items():
        keldysh, spec_a = bt.keldysh_and_spectral(lesser, greater)
        sa = bt.to_energy(spec_a, energies)
        sk = bt.to_energy(keldysh, energies)
        sk.values = 1j * sk.values
        seed = float(energies[np.argmax(sa.values.real)])
        pa = bt.fit_lorentzians(sa, 1, seed_centers=[seed])
        pk = bt.fit_lorentzians(sk, 1, seed_centers=[float(pa.centers[0])])
        occ = bt.occupation_from_fdt(-1j * pk.weights[0], pa.weights[0])
        if pa.centers[0] > 0 and occ > 0:
            points.append((float(pa.centers[0]), occ))
    bose = bt.fit_bose_einstein([e for e, _ in points],
                                [n for _, n in points])
    grid = np.linspace(*spec["density_energies"])
    fdt = bt.fit_fdt_beta(bt.to_energy(fwd, grid), bt.to_energy(rev, grid),
                          tuple(spec["fdt_window"]))
    t_last = time.perf_counter()

    def finish(perturb: bool) -> dict:
        problems = []
        if perturb:
            first = next(iter(series.values()))[0]
            first.values[first.values.size // 2] += 1e-3
        op = bt.build_hamiltonian(params, basis)
        com = fwd.com_time
        want, = _reference(bt, np, op, psi0, [com])
        psi_c = bt.evolve_to(ladders.center, psi0, spec["com_time"])
        got = psi_c.amplitudes
        norm_drift = abs(float(np.linalg.norm(got)) - 1.0)
        _require(problems, norm_drift <= DRIFT_TOL,
                 f"norm drift {norm_drift:.3e}")
        e0 = op.expectation(psi0).real
        e_drift = abs(op.expectation(psi_c).real - e0) / abs(e0)
        _require(problems, e_drift <= DRIFT_TOL,
                 f"energy drift {e_drift:.3e}")
        err = float(np.abs(got - want).max())
        _require(problems, err <= STATE_TOL,
                 f"centre state off the eigenbasis reference by {err:.3e}")
        occ_ref = np.abs(want) ** 2 @ basis.states
        for (i, j), (lesser, greater) in series.items():
            a0 = (1j * (greater.at_equal_time() - lesser.at_equal_time()))
            _require(problems, abs(a0 - 1.0) <= SUM_RULE_TOL,
                     f"A_{i}{j}(0) = {a0:.9f}, want 1")
            g0 = lesser.at_equal_time()
            _require(problems, abs(g0 + 1j * occ_ref[i]) <= STATE_TOL
                     * params.num_particles,
                     f"G<_{i}{j}(tau=0) = {g0:.9f} but -i<n_{i}> = "
                     f"{-1j * occ_ref[i]:.9f}")
        conj = float(np.abs(fwd.values - rev.values.conj()).max())
        _require(problems, conj <= SUM_RULE_TOL * params.num_particles ** 2,
                 f"density conjugation defect {conj:.3e}")
        for name, fit in (("Bose-Einstein", bose), ("FDT", fdt)):
            _require(problems, math.isfinite(fit.temperature),
                     f"{name} temperature {fit.temperature} is not finite")
        return {"problems": problems}

    return (t_first, t_setup, t_last), finish


def pipeline(spec: dict, tracer, spawned: float, workdir: Path):
    opdir = Path(tempfile.mkdtemp(prefix="op-", dir=workdir))
    config = dict(spec["config"], output_dir=str(opdir / "out"))
    config_path = opdir / "config.json"
    config_path.write_text(json.dumps(config))

    import bosetherm.cli
    import bosetherm.runner as runner

    validated = []
    validate = runner.validate_config

    @functools.wraps(validate)
    def stamped(*args, **kwargs):
        result = validate(*args, **kwargs)
        validated.append(time.monotonic())
        return result

    runner.validate_config = stamped
    if tracer is not None:
        tracer.install()
    code = bosetherm.cli.main(["run", str(config_path)])
    t_last = time.monotonic()
    outdir = opdir / "out"

    def finish(perturb: bool) -> dict:
        problems = []
        _require(problems, code == 0, f"bosetherm run exited {code}")
        manifest = json.loads((outdir / "manifest.json").read_text())
        stages = manifest["stages"]
        for stage in spans.STAGES:
            status = stages.get(stage, {}).get("status")
            _require(problems, status == "ok", f"stage {stage}: {status}")
        if problems:
            return {"problems": problems}
        evolve = stages["evolve"]["diagnostics"]
        _require(problems, evolve["norm_drift"] <= DRIFT_TOL,
                 f"norm drift {evolve['norm_drift']:.3e}")
        _require(problems, evolve["energy_drift"] <= DRIFT_TOL,
                 f"energy drift {evolve['energy_drift']:.3e}")
        greens = stages["greens"]["diagnostics"]
        _require(problems, greens["equal_time_defect"] <= SUM_RULE_TOL,
                 f"equal-time defect {greens['equal_time_defect']:.3e}")
        _require(problems,
                 greens["density_conjugation_defect"] <= SUM_RULE_TOL,
                 "density conjugation defect "
                 f"{greens['density_conjugation_defect']:.3e}")
        # A Bose-Einstein fit that fails with a typed error is written as an
        # "error" record without a temperature; the runner treats that as an
        # outcome, so it is counted, not failed. Any temperature written must
        # be finite (non-finite values are written as null).
        report = json.loads((outdir / "thermometry.json").read_text())
        fit_errors = [r["error"] for r in report["bose"] if "error" in r]
        temps = [r["bose"]["temperature"] for r in report["bose"]
                 if "bose" in r]
        temps += [f["temperature"] for fits in report["fdt"].values()
                  for f in fits]
        _require(problems, len(report["fdt"]) == 1,
                 "no FDT temperatures for the density pair")
        _require(problems, all(isinstance(t, float) and math.isfinite(t)
                                for t in temps),
                 f"temperatures not all finite: {temps}")
        files = manifest["files"]
        if perturb:
            # one changed artifact byte: run.py compares hashes across ops
            with open(outdir / "spectrum.csv", "a") as fh:
                fh.write("\n")
            files = runner._inventory(outdir)
        return {
            "problems": problems,
            "fit_errors": fit_errors,
            "hashes": {name: f["sha256"] for name, f in files.items()},
            "artifact_bytes": sum(f["bytes"] for f in files.values()),
            "artifact_files": len(files),
            "stage_seconds": {s: stages[s]["seconds"] for s in spans.STAGES},
        }

    return (spawned, validated[0], t_last), finish


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"threads": os.environ.get("BOSETHERM_THREADS"),
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec")
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--perturb", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text())
    workload = spec["workload"]
    tracer = spans.Tracer() if args.traced else None

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if workload == "pipeline":
            stamps, finish = pipeline(spec, tracer, args.spawned,
                                      Path(args.spec).parent)
        else:
            import bosetherm  # noqa: F401  (import is not part of the op)
            if tracer is not None:
                tracer.install()
            run_op = {"quench": quench, "thermometry": thermometry}[workload]
            stamps, finish = run_op(spec)
        rss = peak_rss_mb()
        if tracer is not None:
            tracer.uninstall()
    user_warnings = [str(w.message) for w in caught
                     if issubclass(w.category, UserWarning)]

    t_first, t_setup, t_last = stamps
    result = {"wall_s": t_last - t_first, "setup_s": t_setup - t_first,
              "query_s": t_last - t_setup, "peak_rss_mb": rss,
              "warnings": user_warnings}
    result.update(finish(args.perturb))
    if tracer is not None:
        layers = tracer.summary(result["wall_s"])
        layers["thermofit.warnings"] = len(user_warnings)
        layers["runner.artifact_bytes"] = result.get("artifact_bytes", 0)
        layers["runner.artifact_files"] = result.get("artifact_files", 0)
        for stage, seconds in result.get("stage_seconds", {}).items():
            layers[f"runner.stage.{stage}.s"] = seconds
        result["layers"] = layers
    result["env"] = _environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
