"""Configuration-driven pipeline from couplings to temperature fits.

A run is one JSON file naming the model, the initial state, and the
measurements to take. validate_config reads each block of it through one
table that gives every key its parser and default, then checks the rules
that span keys; each complaint is a ConfigError naming the field. Each
pipeline stage writes plain artifacts (CSV and JSON) into the output
directory and records itself in manifest.json, so any stage can be rerun
later from what is already on disk: through run() with the stages named, or
a config whose "stages" lists them. The CLI has a command for each stage
but fit, since `bosetherm fit` is the standalone CSV fitter; the fit stage
reruns through `bosetherm run` with "stages": ["fit"]. Numeric CSV fields
carry 17 significant digits; rerunning a stage with the same configuration,
seed and BLAS thread count (BOSETHERM_THREADS) rewrites byte-identical
files, all but the manifest, which holds wall-clock timings. Across thread
counts eigenvectors.npy agrees to about 1e-12.

Stage order and artifacts:

    build-spectrum  spectrum.csv, eigenvectors.npy
    evolve          entropy.csv, occupations.csv, and initial_state.json
                    when the build-spectrum artifacts exist
    greens          green_*.csv, trace_*.csv, density_*.csv, greens_index.json
    thermometry     thermometry.json
    chaos           chaos.json
    fit             relaxation_fits.json

Evolve and greens propagate exactly, in the eigenbasis of each sector; for
the model sector they take the build-spectrum eigensystem whenever it is on
disk, and refuse one of other couplings. A stage that needs a missing
artifact says which stage produces it. Mode indices are zero-based
everywhere, matching the library API.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .errors import AliasingError, ConfigError, NumericsError
from .fock import DIM_CAP, StateVector, enumerate_basis, sector_dimension
from .hamiltonian import (GOE_MEAN_R, POISSON_MEAN_R, EigenSystem,
                          HamiltonianParams, _apply_terms, _hamiltonian_terms,
                          build_hamiltonian, diagonalize, r_ratio)
from .propagator import advance_columns
from .states import microcanonical_state, occupation_state, state_spectrum
from .partition import build_partition, entanglement_entropy, reduced_density
from .correlators import (WINDOW_KINDS, CorrelatorSpectrum, _whole_multiple,
                          build_sector_ladders, check_nyquist,
                          density_correlators,
                          keldysh_and_spectral, single_particle_correlator_set,
                          sweep_block_bytes, tau_grid, to_energy,
                          trace_levels)
from .thermofit import (fit_biexponential, fit_bose_einstein, fit_lorentzians,
                        occupation_from_fdt, plateau_stats,
                        temperature_timeline)

STAGES = ("build-spectrum", "evolve", "greens", "thermometry", "chaos", "fit")

OBSERVABLES = ("entropy", "occupations")


# ---------------------------------------------------------------------------
# configuration
#
# Each block is a table of key -> (parser, default). A parser maps (value,
# path, model) to the normalized value or raises a ConfigError naming path;
# model is the parsed model block, and a callable default is called on it.


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _check_keys(block: dict, allowed, path: str) -> None:
    _require(isinstance(block, dict), f"{path} must be an object")
    for key in block:
        _require(key in allowed, f"unknown key '{key}' in {path}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # a JSON integer beyond float range
        return False


def _int(minimum=None):
    def parse(value, path, model) -> int:
        _require(value is not None, f"{path} is required")
        _require(_is_int(value), f"{path} must be an integer")
        _require(minimum is None or value >= minimum,
                 f"{path} must be >= {minimum}")
        return value
    return parse


def _number(rule=None, text=""):
    """A finite number; rule, when given, must hold, or '{path} must {text}'."""
    def parse(value, path, model) -> float:
        _require(value is not None, f"{path} is required")
        _require(_is_number(value), f"{path} must be a finite number")
        _require(rule is None or rule(value), f"{path} must {text}")
        return float(value)
    return parse


_positive = _number(lambda v: v > 0.0, "be positive")


def _choice(options, many=False):
    """One of options or, when many, a list of them."""
    def parse(value, path, model):
        if not many:
            _require(value in options, f"{path} must come from {options}")
            return value
        _require(isinstance(value, list) and all(v in options for v in value),
                 f"{path} entries must come from {options}")
        return list(value)
    return parse


def _bool(value, path, model) -> bool:
    _require(isinstance(value, bool), f"{path} must be a boolean")
    return value


def _numbers(value, path, model) -> list[float]:
    _require(isinstance(value, list), f"{path} must be a list")
    _require(all(_is_number(v) for v in value),
             f"{path} entries must be finite numbers")
    return [float(v) for v in value]


def _interval(strict: bool):
    """[lo, hi] with lo < hi, or lo <= hi when not strict."""
    def parse(value, path, model) -> list[float]:
        _require(isinstance(value, list) and len(value) == 2,
                 f"{path} must be [e_lo, e_hi]")
        lo, hi = _numbers(value, path, model)
        _require(lo < hi or (lo == hi and not strict), f"{path} must be ordered")
        return [lo, hi]
    return parse


def _modes(value, path, model) -> list[int]:
    num_modes = model["num_modes"]
    _require(isinstance(value, list), f"{path} must be a list of modes")
    _require(all(_is_int(v) and 0 <= v < num_modes for v in value),
             f"{path} entries must be mode indices in [0, {num_modes})")
    return list(value)


def _pairs(value, path, model) -> list[list[int]]:
    _require(isinstance(value, list), f"{path} must be a list of [i, j] pairs")
    _require(all(isinstance(v, list) and len(v) == 2 for v in value),
             f"{path} entries must be [i, j] pairs")
    return [_modes(v, path, model) for v in value]


def _occupation(value, path, model) -> list[int]:
    _require(isinstance(value, list) and len(value) == model["num_modes"],
             f"{path} must list one count per mode")
    _require(all(_is_int(v) and v >= 0 for v in value),
             f"{path} entries must be nonnegative integers")
    return list(value)


def _times(spec, path, model) -> dict:
    _require(isinstance(spec, dict), f"{path} must be an object")
    if "list" in spec:
        _check_keys(spec, {"list"}, path)
        _require(isinstance(spec["list"], list) and len(spec["list"]) >= 1,
                 f"{path}.list must be a nonempty list")
        return {"list": sorted(_numbers(spec["list"], f"{path}.list", model))}
    grid = _read_block(spec, _TIME_GRID, path, model)
    _require(grid["stop"] > grid["start"],
             f"{path}.stop must exceed {path}.start")
    if grid["spacing"] == "log":
        _require(grid["start"] > 0.0,
                 f"{path}.start must be positive for log spacing")
    return grid


def _optional(parse):
    """A key that may also be null; null reads as a missing key."""
    def parse_optional(value, path, model):
        return None if value is None else parse(value, path, model)
    parse_optional.optional = True
    return parse_optional


def _read_block(block, table: dict, path: str, model=None) -> dict:
    """Check the block's keys against the table's, then parse each key of
    the table or take its default. A nested table parses a nested block."""
    _check_keys(block, table, path)
    out = {}
    for key, (parse, default) in table.items():
        value = block.get(key)
        if value is None and (key not in block
                              or getattr(parse, "optional", False)):
            value = default(model) if callable(default) else default
        if isinstance(parse, dict):
            out[key] = _read_block(value, parse, f"{path}.{key}", model)
        else:
            out[key] = parse(value, f"{path}.{key}", model)
    return out


_MODEL = {
    "num_modes": (_int(1), None),
    "num_particles": (_int(0), None),
    "level_spacing": (_number(), 10.0),
    "hopping": (_number(), 1.0),
    "u_intra": (_number(), 1.0),
    "u_inter": (_number(), 0.1),
}

_PROPAGATION = {"horizon": (_optional(_positive), None)}

# one table per initial_state kind; a block names the keys of its kind only
_INITIAL_STATES = {
    "occupation": {"kind": (_choice(("occupation",)), None),
                   "occupation": (_occupation, None)},
    "microcanonical": {"kind": (_choice(("microcanonical",)), None),
                       "window": (_interval(strict=False), None),
                       "random_phases": (_bool, False)},
}

_TIME_GRID = {
    "start": (_number(), None),
    "stop": (_number(), None),
    "count": (_int(2), None),
    "spacing": (_choice(("linear", "log")), "linear"),
    "include_zero": (_bool, False),
}

_MEASUREMENT = {
    "system_modes": (_modes, []),
    "observables": (_choice(OBSERVABLES, many=True), list(OBSERVABLES)),
    "times": (_optional(_times), None),
    "green_pairs": (_optional(_pairs),
                    lambda model: [[m, m] for m in range(model["num_modes"])]),
    "density_pairs": (_pairs, []),
    "com_times": (_numbers, []),
    "tau_max": (_positive, 10.0),
    "tau_step": (_positive, 0.05),
    "energy_grid": ({"start": (_number(), -5.0),
                     "stop": (_number(), 5.0),
                     "count": (_int(2), 201)}, {}),
    "window": (_choice(WINDOW_KINDS), "hann"),
}

_FITS = {
    "peak_count": (_int(1), lambda model: model["num_modes"]),
    "seed_centers": (_optional(_numbers), None),
    "fdt_window": (_optional(_interval(strict=True)), None),
    "tail_fraction": (_number(lambda v: 0.0 < v <= 1.0, "sit in (0, 1]"),
                      0.2),
}

_CHAOS = {"window": (_optional(_interval(strict=True)), None)}


def resolve_times(spec: dict) -> np.ndarray:
    """Materialize a validated time-grid block as an ascending array."""
    if "list" in spec:
        return np.asarray(spec["list"], dtype=float)
    if spec["spacing"] == "log":
        times = np.geomspace(spec["start"], spec["stop"], spec["count"])
    else:
        times = np.linspace(spec["start"], spec["stop"], spec["count"])
    if spec.get("include_zero") and times[0] > 0.0:
        times = np.concatenate(([0.0], times))
    return times


def _stage_list(value) -> list[str]:
    """Stages from STAGES, none repeated, in pipeline order."""
    stages = _choice(STAGES, many=True)(value, "stages", None)
    _require(len(set(stages)) == len(stages), "stages must not repeat")
    return [s for s in STAGES if s in stages]


def validate_config(raw: dict, stages=None) -> dict:
    """Normalize a raw configuration dict, applying defaults.

    Every complaint is a ConfigError naming the offending field and is
    raised before anything is allocated. stages overrides the config's own
    stage list for the cross-block requirement checks, under the same rule:
    stages from STAGES, none repeated.
    """
    _check_keys(raw, {"model", "propagation", "initial_state", "measurement",
                      "fits", "chaos", "stages", "output_dir", "seed"},
                "configuration")
    _require(raw.get("model") is not None, "model block is required")
    model = _read_block(raw["model"], _MODEL, "model")
    num_particles = model["num_particles"]

    prop = _read_block(raw.get("propagation", {}), _PROPAGATION, "propagation")

    state = raw.get("initial_state")
    if state is not None:
        _require(isinstance(state, dict), "initial_state must be an object")
        kind = _choice(tuple(_INITIAL_STATES))(state.get("kind"),
                                               "initial_state.kind", model)
        state = _read_block(state, _INITIAL_STATES[kind], "initial_state",
                            model)
        if kind == "occupation":
            _require(sum(state["occupation"]) == num_particles,
                     f"initial_state.occupation must sum to {num_particles}")

    meas = _read_block(raw.get("measurement", {}), _MEASUREMENT, "measurement",
                       model)
    tau_max, tau_step = meas["tau_max"], meas["tau_step"]
    _require(_whole_multiple(tau_max, tau_step),
             "measurement.tau_max must be a multiple of tau_step")
    grid = meas["energy_grid"]
    _require(grid["stop"] > grid["start"],
             "measurement.energy_grid.stop must exceed start")
    try:
        check_nyquist([grid["start"], grid["stop"]], tau_step)
    except AliasingError as exc:
        raise ConfigError(f"{exc}; shrink measurement.tau_step or the "
                          "energy grid") from exc

    fits = _read_block(raw.get("fits", {}), _FITS, "fits", model)
    _require(fits["seed_centers"] is None
             or len(fits["seed_centers"]) == fits["peak_count"],
             "fits.seed_centers must list one center per peak")

    stage_list = _stage_list(raw.get("stages", list(STAGES)))
    output_dir = raw.get("output_dir")
    _require(isinstance(output_dir, str) and output_dir,
             "output_dir must be a nonempty string")
    cfg = {"model": model, "propagation": prop, "initial_state": state,
           "measurement": meas, "fits": fits,
           "chaos": _read_block(raw.get("chaos", {}), _CHAOS, "chaos"),
           "stages": stage_list,
           "output_dir": output_dir,
           "seed": _int()(raw.get("seed", 1), "configuration.seed", model)}

    active = cfg["stages"] if stages is None else _stage_list(stages)
    # the largest sector the stages build: N, or N+1 for Green pairs
    top = num_particles + ("greens" in active and bool(meas["green_pairs"]))
    dim = sector_dimension(model["num_modes"], top)
    _require(dim <= DIM_CAP, f"the {top}-particle sector has dimension {dim}, "
             f"above the cap {DIM_CAP}")
    for stage in ("evolve", "greens"):
        _require(stage not in active or state is not None,
                 f"the {stage} stage needs an initial_state block")
    if "evolve" in active:
        _require(meas["times"] is not None,
                 "the evolve stage needs measurement.times")
        _require("entropy" not in meas["observables"] or meas["system_modes"],
                 "entropy needs a nonempty measurement.system_modes")
    if "greens" in active:
        _require(meas["com_times"],
                 "the greens stage needs at least one measurement.com_times "
                 "entry")
        _require(meas["green_pairs"] or meas["density_pairs"],
                 "the greens stage needs green_pairs or density_pairs")
        _require(not meas["green_pairs"] or num_particles >= 1,
                 "measurement.green_pairs needs model.num_particles >= 1")
    if "thermometry" in active and meas["density_pairs"]:
        _require(fits["fdt_window"] is not None,
                 "detailed-balance thermometry needs fits.fdt_window")
    return cfg


def read_config(path) -> dict:
    """Read one JSON configuration file as a raw dict, unvalidated."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"configuration file {path} does not exist")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), f"{path} must hold a JSON object")
    return raw


# ---------------------------------------------------------------------------
# artifact helpers


def write_csv(path, names, columns) -> None:
    """Comma-separated columns at 17 significant digits."""
    cols = [np.asarray(c, dtype=float).tolist() for c in columns]
    row_format = ",".join(["%.17g"] * len(cols))
    lines = [",".join(names)]
    lines.extend(row_format % row for row in zip(*cols))
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path) -> dict:
    """Columns keyed by header name."""
    path = Path(path)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(header):
        raise ConfigError(f"{path} rows do not match its header")
    return {name: data[:, k].copy() for k, name in enumerate(header)}


def _jsonify(value):
    """Make a value JSON-serializable; non-finite floats become null."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()  # Python scalars, nested lists for arrays
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    return value


def _write_json(path, payload) -> None:
    Path(path).write_text(
        json.dumps(_jsonify(payload), indent=2, sort_keys=True) + "\n")


def _artifact(outdir: Path, name: str, producer: str) -> Path:
    path = outdir / name
    if not path.exists():
        raise ConfigError(
            f"missing artifact {name}; run the {producer} stage first")
    return path


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _params(cfg: dict) -> HamiltonianParams:
    return HamiltonianParams(**cfg["model"])


def _load_eigensystem(cfg: dict, outdir: Path) -> EigenSystem:
    """The build-spectrum artifacts, refused unless max|HV - VE| is small for
    the configured H (applied through its sparse terms)."""
    basis = enumerate_basis(cfg["model"]["num_modes"],
                            cfg["model"]["num_particles"])
    energies = read_csv(_artifact(outdir, "spectrum.csv",
                                  "build-spectrum"))["E_over_J"]
    vectors = np.load(_artifact(outdir, "eigenvectors.npy", "build-spectrum"))
    if vectors.shape == (basis.dim, energies.size):
        residual = (_apply_terms(_params(cfg), basis, vectors)
                    - vectors * energies)
        if np.abs(residual).max() <= 1e-8 * max(1.0, np.abs(energies).max()):
            return EigenSystem(basis, energies, vectors)
    raise ConfigError(
        "spectrum artifacts do not match the configured model; rerun the "
        "build-spectrum stage")


def _model_sector(cfg: dict, outdir: Path, horizon: float, neighbors: bool,
                  tau_step: float | None = None):
    """What evolve and greens start from: (eig, ladders, psi0).

    eig is the stage's one eigensystem of the model sector: the
    build-spectrum artifacts, residual-checked, when they exist or a
    microcanonical state needs them, else None. ladders holds the exact
    eigenbasis propagators of one build_sector_ladders call, whose model
    sector reuses eig, so without eig only that build diagonalizes;
    propagation.horizon, the one propagation key, can only widen the
    stage's own horizon. psi0 is the configured state; a microcanonical one
    is the window state of eig.
    """
    block = cfg["initial_state"]
    eig = None
    if block["kind"] == "microcanonical" or all(
            (outdir / name).exists()
            for name in ("spectrum.csv", "eigenvectors.npy")):
        eig = _load_eigensystem(cfg, outdir)
    params = _params(cfg)
    if cfg["propagation"]["horizon"]:
        horizon = max(horizon, cfg["propagation"]["horizon"])
    # validation capped every sector the stage builds at DIM_CAP, so the
    # one-matrix guard admits any of them
    ladders = build_sector_ladders(params, horizon, tau_step=tau_step,
                                   neighbors=neighbors, center=eig,
                                   max_rung_bytes=8 * DIM_CAP ** 2)
    if block["kind"] == "occupation":
        psi0 = occupation_state(ladders.center.basis, block["occupation"])
    else:
        seed = cfg["seed"] if block["random_phases"] else None
        psi0 = microcanonical_state(eig, *block["window"], phase_seed=seed)
    return eig, ladders, psi0


# ---------------------------------------------------------------------------
# stages


def _stage_build_spectrum(cfg: dict, outdir: Path):
    params = _params(cfg)
    op = build_hamiltonian(params)
    eig = diagonalize(op)
    write_csv(outdir / "spectrum.csv", ["level_index", "E_over_J"],
              [np.arange(eig.energies.size), eig.energies])
    np.save(outdir / "eigenvectors.npy", eig.vectors)
    diag = {"dimension": op.basis.dim,
            "ground_energy": eig.energies[0],
            "top_energy": eig.energies[-1]}
    return ["spectrum.csv", "eigenvectors.npy"], diag


def _stage_evolve(cfg: dict, outdir: Path):
    meas = cfg["measurement"]
    times = resolve_times(meas["times"])
    eig, ladders, psi0 = _model_sector(
        cfg, outdir, max(float(np.abs(times).max()), 1e-9), neighbors=False)
    ladder, basis = ladders.center, psi0.basis

    outputs = []
    if eig is not None:
        summary = state_spectrum(eig, psi0)
        _write_json(outdir / "initial_state.json", {
            "kind": cfg["initial_state"]["kind"],
            "mean_energy": summary.mean_energy,
            "spectral_width": summary.spectral_width,
            "level_count": summary.level_count,
        })
        outputs.append("initial_state.json")

    steps, snapped = map(np.array, zip(*map(ladder.snap, times)))
    states = advance_columns(
        ladder, np.broadcast_to(psi0.amplitudes[:, None],
                                (basis.dim, times.size)), steps)
    weights = np.abs(states) ** 2
    occupations = weights.T @ basis.states
    norms = np.linalg.norm(states, axis=0)
    # <psi|H|psi> = sum d |psi|^2 + sum c |K psi|^2 over the sparse terms
    d, pairs = _hamiltonian_terms(_params(cfg), basis)
    energies_t = d @ weights
    for c, k in pairs:
        energies_t += c * (np.abs(k @ states) ** 2).sum(axis=0)
    diag = {
        "dimension": basis.dim,
        "base_step": ladder.base_step,
        "depth": ladder.config.depth,
        "propagator_bytes": ladders.nbytes,
        "snap_defect": float(np.abs(times - snapped).max()),
        "norm_drift": float(np.abs(norms - 1.0).max()),
        "energy_drift": float(np.abs(energies_t - energies_t[0]).max()
                              / max(1.0, abs(energies_t[0]))),
    }
    if "entropy" in meas["observables"]:
        pm = build_partition(basis, meas["system_modes"])
        entropies = [entanglement_entropy(reduced_density(
            StateVector(basis, states[:, k]), pm)) for k in range(times.size)]
        write_csv(outdir / "entropy.csv", ["Jt", "entropy", "entropy_bound"],
                  [snapped, entropies, np.full(times.size, pm.max_entropy)])
        outputs.append("entropy.csv")
        diag["entropy_bound"] = pm.max_entropy
    if "occupations" in meas["observables"]:
        names = ["Jt"] + [f"n_{m}" for m in range(basis.num_modes)]
        columns = [snapped, *occupations.T]
        if meas["system_modes"]:
            names.append("n_system")
            columns.append(occupations[:, meas["system_modes"]].sum(axis=1))
        write_csv(outdir / "occupations.csv", names, columns)
        outputs.append("occupations.csv")
    return outputs, diag


def _stage_greens(cfg: dict, outdir: Path):
    meas = cfg["measurement"]
    tau = tau_grid(meas["tau_max"], meas["tau_step"])
    grid = meas["energy_grid"]
    energies = np.linspace(grid["start"], grid["stop"], grid["count"])
    window = meas["window"]
    green_pairs = [tuple(p) for p in meas["green_pairs"]]
    density_pairs = [tuple(p) for p in meas["density_pairs"]]
    com_times = meas["com_times"]

    # the trajectory reaches max|t| + tau_max/2, but the sector walks step a
    # full tau_max from it, so the ladder must span both
    horizon = max(max(abs(t) for t in com_times) + meas["tau_max"] / 2.0,
                  meas["tau_max"]) + meas["tau_step"]
    _, ladders, psi0 = _model_sector(cfg, outdir, horizon,
                                     neighbors=bool(green_pairs),
                                     tau_step=meas["tau_step"])

    outputs = []
    entries = []
    equal_time_defect = 0.0
    conj_defect = 0.0

    def dump(spectrum: CorrelatorSpectrum, name: str) -> str:
        write_csv(outdir / name, ["E_over_J", "re", "im"],
                  [spectrum.energies, spectrum.values.real,
                   spectrum.values.imag])
        outputs.append(name)
        return name

    for k, t in enumerate(com_times):
        entry: dict = {"time_index": k, "green_files": {},
                       "density_files": {}, "trace_files": {}}
        com_actual = None
        if green_pairs:
            series = single_particle_correlator_set(psi0, ladders,
                                                    green_pairs, t, tau)
            diagonal = {"spectral": [], "keldysh": []}
            for (i, j), (lesser, greater) in series.items():
                com_actual = lesser.com_time
                gk, sp = keldysh_and_spectral(lesser, greater)
                files = {}
                for kind, ser in (("lesser", lesser), ("greater", greater),
                                  ("keldysh", gk), ("spectral", sp)):
                    spec = to_energy(ser, energies, window=window)
                    files[kind] = dump(spec, f"green_{kind}_{i}_{j}_t{k}.csv")
                    if i == j and kind in diagonal:
                        diagonal[kind].append(spec)
                entry["green_files"][f"{i},{j}"] = files
                if i == j:
                    defect = abs(sp.at_equal_time() - 1.0)
                    equal_time_defect = max(equal_time_defect, defect)
            for kind, spectra in diagonal.items():
                if spectra:
                    entry["trace_files"][kind] = dump(
                        trace_levels(spectra), f"trace_{kind}_t{k}.csv")
        for (i, j) in density_pairs:
            fwd, rev = density_correlators(psi0, ladders, (i, j), t, tau)
            com_actual = fwd.com_time
            defect = float(np.abs(fwd.values - rev.values.conj()).max())
            conj_defect = max(conj_defect, defect)
            entry["density_files"][f"{i},{j}"] = {
                way: dump(to_energy(ser, energies, window=window),
                          f"density_{way}_{i}_{j}_t{k}.csv")
                for way, ser in (("forward", fwd), ("reversed", rev))}
        entry["com_time"] = com_actual
        entries.append(entry)

    # the measurement keys the thermometry stage reads back, as validated
    index = {key: meas[key] for key in ("window", "tau_max", "tau_step",
                                        "energy_grid", "green_pairs",
                                        "density_pairs")}
    index["entries"] = entries
    _write_json(outdir / "greens_index.json", index)
    outputs.append("greens_index.json")

    diag = {"base_step": ladders.center.base_step,
            "depth": ladders.center.config.depth,
            "propagator_bytes": ladders.nbytes,
            "sweep_block_bytes": sweep_block_bytes(ladders, green_pairs,
                                                   density_pairs, tau),
            "com_times": [e["com_time"] for e in entries]}
    if green_pairs:
        diag["equal_time_defect"] = equal_time_defect
    if density_pairs:
        diag["density_conjugation_defect"] = conj_defect
    return outputs, diag


def _load_spectrum_csv(outdir: Path, name: str, kind: str, pair,
                       com_time: float, index: dict) -> CorrelatorSpectrum:
    cols = read_csv(_artifact(outdir, name, "greens"))
    values = cols["re"] + 1j * cols["im"]
    return CorrelatorSpectrum(kind, pair, com_time, cols["E_over_J"], values,
                              index["window"], tau_max=index["tau_max"],
                              tau_step=index["tau_step"])


def _level_flags(level: dict, energies: np.ndarray) -> list:
    """Why a fitted level cannot be read as a level of the energy grid with
    a physical occupation: a spectral weight that is not positive, or an
    FDT ratio 2n + 1 below 1, cannot come from a thermal level."""
    lo, hi = float(energies[0]), float(energies[-1])
    flags = []
    if level["width"] > hi - lo:
        flags.append("width exceeds the energy grid span")
    if level["width"] < float(energies[1] - energies[0]):
        flags.append("width below the energy grid spacing")
    if not lo <= level["center"] <= hi:
        flags.append("center outside the energy grid")
    if level["spectral_weight"] <= 0.0:
        flags.append("spectral weight not positive")
    if level["occupation"] < 0.0:
        flags.append("FDT ratio below 1")
    return flags


@contextlib.contextmanager
def _recorded_warnings(record: dict):
    """List the distinct warnings raised inside under record["warnings"],
    then raise each again under the caller's filters.

    Recording with "always" sees a warning on every run, not only on the
    first in a process, so reruns write the same list.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    record["warnings"] = []
    # one registry per source file, as warnings.warn keeps one per module,
    # so a "default" filter shows a repeated warning once
    registries: dict = {}
    for w in caught:
        pair = {"category": w.category.__name__, "message": str(w.message)}
        if pair not in record["warnings"]:
            record["warnings"].append(pair)
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                               registry=registries.setdefault(w.filename, {}))


@contextlib.contextmanager
def _fit_record(record: dict):
    """Run a fit that writes into record under _recorded_warnings; a typed
    failure (NumericsError) ends it as record["error"]."""
    with _recorded_warnings(record):
        try:
            yield
        except NumericsError as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"


def _fit_trace_levels(record: dict, spec_a: CorrelatorSpectrum,
                      spec_k: CorrelatorSpectrum, peak_count: int,
                      seeds) -> None:
    """Levels of the traced A and i G_K and their Bose-Einstein fit, or why
    too few levels allow none, into record; a failed fit raises."""
    peaks_a = fit_lorentzians(spec_a, peak_count, seed_centers=seeds)
    peaks_k = fit_lorentzians(spec_k, peak_count, seed_centers=peaks_a.centers)
    levels = []
    for p in range(peak_count):
        level = {"center": peaks_a.centers[p],
                 "width": peaks_a.widths[p],
                 "spectral_weight": peaks_a.weights[p],
                 "keldysh_weight": peaks_k.weights[p],
                 "occupation": occupation_from_fdt(-1j * peaks_k.weights[p],
                                                   peaks_a.weights[p])}
        flags = _level_flags(level, spec_a.energies)
        if flags:
            level["flags"] = flags
        levels.append(level)
    record["levels"] = levels
    points = [(lv["center"], lv["occupation"]) for lv in levels
              if lv["center"] > 0.0 and "flags" not in lv]
    if len(points) >= 2:
        record["bose"] = asdict(fit_bose_einstein(*zip(*points)))
        record["bose"]["time"] = record["com_time"]
    else:
        record["error"] = ("fewer than 2 unflagged positive-energy "
                           "levels; no temperature fit")


def _stage_thermometry(cfg: dict, outdir: Path):
    index = json.loads(
        _artifact(outdir, "greens_index.json", "greens").read_text())
    fits = cfg["fits"]
    peak_count = fits["peak_count"]
    level_spacing = cfg["model"]["level_spacing"]

    diagonal_modes = sorted(i for i, j in index["green_pairs"] if i == j)
    seeds = fits["seed_centers"]
    if seeds is None and len(diagonal_modes) == peak_count:
        # bare dressed energies; the fit pulls in the interaction shifts
        seeds = [m * level_spacing for m in diagonal_modes]

    report: dict = {"bose": [], "fdt": {}}
    bose_temperatures = []
    flagged_levels = 0
    for entry in index["entries"]:
        t = entry["com_time"]
        record: dict = {"time_index": entry["time_index"], "com_time": t}
        trace_files = entry.get("trace_files", {})
        if "spectral" in trace_files and "keldysh" in trace_files:
            spec_a, spec_k = (_load_spectrum_csv(
                outdir, trace_files[kind], kind, None, t, index)
                for kind in ("spectral", "keldysh"))
            # fit i G_K, whose thermal trace is a sum of positive peaks
            spec_k.values = 1j * spec_k.values
            with _fit_record(record):
                _fit_trace_levels(record, spec_a, spec_k, peak_count, seeds)
            if "bose" in record:
                bose_temperatures.append(record["bose"]["temperature"])
            flagged_levels += sum("flags" in level
                                  for level in record.get("levels", []))
        report["bose"].append(record)

    fdt_temperatures = {}
    for pair in index["density_pairs"]:
        key = f"{pair[0]},{pair[1]}"
        timeline = []
        for entry in index["entries"]:
            files = entry["density_files"].get(key)
            if files is None:
                continue
            spectra = tuple(_load_spectrum_csv(
                outdir, files[way], f"density_{way}", tuple(pair),
                entry["com_time"], index) for way in ("forward", "reversed"))
            # a typed error here fails the stage
            fit: dict = {}
            with _recorded_warnings(fit):
                fit.update(asdict(temperature_timeline(
                    [spectra], fits["fdt_window"])[0]))
            timeline.append(fit)
        if timeline:
            report["fdt"][key] = timeline
            fdt_temperatures[key] = [f["temperature"] for f in timeline]

    _write_json(outdir / "thermometry.json", report)
    diag = {"bose_temperatures": bose_temperatures,
            "fdt_temperatures": fdt_temperatures,
            "flagged_levels": flagged_levels}
    return ["thermometry.json"], diag


def _stage_chaos(cfg: dict, outdir: Path):
    energies = _load_eigensystem(cfg, outdir).energies
    window = cfg["chaos"]["window"]
    report = r_ratio(energies, None if window is None else tuple(window))
    payload = {"mean_ratio": report.mean_ratio,
               "gap_count": report.gap_count,
               "level_count": report.level_count,
               "window": window,
               "goe_mean_ratio": GOE_MEAN_R,
               "poisson_mean_ratio": POISSON_MEAN_R}
    _write_json(outdir / "chaos.json", payload)
    return ["chaos.json"], {"mean_ratio": report.mean_ratio}


def _relaxation_entry(times: np.ndarray, values: np.ndarray,
                      tail_fraction: float) -> dict:
    """The plateau and bi-exponential fit of one trace, with its flags and,
    when any were raised, its warnings."""
    entry: dict = {}
    with _fit_record(entry):
        plateau, sigma = plateau_stats(values, tail_fraction)
        entry.update(plateau=plateau, plateau_std=sigma)
        fit = fit_biexponential(times, values, plateau, noise_floor=sigma)
        entry.update(amplitude_fast=fit.amplitude_fast,
                     amplitude_slow=fit.amplitude_slow,
                     tau_fast=fit.tau_fast, tau_slow=fit.tau_slow,
                     residual=fit.residual, detail=fit.detail)
        # a time scale the samples cannot resolve is a fit artefact
        flags = []
        spacing = np.diff(np.unique(times))
        if spacing.size and fit.tau_fast < spacing.min():
            flags.append("tau_fast below the sample step")
        if fit.tau_slow > float(times[-1] - times[0]):
            flags.append("tau_slow exceeds the sampled span")
        if flags:
            entry["flags"] = flags
    if not entry["warnings"]:
        del entry["warnings"]
    return entry


def _stage_fit(cfg: dict, outdir: Path):
    # (artifact, column, report key) of each relaxation trace
    traces = [(outdir / name, column, key) for name, column, key in (
        ("entropy.csv", "entropy", "entropy"),
        ("occupations.csv", "n_system", "system_occupation"))
        if (outdir / name).exists()]
    if not traces:
        raise ConfigError("missing artifacts entropy.csv and "
                          "occupations.csv; run the evolve stage first")
    report = {}
    for path, column, key in traces:
        cols = read_csv(path)
        if column in cols:
            report[key] = _relaxation_entry(cols["Jt"], cols[column],
                                            cfg["fits"]["tail_fraction"])
    _write_json(outdir / "relaxation_fits.json", report)
    diag = {name: entry.get("tau_slow") for name, entry in report.items()}
    return ["relaxation_fits.json"], diag


_STAGE_FUNCS = {
    "build-spectrum": _stage_build_spectrum,
    "evolve": _stage_evolve,
    "greens": _stage_greens,
    "thermometry": _stage_thermometry,
    "chaos": _stage_chaos,
    "fit": _stage_fit,
}


# ---------------------------------------------------------------------------
# orchestration


def _blas() -> dict | None:
    """Name and version of numpy's BLAS, or None where numpy cannot say
    (show_config has no mode before numpy 1.25)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return None


def _inventory(outdir: Path) -> dict:
    files = {}
    for path in sorted(outdir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            rel = str(path.relative_to(outdir))
            files[rel] = {"sha256": _sha256(path),
                          "bytes": path.stat().st_size}
    return files


def _peak_rss_bytes() -> int:
    """The process's peak resident set so far; ru_maxrss counts KiB on
    Linux and bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def run(config, stages=None) -> dict:
    """Execute pipeline stages and write manifest.json.

    config is a path to a JSON file or a raw config dict; either way it is
    validated against the stages that run. stages restricts the run to a
    subset (default: the config's stage list) and is read by the rule of
    the config's own list. A stage failure is recorded in the manifest
    together with whatever artifacts were already written, then re-raised.
    """
    raw = read_config(config) if isinstance(config, (str, Path)) else config
    cfg = validate_config(raw, stages=stages)
    stages = cfg["stages"] if stages is None else _stage_list(stages)

    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)

    manifest_path = outdir / "manifest.json"
    manifest: dict = {"stages": {}}
    if manifest_path.exists():
        try:
            previous = json.loads(manifest_path.read_text())
            manifest["stages"] = previous.get("stages", {})
        except (json.JSONDecodeError, OSError):
            pass

    failure = None
    for name in stages:
        started = time.perf_counter()
        try:
            outputs, diag = _STAGE_FUNCS[name](cfg, outdir)
            record = {"status": "ok", "outputs": outputs,
                      "diagnostics": _jsonify(diag)}
        except Exception as exc:
            record = {"status": "failed",
                      "error": f"{type(exc).__name__}: {exc}"}
            failure = exc
        record["seconds"] = round(time.perf_counter() - started, 3)
        record["peak_rss_bytes"] = _peak_rss_bytes()
        manifest["stages"][name] = record
        if failure is not None:
            break

    manifest["config"] = _jsonify(cfg)
    manifest["versions"] = {
        "bosetherm": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "blas": _blas(),
        # the artifacts' last digits move with the BLAS thread count
        "threads": {var: os.environ.get(var) for var in (
            "BOSETHERM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS")},
    }
    manifest["files"] = _inventory(outdir)
    _write_json(manifest_path, manifest)
    if failure is not None:
        raise failure
    return manifest
