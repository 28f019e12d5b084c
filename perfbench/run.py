"""bosetherm benchmark: quench, thermometry and pipeline workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; the package is imported from
``src/``. The inputs of each workload are generated here from ``--seed``,
as VARIANTS independent draws. Every op runs in a fresh child process
(op.py), so its peak memory is its own, and is checked for correctness.
Ops repeat, one after another, two per draw in turn, while the next one is
expected to end within ``--seconds`` (at least MIN_OPS of them).

With ``--trace 0`` every op is untraced and the end-to-end metrics are the
medians over ops. With ``--trace 1`` untraced and traced ops alternate; the
per-layer metrics are medians over the traced ops, and ``trace.overhead_s``
is the traced minus the untraced median wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the per-op detail, the environment and the input summary.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

WORKLOADS = ("quench", "thermometry", "pipeline")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "query_s": "s",
                    "peak_rss_mb": "MiB"}

# One BLAS thread: a fixed count no machine lacks, and the package's
# byte-identical reruns assume it.
THREADS = 1
MIN_OPS = 3
MIN_TRACED_RUN_OPS = 4   # two traced, two untraced
# Input draws per run. Ops cycle through them, two ops per draw, so a run's
# median spans several draws and the cost of one unlucky draw (a slow fit)
# does not set the whole run; the pairs allow the rerun checks.
VARIANTS = 4
RUN_LIMIT_S = 170   # a run ends within 180 s, hung ops included

MODEL = {"num_modes": 5, "level_spacing": 10.0, "hopping": 1.0,
         "u_intra": 1.0, "u_inter": 0.1}


def make_inputs(workload: str, seed: int, variant: int = 0) -> dict:
    """One draw of the workload's inputs; the same seed and variant give the
    same inputs."""
    rng = random.Random(f"{workload}:{seed}:{variant}")
    if workload == "quench":
        # N=7 (dim 330) over the paper's horizon: ladder depth 27, single
        # vectors, entropy at 1000 random observation times.
        count, horizon = 1000, 1000.0
        return {"workload": workload, "model": dict(MODEL, num_particles=7),
                "occupation": [7, 0, 0, 0, 0], "system_modes": [2, 3, 4],
                "horizon": horizon,
                "times": sorted(rng.uniform(0.0, horizon)
                                for _ in range(count)),
                "check_index": [0, count // 3, 2 * count // 3, count - 1]}
    if workload == "thermometry":
        # N=6 with the N-1 and N+1 sectors; the horizon stays 107 so the
        # ladder depth does not depend on the drawn centre time.
        return {"workload": workload, "model": dict(MODEL, num_particles=6),
                "occupation": [6, 0, 0, 0, 0], "horizon": 107.0,
                "target_error": 1e-6, "tau_step": 0.04, "tau_max": 12.0,
                "com_time": rng.uniform(97.0, 100.0),
                "green_pairs": [[m, m] for m in range(MODEL["num_modes"])],
                "density_pair": [2, 2],
                "green_energies": [-10.0, 60.0, 1401],
                "density_energies": [-30.0, 30.0, 1201],
                "fdt_window": [1.0, 25.0]}
    if workload == "pipeline":
        # The fixed propagation horizon keeps the shared base step, and so
        # the rung applies per tau step, the same for every drawn centre
        # time; otherwise the work per op would swing with the seed.
        config = {
            "model": dict(MODEL, num_particles=6),
            "propagation": {"horizon": 70.0},
            "initial_state": {"kind": "microcanonical",
                              "window": [40.0, 60.0], "random_phases": True},
            "measurement": {
                "system_modes": [2, 3, 4],
                "times": {"start": 0.0, "stop": 200.0, "count": 101},
                "green_pairs": [[1, 1], [2, 2], [3, 3]],
                "density_pairs": [[2, 2]],
                "com_times": [rng.uniform(25.0, 40.0),
                              rng.uniform(45.0, 60.0)],
                "tau_max": 6.0, "tau_step": 0.04,
                "energy_grid": {"start": -10.0, "stop": 60.0, "count": 351}},
            "fits": {"peak_count": 3, "fdt_window": [1.0, 25.0]},
            "seed": rng.randrange(1, 2 ** 31),
        }
        return {"workload": workload, "config": config}
    raise ValueError(f"unknown workload {workload!r}")


def input_summary(spec: dict) -> dict:
    if spec["workload"] == "quench":
        times = spec["times"]
        return {"observations": len(times), "first": times[0],
                "last": times[-1]}
    if spec["workload"] == "thermometry":
        return {"com_time": spec["com_time"]}
    return {"com_times": spec["config"]["measurement"]["com_times"],
            "phase_seed": spec["config"]["seed"]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SOURCE), env.get("PYTHONPATH")) if p)
    # the package pins the BLAS pools from BOSETHERM_THREADS at import; drop
    # inherited pool sizes so that pin is the one that holds
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env.pop(var, None)
    env["BOSETHERM_THREADS"] = str(THREADS)
    return env


def run_op(spec_path: Path, env: dict, timeout: float = RUN_LIMIT_S,
           traced: bool = False, perturb: bool = False) -> dict:
    """One op in a child process; its result dict, "problems" non-empty on
    failure. The child is killed after ``timeout`` seconds."""
    timeout = max(timeout, 1.0)
    cmd = [sys.executable, str(HERE / "op.py"), str(spec_path)]
    cmd += ["--traced"] * traced + ["--perturb"] * perturb
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced,
                "problems": [f"op ran past {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"traced": traced, "problems": [
            f"op exited {proc.returncode}: " + " | ".join(tail)]}
    result = json.loads(lines[-1])
    result["traced"] = traced
    return result


def flag_hash_mismatches(results: list) -> None:
    """Repeats of one pipeline config must write byte-identical artifacts."""
    groups = {}
    for r in results:
        if "hashes" in r:
            groups.setdefault(r["variant"], []).append(r)
    for group in groups.values():
        keys = [json.dumps(r["hashes"], sort_keys=True) for r in group]
        common = json.loads(Counter(keys).most_common(1)[0][0])
        for r in group:
            if r["hashes"] != common:
                changed = sorted(name for name, digest in r["hashes"].items()
                                 if common.get(name) != digest)
                r["problems"].append("artifact sha256s differ from the "
                                     f"other repeats: {changed}")


def spread(values: list) -> dict:
    out = {"n": len(values), "median": statistics.median(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            rundir: Path) -> tuple[dict, dict]:
    specs, spec_paths = [], []
    for variant in range(VARIANTS):
        specs.append(make_inputs(workload, seed, variant))
        spec_paths.append(rundir / f"spec-{variant}.json")
        spec_paths[-1].write_text(json.dumps(specs[-1]))
    env = child_env()
    deadline = time.monotonic() + RUN_LIMIT_S
    warm = subprocess.run([sys.executable, "-c", "import bosetherm"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=RUN_LIMIT_S)
    if warm.returncode != 0:
        raise RuntimeError("cannot import bosetherm from src/: "
                           + warm.stderr.strip().splitlines()[-1])

    # Start another op only while it is expected to end within the run, so
    # a run lasts --seconds and not up to one op longer.
    results, durations = [], []
    start = time.monotonic()
    minimum = MIN_TRACED_RUN_OPS if trace else MIN_OPS
    while time.monotonic() < deadline and (
            len(results) < minimum
            or time.monotonic() - start + statistics.median(durations)
            <= seconds):
        traced = trace and len(results) % 2 == 1
        variant = len(results) // 2 % VARIANTS
        began = time.monotonic()
        results.append(run_op(spec_paths[variant], env, deadline - began,
                              traced=traced))
        results[-1]["variant"] = variant
        durations.append(time.monotonic() - began)
    flag_hash_mismatches(results)

    passed = [r for r in results if not r["problems"]]
    # time the passing ops; if none passed, the ops that at least finished
    timed = passed or [r for r in results if "wall_s" in r]
    untraced = [r for r in timed if not r["traced"]]
    traced_ok = [r for r in timed if r["traced"]]
    if not untraced or (trace and not traced_ok):
        raise RuntimeError("no op finished: " + "; ".join(
            p for r in results for p in r["problems"])[:2000])

    summary = {name: spread([r[name] for r in untraced])
               for name in END_TO_END_UNITS}
    if trace:
        layers = {name: spread([r["layers"].get(name, 0) for r in traced_ok])
                  for name in spans.PER_LAYER_UNITS}
        traced_wall = layers["trace.wall_s"]["median"]
        layers["trace.overhead_s"] = {
            "median": traced_wall - summary["wall_s"]["median"]}
        metrics = {name: {"value": layers[name]["median"], "unit": unit}
                   for name, unit in spans.PER_LAYER_UNITS.items()}
        summary.update(layers)
    else:
        metrics = {name: {"value": summary[name]["median"], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    failed = len(results) - len(passed)
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "inputs": [input_summary(spec) for spec in specs],
        "env": dict(timed[0]["env"], threads_set=THREADS),
        "count_kinds": spans.COUNT_KINDS,
        "summary": summary,
        "ops": [{key: r.get(key) for key in
                 ("variant", "traced", "wall_s", "setup_s", "query_s",
                  "peak_rss_mb", "problems", "fit_errors")}
                for r in results],
        "user_warnings": sorted({w for r in results
                                 for w in r.get("warnings", [])})[:20],
    }
    final = {"correct": failed == 0, "attempted": len(results),
             "failed": failed, "metrics": metrics}
    return detail, final


def self_test(rundir: Path) -> int:
    """Each workload: a clean op passes, a perturbed one is counted as
    failed, and a traced op's layer self times account for its wall time."""
    env = child_env()
    good = True
    for workload in WORKLOADS:
        spec_path = rundir / f"{workload}.json"
        spec_path.write_text(json.dumps(make_inputs(workload, 1)))
        results = [run_op(spec_path, env),
                   run_op(spec_path, env, perturb=True),
                   run_op(spec_path, env, traced=True)]
        for r in results:
            r["variant"] = 0
        flag_hash_mismatches(results)
        clean, perturbed, traced = results
        failed = sum(bool(r["problems"]) for r in results)
        checks = {
            "clean op passes": not clean["problems"],
            "perturbed op counted as failed": bool(perturbed["problems"]),
            "traced op passes": not traced["problems"],
            "failed count is 1": failed == 1,
        }
        if not traced["problems"]:
            layers = traced["layers"]
            accounted = (sum(layers[f"{layer}.s"] for layer in spans.LAYERS)
                         + layers["trace.unattributed_s"])
            checks["layer self times + unattributed = traced wall"] = (
                abs(accounted - traced["wall_s"]) <= 1e-6 * traced["wall_s"])
        for name, ok in checks.items():
            good &= ok
            print(f"{workload:12s} {'ok  ' if ok else 'FAIL'} {name}")
        for r in results:
            for problem in r["problems"]:
                print(f"{'':12s}      problem: {problem}")
    return 0 if good else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not (SOURCE / "bosetherm" / "__init__.py").is_file():
        print(f"no bosetherm source under {SOURCE}; run from a checkout",
              file=sys.stderr)
        return 2

    # turn SIGTERM into an exception, so the running op is killed and
    # waited for, and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    WORKDIR.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix="run-", dir=WORKDIR))
    try:
        if args.self_test:
            return self_test(rundir)
        detail, final = measure(args.workload, args.seed, args.seconds,
                                bool(args.trace), rundir)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass
    print(json.dumps(detail))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
