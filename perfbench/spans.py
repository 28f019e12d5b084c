"""Span recorder for the traced pass, and the per-layer metric names.

The traced pass wraps every public function of the package at every module
attribute that holds it, because callers look functions up in their own
module (``bosetherm.correlators.build_ladder`` is a separate lookup from
``bosetherm.propagator.build_ladder``). ``PropagatorLadder.advance`` is
wrapped on the class. Each call records a span (name, start, end, parent);
a span's self time is its duration minus the part its child spans cover.
Spans stay in memory and are summarised when the op ends.

Only the standard library is imported here, so the parent process can read
the metric names without loading numpy.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter, defaultdict

PACKAGE = "bosetherm"

# Package modules, one layer each; spans from ``cli`` are booked to runner.
LAYERS = ("fock", "hamiltonian", "propagator", "states", "partition",
          "correlators", "thermofit", "runner")
LAYER_OF_MODULE = {name: name for name in LAYERS}
LAYER_OF_MODULE["cli"] = "runner"

STAGES = ("build-spectrum", "evolve", "greens", "thermometry", "chaos", "fit")

# Functions whose self time is reported on its own, as "<module>.<name>.s".
TIMED_FUNCTIONS = (
    "fock.enumerate_basis",
    "hamiltonian.build_hamiltonian",
    "hamiltonian.diagonalize",
    "propagator.choose_base_step",
    "propagator.build_ladder",
    "propagator.advance",
    "states.microcanonical_state",
    "partition.build_partition",
    "partition.reduced_density",
    "partition.entanglement_entropy",
    "correlators.build_sector_ladders",
    "correlators.single_particle_correlator_set",
    "correlators.density_correlators",
    "correlators.to_energy",
    "thermofit.fit_lorentzians",
    "thermofit.fit_bose_einstein",
    "thermofit.fit_fdt_beta",
    "thermofit.fit_biexponential",
    "runner.validate_config",
)

# Counts, with unit and how each is obtained: "computed" from call
# arguments or results, "measured" from spans or from what the program
# wrote or raised.
COUNTS = {
    "propagator.advance.calls": ("count", "measured"),
    "propagator.matvecs": ("count", "computed"),
    "propagator.rung_bytes": ("B", "computed"),
    "correlators.tau_points": ("count", "computed"),
    "runner.artifact_bytes": ("B", "measured"),
    "runner.artifact_files": ("count", "measured"),
    "thermofit.warnings": ("count", "measured"),
}
COUNT_KINDS = {name: kind for name, (_, kind) in COUNTS.items()}


def _per_layer_units() -> dict:
    units = {f"{layer}.s": "s" for layer in LAYERS}
    units.update({f"{name}.s": "s" for name in TIMED_FUNCTIONS})
    units.update({name: unit for name, (unit, _) in COUNTS.items()})
    units.update({f"runner.stage.{stage}.s": "s" for stage in STAGES})
    units["trace.wall_s"] = "s"
    units["trace.unattributed_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# Every per-layer metric the traced pass reports, with its unit.
PER_LAYER_UNITS = _per_layer_units()


def digit_sum(value: int, base: int) -> int:
    """Sum of the base-``base`` digits of ``value``: the rung applies one
    advance of ``value`` steps costs."""
    total = 0
    while value:
        value, digit = divmod(value, base)
        total += digit
    return total


def _count_advance(tracer, args, kwargs, result) -> None:
    ladder = args[0]
    steps = args[2] if len(args) > 2 else kwargs["steps"]
    columns = 1 if result.ndim == 1 else result.shape[1]
    tracer.counts["propagator.matvecs"] += columns * digit_sum(
        abs(int(steps)), ladder.config.branching)


def _count_ladder(tracer, args, kwargs, result) -> None:
    tracer.counts["propagator.rung_bytes"] += (
        (result.config.depth + 1) * 16 * result.basis.dim ** 2)


def _count_correlator_set(tracer, args, kwargs, result) -> None:
    tracer.counts["correlators.tau_points"] += sum(
        lesser.tau.size for lesser, _ in result.values())


def _count_density(tracer, args, kwargs, result) -> None:
    tracer.counts["correlators.tau_points"] += result[0].tau.size


COUNTERS = {
    "propagator.advance": _count_advance,
    "propagator.build_ladder": _count_ladder,
    "correlators.single_particle_correlator_set": _count_correlator_set,
    "correlators.density_correlators": _count_density,
}


class Tracer:
    """Records nested spans around the package's public functions."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, func, name: str):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        traced._perfbench_span = name
        return traced

    def install(self) -> None:
        """Wrap public package functions wherever a module holds them."""
        wrappers = {}
        prefix = PACKAGE + "."
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE
                                      or modname.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_")
                        or not isinstance(value, types.FunctionType)
                        or hasattr(value, "_perfbench_span")
                        or not value.__module__.startswith(prefix)):
                    continue
                wrapper = wrappers.get(value)
                if wrapper is None:
                    short = value.__module__.rsplit(".", 1)[-1]
                    wrapper = self._wrap(value, f"{short}.{value.__name__}")
                    wrappers[value] = wrapper
                setattr(module, attr, wrapper)
                self._patched.append((module, attr, value))
        ladder_cls = sys.modules[prefix + "propagator"].PropagatorLadder
        advance = ladder_cls.__dict__["advance"]
        setattr(ladder_cls, "advance",
                self._wrap(advance, "propagator.advance"))
        self._patched.append((ladder_cls, "advance", advance))

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self, wall_s: float) -> dict:
        """Self time per function and per layer, call counts and counts.

        The layer self times plus ``trace.unattributed_s`` (time inside the
        op but outside every span) add up to ``wall_s``.
        """
        child_time = defaultdict(float)
        top_level = 0.0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                top_level += end - start
        self_time = defaultdict(float)
        calls = Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += end - start - child_time[index]
            calls[name] += 1
        layer_time = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self_time.items():
            layer_time[LAYER_OF_MODULE[name.split(".", 1)[0]]] += seconds
        metrics = {f"{layer}.s": seconds
                   for layer, seconds in layer_time.items()}
        metrics.update({f"{name}.s": self_time.get(name, 0.0)
                        for name in TIMED_FUNCTIONS})
        metrics["propagator.advance.calls"] = calls["propagator.advance"]
        for name in ("propagator.matvecs", "propagator.rung_bytes",
                     "correlators.tau_points"):
            metrics[name] = self.counts[name]
        metrics["trace.wall_s"] = wall_s
        metrics["trace.unattributed_s"] = wall_s - top_level
        return metrics
