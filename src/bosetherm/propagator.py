"""Long-horizon propagation on a lattice of base steps, two ways.

PropagatorConfig fixes the lattice: times m * dt for |m| up to the span of
a ladder of the given depth. choose_base_step picks dt from the Taylor
error model below and the smallest depth whose span reaches the horizon.
Both propagators subclass Propagator, which owns that lattice, snap() and
the one span check, so snapped times and span errors do not depend on which
one runs. advance moves one vector (or one block sharing a step count);
advance_columns checks a block whose columns each have their own count
against the span and hands it to the propagator's own column walk.

PropagatorLadder (the paper's method). The base propagator
U0 = sum_{k<=k_max} (-i dt)^k H^k / k! is accurate for dt * max|H_ij| <= 0.1
(enforced). A ladder of rungs U_r = (U_{r-1})^n then spans n^r * dt each, so
any lattice time m * dt is reached with O(log m) rung applies via the base-n
digits of m. advance walks by matrix-vector products; the column walk
applies every rung once to all the columns whose digit needs it, so many
short walks share matrix-matrix products. Negative times use the adjoint
rungs, which is exact for unitaries up to the Taylor truncation. Truncation
errors add up over the effective number of base steps, so the base step
must shrink with the horizon: choose_base_step picks dt from
horizon * rho^(k+1) * dt^k / (k+1)! <= target (rho estimated by power
iteration) intersected with the max-element rule above. Memory is depth + 1
dense complex rungs.

EigenPropagator (exact). One diagonalization H = V E V^T gives
U0^m = V exp(-i E m dt) V^T for any m, with no truncation, from one real
dim x dim matrix when H is real symmetric (the model's is). Its column walk
moves a block into the eigenbasis, multiplies each column by its own phases
and moves it back, all columns at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityError,
    SectorMismatchError,
    StepTooLargeError,
    UnreachableTimeError,
)
from .fock import StateVector
from .hamiltonian import SectorOperator, diagonalize

MAX_STEP_FACTOR = 0.1


@dataclass(frozen=True)
class PropagatorConfig:
    """Shape of the propagator ladder, and the lattice of both propagators.

    max_rung_bytes caps one dense matrix: a complex rung of the ladder, or
    the real eigenvectors of the eigen propagator.
    """

    base_step: float
    depth: int
    taylor_order: int = 4
    branching: int = 2
    max_rung_bytes: int = 2**31

    def __post_init__(self):
        if not (np.isfinite(self.base_step) and self.base_step > 0):
            raise ValueError("base_step must be positive and finite")
        if self.taylor_order < 1:
            raise ValueError("taylor_order must be at least 1")
        if self.branching < 2:
            raise ValueError("branching must be at least 2")
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")

    @property
    def max_steps(self) -> int:
        """Largest lattice index reachable: n^(r+1) - 1 base steps."""
        return self.branching ** (self.depth + 1) - 1

    @property
    def span(self) -> float:
        return self.max_steps * self.base_step


def estimate_spectral_radius(matrix: np.ndarray, iterations: int = 60) -> float:
    """Power-iteration bound on max|eigenvalue|, deterministic start."""
    dim = matrix.shape[0]
    v = np.ones(dim) + 1e-3 * np.arange(dim) / max(dim - 1, 1)
    v /= np.linalg.norm(v)
    rho = 0.0
    for _ in range(iterations):
        w = matrix @ v
        rho = float(np.linalg.norm(w))
        if rho == 0.0:
            return 0.0
        v = w / rho
    return 1.05 * rho  # safety margin over the unconverged estimate


def _check_step_rule(op: SectorOperator, config: PropagatorConfig) -> None:
    scale = op.max_element()
    if scale == 0.0:
        return
    limit = MAX_STEP_FACTOR / scale
    if config.base_step > limit * (1.0 + 1e-12):
        raise StepTooLargeError(
            f"base step {config.base_step:.3e} violates "
            f"dt * max|H| <= {MAX_STEP_FACTOR}; largest admissible step is "
            f"{limit:.3e}")


def base_step(op: SectorOperator, config: PropagatorConfig) -> np.ndarray:
    """Truncated Taylor propagator over one base step."""
    h = op.matrix
    _check_step_rule(op, config)
    scaled = (-1j * config.base_step) * h
    u = np.eye(h.shape[0], dtype=np.complex128)
    term = np.eye(h.shape[0], dtype=np.complex128)
    for k in range(1, config.taylor_order + 1):
        term = (scaled @ term) / k
        u += term
    return u


class Propagator:
    """U0^m on the lattice of a config, for one sector.

    Subclasses supply _walk_columns, which advance_columns and advance call
    once the step counts passed _check_span.
    """

    def __init__(self, basis, config: PropagatorConfig):
        self.basis = basis
        self.config = config

    @property
    def base_step(self) -> float:
        return self.config.base_step

    @property
    def max_steps(self) -> int:
        return self.config.max_steps

    @property
    def span(self) -> float:
        return self.config.span

    def _check_span(self, steps: int) -> None:
        if steps > self.max_steps:
            raise UnreachableTimeError(
                f"{steps} base steps exceed the span of {self.max_steps} "
                f"(time {self.span:.6e})")

    def snap(self, t: float, strict: bool = False) -> tuple[int, float]:
        """Nearest lattice index and time for a requested time.

        strict=True raises when t is off-lattice instead of snapping.
        """
        dt = self.base_step
        m = int(round(t / dt))
        actual = m * dt
        if strict and abs(t - actual) > 1e-9 * max(abs(t), dt):
            below, above = math.floor(t / dt) * dt, math.ceil(t / dt) * dt
            raise UnreachableTimeError(
                f"time {t} is off the lattice (step {dt:.6e}); nearest "
                f"reachable times are {below:.12e} and {above:.12e}")
        self._check_span(abs(m))
        return m, actual

    def advance(self, amplitudes: np.ndarray, steps: int) -> np.ndarray:
        """Apply U0^steps to a vector or the columns of a matrix."""
        self._check_span(abs(steps))
        amps = np.asarray(amplitudes)
        block = amps.reshape(amps.shape[0], -1)
        out = self._walk_columns(block, np.full(block.shape[1], int(steps)))
        return out.reshape(amps.shape)


class PropagatorLadder(Propagator):
    """Rungs U0^(n^k) for k = 0..depth over one sector."""

    def __init__(self, basis, config: PropagatorConfig, rungs: list[np.ndarray]):
        super().__init__(basis, config)
        self.rungs = rungs

    def advance(self, amplitudes: np.ndarray, steps: int) -> np.ndarray:
        """Apply U0^steps by matrix-vector products, without the column
        walk's fancy-index copies; negative steps apply the adjoint rungs."""
        self._check_span(abs(steps))
        out = np.array(amplitudes, dtype=np.complex128, copy=True)
        forward = steps >= 0
        m = abs(int(steps))
        n = self.config.branching
        for k in range(self.config.depth, -1, -1):
            count, m = divmod(m, n ** k)
            for _ in range(count):
                if forward:
                    out = self.rungs[k] @ out
                elif out.ndim == 1:
                    out = (out.conj() @ self.rungs[k]).conj()
                else:
                    out = (out.conj().T @ self.rungs[k]).conj().T
        return out

    def _walk_columns(self, block: np.ndarray,
                      steps: np.ndarray) -> np.ndarray:
        """Each column gets the rung products of advance, in the same order.

        Rungs are walked from the top down, and at each rung the columns
        whose base-n digit there is nonzero share one matrix-matrix product
        per repeat of the digit.
        """
        out = np.array(block, dtype=np.complex128, copy=True)
        forward = steps >= 0
        remaining = np.abs(steps)
        n = self.config.branching
        for k in range(self.config.depth, -1, -1):
            digits, remaining = np.divmod(remaining, n ** k)
            rung = self.rungs[k]
            for repeat in range(1, n):
                due = digits >= repeat
                fwd = np.flatnonzero(due & forward)
                if fwd.size:
                    out[:, fwd] = rung @ out[:, fwd]
                bwd = np.flatnonzero(due & ~forward)
                if bwd.size:
                    # (U^dag X) = (X^dag U)^dag, without a copy of the rung
                    out[:, bwd] = (out[:, bwd].conj().T @ rung).conj().T
        return out


def build_ladder(op: SectorOperator, config: PropagatorConfig) -> PropagatorLadder:
    """Build all rungs; memory use is (depth + 1) dense matrices."""
    rung_bytes = 16 * op.basis.dim ** 2
    if rung_bytes > config.max_rung_bytes:
        raise CapacityError(
            f"one rung needs {rung_bytes} bytes > cap {config.max_rung_bytes}")
    rungs = [base_step(op, config)]
    for _ in range(config.depth):
        rungs.append(np.linalg.matrix_power(rungs[-1], config.branching))
    return PropagatorLadder(op.basis, config, rungs)


def _times(matrix: np.ndarray, block: np.ndarray) -> np.ndarray:
    """matrix @ block for a complex block, without casting a real matrix.

    A real matrix takes the real and imaginary parts of the columns as the
    columns of one real product.
    """
    block = np.ascontiguousarray(block, dtype=np.complex128)
    if np.iscomplexobj(matrix):
        return matrix @ block
    return (matrix @ block.view(np.float64)).view(np.complex128)


class EigenPropagator(Propagator):
    """Exact U0^m = V exp(-i E m dt) V^dag on the lattice of a config.

    config.depth only sets the span, since no rungs are built.
    """

    def __init__(self, basis, config: PropagatorConfig, energies: np.ndarray,
                 vectors: np.ndarray):
        super().__init__(basis, config)
        self.energies = energies
        self.vectors = vectors
        self._adjoint = (vectors.conj().T if np.iscomplexobj(vectors)
                         else vectors.T)

    def _walk_columns(self, block: np.ndarray,
                      steps: np.ndarray) -> np.ndarray:
        """Column c times exp(-i E steps[c] dt) in the eigenbasis."""
        coeff = _times(self._adjoint, block)
        coeff *= np.exp(-1j * np.outer(self.energies, steps * self.base_step))
        return _times(self.vectors, coeff)


def build_eigen_propagator(op: SectorOperator,
                           config: PropagatorConfig) -> EigenPropagator:
    """Diagonalize once; memory use is one dense matrix of eigenvectors,
    real for a real symmetric H. The cap is checked before diagonalizing."""
    vector_bytes = 8 * op.basis.dim ** 2
    if vector_bytes > config.max_rung_bytes:
        raise CapacityError(
            f"the eigenvectors need {vector_bytes} bytes > cap "
            f"{config.max_rung_bytes}")
    eig = diagonalize(op)
    return EigenPropagator(op.basis, config, eig.energies, eig.vectors)


def advance_columns(ladder: Propagator, block: np.ndarray,
                    steps) -> np.ndarray:
    """Apply U0^steps[c] to column c of a (dim, columns) block.

    Column c comes out as ladder.advance(block[:, c], steps[c]) would give
    it; negative counts evolve backward.
    """
    block = np.asarray(block)
    steps = np.asarray(steps, dtype=np.int64)
    if block.ndim != 2 or steps.shape != (block.shape[1],):
        raise ValueError(
            f"need one step count per column of a 2-D block; got "
            f"{steps.shape} counts for a block of shape {block.shape}")
    if steps.size:
        ladder._check_span(int(np.abs(steps).max()))
    return ladder._walk_columns(block, steps)


def evolve_to(ladder: Propagator, state: StateVector, t: float,
              snap: bool = True) -> StateVector:
    """Propagate a state to (the lattice time nearest) t."""
    if state.basis is not ladder.basis:
        raise SectorMismatchError(
            f"state sector {state.basis} does not match ladder sector "
            f"{ladder.basis}")
    m, _ = ladder.snap(t, strict=not snap)
    return StateVector(ladder.basis, ladder.advance(state.amplitudes, m))


def _depth_for_horizon(dt: float, branching: int, horizon: float) -> int:
    """Smallest ladder depth whose span reaches the horizon."""
    depth = 0
    while (branching ** (depth + 1) - 1) * dt < horizon:
        depth += 1
    return depth


def choose_base_step(op: SectorOperator, horizon: float,
                     target_error: float = 1e-8,
                     taylor_order: int = 4,
                     branching: int = 2,
                     align_to: float | None = None,
                     **config_kwargs) -> PropagatorConfig:
    """Pick a base step and depth for a given horizon and error budget.

    The error model is horizon * rho^(k+1) * dt^k / (k+1)! for Taylor order
    k, intersected with the hard rule dt * max|H| <= 0.1. align_to forces dt
    into an integer divisor of that interval so external grids stay on the
    lattice.
    """
    if not (np.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be positive and finite")
    if not (0 < target_error < 1):
        raise ValueError("target_error must sit in (0, 1)")
    a = op.max_element()
    rho = estimate_spectral_radius(op.matrix)
    if a == 0.0 or rho == 0.0:
        dt = horizon if align_to is None else align_to
    else:
        dt_rule = MAX_STEP_FACTOR / a
        k = taylor_order
        dt_acc = (target_error * math.factorial(k + 1)
                  / (horizon * rho ** (k + 1))) ** (1.0 / k)
        dt = min(dt_rule, dt_acc)
    if align_to is not None:
        if not (np.isfinite(align_to) and align_to > 0):
            raise ValueError("align_to must be positive and finite")
        dt = align_to / math.ceil(align_to / dt)
    return PropagatorConfig(base_step=dt,
                            depth=_depth_for_horizon(dt, branching, horizon),
                            taylor_order=taylor_order, branching=branching,
                            **config_kwargs)
