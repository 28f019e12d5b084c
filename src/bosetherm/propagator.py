"""Long-horizon propagation on a lattice of base steps, two ways.

PropagatorConfig fixes the lattice: times m * dt for |m| up to the span of
a ladder of the given depth. choose_base_step picks the Taylor order and
dt together from the error model below, and the smallest depth whose span
reaches the horizon.
Both propagators subclass Propagator, which owns that lattice, snap() and
the one span check, so snapped times and span errors do not depend on which
one runs. advance moves one vector (or one block sharing a step count);
advance_columns checks a block whose runs of columns each have their own
count against the span and hands it to the propagator's own column walk,
in pieces of about dim columns cut only between whole runs; every time
grid of the package is one block. snap() rounds a time to the nearest
lattice point; no time is refused for lying off the lattice, only for
lying beyond the span.

PropagatorLadder (the paper's method). The base propagator
U0 = sum_{k<=k_max} (-i dt)^k H^k / k! is accurate for dt * max|H_ij| <= 0.1
(enforced). Each rung squares the one before, U_r = (U_{r-1})^2, so rung r
spans 2^r * dt (scaling and squaring), and any lattice time m * dt is
reached with one rung apply per set bit of m. advance walks by
matrix-vector products, and the column walk is advance on each column in
turn. Negative times use the adjoint rungs, which is exact for unitaries
up to the Taylor truncation. Truncation
errors add up over the effective number of base steps, so at a fixed order
the step must shrink with the horizon: horizon * rho^(k+1) * dt^k / (k+1)!
<= target (rho estimated by power iteration). choose_base_step raises the
order k from 4 until that accuracy step reaches the max-element rule above
(up to a cap of 16), and takes dt as the smaller of the two, so long
horizons step at the rule and need fewer rungs and rung applies. Rounding
sets a floor under the truncation: a walk to time m * dt carries about
machine epsilon times m, so the error grows with the number of base steps
and a step shorter than the budget needs only raises it. When H is real
symmetric (every model sector), every rung is a polynomial in H and so
complex symmetric (U^T = U): the ladder keeps each as its packed upper
triangle, one row of a (depth + 1, d(d+1)/2) complex array, squares it with
the half-cost symmetric rank-k update (zsyrk) between two dense work
matrices, and advance applies it by packed matrix-vector products (zspmv).
Memory is then (depth + 1) / 2 dense complex rungs plus, while building,
two dense work matrices. A complex Hermitian H keeps depth + 1 dense rungs.

EigenPropagator (exact). One diagonalization H = V E V^T gives
U0^m = V exp(-i E m dt) V^T for any m, with no truncation, from one real
dim x dim matrix when H is real symmetric (the model's is). Its column walk
moves a block into the eigenbasis, multiplies each column by its own phases
(one phase column per step count, shared by the columns that take it) and
moves it back, all columns at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.linalg.blas import zspmv, zsyrk

from .errors import CapacityError, StepTooLargeError, UnreachableTimeError
from .fock import StateVector, check_same_sector
from .hamiltonian import EigenSystem, SectorOperator, diagonalize

MAX_STEP_FACTOR = 0.1
# the Taylor orders choose_base_step picks from: the lowest it starts at,
# and the cap it stops at when no order's accuracy step reaches the rule
MIN_TAYLOR_ORDER = 4
MAX_TAYLOR_ORDER = 16
# power iterations behind estimate_spectral_radius's bound
POWER_ITERATIONS = 60


@dataclass(frozen=True)
class PropagatorConfig:
    """Shape of the propagator ladder, and the lattice of both propagators.

    max_rung_bytes caps one dense matrix: a complex rung or work matrix of
    the ladder (a packed rung takes about half of one), or the real
    eigenvectors of the eigen propagator.
    """

    base_step: float
    depth: int
    taylor_order: int = MIN_TAYLOR_ORDER
    max_rung_bytes: int = 2**31
    # each rung squares the one before; not a field, so not an option.
    # perfbench/spans.py reads it to count the rung applies of a walk.
    branching: ClassVar[int] = 2

    def __post_init__(self):
        if not (np.isfinite(self.base_step) and self.base_step > 0):
            raise ValueError("base_step must be positive and finite")
        if self.taylor_order < 1:
            raise ValueError("taylor_order must be at least 1")
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")

    @property
    def max_steps(self) -> int:
        """Largest lattice index reachable: 2^(depth+1) - 1 base steps,
        every rung applied once."""
        return 2 ** (self.depth + 1) - 1

    @property
    def span(self) -> float:
        return self.max_steps * self.base_step


def estimate_spectral_radius(matrix: np.ndarray) -> float:
    """Power-iteration bound on max|eigenvalue|, deterministic start."""
    dim = matrix.shape[0]
    v = np.ones(dim) + 1e-3 * np.arange(dim) / max(dim - 1, 1)
    v /= np.linalg.norm(v)
    rho = 0.0
    for _ in range(POWER_ITERATIONS):
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
    """Truncated Taylor propagator over one base step.

    A real H keeps the terms (dt H)^k / k! real and adds each, times
    (-i)^k, into the real or imaginary part of the sum.
    """
    _check_step_rule(op, config)
    real = op.is_real
    if real:
        scaled = config.base_step * op.matrix.real
    else:
        scaled = (-1j * config.base_step) * op.matrix
    u = np.eye(op.basis.dim, dtype=np.complex128)
    term = np.eye(op.basis.dim, dtype=scaled.dtype)
    spare = np.empty_like(term)
    for k in range(1, config.taylor_order + 1):
        np.matmul(scaled, term, out=spare)
        spare /= k
        term, spare = spare, term
        if real:
            part = u.imag if k % 2 else u.real
            if k % 4 in (1, 2):  # (-i)^k is -i or -1
                part -= term
            else:
                part += term
        else:
            u += term
    return u


def _mirror_upper(matrix: np.ndarray) -> None:
    """Copy the upper triangle of a square matrix onto its lower one."""
    for j in range(1, matrix.shape[0]):
        matrix[j, :j] = matrix[:j, j]


def _pack(matrix: np.ndarray, packed: np.ndarray) -> None:
    """The upper triangle of matrix, column by column, into packed: the
    BLAS packed storage of a symmetric matrix."""
    start = 0
    for j in range(matrix.shape[0]):
        packed[start:start + j + 1] = matrix[:j + 1, j]
        start += j + 1


class Propagator:
    """U0^m on the lattice of a config, for one sector.

    Subclasses supply _walk_columns(block, steps, group=1), which
    advance_columns and advance call once the step counts passed
    _check_span: column c of the block takes steps[c // group].
    They also supply nbytes, the bytes they hold.
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

    def snap(self, t: float) -> tuple[int, float]:
        """Nearest lattice index and time for a requested time."""
        m = int(round(t / self.base_step))
        self._check_span(abs(m))
        return m, m * self.base_step

    def advance(self, amplitudes: np.ndarray, steps: int) -> np.ndarray:
        """Apply U0^steps to a vector or the columns of a matrix."""
        self._check_span(abs(steps))
        amps = np.asarray(amplitudes)
        block = amps.reshape(amps.shape[0], -1)
        out = self._walk_columns(block, np.full(block.shape[1], int(steps)))
        return out.reshape(amps.shape)


class PropagatorLadder(Propagator):
    """Rungs U0^(2^k) for k = 0..depth over one sector.

    rungs[k] is a dense matrix, or, when packed, the upper triangle of a
    complex symmetric rung in BLAS packed storage (a row of one array).
    """

    def __init__(self, basis, config: PropagatorConfig, rungs):
        super().__init__(basis, config)
        self.rungs = rungs
        self.packed = np.ndim(rungs[0]) == 1

    @property
    def nbytes(self) -> int:
        """Bytes of the rungs held."""
        return sum(rung.nbytes for rung in self.rungs)

    def rung(self, k: int) -> np.ndarray:
        """Rung k as a dense matrix: the stored one, or a packed one
        unpacked."""
        if not self.packed:
            return self.rungs[k]
        out = np.empty((self.basis.dim,) * 2, dtype=np.complex128)
        packed, start = self.rungs[k], 0
        for j in range(self.basis.dim):
            out[:j + 1, j] = packed[start:start + j + 1]
            start += j + 1
        _mirror_upper(out)
        return out

    def _apply(self, k: int, vector: np.ndarray,
               transpose: bool) -> np.ndarray:
        """Rung k, or its transpose, times one vector."""
        if self.packed:
            return zspmv(self.basis.dim, 1.0, self.rungs[k], vector)
        return vector @ self.rungs[k] if transpose else self.rungs[k] @ vector

    def advance(self, amplitudes: np.ndarray, steps: int) -> np.ndarray:
        """Apply U0^steps to one vector by matrix-vector products; a block
        takes the column walk.

        Negative steps apply the adjoint rungs as U^dag x = conj(U^T
        conj(x)): the transposed rungs act on the conjugated vector.
        """
        amps = np.asarray(amplitudes)
        if amps.ndim != 1:
            return super().advance(amps, steps)
        self._check_span(abs(steps))
        backward = steps < 0
        out = amps.astype(np.complex128)
        if backward:
            np.conjugate(out, out=out)
        m = abs(int(steps))
        for k in range(self.config.depth, -1, -1):
            if m >> k & 1:
                out = self._apply(k, out, backward)
        return np.conjugate(out, out=out) if backward else out

    def _walk_columns(self, block: np.ndarray, steps: np.ndarray,
                      group: int = 1) -> np.ndarray:
        """Column c is advance(block[:, c], steps[c // group])."""
        out = np.empty(block.shape, dtype=np.complex128)
        for c in range(block.shape[1]):
            count = int(steps[c // group])
            out[:, c] = self.advance(block[:, c], count)
        return out


def build_ladder(op: SectorOperator, config: PropagatorConfig) -> PropagatorLadder:
    """Build all rungs; the one-matrix cap is checked before any allocation.

    A real symmetric H gives packed rungs: each squaring is one zsyrk
    (U U^T = U^2) from one dense Fortran-ordered work matrix into another,
    whose triangle is mirrored and packed. Otherwise the (depth + 1) rungs
    are dense, each the square of the one before.
    """
    dim = op.basis.dim
    rung_bytes = 16 * dim ** 2
    if rung_bytes > config.max_rung_bytes:
        raise CapacityError(
            f"one rung needs {rung_bytes} bytes > cap {config.max_rung_bytes}")
    if not op.is_real:
        rungs = [base_step(op, config)]
        for _ in range(config.depth):
            rungs.append(rungs[-1] @ rungs[-1])
        return PropagatorLadder(op.basis, config, rungs)
    rungs = np.empty((config.depth + 1, dim * (dim + 1) // 2),
                     dtype=np.complex128)
    work = base_step(op, config).T  # Fortran-ordered, symmetric to rounding
    _mirror_upper(work)
    _pack(work, rungs[0])
    spare = np.empty_like(work)
    for k in range(1, config.depth + 1):
        zsyrk(1.0, work, c=spare, overwrite_c=1)  # upper triangle only
        _mirror_upper(spare)
        _pack(spare, rungs[k])
        work, spare = spare, work
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

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays held: the energies, the eigenvectors and,
        when those are complex, their conjugate transpose."""
        held = self.energies.nbytes + self.vectors.nbytes
        if np.iscomplexobj(self.vectors):
            held += self._adjoint.nbytes
        return held

    def _walk_columns(self, block: np.ndarray, steps: np.ndarray,
                      group: int = 1) -> np.ndarray:
        """Column c times exp(-i E steps[c // group] dt) in the eigenbasis:
        one phase column per step count, shared by its run of columns,
        which scales the run through one in-place (E, runs, group) view of
        the coefficients."""
        coeff = _times(self._adjoint, block)
        phases = np.outer(-1j * self.energies, steps * self.base_step)
        runs = coeff.reshape(len(coeff), steps.size, group)
        runs *= np.exp(phases, out=phases)[:, :, None]
        del phases  # at most two block-sized arrays live at a time
        return _times(self.vectors, coeff)


def build_eigen_propagator(op: SectorOperator, config: PropagatorConfig,
                           eig: EigenSystem | None = None) -> EigenPropagator:
    """Diagonalize once, unless eig (an eigensystem of op the caller already
    holds) is given; memory use is one dense matrix of eigenvectors, real
    for a real symmetric H. The cap is checked first."""
    vector_bytes = 8 * op.basis.dim ** 2
    if vector_bytes > config.max_rung_bytes:
        raise CapacityError(
            f"the eigenvectors need {vector_bytes} bytes > cap "
            f"{config.max_rung_bytes}")
    if eig is None:
        eig = diagonalize(op)
    else:
        check_same_sector(eig.basis, op.basis, "eigensystem of an operator")
    return EigenPropagator(op.basis, config, eig.energies, eig.vectors)


def advance_columns(ladder: Propagator, block: np.ndarray, steps,
                    group: int = 1) -> np.ndarray:
    """Apply U0^steps[c // group] to column c of a (dim, columns) block.

    Each step count serves a run of group adjacent columns, and column c
    comes out as ladder.advance(block[:, c], steps[c // group]) would give
    it; negative counts evolve backward. A wide block is walked in pieces
    of group * max(1, dim // group) columns, cut only between whole runs,
    so a walk holds at most a few arrays of about dim x dim complex values
    beside the block and its result. The correlator sweeps pass narrower
    blocks, of at most dim(N) / 2 columns.
    """
    block = np.asarray(block)
    steps = np.asarray(steps, dtype=np.int64)
    if (block.ndim != 2 or group < 1 or steps.ndim != 1
            or steps.size * group != block.shape[1]):
        raise ValueError(
            f"need one step count per run of {group} columns of a 2-D "
            f"block; got {steps.shape} counts for a block of shape "
            f"{block.shape}")
    if steps.size:
        ladder._check_span(int(np.abs(steps).max()))
    runs = max(1, ladder.basis.dim // group)  # per walk
    if steps.size <= runs:
        return ladder._walk_columns(block, steps, group)
    out = np.empty(block.shape, dtype=np.complex128)
    for lo in range(0, steps.size, runs):
        cols = slice(lo * group, (lo + runs) * group)
        out[:, cols] = ladder._walk_columns(block[:, cols],
                                            steps[lo:lo + runs], group)
    return out


def evolve_to(ladder: Propagator, state: StateVector,
              t: float) -> StateVector:
    """Propagate a state to the lattice time nearest t."""
    check_same_sector(state.basis, ladder.basis, "state of a propagator")
    m, _ = ladder.snap(t)
    return StateVector(ladder.basis, ladder.advance(state.amplitudes, m))


def _depth_for_horizon(dt: float, horizon: float) -> int:
    """Smallest ladder depth whose span reaches the horizon."""
    depth = 0
    while (2 ** (depth + 1) - 1) * dt < horizon:
        depth += 1
    return depth


def _accuracy_step(order: int, rho: float, horizon: float,
                   target_error: float) -> float:
    """Largest dt with horizon * rho^(k+1) * dt^k / (k+1)! <= target."""
    return (target_error * math.factorial(order + 1)
            / (horizon * rho ** (order + 1))) ** (1.0 / order)


def choose_base_step(op: SectorOperator, horizon: float,
                     target_error: float = 1e-8,
                     align_to: float | None = None,
                     max_rung_bytes: int = PropagatorConfig.max_rung_bytes
                     ) -> PropagatorConfig:
    """Pick a Taylor order, base step and depth for a horizon and error
    budget.

    The error model is horizon * rho^(k+1) * dt^k / (k+1)! for Taylor order
    k, intersected with the hard rule dt * max|H| <= 0.1. The order is the
    smallest k >= MIN_TAYLOR_ORDER whose accuracy step reaches the rule,
    or MAX_TAYLOR_ORDER when none up to it does; dt is the smaller of the
    rule and that order's accuracy step. A higher order costs a few more
    products in the base step only, while the longer step takes fewer
    squarings and fewer rung applies per time. It also keeps the rounding
    floor low: each rung carries about machine epsilon times its number of
    base steps, so that floor grows as horizon / dt. align_to forces dt
    into an integer divisor of that interval so external grids stay on the
    lattice. max_rung_bytes goes to the config unchanged.
    """
    if not (np.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be positive and finite")
    if not (0 < target_error < 1):
        raise ValueError("target_error must sit in (0, 1)")
    a = op.max_element()
    rho = estimate_spectral_radius(op.matrix)
    order = MIN_TAYLOR_ORDER
    if a == 0.0 or rho == 0.0:
        dt = horizon if align_to is None else align_to
    else:
        dt_rule = MAX_STEP_FACTOR / a
        while (order < MAX_TAYLOR_ORDER and _accuracy_step(
                order, rho, horizon, target_error) < dt_rule):
            order += 1
        dt = min(dt_rule, _accuracy_step(order, rho, horizon, target_error))
    if align_to is not None:
        if not (np.isfinite(align_to) and align_to > 0):
            raise ValueError("align_to must be positive and finite")
        dt = align_to / math.ceil(align_to / dt)
    return PropagatorConfig(base_step=dt,
                            depth=_depth_for_horizon(dt, horizon),
                            taylor_order=order,
                            max_rung_bytes=max_rung_bytes)
