"""Trap-level Hamiltonian for N interacting bosons on M levels.

H = Delta * sum_i i * n_i                       (ladder of level energies)
  + J * sum_{i != j} b_i^dag b_j                (coupling between all levels)
  + U * sum_i b_i^dag b_i^dag b_i b_i           (same-level pairs)
  + U' * sum_{(i,j,l,m) not all equal} b_i^dag b_j^dag b_l b_m

The last sum runs over every ordered quadruple except i=j=l=m, with no
symmetry reduction; permutation-repeated terms are summed as written. All
couplings are real, so the matrix comes out real symmetric. It is stored
complex, the dtype of the states it acts on and of the Taylor ladder built
from it; diagonalize takes its real part, so the eigenvectors are real.

Energies are measured in units of J throughout (set hopping=1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .errors import EmptyWindowError, IntegrityError, NumericsError
from .fock import FockBasis, StateVector, _apply_word, enumerate_basis

# reference values for the adjacent-gap ratio statistic
GOE_MEAN_R = 0.5307
POISSON_MEAN_R = 2.0 * math.log(2.0) - 1.0


@dataclass(frozen=True)
class HamiltonianParams:
    """Couplings and reference sector of the model."""

    num_modes: int
    num_particles: int
    level_spacing: float  # Delta
    hopping: float        # J
    u_intra: float        # U, same-level pair energy
    u_inter: float        # U', level-changing collisions

    def __post_init__(self):
        if self.num_modes < 1:
            raise ValueError("need at least one mode")
        if self.num_particles < 0:
            raise ValueError("particle number must be nonnegative")
        for name in ("level_spacing", "hopping", "u_intra", "u_inter"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")


@dataclass(frozen=True)
class SectorOperator:
    """Dense Hermitian operator on one Fock sector.

    The Hermiticity check runs here, once per operator, so the ladder and
    the eigensolver need not repeat it.
    """

    basis: FockBasis
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.shape != (self.basis.dim, self.basis.dim):
            raise ValueError("matrix shape does not match sector dimension")
        defect = float(np.abs(m - m.conj().T).max())
        scale = float(np.abs(m).max())
        if defect > 1e-12 * scale:
            raise IntegrityError(
                f"matrix is not Hermitian: defect {defect:.3e} "
                f"vs scale {scale:.3e}")
        object.__setattr__(self, "matrix", m)

    def apply(self, state: StateVector) -> StateVector:
        if state.basis is not self.basis:
            raise ValueError("state lives in a different sector")
        return StateVector(self.basis, self.matrix @ state.amplitudes)

    def expectation(self, state: StateVector) -> complex:
        return complex(np.vdot(state.amplitudes,
                               self.matrix @ state.amplitudes))

    def max_element(self) -> float:
        return float(np.abs(self.matrix).max())


def _term_maps(params: HamiltonianParams, basis: FockBasis):
    """Yield (src, dst, amp) scatter maps, one per Hamiltonian term.

    Each map is injective in src, so both dense assembly and matrix-free
    application can scatter without accumulation conflicts.
    """
    occ = basis.states
    modes = params.num_modes

    idx = np.arange(basis.dim)
    # n(n-1) in closed form: the word b^dag b^dag b b would round its sqrts
    diag = (params.level_spacing * (occ * np.arange(modes)).sum(axis=1)
            + params.u_intra * (occ * (occ - 1)).sum(axis=1)).astype(float)
    yield idx, idx, diag

    terms = []
    if params.hopping != 0.0:
        terms += [(params.hopping, ((i, True), (j, False)))
                  for i in range(modes) for j in range(modes) if i != j]
    if params.u_inter != 0.0:
        # i=j=l=m belongs to the U term
        terms += [(params.u_inter, ((i, True), (j, True), (l, False), (m, False)))
                  for i, j, l, m in itertools.product(range(modes), repeat=4)
                  if not i == j == l == m]
    for coefficient, word in terms:
        src, moved, amp = _apply_word(occ, word)
        if src.size:
            yield src, basis.index_array(moved), coefficient * amp


def build_hamiltonian(params: HamiltonianParams,
                      basis: FockBasis | None = None) -> SectorOperator:
    """Assemble the dense Hamiltonian on a sector.

    basis defaults to the params reference sector; passing the N-1 or N+1
    sector builds the same model there (Green functions need those).
    """
    if basis is None:
        basis = enumerate_basis(params.num_modes, params.num_particles)
    if basis.num_modes != params.num_modes:
        raise ValueError("basis mode count does not match params")
    h = np.zeros((basis.dim, basis.dim), dtype=np.complex128)
    for src, dst, amp in _term_maps(params, basis):
        h[dst, src] += amp
    return SectorOperator(basis, h)


def apply_hamiltonian(params: HamiltonianParams, state: StateVector) -> StateVector:
    """H |state> without building the dense matrix."""
    if state.basis.num_modes != params.num_modes:
        raise ValueError("state mode count does not match params")
    out = np.zeros(state.basis.dim, dtype=np.complex128)
    for src, dst, amp in _term_maps(params, state.basis):
        out[dst] += amp * state.amplitudes[src]
    return StateVector(state.basis, out)


@dataclass
class EigenSystem:
    """Full spectrum of one sector, energies ascending, vectors in columns."""

    basis: FockBasis
    energies: np.ndarray
    vectors: np.ndarray

    def coefficients(self, state: StateVector) -> np.ndarray:
        """Expansion of a state over the eigenvectors."""
        if state.basis is not self.basis:
            raise ValueError("state lives in a different sector")
        return self.vectors.conj().T @ state.amplitudes


def diagonalize(op: SectorOperator) -> EigenSystem:
    """Full dense diagonalization of a (checked Hermitian) operator.

    A real symmetric matrix (every model sector) gets float64 vectors, a
    complex Hermitian one complex128 vectors.
    """
    h = op.matrix
    try:
        if np.abs(h.imag).max() <= 1e-300:
            # real symmetric path is four times cheaper, and its vectors
            # stay real: half the memory of complex ones
            energies, vectors = la.eigh(h.real)
        else:
            energies, vectors = la.eigh(h)
    except la.LinAlgError as exc:
        raise NumericsError(
            f"eigensolver failed on dim={h.shape[0]} matrix "
            f"(max element {op.max_element():.3e}): {exc}") from exc
    return EigenSystem(op.basis, energies, vectors)


@dataclass(frozen=True)
class ChaosReport:
    """Adjacent-gap ratio summary of a spectrum."""

    mean_ratio: float
    gap_count: int
    level_count: int
    window: tuple[float, float] | None


def r_ratio(energies: np.ndarray,
            window: tuple[float, float] | None = None) -> ChaosReport:
    """Mean adjacent-gap ratio <r>, r_k = min(s_k, s_k+1)/max(s_k, s_k+1).

    Defaults to the full spectrum; pass window=(lo, hi) to restrict. Levels
    closer than 1e-12 of the spectral width count as one level.
    """
    e = np.sort(np.asarray(energies, dtype=float))
    if window is not None:
        lo, hi = window
        e = e[(e >= lo) & (e <= hi)]
    if e.size < 3:
        raise EmptyWindowError(
            f"need at least 3 levels for gap ratios, got {e.size}")
    width = float(e[-1] - e[0])
    if width <= 0.0:
        raise EmptyWindowError("spectrum has zero width")
    gaps = np.diff(e)
    gaps = gaps[gaps > 1e-12 * width]
    if gaps.size < 2:
        raise EmptyWindowError("fewer than 2 distinct gaps after merging")
    ratios = np.minimum(gaps[1:], gaps[:-1]) / np.maximum(gaps[1:], gaps[:-1])
    return ChaosReport(mean_ratio=float(ratios.mean()),
                       gap_count=int(gaps.size),
                       level_count=int(e.size),
                       window=window)
