"""Trap-level Hamiltonian for N interacting bosons on M levels.

H = Delta * sum_i i * n_i                       (ladder of level energies)
  + J * sum_{i != j} b_i^dag b_j                (coupling between all levels)
  + U * sum_i b_i^dag b_i^dag b_i b_i           (same-level pairs)
  + U' * sum_{(i,j,l,m) not all equal} b_i^dag b_j^dag b_l b_m

The last sum runs over every ordered quadruple except i=j=l=m, with no
symmetry reduction; permutation-repeated terms are summed as written.

Both couplings act between all levels alike, so with the collective lowering
operator B = sum_m b_m they are complete sums less their diagonal parts:
  sum_{i != j} b_i^dag b_j = B^dag B - N,
  sum_{not all equal} b_i^dag b_j^dag b_l b_m = (BB)^dag (BB) - sum_i n_i (n_i - 1).
So H = diag(d) + J B^T B + U' (B'B)^T (B'B), with B' the same sum on the N-1
sector and d = Delta sum_i i n_i + (U - U') sum_i n_i (n_i - 1) - J N. The
diagonal is kept in closed form: integer arithmetic on the occupations gives
it exactly, where ladder products would round their square roots.

All couplings are real, so the matrix comes out real symmetric. It is stored
complex, the dtype of the states it acts on; diagonalize takes its real
part, so the eigenvectors are real, and the Taylor ladder stores each rung
as a packed complex-symmetric triangle.

Energies are measured in units of J throughout (set hopping=1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .errors import (EmptyWindowError, IntegrityError, NumericsError,
                     SectorMismatchError)
from .fock import FockBasis, StateVector, check_same_sector, enumerate_basis

# reference values for the adjacent-gap ratio statistic
GOE_MEAN_R = 0.5307
POISSON_MEAN_R = 2.0 * math.log(2.0) - 1.0
# rows per block of SectorOperator's Hermiticity check, so that its
# temporaries are a few CHECK_ROWS x dim arrays, never a full-size one
CHECK_ROWS = 64


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
    the eigensolver need not repeat it. It takes max|m - m^dag| and max|m|
    over blocks of CHECK_ROWS rows and leaves the matrix as it is given.
    """

    basis: FockBasis
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.shape != (self.basis.dim, self.basis.dim):
            raise ValueError("matrix shape does not match sector dimension")
        defect = scale = 0.0
        for lo in range(0, self.basis.dim, CHECK_ROWS):
            rows = slice(lo, lo + CHECK_ROWS)
            scale = np.maximum(scale, np.abs(m[rows]).max())
            # the rows of m^dag, then these rows of m less them, in place
            gap = np.conjugate(m[:, rows]).T
            np.subtract(m[rows], gap, out=gap)
            defect = np.maximum(defect, np.abs(gap).max())
            del gap
        defect, scale = float(defect), float(scale)
        if defect > 1e-12 * scale:
            raise IntegrityError(
                f"matrix is not Hermitian: defect {defect:.3e} "
                f"vs scale {scale:.3e}")
        object.__setattr__(self, "matrix", m)

    def apply(self, state: StateVector) -> StateVector:
        check_same_sector(state.basis, self.basis, "state of an operator")
        return StateVector(self.basis, self.matrix @ state.amplitudes)

    def expectation(self, state: StateVector) -> complex:
        check_same_sector(state.basis, self.basis, "state of an operator")
        return complex(np.vdot(state.amplitudes,
                               self.matrix @ state.amplitudes))

    def max_element(self) -> float:
        return float(np.abs(self.matrix).max())

    @property
    def is_real(self) -> bool:
        """Every imaginary part is zero, so the matrix is real symmetric."""
        return bool(np.abs(self.matrix.imag).max() <= 1e-300)


def _collective_lowering(basis: FockBasis):
    """B = sum_m b_m from basis into its N-1 sector, as CSR, and that sector."""
    src, dst, amp, targets = zip(*(basis.lowering_map(m)
                                   for m in range(basis.num_modes)))
    b = sp.csr_matrix(
        (np.concatenate(amp), (np.concatenate(dst), np.concatenate(src))),
        shape=(targets[0].dim, basis.dim))
    return b, targets[0]


def _hamiltonian_terms(params: HamiltonianParams, basis: FockBasis):
    """H on a sector as (d, pairs), with H = diag(d) + sum c K^T K over pairs.

    The pairs are (J, B) and (U', B'B); a sector with N < 2 lacks those its
    particles cannot feed.
    """
    occ = basis.states
    d = (params.level_spacing * (occ * np.arange(params.num_modes)).sum(axis=1)
         + (params.u_intra - params.u_inter) * (occ * (occ - 1)).sum(axis=1)
         - params.hopping * basis.num_particles).astype(float)
    pairs = []
    if basis.num_particles >= 1:
        b, lower = _collective_lowering(basis)
        pairs.append((params.hopping, b))
        if basis.num_particles >= 2:
            pairs.append((params.u_inter, _collective_lowering(lower)[0] @ b))
    return d, pairs


def _check_mode_count(params: HamiltonianParams, basis: FockBasis,
                      what: str) -> None:
    """Raise SectorMismatchError unless basis has the model's mode count;
    its particle number may be any (the Green functions' N +- 1 sectors)."""
    if basis.num_modes != params.num_modes:
        raise SectorMismatchError(
            f"{what}: {basis} is not a sector of the {params.num_modes}-mode "
            "model")


def build_hamiltonian(params: HamiltonianParams,
                      basis: FockBasis | None = None) -> SectorOperator:
    """Assemble the dense Hamiltonian on a sector.

    basis defaults to the params reference sector; passing the N-1 or N+1
    sector builds the same model there (Green functions need those).
    """
    if basis is None:
        basis = enumerate_basis(params.num_modes, params.num_particles)
    _check_mode_count(params, basis, "basis of a Hamiltonian")
    d, pairs = _hamiltonian_terms(params, basis)
    terms = sum((c * (k.T @ k) for c, k in pairs), sp.diags(d)).tocoo()
    h = np.zeros((basis.dim, basis.dim), dtype=np.complex128)
    h[terms.row, terms.col] = terms.data  # the sum holds each entry once
    # the sparse terms go before the Hermiticity check's dense temporaries
    del d, pairs, terms
    return SectorOperator(basis, h)


def _apply_terms(params: HamiltonianParams, basis: FockBasis,
                 block: np.ndarray) -> np.ndarray:
    """H @ block through the sparse terms, for a vector or a column block."""
    d, pairs = _hamiltonian_terms(params, basis)
    out = (d if block.ndim == 1 else d[:, None]) * block
    for c, k in pairs:
        out += c * (k.T @ (k @ block))
    return out


def apply_hamiltonian(params: HamiltonianParams, state: StateVector) -> StateVector:
    """H |state> without building the dense matrix."""
    _check_mode_count(params, state.basis, "state of a Hamiltonian")
    return StateVector(state.basis,
                       _apply_terms(params, state.basis, state.amplitudes))


@dataclass
class EigenSystem:
    """Full spectrum of one sector, energies ascending, vectors in columns."""

    basis: FockBasis
    energies: np.ndarray
    vectors: np.ndarray

    def coefficients(self, state: StateVector) -> np.ndarray:
        """Expansion of a state over the eigenvectors."""
        check_same_sector(state.basis, self.basis, "state of an eigensystem")
        return self.vectors.conj().T @ state.amplitudes


def _canonical_phases(columns: np.ndarray) -> np.ndarray:
    """Per-column factors that make each column's pivot real and positive.

    The pivot is the largest-magnitude component; components within a
    relative 1e-8 of it tie, and the lowest row index wins.
    """
    mags = np.abs(columns)
    peak = mags.max(axis=0)
    pivot = np.argmax(mags >= peak * (1.0 - 1e-8), axis=0)
    lead = columns[pivot, np.arange(columns.shape[1])]
    return np.conj(lead) / np.abs(lead)


def diagonalize(op: SectorOperator) -> EigenSystem:
    """Full dense diagonalization of a (checked Hermitian) operator.

    A real symmetric matrix (every model sector) gets float64 vectors, a
    complex Hermitian one complex128 vectors. Each vector's pivot is made
    real and positive (_canonical_phases), so no solver sign, which can
    change with the BLAS thread count, reaches the caller.
    """
    h = op.matrix
    try:
        if op.is_real:
            # real symmetric path is four times cheaper, and its vectors
            # stay real: half the memory of complex ones
            energies, vectors = la.eigh(h.real)
        else:
            energies, vectors = la.eigh(h)
    except la.LinAlgError as exc:
        raise NumericsError(
            f"eigensolver failed on dim={h.shape[0]} matrix "
            f"(max element {op.max_element():.3e}): {exc}") from exc
    vectors *= _canonical_phases(vectors)
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
