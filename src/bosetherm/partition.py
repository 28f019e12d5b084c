"""Mode bipartition of a fixed-N sector and reduced density matrices.

A fixed total particle number is not a tensor product of mode groups: the
system side carries every occupation pattern with total 0..N, and a pattern
with k system particles only ever pairs with reservoir patterns holding
N - k. Reduced density matrices are therefore block-diagonal in the system
particle number (coherences between different totals vanish identically),
and everything here works block by block.

Each block pairs every system pattern with k particles with every reservoir
pattern with N - k, so a state's amplitudes regroup by one fixed gather into
one size x reservoir coefficient matrix C per block, and rho_k = C C^dagger.
The entropy takes its Schmidt weights from the smaller side of each C (the
Gram matrix C C^dagger or C^dagger C, which share their nonzero spectrum) and
diagonalizes all blocks in one batched eigvalsh call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrityError
from .fock import (FockBasis, StateVector, check_same_sector, enumerate_basis,
                   sector_dimension)


@dataclass(frozen=True)
class PartitionBlock:
    """One system-particle-number block of the partition."""

    particles: int      # particles on the system side
    offset: int         # first row of the block in the system enumeration
    size: int           # system configurations with this total
    reservoir_size: int


class PartitionMap:
    """Bookkeeping for one choice of system modes.

    System configurations are enumerated block by block: the system particle
    number k runs from N down to 0, and inside a block tuples follow the
    sector convention (lexicographically decreasing).
    """

    def __init__(self, basis: FockBasis, system_modes):
        sys_modes = tuple(sorted(set(int(m) for m in system_modes)))
        if not sys_modes:
            raise ValueError("system must contain at least one mode")
        if sys_modes[0] < 0 or sys_modes[-1] >= basis.num_modes:
            raise ValueError(
                f"system modes {sys_modes} outside 0..{basis.num_modes - 1}")
        if len(sys_modes) == basis.num_modes:
            raise ValueError("system must leave at least one reservoir mode")
        self.basis = basis
        self.system_modes = sys_modes
        self.reservoir_modes = tuple(m for m in range(basis.num_modes)
                                     if m not in sys_modes)

        n = basis.num_particles
        blocks = []
        offset = 0
        for k in range(n, -1, -1):
            size = sector_dimension(len(sys_modes), k)
            res = sector_dimension(len(self.reservoir_modes), n - k)
            blocks.append(PartitionBlock(particles=k, offset=offset,
                                         size=size, reservoir_size=res))
            offset += size
        self.blocks = blocks
        self.system_size = offset
        self.reservoir_size = sum(b.reservoir_size for b in blocks)

        # system configuration table, enumeration order
        sys_bases = [enumerate_basis(len(sys_modes), b.particles)
                     for b in blocks]
        self.system_configs = np.vstack([sb.states for sb in sys_bases])

        # full-space index of every coefficient entry, block by block in
        # row-major order; each block is a complete size x reservoir
        # product, so this is a permutation of the sector
        sys_occ = basis.states[:, sys_modes]
        res_occ = basis.states[:, self.reservoir_modes]
        block_of = n - sys_occ.sum(axis=1)
        starts = np.cumsum([0] + [b.size * b.reservoir_size
                                  for b in blocks]).tolist()
        position = np.empty(basis.dim, dtype=np.int64)
        for bi, (b, sys_basis) in enumerate(zip(blocks, sys_bases)):
            members = np.nonzero(block_of == bi)[0]
            res_basis = enumerate_basis(len(self.reservoir_modes),
                                        n - b.particles)
            position[members] = (starts[bi]
                                 + sys_basis.index_array(sys_occ[members])
                                 * b.reservoir_size
                                 + res_basis.index_array(res_occ[members]))
        self._gather = np.empty(basis.dim, dtype=np.int64)
        self._gather[position] = np.arange(basis.dim)
        self._starts = starts

    @property
    def max_entropy(self) -> float:
        """ln of the smaller side's configuration count."""
        return math.log(min(self.system_size, self.reservoir_size))


def build_partition(basis: FockBasis, system_modes) -> PartitionMap:
    return PartitionMap(basis, system_modes)


class ReducedDensityMatrix:
    """System-side density matrix over the partition's configurations.

    ``coefficients`` holds each block's size x reservoir coefficient matrix
    when the matrix came from a pure state; it is None for a matrix given
    directly. From coefficients, the dense ``matrix`` is formed on first
    access, each block as C C^dagger; a block asked for before that is
    formed alone.
    """

    def __init__(self, partition: PartitionMap,
                 matrix: np.ndarray | None = None,
                 coefficients: list[np.ndarray] | None = None):
        if matrix is None and coefficients is None:
            raise ValueError("need a matrix or block coefficients")
        self.partition = partition
        self.coefficients = coefficients
        self._matrix = matrix

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            size = self.partition.system_size
            rho = np.zeros((size, size), dtype=np.complex128)
            for b, coeff in zip(self.partition.blocks, self.coefficients):
                sl = slice(b.offset, b.offset + b.size)
                rho[sl, sl] = coeff @ coeff.conj().T
            self._matrix = rho
        return self._matrix

    def block(self, index: int) -> np.ndarray:
        if self._matrix is None:
            coeff = self.coefficients[index]
            return coeff @ coeff.conj().T
        b = self.partition.blocks[index]
        sl = slice(b.offset, b.offset + b.size)
        return self._matrix[sl, sl]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def reduced_density(state: StateVector, pm: PartitionMap) -> ReducedDensityMatrix:
    """Trace out the reservoir modes of a pure state: the block
    coefficients, from which the dense matrix is formed when asked for."""
    check_same_sector(state.basis, pm.basis, "state of a partition")
    flat = state.amplitudes[pm._gather]
    coeffs = [flat[start:start + b.size * b.reservoir_size].reshape(
        b.size, b.reservoir_size) for b, start in zip(pm.blocks, pm._starts)]
    return ReducedDensityMatrix(pm, coefficients=coeffs)


def entanglement_entropy(rdm: ReducedDensityMatrix) -> float:
    """Von Neumann entropy from every block's weights in one eigvalsh call.

    With coefficients, each block's weights are the Schmidt values of its
    smaller side: the rho block itself when the system side is smaller,
    else C^dagger C. Without them, the Hermitized rho blocks are used. The
    blocks are zero-padded into one stack; eigenvalues below -1e-12 mean the
    input was not a density matrix and raise, weights below 1e-14 (the
    padding among them) are dropped.
    """
    grams = []
    for bi, b in enumerate(rdm.partition.blocks):
        if rdm.coefficients is None:
            block = rdm.block(bi)
            grams.append((block + block.conj().T) / 2.0)
        elif b.size <= b.reservoir_size:
            grams.append(rdm.block(bi))
        else:
            coeff = rdm.coefficients[bi]
            grams.append(coeff.conj().T @ coeff)
    rank = max(g.shape[0] for g in grams)
    stack = np.zeros((len(grams), rank, rank), dtype=np.complex128)
    for bi, g in enumerate(grams):
        stack[bi, :g.shape[0], :g.shape[0]] = g
    lam = np.linalg.eigvalsh(stack)
    if lam.min() < -1e-12:
        raise IntegrityError(
            f"reduced density matrix has eigenvalue {lam.min():.3e}")
    lam = lam[lam > 1e-14]
    # subtracting from 0.0 keeps a zero entropy at +0.0, not -0.0
    return 0.0 - float((lam * np.log(lam)).sum())


def subsystem_expectation(rdm: ReducedDensityMatrix,
                          operator: np.ndarray) -> complex:
    """tr(rho_S A) for an operator over system configurations."""
    op = np.asarray(operator)
    if op.shape != rdm.matrix.shape:
        raise ValueError(
            f"operator shape {op.shape} does not match the "
            f"{rdm.matrix.shape} reduced matrix")
    return complex(np.einsum("ij,ji->", rdm.matrix, op))


def system_number_operator(pm: PartitionMap) -> np.ndarray:
    """Total particle number on the system side, diagonal."""
    return np.diag(pm.system_configs.sum(axis=1).astype(float))


def mode_number_operator(pm: PartitionMap, mode: int) -> np.ndarray:
    """Occupation of one system mode, diagonal over system configurations."""
    if mode not in pm.system_modes:
        raise ValueError(f"mode {mode} is not a system mode {pm.system_modes}")
    slot = pm.system_modes.index(mode)
    return np.diag(pm.system_configs[:, slot].astype(float))
