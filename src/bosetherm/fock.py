"""Bosonic Fock sectors over a finite ladder of trap levels.

A sector collects all occupation tuples (n_0, ..., n_{M-1}) with a fixed
total N. Tuples are ordered lexicographically decreasing, so (N, 0, ..., 0)
sits at index 0 and (0, ..., 0, N) at the end. Index lookup goes through
combinatorial ranking, O(M) per tuple, instead of a dict. Sectors are cached
module-wide because two-time Green functions walk the N-1 and N+1 sectors
next to N.

This module owns the ladder rule: b takes sqrt(n) and annihilates n = 0,
b^dagger takes sqrt(n + 1). Each sector caches one map per mode and
direction; the Hamiltonian builds its couplings from the lowering maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, SectorMismatchError

# Default guard against accidentally huge sectors; callers can override.
DIM_CAP = 40_000


def sector_dimension(num_modes: int, num_particles: int) -> int:
    """Number of occupation tuples: binomial(N + M - 1, M - 1)."""
    return math.comb(num_particles + num_modes - 1, num_modes - 1)


def _fill_states(num_modes: int, num_particles: int) -> np.ndarray:
    """Enumerate occupation tuples in lexicographically decreasing order."""
    if num_modes == 1:
        return np.array([[num_particles]], dtype=np.int64)
    blocks = []
    for head in range(num_particles, -1, -1):
        tail = _fill_states(num_modes - 1, num_particles - head)
        col = np.full((tail.shape[0], 1), head, dtype=np.int64)
        blocks.append(np.hstack((col, tail)))
    return np.vstack(blocks)


class FockBasis:
    """One fixed-particle-number sector.

    Attributes
    ----------
    num_modes, num_particles : int
    dim : int
        Sector dimension.
    states : (dim, num_modes) int64 array, read-only
        Occupation tuples in enumeration order.
    """

    def __init__(self, num_modes: int, num_particles: int):
        self.num_modes = int(num_modes)
        self.num_particles = int(num_particles)
        states = _fill_states(self.num_modes, self.num_particles)
        states.flags.writeable = False
        self.states = states
        self.dim = states.shape[0]
        # choose[n, k] = C(n, k), zero for k > n; sized for ranking lookups
        # and for one raising step out of this sector.
        nmax = self.num_particles + self.num_modes + 1
        choose = np.zeros((nmax + 1, self.num_modes + 1), dtype=np.int64)
        for n in range(nmax + 1):
            for k in range(min(n, self.num_modes) + 1):
                choose[n, k] = math.comb(n, k)
        self._choose = choose
        self._ladder_maps: dict[tuple[int, bool], tuple] = {}

    def __repr__(self) -> str:
        return (f"FockBasis(num_modes={self.num_modes}, "
                f"num_particles={self.num_particles}, dim={self.dim})")

    def index_array(self, occupations: np.ndarray) -> np.ndarray:
        """Rank each row of valid occupation tuples into this sector."""
        occ = np.asarray(occupations, dtype=np.int64)
        if occ.ndim != 2 or occ.shape[1] != self.num_modes:
            raise ValueError(f"expected shape (k, {self.num_modes}) occupations")
        rank = np.zeros(occ.shape[0], dtype=np.int64)
        rem = np.full(occ.shape[0], self.num_particles, dtype=np.int64)
        for j in range(self.num_modes - 1):
            m = self.num_modes - j
            # states with a larger entry at slot j come first
            rank += self._choose[rem - occ[:, j] + m - 2, m - 1]
            rem -= occ[:, j]
        return rank

    def index_of(self, occupation) -> int:
        """Index of one occupation tuple; validates membership."""
        occ = np.asarray(occupation, dtype=np.int64)
        if occ.shape != (self.num_modes,):
            raise ValueError(f"occupation must have {self.num_modes} entries")
        if (occ < 0).any() or occ.sum() != self.num_particles:
            raise ValueError(
                f"{tuple(int(v) for v in occ)} is not a tuple of "
                f"{self.num_particles} particles")
        return int(self.index_array(occ[None, :])[0])

    def occupation(self, index: int) -> tuple[int, ...]:
        return tuple(int(v) for v in self.states[index])

    def _check_mode(self, mode: int) -> int:
        mode = int(mode)
        if not 0 <= mode < self.num_modes:
            raise ValueError(f"mode {mode} outside 0..{self.num_modes - 1}")
        return mode

    def _ladder_map(self, mode: int, raising: bool):
        mode = self._check_mode(mode)
        key = (mode, raising)
        if key not in self._ladder_maps:
            if not raising and self.num_particles == 0:
                raise ValueError("cannot annihilate out of the vacuum sector")
            target = enumerate_basis(self.num_modes,
                                     self.num_particles + (1 if raising else -1))
            n = self.states[:, mode]
            src = np.arange(self.dim) if raising else np.flatnonzero(n)
            moved = self.states[src]
            moved[:, mode] += 1 if raising else -1
            # sqrt(n + 1) going up, sqrt(n) going down
            amp = np.sqrt(n[src] + (1.0 if raising else 0.0))
            self._ladder_maps[key] = (src, target.index_array(moved), amp, target)
        return self._ladder_maps[key]

    def lowering_map(self, mode: int):
        """(src, dst, amp) for b_mode mapping this sector into N-1.

        src indexes this sector, dst the (N-1)-sector, amp = sqrt(n_mode).
        The map is injective, so scattered writes need no accumulation.
        """
        return self._ladder_map(mode, False)

    def raising_map(self, mode: int):
        """(src, dst, amp) for b_mode^dagger into N+1; amp = sqrt(n+1)."""
        return self._ladder_map(mode, True)


def check_same_sector(basis: FockBasis, want: FockBasis, what: str) -> None:
    """Raise SectorMismatchError naming both sectors unless their totals
    (M, N) agree; the enumeration depends on nothing else."""
    if (basis.num_modes, basis.num_particles) != \
            (want.num_modes, want.num_particles):
        raise SectorMismatchError(f"{what}: {basis} is not {want}")


@lru_cache(maxsize=None)
def _cached_basis(num_modes: int, num_particles: int) -> FockBasis:
    return FockBasis(num_modes, num_particles)


def enumerate_basis(num_modes: int, num_particles: int,
                    max_dim: int = DIM_CAP) -> FockBasis:
    """Build (or fetch from cache) the sector with the given totals.

    Raises CapacityError when the closed-form dimension exceeds max_dim;
    the check runs before any allocation.
    """
    num_modes = int(num_modes)
    num_particles = int(num_particles)
    if num_modes < 1:
        raise ValueError("need at least one mode")
    if num_particles < 0:
        raise ValueError("particle number must be nonnegative")
    dim = sector_dimension(num_modes, num_particles)
    if dim > max_dim:
        raise CapacityError(
            f"sector ({num_modes} modes, {num_particles} particles) has "
            f"dimension {dim} > cap {max_dim}; raise max_dim to allow")
    return _cached_basis(num_modes, num_particles)


@dataclass
class StateVector:
    """Complex amplitudes over one sector.

    Physical states are unit norm; intermediates out of ladder operators are
    allowed to be unnormalized and show up via is_physical.
    """

    basis: FockBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amp.shape != (self.basis.dim,):
            raise ValueError(
                f"amplitudes shape {amp.shape} does not match sector "
                f"dimension {self.basis.dim}")
        self.amplitudes = amp

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @property
    def is_physical(self) -> bool:
        return abs(self.norm() - 1.0) <= 1e-8

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.basis, self.amplitudes / n)

    def copy(self) -> "StateVector":
        return StateVector(self.basis, self.amplitudes.copy())


def overlap(bra: StateVector, ket: StateVector) -> complex:
    """<bra|ket>, with the complex conjugate on the bra side."""
    check_same_sector(ket.basis, bra.basis, "overlap")
    return complex(np.vdot(bra.amplitudes, ket.amplitudes))


def _scatter(ladder_map, state: StateVector) -> StateVector:
    src, dst, amp, target = ladder_map
    out = np.zeros(target.dim, dtype=np.complex128)
    out[dst] = amp * state.amplitudes[src]
    return StateVector(target, out)


def apply_annihilation(mode: int, state: StateVector) -> StateVector:
    """b_mode |state>, landing in the (N-1)-sector."""
    return _scatter(state.basis.lowering_map(mode), state)


def apply_creation(mode: int, state: StateVector) -> StateVector:
    """b_mode^dagger |state>, landing in the (N+1)-sector."""
    return _scatter(state.basis.raising_map(mode), state)


def apply_number(mode: int, state: StateVector) -> StateVector:
    """n_mode |state>, same sector."""
    state.basis._check_mode(mode)
    return StateVector(state.basis,
                       state.amplitudes * state.basis.states[:, mode])
