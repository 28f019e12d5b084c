"""Initial states and their footprint on the energy eigenbasis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyWindowError
from .fock import FockBasis, StateVector
from .hamiltonian import EigenSystem, _canonical_phases


def occupation_state(basis: FockBasis, occupation) -> StateVector:
    """Unit amplitude on a single occupation tuple."""
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[basis.index_of(occupation)] = 1.0
    return StateVector(basis, amps)


def microcanonical_state(eig: EigenSystem, e_min: float, e_max: float,
                         phase_seed: int | None = None) -> StateVector:
    """Equal-weight combination of all eigenstates inside [e_min, e_max].

    Each eigenvector is first rotated so that its pivot is real and
    positive, the convention of diagonalize (see _canonical_phases), which
    other eigensolvers need not keep. Without phase_seed every component
    then has phase +1; with phase_seed each gets a reproducible random
    phase on top. Either way the state is the same whatever signs or
    phases the eigensolver picked.
    """
    if e_max < e_min:
        raise ValueError("window must have e_min <= e_max")
    selected = np.nonzero((eig.energies >= e_min) & (eig.energies <= e_max))[0]
    if selected.size == 0:
        below = eig.energies[eig.energies < e_min]
        above = eig.energies[eig.energies > e_max]
        hints = []
        if below.size:
            hints.append(f"nearest level below: {below[-1]:.6f}")
        if above.size:
            hints.append(f"nearest level above: {above[0]:.6f}")
        raise EmptyWindowError(
            f"no levels in [{e_min}, {e_max}]; " + "; ".join(hints))
    columns = eig.vectors[:, selected]
    phases = _canonical_phases(columns)
    if phase_seed is not None:
        rng = np.random.default_rng(phase_seed)
        phases = phases * np.exp(2j * np.pi * rng.uniform(size=selected.size))
    amps = (columns @ phases) / np.sqrt(selected.size)
    return StateVector(eig.basis, amps)


@dataclass(frozen=True)
class StateSpectrum:
    """Eigenbasis weight distribution of a state."""

    energies: np.ndarray       # levels carrying weight above the threshold
    weights: np.ndarray
    mean_energy: float         # over the full distribution, not the stored part
    spectral_width: float
    level_count: int           # stored support size


def state_spectrum(eig: EigenSystem, state: StateVector,
                   threshold: float = 1e-12) -> StateSpectrum:
    """Weights |<alpha|psi>|^2 with mean energy and width.

    Mean and width use every level; the stored support drops weights below
    threshold.
    """
    coeff = eig.coefficients(state)
    weights = np.abs(coeff) ** 2
    total = float(weights.sum())
    if total == 0.0:
        raise ValueError("state has zero norm")
    mean = float((weights * eig.energies).sum() / total)
    var = float((weights * (eig.energies - mean) ** 2).sum() / total)
    keep = weights > threshold
    return StateSpectrum(energies=eig.energies[keep].copy(),
                         weights=weights[keep].copy(),
                         mean_energy=mean,
                         spectral_width=float(np.sqrt(max(var, 0.0))),
                         level_count=int(keep.sum()))
