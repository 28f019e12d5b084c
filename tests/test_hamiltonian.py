import dataclasses

import numpy as np
import pytest

import oracles
from bosetherm import StateVector, apply_number, enumerate_basis, overlap
from bosetherm.errors import EmptyWindowError, IntegrityError
from bosetherm.hamiltonian import (
    GOE_MEAN_R,
    POISSON_MEAN_R,
    HamiltonianParams,
    SectorOperator,
    apply_hamiltonian,
    build_hamiltonian,
    diagonalize,
    r_ratio,
)


def params_for(modes, particles, delta=10.0, j=1.0, u=1.0, uprime=0.1):
    return HamiltonianParams(num_modes=modes, num_particles=particles,
                             level_spacing=delta, hopping=j,
                             u_intra=u, u_inter=uprime)


def test_single_particle_two_levels():
    p = params_for(2, 1, delta=3.5, j=0.7)
    h = build_hamiltonian(p).matrix
    # basis order (1,0), (0,1)
    assert np.allclose(h, [[0.0, 0.7], [0.7, 3.5]], atol=1e-14)


def test_two_particles_two_levels_diagonal_without_mixing():
    p = params_for(2, 2, delta=4.0, j=0.9, u=1.3, uprime=0.0)
    h = build_hamiltonian(p).matrix
    # basis order (2,0), (1,1), (0,2)
    assert np.allclose(np.diag(h).real, [2 * 1.3, 4.0, 2 * 4.0 + 2 * 1.3])
    # b_0^dag b_1 on (1,1): sqrt(1) down, sqrt(2) up
    assert h[0, 1] == pytest.approx(0.9 * np.sqrt(2), abs=1e-14)


@pytest.mark.parametrize("modes,particles", [(2, 3), (3, 3), (4, 2), (1, 3),
                                             (3, 0), (5, 1)])
def test_matches_brute_force_product_construction(modes, particles):
    p = params_for(modes, particles, delta=7.3, j=1.0, u=0.9, uprime=0.23)
    h = build_hamiltonian(p).matrix
    href = oracles.brute_hamiltonian(p)
    assert np.abs(h - href).max() < 1e-11


def test_matrix_is_real_symmetric():
    p = params_for(4, 5)
    h = build_hamiltonian(p).matrix
    assert np.abs(h.imag).max() == 0.0
    assert np.abs(h - h.T).max() < 1e-12


def test_apply_matches_dense():
    p = params_for(3, 4)
    op = build_hamiltonian(p)
    rng = np.random.default_rng(5)
    amps = rng.normal(size=op.basis.dim) + 1j * rng.normal(size=op.basis.dim)
    psi = StateVector(op.basis, amps)
    direct = apply_hamiltonian(p, psi).amplitudes
    assert np.allclose(direct, op.matrix @ amps, atol=1e-12)


def test_condensate_diagonal_element_at_full_size():
    # all 25 particles in the lowest level: only the same-level pair term
    # contributes, U * N * (N - 1) = 600 in units of J
    p = params_for(5, 25)
    basis = enumerate_basis(5, 25)
    amps = np.zeros(basis.dim, dtype=np.complex128)
    top = basis.index_of((25, 0, 0, 0, 0))
    amps[top] = 1.0
    out = apply_hamiltonian(p, StateVector(basis, amps))
    assert out.amplitudes[top].real == pytest.approx(600.0, abs=1e-9)


def test_total_number_is_conserved():
    p = params_for(4, 3)
    basis = enumerate_basis(4, 3)
    rng = np.random.default_rng(17)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    amps /= np.linalg.norm(amps)
    psi = StateVector(basis, amps)
    h_psi = apply_hamiltonian(p, psi)
    lhs = sum(apply_number(m, h_psi).amplitudes for m in range(4))
    rhs = apply_hamiltonian(
        p, StateVector(basis, sum(apply_number(m, psi).amplitudes
                                  for m in range(4))))
    assert np.allclose(lhs, rhs.amplitudes, atol=1e-10)


def test_diagonalize_reconstructs():
    p = params_for(3, 3)
    op = build_hamiltonian(p)
    eig = diagonalize(op)
    assert np.all(np.diff(eig.energies) >= 0)
    recon = (eig.vectors * eig.energies) @ eig.vectors.conj().T
    assert np.abs(recon - op.matrix).max() < 1e-10


def test_diagonalize_keeps_real_vectors_real():
    op = build_hamiltonian(params_for(3, 3))
    eig = diagonalize(op)
    assert eig.vectors.dtype == np.float64
    assert eig.energies.dtype == np.float64
    assert np.abs(eig.vectors.T @ eig.vectors - np.eye(op.basis.dim)).max() \
        < 1e-12
    complex_op = SectorOperator(op.basis, op.matrix + 1e-3j * (
        np.triu(np.ones_like(op.matrix.real), 1)
        - np.tril(np.ones_like(op.matrix.real), -1)))
    assert diagonalize(complex_op).vectors.dtype == np.complex128


def test_diagonalize_rejects_non_hermitian():
    basis = enumerate_basis(2, 1)
    with pytest.raises(IntegrityError):
        diagonalize(SectorOperator(basis, np.array([[0.0, 1.0], [0.0, 0.0]],
                                                   dtype=np.complex128)))


def test_sector_operator_checks_hermiticity_once_and_stays_frozen():
    op = build_hamiltonian(params_for(3, 2))
    scale = op.max_element()
    skew = np.zeros_like(op.matrix)
    skew[0, 1] = 1.0
    # the relative rule: a defect of 1e-13 of the largest element passes
    SectorOperator(op.basis, op.matrix + 1e-13 * scale * skew)
    with pytest.raises(IntegrityError, match="not Hermitian"):
        SectorOperator(op.basis, op.matrix + 1e-11 * scale * skew)
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.matrix = op.matrix + 1e-3 * skew


def test_gap_ratio_poisson_reference():
    rng = np.random.default_rng(42)
    levels = np.sort(rng.uniform(0.0, 1.0, size=20001))
    report = r_ratio(levels)
    assert report.mean_ratio == pytest.approx(POISSON_MEAN_R, abs=0.01)


def test_gap_ratio_goe_reference():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(1200, 1200))
    levels = np.linalg.eigvalsh((a + a.T) / 2.0)
    report = r_ratio(levels)
    assert report.mean_ratio == pytest.approx(GOE_MEAN_R, abs=0.015)


def test_gap_ratio_picket_fence():
    report = r_ratio(np.arange(40, dtype=float))
    assert report.mean_ratio == pytest.approx(1.0)
    assert report.gap_count == 39


def test_gap_ratio_merges_degeneracies():
    base = np.array([0.0, 1.0, 2.0, 3.0, 5.0, 8.0])
    doubled = np.sort(np.concatenate([base, [1.0]]))
    assert r_ratio(doubled).mean_ratio == pytest.approx(
        r_ratio(base).mean_ratio)


def test_gap_ratio_window():
    levels = np.arange(100, dtype=float)
    report = r_ratio(levels, window=(10.0, 20.0))
    assert report.level_count == 11
    with pytest.raises(EmptyWindowError):
        r_ratio(levels, window=(10.0, 11.0))
