import dataclasses
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from bosetherm import StateVector, apply_number, enumerate_basis, overlap
from bosetherm.errors import (EmptyWindowError, IntegrityError,
                              SectorMismatchError)
from bosetherm.fock import FockBasis
from bosetherm.partition import build_partition, reduced_density
from bosetherm.propagator import (PropagatorConfig, build_eigen_propagator,
                                  evolve_to)
from bosetherm.hamiltonian import (
    CHECK_ROWS,
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
                                             (3, 0), (5, 1), (5, 4), (4, 6)])
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


@pytest.mark.parametrize("particles", [0, 1, 4])
def test_apply_matches_dense(particles):
    p = params_for(3, particles)
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


def _assert_pivots_real_and_positive(vectors):
    mags = np.abs(vectors)
    pivot = np.argmax(mags >= mags.max(axis=0) * (1.0 - 1e-8), axis=0)
    lead = vectors[pivot, np.arange(vectors.shape[1])]
    assert np.all(lead.real > 0.0)
    assert np.abs(lead.imag).max() <= 1e-15 * lead.real.min()


def test_diagonalize_makes_each_pivot_real_and_positive():
    op = build_hamiltonian(params_for(3, 3))
    eig = diagonalize(op)
    _assert_pivots_real_and_positive(eig.vectors)
    complex_op = SectorOperator(op.basis, op.matrix + 0.3j * (
        np.triu(np.ones_like(op.matrix.real), 1)
        - np.tril(np.ones_like(op.matrix.real), -1)))
    eig = diagonalize(complex_op)
    _assert_pivots_real_and_positive(eig.vectors)
    recon = (eig.vectors * eig.energies) @ eig.vectors.conj().T
    assert np.abs(recon - complex_op.matrix).max() < 1e-10


_DIAGONALIZE_N6 = """
import sys
import numpy as np
from bosetherm import HamiltonianParams, build_hamiltonian, diagonalize
op = build_hamiltonian(HamiltonianParams(5, 6, 10.0, 1.0, 1.0, 0.1))
np.save(sys.argv[1], diagonalize(op).vectors)
"""


def test_diagonalize_vectors_agree_across_blas_thread_counts(tmp_path):
    import bosetherm

    # the child imports the package this test imported
    src = str(Path(bosetherm.__file__).resolve().parents[1])
    vectors = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items()
               if not k.endswith("_NUM_THREADS")}
        env.update(BOSETHERM_THREADS=threads, PYTHONPATH=src)
        out = tmp_path / f"vectors_{threads}.npy"
        subprocess.run([sys.executable, "-c", _DIAGONALIZE_N6, str(out)],
                       env=env, check=True)
        vectors.append(np.load(out))
    assert vectors[0].shape == (210, 210)
    defect = float(np.abs(vectors[0] - vectors[1]).max())
    assert defect < 1e-10


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


def random_hermitian(dim, rng):
    """A complex Hermitian matrix as test_01 draws them."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / (2.0 * np.sqrt(dim))


def dense_hermiticity_message(m):
    """The check's message from the full-size formula it replaces."""
    defect = float(np.abs(m - m.conj().T).max())
    scale = float(np.abs(m).max())
    return f"matrix is not Hermitian: defect {defect:.3e} vs scale {scale:.3e}"


# a dim of 150 ends in a partial block of 22 rows; a defect that only the
# last block sees, one whose rows straddle the first block edge, and
# matrices smaller than one block
@pytest.mark.parametrize("dim,rows,cols", [
    (150, slice(140, 147), slice(141, 150)),
    (150, slice(CHECK_ROWS - 3, CHECK_ROWS + 2), slice(10, 20)),
    (CHECK_ROWS - 1, slice(3, 9), slice(20, 30)),
    (2, slice(0, 1), slice(1, 2)),
])
def test_blockwise_hermiticity_check_reports_the_dense_defect(dim, rows,
                                                              cols):
    rng = np.random.default_rng(dim)
    m = random_hermitian(dim, rng)
    m[rows, cols] += 1e-9 * (rng.standard_normal(m[rows, cols].shape)
                             + 1j)
    basis = FockBasis(2, dim - 1)
    with pytest.raises(IntegrityError,
                       match=re.escape(dense_hermiticity_message(m)) + "$"):
        SectorOperator(basis, m)


def test_blockwise_hermiticity_check_passes_hermitian_matrices_untouched():
    rng = np.random.default_rng(11)
    for dim in (1, CHECK_ROWS, CHECK_ROWS + 1, 60, 330, 500):
        m = random_hermitian(dim, rng)
        kept = m.copy()
        op = SectorOperator(FockBasis(2, dim - 1), m)
        assert op.matrix is m
        assert m.tobytes() == kept.tobytes()


def test_hermiticity_check_builds_no_full_size_temporary():
    op = build_hamiltonian(params_for(5, 7))  # dim 330
    dim = op.basis.dim
    assert dim > 5 * CHECK_ROWS
    tracemalloc.start()
    try:
        SectorOperator(op.basis, op.matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # half of one full-size complex matrix: the dense formula's difference
    # and its conjugate transpose took two whole ones
    assert peak < 16 * dim * dim / 2, (peak, dim)


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


@pytest.mark.parametrize("call", ["expectation", "apply", "coefficients",
                                  "evolve_to", "reduced_density",
                                  "build_hamiltonian", "apply_hamiltonian"])
def test_state_of_another_sector_is_refused(call):
    # (M, N) = (4, 1) and (2, 3) both have dimension 4, so only the sector
    # check can tell the state from one of the operator's own
    op = build_hamiltonian(params_for(2, 3))
    eig = diagonalize(op)
    config = PropagatorConfig(base_step=0.01, depth=2)
    calls = {
        "expectation": op.expectation,
        "apply": op.apply,
        "coefficients": eig.coefficients,
        "evolve_to": lambda state: evolve_to(
            build_eigen_propagator(op, config, eig), state, 0.01),
        "reduced_density": lambda state: reduced_density(
            state, build_partition(op.basis, (0,))),
        # the model builds on any particle number of its own mode count
        "build_hamiltonian": lambda state: build_hamiltonian(params_for(2, 3),
                                                             state.basis),
        "apply_hamiltonian": lambda state: apply_hamiltonian(params_for(2, 3),
                                                             state),
    }
    amplitudes = np.full(4, 0.5, dtype=complex)
    with pytest.raises(SectorMismatchError, match="num_modes=4"):
        calls[call](StateVector(enumerate_basis(4, 1), amplitudes))
    # the same sector built apart from the cache is the same sector
    calls[call](StateVector(FockBasis(2, 3), amplitudes))
