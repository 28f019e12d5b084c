import numpy as np
import pytest

from bosetherm import StateVector, enumerate_basis
from bosetherm.errors import EmptyWindowError
from bosetherm.hamiltonian import (EigenSystem, HamiltonianParams,
                                   build_hamiltonian, diagonalize)
from bosetherm.states import microcanonical_state, occupation_state, state_spectrum


@pytest.fixture(scope="module")
def small_eig():
    p = HamiltonianParams(num_modes=3, num_particles=4, level_spacing=10.0,
                          hopping=1.0, u_intra=1.0, u_inter=0.1)
    return diagonalize(build_hamiltonian(p))


def test_occupation_state_roundtrip():
    basis = enumerate_basis(3, 4)
    psi = occupation_state(basis, (1, 2, 1))
    assert psi.norm() == pytest.approx(1.0)
    idx = basis.index_of((1, 2, 1))
    assert psi.amplitudes[idx] == 1.0
    assert np.count_nonzero(psi.amplitudes) == 1


def test_microcanonical_equal_weights(small_eig):
    eig = small_eig
    lo, hi = eig.energies[4] - 1e-9, eig.energies[8] + 1e-9
    psi = microcanonical_state(eig, lo, hi)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)
    spec = state_spectrum(eig, psi)
    assert spec.level_count == 5
    assert np.allclose(spec.weights, 0.2)
    assert spec.mean_energy == pytest.approx(
        float(eig.energies[4:9].mean()), abs=1e-10)


def test_microcanonical_empty_window(small_eig):
    eig = small_eig
    gap_lo = float(eig.energies[2]) + 1e-6
    gap_hi = float(eig.energies[3]) - 1e-6
    if gap_hi <= gap_lo:
        pytest.skip("spectrum has no usable gap here")
    with pytest.raises(EmptyWindowError, match="nearest level"):
        microcanonical_state(eig, gap_lo, gap_hi)


def test_microcanonical_random_phases_keep_weights(small_eig):
    eig = small_eig
    lo, hi = eig.energies[3], eig.energies[10]
    flat = microcanonical_state(eig, lo, hi)
    seeded = microcanonical_state(eig, lo, hi, phase_seed=7)
    again = microcanonical_state(eig, lo, hi, phase_seed=7)
    assert np.allclose(seeded.amplitudes, again.amplitudes)
    assert not np.allclose(seeded.amplitudes, flat.amplitudes)
    w_flat = state_spectrum(eig, flat).weights
    w_seed = state_spectrum(eig, seeded).weights
    assert np.allclose(w_flat, w_seed, atol=1e-12)
    assert seeded.norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("phase_seed", [None, 7])
def test_microcanonical_equal_phases_ignore_eigenvector_signs(small_eig,
                                                              phase_seed):
    eig = small_eig
    lo, hi = eig.energies[3], eig.energies[10]
    signs = np.where(np.arange(eig.basis.dim) % 3 == 1, -1.0, 1.0)
    flipped = EigenSystem(eig.basis, eig.energies, eig.vectors * signs)
    want = microcanonical_state(eig, lo, hi, phase_seed=phase_seed)
    got = microcanonical_state(flipped, lo, hi, phase_seed=phase_seed)
    assert np.abs(got.amplitudes - want.amplitudes).max() <= 1e-12


def test_state_spectrum_of_eigenvector(small_eig):
    eig = small_eig
    psi = StateVector(eig.basis, eig.vectors[:, 6].copy())
    spec = state_spectrum(eig, psi)
    assert spec.level_count == 1
    assert spec.mean_energy == pytest.approx(float(eig.energies[6]))
    assert spec.spectral_width == pytest.approx(0.0, abs=1e-7)
    assert spec.weights[0] == pytest.approx(1.0)


def test_state_spectrum_weights_sum_to_one(small_eig):
    eig = small_eig
    basis = eig.basis
    psi = occupation_state(basis, (4, 0, 0))
    spec = state_spectrum(eig, psi, threshold=0.0)
    assert spec.weights.sum() == pytest.approx(1.0, abs=1e-12)
    # width must match a direct second moment through the Hamiltonian
    p = HamiltonianParams(num_modes=3, num_particles=4, level_spacing=10.0,
                          hopping=1.0, u_intra=1.0, u_inter=0.1)
    h = build_hamiltonian(p).matrix
    e1 = float(np.vdot(psi.amplitudes, h @ psi.amplitudes).real)
    e2 = float(np.vdot(psi.amplitudes, h @ (h @ psi.amplitudes)).real)
    assert spec.mean_energy == pytest.approx(e1, abs=1e-9)
    assert spec.spectral_width == pytest.approx(np.sqrt(e2 - e1 ** 2),
                                                abs=1e-8)
