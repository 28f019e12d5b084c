import math

import numpy as np
import pytest

import oracles
from bosetherm import StateVector, apply_number, enumerate_basis, overlap
from bosetherm.errors import IntegrityError, SectorMismatchError
from bosetherm.partition import (
    ReducedDensityMatrix,
    build_partition,
    entanglement_entropy,
    mode_number_operator,
    reduced_density,
    subsystem_expectation,
    system_number_operator,
)
from bosetherm.states import occupation_state


def random_state(basis, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    return StateVector(basis, amps / np.linalg.norm(amps))


def test_configuration_counts_at_full_size():
    basis = enumerate_basis(5, 25)
    pm = build_partition(basis, (2, 3, 4))
    assert pm.system_size == 3276
    assert pm.reservoir_size == 351
    assert pm.max_entropy == pytest.approx(math.log(351))
    pm_small = build_partition(basis, (0, 1))
    assert pm_small.system_size == 351


def test_reduced_density_matches_brute_force():
    basis = enumerate_basis(4, 4)
    pm = build_partition(basis, (1, 3))
    psi = random_state(basis, 21)
    rho = reduced_density(psi, pm).matrix
    config_index = {tuple(int(v) for v in row): k
                    for k, row in enumerate(pm.system_configs)}
    ref = oracles.brute_partial_trace(basis.states, pm.system_modes,
                                      pm.reservoir_modes, psi.amplitudes,
                                      config_index)
    assert np.abs(rho - ref).max() < 1e-12


# (modes, particles, system modes): the system side smaller in every
# block, larger in every block, non-contiguous, and mixed
SCHMIDT_CASES = [(5, 4, (0,)), (5, 4, (0, 1, 2, 3)), (4, 4, (1, 3)),
                 (5, 7, (2, 3, 4))]


@pytest.mark.parametrize("modes, particles, system", SCHMIDT_CASES)
def test_gather_is_a_permutation_of_the_sector(modes, particles, system):
    basis = enumerate_basis(modes, particles)
    pm = build_partition(basis, system)
    assert pm._gather.dtype == np.int64
    assert np.array_equal(np.sort(pm._gather), np.arange(basis.dim))


@pytest.mark.parametrize("modes, particles, system", SCHMIDT_CASES)
def test_entropy_matches_brute_force_spectrum(modes, particles, system):
    basis = enumerate_basis(modes, particles)
    pm = build_partition(basis, system)
    config_index = {tuple(int(v) for v in row): k
                    for k, row in enumerate(pm.system_configs)}
    for seed in range(3):
        psi = random_state(basis, 100 + seed)
        ref = oracles.brute_partial_trace(basis.states, pm.system_modes,
                                          pm.reservoir_modes, psi.amplitudes,
                                          config_index)
        lam = np.linalg.eigvalsh(ref)
        lam = lam[lam > 1e-14]
        want = -float((lam * np.log(lam)).sum())
        got = entanglement_entropy(reduced_density(psi, pm))
        assert abs(got - want) < 1e-12


@pytest.mark.parametrize("modes, particles, system", SCHMIDT_CASES)
def test_reduced_density_is_bit_equal_to_the_scatter(modes, particles,
                                                     system):
    basis = enumerate_basis(modes, particles)
    pm = build_partition(basis, system)
    psi = random_state(basis, 7)
    rdm = reduced_density(psi, pm)
    ref = oracles.scatter_reduced_density(basis.states, pm.system_modes,
                                          pm.reservoir_modes, psi.amplitudes)
    assert rdm.matrix.tobytes() == ref.tobytes()
    assert [c.shape for c in rdm.coefficients] == [
        (b.size, b.reservoir_size) for b in pm.blocks]


def test_entropy_does_not_form_the_dense_matrix(monkeypatch):
    basis = enumerate_basis(5, 6)
    pm = build_partition(basis, (2, 3, 4))
    psi = random_state(basis, 4)
    lazy = reduced_density(psi, pm)
    formed = reduced_density(psi, pm)
    dense = formed.matrix
    monkeypatch.setattr(ReducedDensityMatrix, "matrix", property(
        lambda rdm: pytest.fail("the entropy formed the dense matrix")))
    # blocks from the coefficients equal the slices of the formed matrix
    for bi in range(len(pm.blocks)):
        assert lazy.block(bi).tobytes() == formed.block(bi).tobytes()
    assert entanglement_entropy(lazy) == entanglement_entropy(formed)
    monkeypatch.undo()
    assert lazy.matrix.tobytes() == dense.tobytes()


def test_trace_is_one():
    basis = enumerate_basis(4, 5)
    pm = build_partition(basis, (0, 2))
    rdm = reduced_density(random_state(basis, 3), pm)
    assert rdm.trace() == pytest.approx(1.0, abs=1e-12)


def test_cross_block_coherences_vanish_identically():
    basis = enumerate_basis(4, 4)
    pm = build_partition(basis, (2, 3))
    rho = reduced_density(random_state(basis, 5), pm).matrix
    for a in pm.blocks:
        for b in pm.blocks:
            if a.particles == b.particles:
                continue
            sub = rho[a.offset:a.offset + a.size, b.offset:b.offset + b.size]
            assert np.abs(sub).max() == 0.0


def test_product_state_has_zero_entropy():
    basis = enumerate_basis(4, 4)
    pm = build_partition(basis, (1, 2))
    psi = occupation_state(basis, (2, 1, 1, 0))
    assert entanglement_entropy(reduced_density(psi, pm)) == pytest.approx(
        0.0, abs=1e-12)


def test_entropy_equals_reservoir_entropy():
    basis = enumerate_basis(4, 5)
    psi = random_state(basis, 8)
    pm_s = build_partition(basis, (0, 2))
    pm_r = build_partition(basis, (1, 3))
    s_sys = entanglement_entropy(reduced_density(psi, pm_s))
    s_res = entanglement_entropy(reduced_density(psi, pm_r))
    assert s_sys == pytest.approx(s_res, abs=1e-10)
    assert s_sys <= pm_s.max_entropy + 1e-12


def test_maximally_entangled_pair_hits_the_bound():
    # two modes, one particle: (1,0) and (0,1) with equal weight
    basis = enumerate_basis(2, 1)
    pm = build_partition(basis, (0,))
    amps = np.array([1.0, 1.0]) / np.sqrt(2.0)
    s = entanglement_entropy(reduced_density(StateVector(basis, amps), pm))
    assert s == pytest.approx(math.log(2.0), abs=1e-12)


def test_entropy_rejects_negative_weights():
    basis = enumerate_basis(2, 1)
    pm = build_partition(basis, (0,))
    bad = ReducedDensityMatrix(pm, np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(IntegrityError):
        entanglement_entropy(bad)


def test_subsystem_expectations_match_full_state():
    basis = enumerate_basis(4, 5)
    pm = build_partition(basis, (1, 3))
    psi = random_state(basis, 13)
    rdm = reduced_density(psi, pm)
    for mode in pm.system_modes:
        via_rdm = subsystem_expectation(rdm, mode_number_operator(pm, mode))
        direct = overlap(psi, apply_number(mode, psi))
        assert via_rdm.real == pytest.approx(direct.real, abs=1e-10)
        assert abs(via_rdm.imag) < 1e-12
    total = subsystem_expectation(rdm, system_number_operator(pm))
    direct_total = sum(overlap(psi, apply_number(m, psi)).real
                       for m in pm.system_modes)
    assert total.real == pytest.approx(direct_total, abs=1e-10)


def test_partition_validation():
    basis = enumerate_basis(3, 2)
    with pytest.raises(ValueError):
        build_partition(basis, ())
    with pytest.raises(ValueError):
        build_partition(basis, (0, 1, 2))
    with pytest.raises(ValueError):
        build_partition(basis, (5,))
    pm = build_partition(basis, (1,))
    other = enumerate_basis(3, 3)
    with pytest.raises(SectorMismatchError):
        reduced_density(occupation_state(other, (3, 0, 0)), pm)


def test_mode_number_operator_needs_system_mode():
    basis = enumerate_basis(3, 2)
    pm = build_partition(basis, (1,))
    with pytest.raises(ValueError):
        mode_number_operator(pm, 0)
