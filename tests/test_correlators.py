"""Two-time correlator checks against dense Heisenberg-picture oracles."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

from bosetherm.correlators import (
    WINDOW_KINDS,
    CorrelatorSpectrum,
    SectorLadders,
    TwoTimeSeries,
    build_sector_ladders,
    density_correlators,
    keldysh_and_spectral,
    nyquist_energy_grid,
    single_particle_correlator_set,
    single_particle_correlators,
    tau_grid,
    to_energy,
    trace_levels,
    window_values,
)
from bosetherm.errors import (
    AliasingError,
    GridMismatchError,
    SectorMismatchError,
    UnreachableTimeError,
)
from bosetherm.fock import StateVector, apply_number, enumerate_basis
from bosetherm.hamiltonian import HamiltonianParams, build_hamiltonian
from bosetherm.propagator import (
    EigenPropagator,
    PropagatorConfig,
    PropagatorLadder,
    build_ladder,
    evolve_to,
)

import oracles

PARAMS_M3N2 = HamiltonianParams(num_modes=3, num_particles=2,
                                level_spacing=10.0, hopping=1.0,
                                u_intra=1.0, u_inter=0.1)


def random_state(basis, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    amps /= np.linalg.norm(amps)
    return StateVector(basis, amps)


@pytest.fixture(scope="module")
def small_setup():
    ladders = build_sector_ladders(PARAMS_M3N2, horizon=8.0, tau_step=0.25)
    psi0 = random_state(ladders.center.basis, seed=7)
    return ladders, psi0


def ladder_sectors(params, config) -> SectorLadders:
    """Taylor ladders for the N - 1, N and N + 1 sectors on one lattice."""
    n = params.num_particles
    lower, center, upper = (build_ladder(build_hamiltonian(
        dataclasses.replace(params, num_particles=m)), config)
        for m in (n - 1, n, n + 1))
    return SectorLadders(center=center, lower=lower, upper=upper)


@pytest.fixture(scope="module")
def ladder_setup(small_setup):
    """Taylor ladders on the lattice of small_setup's eigen propagators."""
    eigen, psi0 = small_setup
    return ladder_sectors(PARAMS_M3N2, eigen.center.config), psi0


def test_tau_grid_is_symmetric_and_uniform():
    tau = tau_grid(2.0, 0.25)
    assert tau.size == 17
    assert tau[0] == -2.0 and tau[-1] == 2.0
    assert np.allclose(np.diff(tau), 0.25)
    with pytest.raises(GridMismatchError):
        tau_grid(1.0, 0.3)


def test_series_grid_validation():
    good = tau_grid(1.0, 0.5)
    with pytest.raises(GridMismatchError):
        TwoTimeSeries("lesser", (0, 0), 0.0, good, np.zeros(4))
    with pytest.raises(GridMismatchError):
        TwoTimeSeries("lesser", (0, 0), 0.0, np.array([0.0, 0.5, 1.0]),
                      np.zeros(3))
    with pytest.raises(ValueError):
        TwoTimeSeries("nonsense", (0, 0), 0.0, good, np.zeros(5))


def test_single_particle_matches_dense_heisenberg(small_setup):
    ladders, psi0 = small_setup
    tau = tau_grid(2.0, 0.25)
    pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 1)]
    result = single_particle_correlator_set(psi0, ladders, pairs, 1.3, tau)
    com = result[(0, 0)][0].com_time
    lesser_ref, greater_ref = oracles.heisenberg_green_functions(
        PARAMS_M3N2, psi0.amplitudes, com, tau)
    for (i, j), (lesser, greater) in result.items():
        np.testing.assert_allclose(lesser.values, lesser_ref[i, j],
                                   atol=1e-6)
        np.testing.assert_allclose(greater.values, greater_ref[i, j],
                                   atol=1e-6)


def test_single_pair_wrapper_matches_set(small_setup):
    ladders, psi0 = small_setup
    tau = tau_grid(1.0, 0.25)
    lesser, greater = single_particle_correlators(psi0, ladders, (0, 1),
                                                  0.9, tau)
    both = single_particle_correlator_set(psi0, ladders, [(0, 1)], 0.9, tau)
    np.testing.assert_array_equal(lesser.values, both[(0, 1)][0].values)
    np.testing.assert_array_equal(greater.values, both[(0, 1)][1].values)


def test_density_matches_dense_heisenberg(small_setup):
    ladders, psi0 = small_setup
    tau = tau_grid(2.0, 0.25)
    fwd, rev = density_correlators(psi0, ladders, (0, 2), 1.3, tau)
    fwd_ref, rev_ref = oracles.heisenberg_density_correlators(
        PARAMS_M3N2, psi0.amplitudes, fwd.com_time, tau, 0, 2)
    np.testing.assert_allclose(fwd.values, fwd_ref, atol=1e-6)
    np.testing.assert_allclose(rev.values, rev_ref, atol=1e-6)


@pytest.mark.parametrize("pairs", [
    [(0, 0), (1, 1), (2, 2)],
    [(0, 1), (0, 2)],            # i modes {0}, j modes {1, 2}
    [(2, 0), (1, 1), (0, 2)],
])
def test_batched_green_sweep_matches_per_k_walk(small_setup, pairs):
    ladders, psi0 = small_setup
    tau = tau_grid(2.0, 0.25)
    modes = {m for p in pairs for m in p}
    # the walks of the 9 k values need at least three blocks of dim(N)
    assert 9 * len(modes) > 2 * ladders.center.basis.dim
    result = single_particle_correlator_set(psi0, ladders, pairs, 1.3, tau)
    lesser_ref, greater_ref = oracles.per_k_green_walk(psi0, ladders, pairs,
                                                       1.3, tau)
    for p, pair in enumerate(pairs):
        lesser, greater = result[pair]
        np.testing.assert_allclose(lesser.values, lesser_ref[p], rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(greater.values, greater_ref[p], rtol=0,
                                   atol=1e-12)


@pytest.mark.parametrize("pair", [(0, 2), (1, 1), (2, 0)])
def test_batched_density_sweep_matches_per_k_walk(small_setup, pair):
    ladders, psi0 = small_setup
    tau = tau_grid(2.0, 0.25)
    # at least two walks per k: the 9 k values need three blocks of dim(N)
    assert 9 * 2 > 2 * ladders.center.basis.dim
    fwd, rev = density_correlators(psi0, ladders, pair, 1.3, tau)
    fwd_ref, rev_ref = oracles.per_k_density_walk(psi0, ladders.center, pair,
                                                  1.3, tau)
    np.testing.assert_allclose(fwd.values, fwd_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rev.values, rev_ref, rtol=0, atol=1e-12)


def test_density_forward_reversed_are_conjugates(small_setup):
    # the two series come from different advance chains, so this is a real
    # numerical consistency check rather than an arithmetic identity
    ladders, psi0 = small_setup
    tau = tau_grid(2.0, 0.5)
    fwd, rev = density_correlators(psi0, ladders, (1, 2), 2.0, tau)
    np.testing.assert_allclose(fwd.values, np.conj(rev.values), atol=1e-7)


def test_lesser_swap_symmetry(small_setup):
    # G<_ji(-tau) = -conj(G<_ij(tau)); the two sides walk different chains
    ladders, psi0 = small_setup
    tau = tau_grid(2.0, 0.25)
    result = single_particle_correlator_set(psi0, ladders, [(0, 1), (1, 0)],
                                            1.3, tau)
    lesser_01 = result[(0, 1)][0].values
    lesser_10 = result[(1, 0)][0].values
    np.testing.assert_allclose(lesser_10[::-1], -np.conj(lesser_01),
                               atol=1e-7)


def test_equal_time_identities():
    params = HamiltonianParams(num_modes=4, num_particles=3,
                               level_spacing=10.0, hopping=1.0,
                               u_intra=1.0, u_inter=0.1)
    ladders = build_sector_ladders(params, horizon=6.0, tau_step=0.2)
    psi0 = random_state(ladders.center.basis, seed=11)
    tau = tau_grid(0.4, 0.2)
    mid = tau.size // 2
    psi_t = evolve_to(ladders.center, psi0, 1.7)
    for i in range(params.num_modes):
        lesser, greater = single_particle_correlators(psi0, ladders, (i, i),
                                                      1.7, tau)
        keldysh, spectral = keldysh_and_spectral(lesser, greater)
        occupation = np.vdot(psi_t.amplitudes,
                             apply_number(i, psi_t).amplitudes).real
        assert abs(spectral.values[mid] - 1.0) < 1e-8
        assert abs(1j * keldysh.values[mid] - (2 * occupation + 1)) < 1e-8


def test_keldysh_and_spectral_validation(small_setup):
    ladders, psi0 = small_setup
    tau = tau_grid(1.0, 0.25)
    lesser, greater = single_particle_correlators(psi0, ladders, (0, 0),
                                                  1.0, tau)
    with pytest.raises(ValueError):
        keldysh_and_spectral(greater, lesser)
    other, _ = single_particle_correlators(psi0, ladders, (1, 1), 1.0, tau)
    with pytest.raises(GridMismatchError):
        keldysh_and_spectral(other, greater)


def test_trace_spectral_invariant_under_mode_mixing():
    """Trace of the spectral function is blind to a unitary mixing of the
    mode operators; the mixed side is computed densely and independently."""
    params = HamiltonianParams(num_modes=2, num_particles=2,
                               level_spacing=10.0, hopping=1.0,
                               u_intra=1.0, u_inter=0.1)
    ladders = build_sector_ladders(params, horizon=6.0, tau_step=0.25)
    psi0 = random_state(ladders.center.basis, seed=3)
    tau = tau_grid(1.5, 0.25)
    com = 1.1
    pairs = [(i, i) for i in range(params.num_modes)]
    result = single_particle_correlator_set(psi0, ladders, pairs, com, tau)
    com_actual = result[(0, 0)][0].com_time
    package_trace = np.zeros(tau.size, dtype=np.complex128)
    for pair in pairs:
        _, spectral = keldysh_and_spectral(*result[pair])
        package_trace += spectral.values

    rng = np.random.default_rng(17)
    gauss = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    mixing, _ = np.linalg.qr(gauss)
    h2 = oracles.brute_hamiltonian(params)
    import dataclasses
    h1 = oracles.brute_hamiltonian(dataclasses.replace(params,
                                                       num_particles=1))
    h3 = oracles.brute_hamiltonian(dataclasses.replace(params,
                                                       num_particles=3))
    low = [oracles.annihilation_matrix(2, 2, m) for m in range(2)]
    drop = [oracles.annihilation_matrix(2, 3, m) for m in range(2)]
    mixed_low = [sum(mixing[k, l] * low[l] for l in range(2))
                 for k in range(2)]
    mixed_drop = [sum(mixing[k, l] * drop[l] for l in range(2))
                  for k in range(2)]
    mixed_trace = np.zeros(tau.size, dtype=np.complex128)
    for kt, t_rel in enumerate(tau):
        t1 = com_actual + t_rel / 2.0
        t2 = com_actual - t_rel / 2.0
        c1 = sla.expm(-1j * h2 * t1) @ psi0.amplitudes
        c2 = sla.expm(-1j * h2 * t2) @ psi0.amplitudes
        left1, left2 = sla.expm(1j * h1 * t1), sla.expm(1j * h1 * t2)
        up1, up2 = sla.expm(1j * h3 * t1), sla.expm(1j * h3 * t2)
        for k in range(2):
            down_1 = left1 @ (mixed_low[k] @ c1)
            down_2 = left2 @ (mixed_low[k] @ c2)
            raise_1 = up1 @ (mixed_drop[k].conj().T @ c1)
            raise_2 = up2 @ (mixed_drop[k].conj().T @ c2)
            lesser_kk = -1j * np.vdot(down_2, down_1)
            greater_kk = -1j * np.vdot(raise_1, raise_2)
            mixed_trace[kt] += 1j * (greater_kk - lesser_kk)
    np.testing.assert_allclose(package_trace, mixed_trace, atol=1e-6)


def test_to_energy_matches_direct_sum(small_setup):
    ladders, psi0 = small_setup
    tau = tau_grid(2.0, 0.25)
    lesser, _ = single_particle_correlators(psi0, ladders, (0, 0), 1.0, tau)
    energies = np.linspace(-4.0, 4.0, 9)
    spec = to_energy(lesser, energies, window="hann")
    w = 0.5 * (1.0 + np.cos(np.pi * tau / 2.0))
    for idx, e in enumerate(energies):
        direct = 0.25 * np.sum(w * lesser.values * np.exp(1j * e * tau))
        assert abs(spec.values[idx] - direct) < 1e-12
    assert spec.window == "hann" and spec.pair == (0, 0)


def test_pure_phase_series_peaks_at_its_frequency():
    tau = tau_grid(8.0, 0.1)
    e0 = 2.5
    series = TwoTimeSeries("keldysh", (0, 0), 0.0, tau,
                           np.exp(-1j * e0 * tau))
    spec = to_energy(series, np.array([e0]), window="rect")
    assert abs(spec.values[0] - 0.1 * tau.size) < 1e-10
    away = to_energy(series, np.array([e0 + 2.0]), window="hann")
    assert abs(away.values[0]) < 0.5 * abs(spec.values[0])


@pytest.mark.parametrize("window", ["hann", "rect"])
def test_discrete_sum_rule_on_canonical_grid(window):
    # (dE / 2 pi) sum_m f(E_m) = w(0) C(0) holds exactly on the conjugate
    # grid, for any series and window
    rng = np.random.default_rng(5)
    tau = tau_grid(3.0, 0.25)
    values = rng.normal(size=tau.size) + 1j * rng.normal(size=tau.size)
    series = TwoTimeSeries("spectral", (1, 1), 4.0, tau, values)
    energies = nyquist_energy_grid(tau)
    spec = to_energy(series, energies, window=window)
    de = energies[1] - energies[0]
    total = de / (2.0 * np.pi) * spec.values.sum()
    w0 = window_values(tau, window)[tau.size // 2]
    assert abs(total - w0 * values[tau.size // 2]) < 1e-12


def test_aliasing_beyond_nyquist_rejected():
    tau = tau_grid(2.0, 0.5)
    series = TwoTimeSeries("lesser", (0, 0), 0.0, tau, np.ones(tau.size))
    limit = np.pi / 0.5
    to_energy(series, np.array([0.999 * limit]))
    with pytest.raises(AliasingError):
        to_energy(series, np.array([1.01 * limit]))
    # an empty grid holds no energy past the limit
    assert to_energy(series, np.array([])).values.shape == (0,)


def test_window_values_shapes():
    tau = tau_grid(1.0, 0.25)
    hann = window_values(tau, "hann")
    assert abs(hann[0]) < 1e-15 and abs(hann[-1]) < 1e-15
    assert hann[tau.size // 2] == 1.0
    assert np.all(window_values(tau, "rect") == 1.0)
    with pytest.raises(ValueError):
        window_values(tau, "hamming")


def test_trace_levels_sums_and_validates():
    energies = np.linspace(-1.0, 1.0, 5)
    spectra = [CorrelatorSpectrum("spectral", (i, i), 0.0, energies,
                                  np.full(5, 1.0 + 1j * i), "hann")
               for i in range(3)]
    total = trace_levels(spectra)
    np.testing.assert_allclose(total.values, 3.0 + 3j)
    assert total.pair is None
    bad_kind = CorrelatorSpectrum("keldysh", (0, 0), 0.0, energies,
                                  np.ones(5), "hann")
    with pytest.raises(GridMismatchError):
        trace_levels([spectra[0], bad_kind])
    bad_grid = CorrelatorSpectrum("spectral", (0, 0), 0.0, energies + 0.1,
                                  np.ones(5), "hann")
    with pytest.raises(GridMismatchError):
        trace_levels([spectra[0], bad_grid])


def test_incommensurate_tau_step_rejected():
    basis = enumerate_basis(3, 2)
    op = build_hamiltonian(PARAMS_M3N2)
    config = PropagatorConfig(base_step=0.002, depth=10)
    ladder = build_ladder(op, config)
    psi0 = random_state(basis, seed=1)
    # half a tau step is 62.5 base steps, off the lattice
    with pytest.raises(GridMismatchError):
        density_correlators(psi0, ladder, (0, 1), 1.0, tau_grid(1.0, 0.25))


def test_com_time_beyond_span_rejected(small_setup):
    ladders, psi0 = small_setup
    span = ladders.center.span
    with pytest.raises(UnreachableTimeError):
        density_correlators(psi0, ladders, (0, 1), 2.0 * span,
                            tau_grid(1.0, 0.25))


def test_sector_ladder_validation():
    op2 = build_hamiltonian(PARAMS_M3N2)
    import dataclasses
    op1 = build_hamiltonian(dataclasses.replace(PARAMS_M3N2,
                                                num_particles=1))
    config = PropagatorConfig(base_step=0.001, depth=4)
    other = PropagatorConfig(base_step=0.002, depth=4)
    center = build_ladder(op2, config)
    with pytest.raises(SectorMismatchError):
        SectorLadders(center=center, lower=build_ladder(op2, config))
    with pytest.raises(GridMismatchError):
        SectorLadders(center=center, lower=build_ladder(op1, other))


def test_wrong_sector_state_rejected(small_setup):
    ladders, _ = small_setup
    foreign = random_state(enumerate_basis(3, 4), seed=2)
    with pytest.raises(SectorMismatchError):
        single_particle_correlators(foreign, ladders, (0, 0), 1.0,
                                    tau_grid(1.0, 0.25))


def test_build_sector_ladders_picks_eigen_without_a_config(small_setup,
                                                          ladder_setup):
    eigen, _ = small_setup
    ladders, _ = ladder_setup
    for lad in (eigen.center, eigen.lower, eigen.upper):
        assert isinstance(lad, EigenPropagator)
        assert lad.vectors.dtype == np.float64
    for lad in (ladders.center, ladders.lower, ladders.upper):
        assert isinstance(lad, PropagatorLadder)
        assert lad.config is eigen.center.config


def test_eigen_sectors_match_ladder_sectors(small_setup, ladder_setup):
    # the ladders carry the Taylor truncation of target_error 1e-8
    eigen, psi0 = small_setup
    ladders, _ = ladder_setup
    tau = tau_grid(2.0, 0.25)
    pairs = [(0, 0), (1, 2), (2, 0)]
    got = single_particle_correlator_set(psi0, eigen, pairs, 1.3, tau)
    want = single_particle_correlator_set(psi0, ladders, pairs, 1.3, tau)
    for pair in pairs:
        for a, b in zip(got[pair], want[pair]):
            assert a.com_time == b.com_time
            np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-8)
    for a, b in zip(density_correlators(psi0, eigen, (0, 2), 1.3, tau),
                    density_correlators(psi0, ladders, (0, 2), 1.3, tau)):
        np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-8)


@pytest.mark.parametrize("pairs", [[(0, 0), (1, 1), (2, 2)], [(2, 0), (0, 2)]])
def test_batched_green_sweep_matches_per_k_walk_on_ladders(ladder_setup,
                                                           pairs):
    ladders, psi0 = ladder_setup
    tau = tau_grid(2.0, 0.25)
    result = single_particle_correlator_set(psi0, ladders, pairs, 1.3, tau)
    lesser_ref, greater_ref = oracles.per_k_green_walk(psi0, ladders, pairs,
                                                       1.3, tau)
    for p, pair in enumerate(pairs):
        lesser, greater = result[pair]
        np.testing.assert_allclose(lesser.values, lesser_ref[p], rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(greater.values, greater_ref[p], rtol=0,
                                   atol=1e-12)


def test_batched_density_sweep_matches_per_k_walk_on_ladders(ladder_setup):
    ladders, psi0 = ladder_setup
    tau = tau_grid(2.0, 0.25)
    fwd, rev = density_correlators(psi0, ladders, (0, 2), 1.3, tau)
    fwd_ref, rev_ref = oracles.per_k_density_walk(psi0, ladders.center,
                                                  (0, 2), 1.3, tau)
    np.testing.assert_allclose(fwd.values, fwd_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rev.values, rev_ref, rtol=0, atol=1e-12)


def test_eigen_sectors_match_ladder_sectors_at_six_particles():
    params = HamiltonianParams(num_modes=5, num_particles=6,
                               level_spacing=10.0, hopping=1.0,
                               u_intra=1.0, u_inter=0.1)
    eigen = build_sector_ladders(params, horizon=3.0, tau_step=0.5)
    ladders = ladder_sectors(params, eigen.center.config)
    psi0 = random_state(eigen.center.basis, seed=19)
    tau = tau_grid(1.0, 0.5)
    got = single_particle_correlator_set(psi0, eigen, [(0, 0), (3, 1)], 2.0,
                                         tau)
    want = single_particle_correlator_set(psi0, ladders, [(0, 0), (3, 1)],
                                          2.0, tau)
    for pair in got:
        for a, b in zip(got[pair], want[pair]):
            np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-8)
    walks = oracles.per_k_green_walk(psi0, eigen, [(0, 0), (3, 1)], 2.0, tau)
    for p, pair in enumerate(got):
        for series, ref in zip(got[pair], walks):
            np.testing.assert_allclose(series.values, ref[p], rtol=0,
                                       atol=1e-12)


def _long_double_transform(series, energies, window):
    """The windowed transform summed in np.clongdouble on the uniform grid
    tau_k = s k, s = (tau_last - tau_first) / (n - 1), that to_energy
    takes its float grid for."""
    tau = series.tau
    k_half = (tau.size - 1) // 2
    step = np.longdouble(tau[-1] - tau[0]) / (tau.size - 1)
    uniform = step * np.arange(-k_half, k_half + 1).astype(np.longdouble)
    x = (window_values(tau, window) * series.values).astype(np.clongdouble)
    phases = np.exp(1j * np.multiply.outer(energies.astype(np.longdouble),
                                           uniform))
    return np.longdouble(series.tau_step) * (phases @ x)


# K = tau_max / tau_step: 8, 7, 150 and 300 (the pipeline and thermometry
# grids); a nudge of 3e-10 steps leaves a grid that _validate_tau accepts
# as uniform but that is not exactly symmetric about tau = 0, and the
# reference sums it on the uniform grid it is accepted as
@pytest.mark.parametrize("tau_max,tau_step,nudge", [
    (2.0, 0.25, 0.0), (1.75, 0.25, 0.0), (6.0, 0.04, 0.0), (12.0, 0.04, 0.0),
    (2.0, 0.25, 3e-10)])
def test_to_energy_matches_a_long_double_sum(tau_max, tau_step, nudge):
    tau = tau_grid(tau_max, tau_step)
    tau[-1] += nudge * tau_step
    rng = np.random.default_rng(tau.size)
    series = TwoTimeSeries("lesser", (0, 0), 1.0, tau,
                           rng.normal(size=tau.size)
                           + 1j * rng.normal(size=tau.size))
    assert np.array_equal(series.tau, -series.tau[::-1]) == (nudge == 0.0)
    nyquist = np.pi / tau_step
    grids = [nyquist_energy_grid(tau),
             np.linspace(-0.5 * nyquist, 0.5 * nyquist, 9),
             0.05 * nyquist * np.arange(-6, 11)]
    for energies in grids:
        for window in WINDOW_KINDS:
            spec = to_energy(series, energies, window)
            want = _long_double_transform(series, energies, window)
            mass = series.tau_step * np.abs(
                window_values(tau, window) * series.values).sum()
            assert np.abs(spec.values - want).max() <= 2e-14 * mass


def test_to_energy_keeps_no_kernel_and_stays_small():
    import tracemalloc

    import bosetherm.correlators as correlators

    # the thermometry benchmark's grids: 601 tau points, 1401 energies
    tau = tau_grid(12.0, 0.04)
    rng = np.random.default_rng(601)
    series = TwoTimeSeries("lesser", (0, 0), 1.0, tau,
                           rng.normal(size=tau.size)
                           + 1j * rng.normal(size=tau.size))
    energies = np.linspace(-35.0, 35.0, 1401)

    def holds_an_array(value):
        if isinstance(value, (tuple, list)):
            return any(holds_an_array(v) for v in value)
        return isinstance(value, np.ndarray)

    tracemalloc.start()
    try:
        spec = to_energy(series, energies)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a dense 1401 x 601 complex kernel alone is 13.5 MB
    assert peak < 3.4e6
    assert spec.values.shape == energies.shape
    assert not any(holds_an_array(value)
                   for value in vars(correlators).values())
