"""Independent reference constructions used by the test suite.

Everything here is deliberately written the slow, obvious way (tuple dicts,
dense sector-crossing matrix products, full eigendecompositions) so tests
compare two genuinely different code paths.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def fock_tuples(num_modes: int, num_particles: int) -> list[tuple[int, ...]]:
    """All occupation tuples, decreasing lexicographic order."""
    tuples = [t for t in itertools.product(range(num_particles + 1),
                                           repeat=num_modes)
              if sum(t) == num_particles]
    return sorted(tuples, reverse=True)


def annihilation_matrix(num_modes: int, num_particles: int,
                        mode: int) -> np.ndarray:
    """Dense b_mode from the N-sector into the (N-1)-sector."""
    src_tuples = fock_tuples(num_modes, num_particles)
    dst_index = {t: k for k, t in
                 enumerate(fock_tuples(num_modes, num_particles - 1))}
    a = np.zeros((len(dst_index), len(src_tuples)), dtype=np.complex128)
    for col, t in enumerate(src_tuples):
        if t[mode] == 0:
            continue
        lowered = list(t)
        lowered[mode] -= 1
        a[dst_index[tuple(lowered)], col] = math.sqrt(t[mode])
    return a


def brute_hamiltonian(params) -> np.ndarray:
    """Hamiltonian assembled from explicit sector-crossing matrix products."""
    modes = params.num_modes
    n = params.num_particles
    tuples = fock_tuples(modes, n)
    dim = len(tuples)
    h = np.zeros((dim, dim), dtype=np.complex128)

    occ = np.array(tuples, dtype=float)
    h[np.diag_indices(dim)] += params.level_spacing * (
        occ * np.arange(modes)).sum(axis=1)

    a_n = [annihilation_matrix(modes, n, m) for m in range(modes)]
    for i in range(modes):
        for j in range(modes):
            if i != j:
                h += params.hopping * (a_n[i].conj().T @ a_n[j])

    if n >= 2:
        a_lower = [annihilation_matrix(modes, n - 1, m) for m in range(modes)]
        for i in range(modes):
            h += params.u_intra * (
                a_n[i].conj().T @ a_lower[i].conj().T @ a_lower[i] @ a_n[i])
        for i, j, l, m in itertools.product(range(modes), repeat=4):
            if i == j == l == m:
                continue
            h += params.u_inter * (
                a_n[i].conj().T @ a_lower[j].conj().T @ a_lower[l] @ a_n[m])
    return h


def exact_evolve(energies: np.ndarray, vectors: np.ndarray,
                 amplitudes: np.ndarray, t: float) -> np.ndarray:
    """e^{-iHt} amplitudes through a full eigendecomposition."""
    coeff = vectors.conj().T @ amplitudes
    return vectors @ (np.exp(-1j * energies * t) * coeff)


def brute_partial_trace(basis_states, system_modes, reservoir_modes,
                        amplitudes, config_index):
    """Partial trace by explicit double loop over matching reservoir parts."""
    from collections import defaultdict

    rho = np.zeros((len(config_index), len(config_index)), dtype=np.complex128)
    groups = defaultdict(list)
    for row, amp in zip(basis_states, amplitudes):
        r = tuple(int(row[m]) for m in reservoir_modes)
        s = tuple(int(row[m]) for m in system_modes)
        groups[r].append((s, amp))
    for members in groups.values():
        for s1, a1 in members:
            for s2, a2 in members:
                rho[config_index[s1], config_index[s2]] += a1 * np.conj(a2)
    return rho


def scatter_reduced_density(basis_states, system_modes, reservoir_modes,
                            amplitudes) -> np.ndarray:
    """Reduced density matrix by scattering into zeroed coefficient blocks.

    The plain scatter that the gather in partition.reduced_density must
    reproduce bit for bit: blocks run from N system particles down to 0,
    each coefficient matrix C is filled entry by entry from (system tuple,
    reservoir tuple) lookups, and the block is C C^dagger.
    """
    n = int(basis_states[0].sum())
    grams = []
    for k in range(n, -1, -1):
        sys_index = {t: i for i, t in
                     enumerate(fock_tuples(len(system_modes), k))}
        res_index = {t: i for i, t in
                     enumerate(fock_tuples(len(reservoir_modes), n - k))}
        coeff = np.zeros((len(sys_index), len(res_index)),
                         dtype=np.complex128)
        for row, amp in zip(basis_states, amplitudes):
            s = tuple(int(row[m]) for m in system_modes)
            if sum(s) == k:
                r = tuple(int(row[m]) for m in reservoir_modes)
                coeff[sys_index[s], res_index[r]] = amp
        grams.append(coeff @ coeff.conj().T)
    size = sum(len(g) for g in grams)
    rho = np.zeros((size, size), dtype=np.complex128)
    offset = 0
    for g in grams:
        rho[offset:offset + len(g), offset:offset + len(g)] = g
        offset += len(g)
    return rho


def number_matrix(num_modes: int, num_particles: int, mode: int) -> np.ndarray:
    """Dense occupation operator n_mode in one sector."""
    occ = [row[mode] for row in fock_tuples(num_modes, num_particles)]
    return np.diag(np.asarray(occ, dtype=float))


def heisenberg_green_functions(params, psi0: np.ndarray, com_time: float,
                               taus: np.ndarray):
    """Lesser and greater functions for every mode pair by dense expm.

    Heisenberg operators b(t) = e^{iHt} b e^{-iHt} act across sectors, so the
    left exponential lives in the sector the operator maps into. Returns two
    (modes, modes, len(taus)) arrays.
    """
    import dataclasses

    import scipy.linalg as sla

    modes, n = params.num_modes, params.num_particles
    h_n = brute_hamiltonian(params)
    h_dn = brute_hamiltonian(dataclasses.replace(params, num_particles=n - 1))
    h_up = brute_hamiltonian(dataclasses.replace(params, num_particles=n + 1))
    low = [annihilation_matrix(modes, n, m) for m in range(modes)]
    drop = [annihilation_matrix(modes, n + 1, m) for m in range(modes)]

    taus = np.asarray(taus, dtype=float)
    lesser = np.zeros((modes, modes, taus.size), dtype=np.complex128)
    greater = np.zeros_like(lesser)
    for kt, tau in enumerate(taus):
        t1 = com_time + tau / 2.0
        t2 = com_time - tau / 2.0
        down1, down2, up1, up2 = [], [], [], []
        for t, sink_d, sink_u in ((t1, down1, up1), (t2, down2, up2)):
            centre = sla.expm(-1j * h_n * t) @ psi0
            left_d = sla.expm(1j * h_dn * t)
            left_u = sla.expm(1j * h_up * t)
            for m in range(modes):
                sink_d.append(left_d @ (low[m] @ centre))
                sink_u.append(left_u @ (drop[m].conj().T @ centre))
        for i in range(modes):
            for j in range(modes):
                lesser[i, j, kt] = -1j * np.vdot(down2[j], down1[i])
                greater[i, j, kt] = -1j * np.vdot(up1[i], up2[j])
    return lesser, greater


def heisenberg_density_correlators(params, psi0: np.ndarray, com_time: float,
                                   taus: np.ndarray, i: int, j: int):
    """<n_i(t1) n_j(t2)> and <n_j(t2) n_i(t1)> by dense expm."""
    import scipy.linalg as sla

    h_n = brute_hamiltonian(params)
    n_i = number_matrix(params.num_modes, params.num_particles, i)
    n_j = number_matrix(params.num_modes, params.num_particles, j)
    taus = np.asarray(taus, dtype=float)
    forward = np.zeros(taus.size, dtype=np.complex128)
    reverse = np.zeros(taus.size, dtype=np.complex128)
    for kt, tau in enumerate(taus):
        t1 = com_time + tau / 2.0
        t2 = com_time - tau / 2.0
        vec1 = sla.expm(1j * h_n * t1) @ (n_i @ (sla.expm(-1j * h_n * t1) @ psi0))
        vec2 = sla.expm(1j * h_n * t2) @ (n_j @ (sla.expm(-1j * h_n * t2) @ psi0))
        forward[kt] = np.vdot(vec1, vec2)
        reverse[kt] = np.vdot(vec2, vec1)
    return forward, reverse


def gibbs_sectors(params, beta: float, n_top: int):
    """Eigen data and Boltzmann probabilities for sectors 0..n_top, mu=0."""
    import dataclasses

    sec = {}
    for n in range(n_top + 1):
        h = brute_hamiltonian(dataclasses.replace(params, num_particles=n))
        sec[n] = np.linalg.eigh(h)
    z = sum(np.exp(-beta * e).sum() for e, _ in sec.values())
    probs = {n: np.exp(-beta * sec[n][0]) / z for n in sec}
    return sec, probs


def gibbs_density_series(params, beta: float, n_top: int, i: int, j: int,
                         taus: np.ndarray):
    """Ensemble <n_i(t1) n_j(t2)> and its reverse at t1 - t2 = tau."""
    sec, probs = gibbs_sectors(params, beta, n_top)
    taus = np.asarray(taus, dtype=float)
    fwd = np.zeros(taus.size, dtype=np.complex128)
    rev = np.zeros_like(fwd)
    for n in range(n_top + 1):
        e, v = sec[n]
        mi = v.conj().T @ (number_matrix(params.num_modes, n, i) @ v)
        mj = v.conj().T @ (number_matrix(params.num_modes, n, j) @ v)
        freq = (e[:, None] - e[None, :]).ravel()
        phases = np.exp(1j * np.outer(freq, taus))
        fwd += (probs[n][:, None] * mi * mj.T).ravel() @ phases
        rev += (probs[n][:, None] * mj * mi.T).ravel() @ phases.conj()
    return fwd, rev


def gibbs_green_series(params, beta: float, n_top: int, mode: int,
                       taus: np.ndarray):
    """Ensemble lesser and greater functions of one mode by Lehmann sums."""
    sec, probs = gibbs_sectors(params, beta, n_top)
    taus = np.asarray(taus, dtype=float)
    lesser = np.zeros(taus.size, dtype=np.complex128)
    greater = np.zeros_like(lesser)
    for n in range(1, n_top + 1):
        bme = np.abs(sec[n - 1][1].conj().T
                     @ annihilation_matrix(params.num_modes, n, mode)
                     @ sec[n][1]) ** 2
        e_low, e_high = sec[n - 1][0], sec[n][0]
        freq = (e_low[:, None] - e_high[None, :]).ravel()
        phases = np.exp(1j * np.outer(freq, taus))
        lesser += -1j * ((probs[n][None, :] * bme).ravel() @ phases)
        greater += -1j * ((probs[n - 1][:, None] * bme).ravel() @ phases)
    return lesser, greater


def _stepped_trajectory(ladder, psi0: np.ndarray, com_steps: int, q2: int,
                        count: int) -> np.ndarray:
    """Rows psi(t + m * dtau/2), m = -count..count, one ladder advance each."""
    states = np.empty((2 * count + 1, psi0.size), dtype=np.complex128)
    cur = ladder.advance(psi0, com_steps - count * q2)
    states[0] = cur
    for s in range(1, 2 * count + 1):
        cur = ladder.advance(cur, q2)
        states[s] = cur
    return states


def _walk_grid(ladder, tau: np.ndarray, com_time: float):
    """(K, base steps per half tau step, com steps, actual com time)."""
    tau = np.asarray(tau, dtype=float)
    q2 = int(round((tau[1] - tau[0]) / 2.0 / ladder.base_step))
    com_steps, com_actual = ladder.snap(com_time)
    return (tau.size - 1) // 2, q2, com_steps, com_actual


def _map_columns(basis, amps: np.ndarray, modes, raising: bool) -> np.ndarray:
    """Columns b_m |amps> (raising: b_m^dag |amps>), one per mode."""
    columns = []
    for m in modes:
        src, dst, amp, target = (basis.raising_map(m) if raising
                                 else basis.lowering_map(m))
        col = np.zeros(target.dim, dtype=np.complex128)
        col[dst] = amp * amps[src]
        columns.append(col)
    return np.stack(columns, axis=1)


def per_k_green_walk(psi0, ladders, pairs, com_time: float, tau: np.ndarray):
    """Lesser and greater functions with one ladder advance per tau point.

    The sector walk for each k is its own chain of matrix-vector products:
    b_j psi(t - k dtau/2) for tau > 0 and b_i psi(t - k dtau/2) for tau < 0,
    on the lowering and raising sides. Returns two (pairs, len(tau)) arrays.
    """
    basis = ladders.center.basis
    k_half, q2, com_steps, _ = _walk_grid(ladders.center, tau, com_time)
    q = 2 * q2
    half = _stepped_trajectory(ladders.center, psi0.amplitudes, com_steps,
                               q2, k_half)
    i_modes = sorted({p[0] for p in pairs})
    j_modes = sorted({p[1] for p in pairs})
    ipos = {m: c for c, m in enumerate(i_modes)}
    jpos = {m: c for c, m in enumerate(j_modes)}
    lesser = np.empty((len(pairs), len(tau)), dtype=np.complex128)
    greater = np.empty_like(lesser)
    for k in range(k_half + 1):
        psi1, psi2 = half[k_half + k], half[k_half - k]
        bj2 = _map_columns(basis, psi2, j_modes, raising=False)
        bi1 = _map_columns(basis, psi1, i_modes, raising=False)
        cross_l = ladders.lower.advance(bj2, k * q).conj().T @ bi1
        cj2 = _map_columns(basis, psi2, j_modes, raising=True)
        ci1 = _map_columns(basis, psi1, i_modes, raising=True)
        cross_g = ci1.conj().T @ ladders.upper.advance(cj2, k * q)
        for p, (i, j) in enumerate(pairs):
            lesser[p, k_half + k] = -1j * cross_l[jpos[j], ipos[i]]
            greater[p, k_half + k] = -1j * cross_g[ipos[i], jpos[j]]
        if k == 0:
            continue
        bi1m = _map_columns(basis, psi2, i_modes, raising=False)
        bj2m = _map_columns(basis, psi1, j_modes, raising=False)
        cross_lm = bj2m.conj().T @ ladders.lower.advance(bi1m, k * q)
        ci1m = _map_columns(basis, psi2, i_modes, raising=True)
        cj2m = _map_columns(basis, psi1, j_modes, raising=True)
        cross_gm = ladders.upper.advance(ci1m, k * q).conj().T @ cj2m
        for p, (i, j) in enumerate(pairs):
            lesser[p, k_half - k] = -1j * cross_lm[jpos[j], ipos[i]]
            greater[p, k_half - k] = -1j * cross_gm[ipos[i], jpos[j]]
    return lesser, greater


def per_k_density_walk(psi0, ladder, pair, com_time: float, tau: np.ndarray):
    """<n_i(t1) n_j(t2)> and its reverse with one ladder advance per walk.

    Walks n_j psi(t - k dtau/2) by +k dtau, n_i psi(t + k dtau/2) by -k dtau
    and n_i psi(t - k dtau/2) by +k dtau, each on its own.
    """
    i, j = pair
    basis = ladder.basis
    k_half, q2, com_steps, _ = _walk_grid(ladder, tau, com_time)
    q = 2 * q2
    half = _stepped_trajectory(ladder, psi0.amplitudes, com_steps, q2,
                               k_half)
    occ_i = basis.states[:, i].astype(float)
    occ_j = basis.states[:, j].astype(float)
    forward = np.empty(len(tau), dtype=np.complex128)
    reverse = np.empty(len(tau), dtype=np.complex128)
    for k in range(k_half + 1):
        ni1 = half[k_half + k] * occ_i
        nj2 = half[k_half - k] * occ_j
        if k == 0:
            forward[k_half] = np.vdot(ni1, nj2)
            reverse[k_half] = np.vdot(nj2, ni1)
            continue
        forward[k_half + k] = np.vdot(ni1, ladder.advance(nj2, k * q))
        reverse[k_half + k] = np.vdot(nj2, ladder.advance(ni1, -k * q))
        ni1m = half[k_half - k] * occ_i
        nj2m = half[k_half + k] * occ_j
        walked = ladder.advance(ni1m, k * q)
        forward[k_half - k] = np.vdot(walked, nj2m)
        reverse[k_half - k] = np.vdot(nj2m, walked)
    return forward, reverse
