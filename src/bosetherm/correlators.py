"""Two-time correlation functions along one evolving trajectory.

All correlators are taken at a center-of-mass time t with relative time tau,
t1 = t + tau/2 and t2 = t - tau/2. Single-particle functions walk through
the neighbor sectors:

    lesser  G<_ij(t, tau) = -i <b_j^dag(t2) b_i(t1)>   (N-1 sector inside)
    greater G>_ij(t, tau) = -i <b_i(t1) b_j^dag(t2)>   (N+1 sector inside)

Occupation correlators stay in the N sector. Every walk is an
advance_columns block, one step count per column. The trajectory states
psi(t + m*dtau/2), m = -K..K, are one block: psi0 in every column, each
column with its own count. Each tau point then needs one sector walk on a
few sector vectors; the walks of many tau points are stacked as the columns
of one block and moved together. On the eigen propagators that
build_sector_ladders builds a walk is exact: two real products with the
eigenvectors around per-column phases. On Taylor ladders (build_ladder, the
cross-check) each column takes its own O(log tau) rung applies. The sweeps
take the tau points in runs of at most dim(N) columns, which bounds the
sector vectors they build at once.

The energy transform follows f(E) = dtau * sum_k w(tau_k) C(tau_k)
exp(+i E tau_k) with a Hann window by default, on a grid taken as exactly
uniform, tau_k = s k. Writing k = -K + b L + l with L = ceil(sqrt(n))
factors each phase into an outer exp(i E s (b L - K)) and an inner
exp(i E s l), so a call builds one E x L and one E x ceil(n / L) phase
block instead of an E x n kernel. A call holds at most two such blocks,
about 2 E sqrt(n) complex values (a traced peak of 1.3 MB for 1401
energies and 601 tau points, where the E x n kernel took 13.5 MB), and
nothing is kept between calls.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, GridMismatchError, SectorMismatchError
from .fock import FockBasis, StateVector
from .hamiltonian import EigenSystem, build_hamiltonian
from .propagator import (
    Propagator,
    PropagatorConfig,
    _depth_for_horizon,
    advance_columns,
    build_eigen_propagator,
    choose_base_step,
)

SERIES_KINDS = ("lesser", "greater", "keldysh", "spectral",
                "density_forward", "density_reversed")
WINDOW_KINDS = ("hann", "rect")


def _whole_multiple(interval: float, step: float) -> int:
    """interval / step if a whole number >= 1 to 1e-9 of interval, else 0."""
    count = int(round(interval / step))
    whole = count >= 1 and abs(count * step - interval) <= 1e-9 * interval
    return count if whole else 0


def tau_grid(tau_max: float, tau_step: float) -> np.ndarray:
    """Symmetric grid -tau_max..tau_max inclusive; tau_max must be a
    multiple of tau_step."""
    if tau_step <= 0 or tau_max <= 0:
        raise ValueError("tau_max and tau_step must be positive")
    count = _whole_multiple(tau_max, tau_step)
    if not count:
        raise GridMismatchError(
            f"tau_max {tau_max} is not a multiple of tau_step {tau_step}")
    return tau_step * np.arange(-count, count + 1)


def _validate_tau(tau: np.ndarray) -> float:
    """Return the spacing of a uniform symmetric grid."""
    tau = np.asarray(tau, dtype=float)
    if tau.ndim != 1 or tau.size < 3 or tau.size % 2 == 0:
        raise GridMismatchError(
            "tau grid must be one-dimensional, symmetric, odd length >= 3")
    step = float(tau[1] - tau[0])
    if step <= 0:
        raise GridMismatchError("tau grid must be increasing")
    if np.abs(np.diff(tau) - step).max() > 1e-9 * step:
        raise GridMismatchError("tau grid must be uniform")
    if np.abs(tau + tau[::-1]).max() > 1e-9 * step:
        raise GridMismatchError("tau grid must be symmetric around zero")
    return step


@dataclass
class TwoTimeSeries:
    """One correlator over a symmetric relative-time grid."""

    kind: str
    pair: tuple[int, int]
    com_time: float
    tau: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in SERIES_KINDS:
            raise ValueError(f"unknown series kind {self.kind!r}")
        self.tau = np.asarray(self.tau, dtype=float)
        _validate_tau(self.tau)
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != self.tau.shape:
            raise GridMismatchError("values and tau must have equal length")

    @property
    def tau_step(self) -> float:
        return float(self.tau[1] - self.tau[0])

    def at_equal_time(self) -> complex:
        return complex(self.values[self.values.size // 2])


@dataclass
class CorrelatorSpectrum:
    """Windowed Fourier transform of a TwoTimeSeries.

    tau_max and tau_step describe the grid the transform was taken on; they
    let weight fits undo the finite-window mass distortion.
    """

    kind: str
    pair: tuple[int, int] | None
    com_time: float
    energies: np.ndarray
    values: np.ndarray
    window: str
    tau_max: float | None = None
    tau_step: float | None = None

    def __post_init__(self):
        self.energies = np.asarray(self.energies, dtype=float)
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.energies.shape != self.values.shape:
            raise GridMismatchError("energies and values must match")


@dataclass(frozen=True)
class SectorLadders:
    """Propagators for the N and (when needed) N-1 / N+1 sectors.

    All ladders must share one base step so relative-time grids stay on a
    common lattice. Each is a PropagatorLadder or an EigenPropagator.
    """

    center: Propagator
    lower: Propagator | None = None
    upper: Propagator | None = None

    def __post_init__(self):
        n = self.center.basis.num_particles
        for lad, want, name in ((self.lower, n - 1, "lower"),
                                (self.upper, n + 1, "upper")):
            if lad is None:
                continue
            if lad.basis.num_particles != want:
                raise SectorMismatchError(
                    f"{name} ladder holds {lad.basis.num_particles} "
                    f"particles, expected {want}")
            if abs(lad.base_step - self.center.base_step) > \
                    1e-12 * self.center.base_step:
                raise GridMismatchError(
                    "sector ladders must share one base step")

    @property
    def nbytes(self) -> int:
        """Bytes held by the sectors' propagators."""
        return sum(lad.nbytes for lad in (self.center, self.lower, self.upper)
                   if lad is not None)


def build_sector_ladders(params, horizon: float, tau_step: float | None = None,
                         target_error: float = 1e-8, neighbors: bool = True,
                         center: EigenSystem | None = None,
                         max_rung_bytes: int = PropagatorConfig.max_rung_bytes
                         ) -> SectorLadders:
    """Exact propagators for N and (optionally) N-1, N+1 on one lattice.

    The step is the tightest of the per-sector choices of choose_base_step,
    aligned to half the relative-time step when one is given, so
    mixed-sector walks stay on a single lattice, and each sector gets an
    EigenPropagator on that lattice; center, an eigensystem of the N sector
    the caller holds, serves its propagator, so only the sectors not given
    are diagonalized. max_rung_bytes caps each sector's eigenvectors.
    """
    counts = [params.num_particles]
    if neighbors:
        if params.num_particles < 1:
            raise ValueError("neighbor sectors need at least one particle")
        counts += [params.num_particles - 1, params.num_particles + 1]
    ops = {n: build_hamiltonian(dataclasses.replace(params, num_particles=n))
           for n in counts}
    align = None if tau_step is None else tau_step / 2.0
    cfgs = [choose_base_step(ops[n], horizon, target_error=target_error,
                             align_to=align, max_rung_bytes=max_rung_bytes)
            for n in counts]
    # min of aligned steps is still an integer divisor of the alignment; the
    # config records the highest sector order, which the eigen propagators
    # do not use
    dt = min(c.base_step for c in cfgs)
    depth = _depth_for_horizon(dt, horizon)
    config = dataclasses.replace(
        cfgs[0], base_step=dt, depth=depth,
        taylor_order=max(c.taylor_order for c in cfgs))
    held = {params.num_particles: center}
    ladders = {n: build_eigen_propagator(ops[n], config, held.get(n))
               for n in counts}
    return SectorLadders(
        center=ladders[params.num_particles],
        lower=ladders.get(params.num_particles - 1),
        upper=ladders.get(params.num_particles + 1))


def _trajectory(ladder: Propagator, psi0: StateVector, com_time: float,
                tau: np.ndarray):
    """Rows psi(t + m dtau/2) for m = -K..K, with t snapped to the lattice.

    Returns (rows, K, base steps per tau step, snapped t). All 2K + 1 rows
    are one advance_columns block of psi0.
    """
    if psi0.basis is not ladder.basis:
        raise SectorMismatchError("initial state is not in the center sector")
    half = _validate_tau(tau) / 2.0
    q2 = _whole_multiple(half, ladder.base_step)
    if not q2:
        raise GridMismatchError(
            f"half tau step {half:.6e} is not a multiple of the ladder base "
            f"step {ladder.base_step:.6e}")
    k_half = (len(tau) - 1) // 2
    com_steps, com_actual = ladder.snap(com_time)
    steps = com_steps + q2 * np.arange(-k_half, k_half + 1)
    block = np.broadcast_to(psi0.amplitudes[:, None],
                            (ladder.basis.dim, steps.size))
    return advance_columns(ladder, block, steps).T, k_half, 2 * q2, com_actual


def _mode_block(basis: FockBasis, rows: np.ndarray, modes,
                raising: bool) -> np.ndarray:
    """b_m (raising: b_m^dag) applied to each state row, for every mode.

    Returns shape (target dim, rows, modes), so that reshaping to
    (target dim, rows * modes) lists the modes of each row side by side.
    """
    maps = [basis.raising_map(m) if raising else basis.lowering_map(m)
            for m in modes]
    target = maps[0][3]
    out = np.zeros((target.dim, rows.shape[0], len(modes)),
                   dtype=np.complex128)
    for c, (src, dst, amp, _) in enumerate(maps):
        out[dst, :, c] = amp[:, None] * rows[:, src].T
    return out


def _chunks(k_half: int, per_k: int, dim: int):
    """Runs of k = 0..k_half of at most dim // per_k (at least one) each."""
    size = max(1, dim // per_k)
    return [np.arange(lo, min(lo + size, k_half + 1))
            for lo in range(0, k_half + 1, size)]


def _check_modes(basis: FockBasis, pairs) -> list[tuple[int, int]]:
    return [(basis._check_mode(i), basis._check_mode(j)) for i, j in pairs]


def single_particle_correlator_set(psi0: StateVector, ladders: SectorLadders,
                                   pairs, com_time: float,
                                   tau: np.ndarray):
    """Lesser and greater functions for several mode pairs in one sweep.

    Shares the trajectory states. For each k the sector walks start from
    b_m psi(t - k dtau/2) and b_m^dag psi(t - k dtau/2) for every mode m of
    the pairs, advanced by k dtau in N-1 and N+1; tau = +k dtau and
    -k dtau read different inner products of the same walks. Returns
    {pair: (lesser, greater)}.
    """
    basis = ladders.center.basis
    if ladders.lower is None or ladders.upper is None:
        raise ValueError("single-particle functions need all three ladders")
    pairs = _check_modes(basis, pairs)
    tau = np.asarray(tau, dtype=float)
    half, k_half, q, com_actual = _trajectory(ladders.center, psi0,
                                              com_time, tau)

    modes = sorted({m for p in pairs for m in p})
    pos = {m: c for c, m in enumerate(modes)}
    rows_i = [pos[i] for i, _ in pairs]
    rows_j = [pos[j] for _, j in pairs]

    lesser = np.empty((len(pairs), tau.size), dtype=np.complex128)
    greater = np.empty_like(lesser)

    for ks in _chunks(k_half, len(modes), basis.dim):
        steps = np.repeat(ks * q, len(modes))
        before, after = half[k_half - ks], half[k_half + ks]
        shape = (-1, ks.size, len(modes))
        # lower sector: w_m(k) = U(k dtau) b_m psi(t - k dtau/2)
        start = _mode_block(basis, before, modes, raising=False)
        w = advance_columns(ladders.lower, start.reshape(start.shape[0], -1),
                            steps).reshape(shape)
        b = _mode_block(basis, after, modes, raising=False)
        cross_l = np.einsum("dka,dkb->kab", w.conj(), b)
        # upper sector: v_m(k) = U(k dtau) b_m^dag psi(t - k dtau/2)
        start = _mode_block(basis, before, modes, raising=True)
        v = advance_columns(ladders.upper, start.reshape(start.shape[0], -1),
                            steps).reshape(shape)
        c = _mode_block(basis, after, modes, raising=True)
        cross_g = np.einsum("dka,dkb->kab", c.conj(), v)
        # tau < 0 first, so that tau = 0 (k = 0) keeps the tau > 0 reading
        lesser[:, k_half - ks] = -1j * cross_l[:, rows_i, rows_j].conj().T
        greater[:, k_half - ks] = -1j * cross_g[:, rows_j, rows_i].conj().T
        lesser[:, k_half + ks] = -1j * cross_l[:, rows_j, rows_i].T
        greater[:, k_half + ks] = -1j * cross_g[:, rows_i, rows_j].T

    return {pair: (TwoTimeSeries("lesser", pair, com_actual, tau, lesser[p]),
                   TwoTimeSeries("greater", pair, com_actual, tau, greater[p]))
            for p, pair in enumerate(pairs)}


def single_particle_correlators(psi0: StateVector, ladders: SectorLadders,
                                pair, com_time: float, tau: np.ndarray):
    """(lesser, greater) for one mode pair."""
    pair = tuple(int(v) for v in pair)
    return single_particle_correlator_set(psi0, ladders, [pair],
                                          com_time, tau)[pair]


def density_correlators(psi0: StateVector, ladders, pair, com_time: float,
                        tau: np.ndarray):
    """Occupation correlators (forward, reversed) for one mode pair.

    forward  = <n_i(t1) n_j(t2)>, reversed = <n_j(t2) n_i(t1)>. The two are
    computed through different advance chains, so agreement up to complex
    conjugation is a real consistency check, not an identity.
    """
    ladder = ladders.center if isinstance(ladders, SectorLadders) else ladders
    basis = ladder.basis
    (i, j), = _check_modes(basis, [pair])
    tau = np.asarray(tau, dtype=float)
    half, k_half, q, com_actual = _trajectory(ladder, psi0, com_time, tau)
    modes = sorted({i, j})
    occ = basis.states[:, modes].astype(float)
    ci, cj = modes.index(i), modes.index(j)

    forward = np.empty(tau.size, dtype=np.complex128)
    reverse = np.empty(tau.size, dtype=np.complex128)
    for ks in _chunks(k_half, len(modes) + 1, basis.dim):
        before, after = half[k_half - ks], half[k_half + ks]
        # per k: n_m psi(t - k dtau/2) by +k dtau for each mode, then
        # n_i psi(t + k dtau/2) by -k dtau
        start = np.concatenate(
            [before.T[:, :, None] * occ[:, None, :],
             (after.T * occ[:, ci, None])[:, :, None]], axis=2)
        steps = np.outer(ks * q, [1] * len(modes) + [-1]).ravel()
        walked = advance_columns(ladder, start.reshape(basis.dim, -1),
                                 steps).reshape(start.shape)
        ni_after = start[:, :, -1]
        nj_after = after.T * occ[:, cj, None]
        nj_before = start[:, :, cj]
        # tau < 0 first, so that tau = 0 (k = 0) keeps the tau > 0 reading
        forward[k_half - ks] = np.einsum("dk,dk->k", walked[:, :, ci].conj(),
                                         nj_after)
        reverse[k_half - ks] = np.einsum("dk,dk->k", nj_after.conj(),
                                         walked[:, :, ci])
        forward[k_half + ks] = np.einsum("dk,dk->k", ni_after.conj(),
                                         walked[:, :, cj])
        reverse[k_half + ks] = np.einsum("dk,dk->k", nj_before.conj(),
                                         walked[:, :, -1])
    fwd = TwoTimeSeries("density_forward", (i, j), com_actual, tau, forward)
    rev = TwoTimeSeries("density_reversed", (i, j), com_actual, tau, reverse)
    return fwd, rev


def _require_same_grid(a: TwoTimeSeries, b: TwoTimeSeries) -> None:
    if a.tau.shape != b.tau.shape or \
            np.abs(a.tau - b.tau).max() > 1e-9 * a.tau_step:
        raise GridMismatchError("series grids differ")
    if abs(a.com_time - b.com_time) > 1e-9 * max(1.0, abs(a.com_time)):
        raise GridMismatchError("series center-of-mass times differ")
    if a.pair != b.pair:
        raise GridMismatchError(f"series pairs differ: {a.pair} vs {b.pair}")


def keldysh_and_spectral(lesser: TwoTimeSeries, greater: TwoTimeSeries):
    """G_K = G> + G<, A = i (G> - G<) on a shared grid."""
    if lesser.kind != "lesser" or greater.kind != "greater":
        raise ValueError("expected a (lesser, greater) pair")
    _require_same_grid(lesser, greater)
    keldysh = TwoTimeSeries("keldysh", lesser.pair, lesser.com_time,
                            lesser.tau, greater.values + lesser.values)
    spectral = TwoTimeSeries("spectral", lesser.pair, lesser.com_time,
                             lesser.tau,
                             1j * (greater.values - lesser.values))
    return keldysh, spectral


def window_values(tau: np.ndarray, window: str) -> np.ndarray:
    """Window weights on a symmetric grid; w(0) = 1."""
    if window not in WINDOW_KINDS:
        raise ValueError(f"unknown window {window!r}; pick from {WINDOW_KINDS}")
    tau = np.asarray(tau, dtype=float)
    if window == "rect":
        return np.ones_like(tau)
    tau_max = float(np.abs(tau).max())
    return 0.5 * (1.0 + np.cos(np.pi * tau / tau_max))


def _phase_kernel(energies: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """exp(+i E tau) over (energies, tau), bit-equal to
    np.exp(1j * np.outer(energies, tau)) but built in one array, in place.
    """
    kernel = np.zeros((energies.size, tau.size), dtype=np.complex128)
    np.multiply.outer(energies, tau, out=kernel.imag)
    kernel.imag += 0.0  # as in 1j * x, a product of -0.0 becomes +0.0
    return np.exp(kernel, out=kernel)


def _phase_sum(energies: np.ndarray, tau: np.ndarray,
               x: np.ndarray) -> np.ndarray:
    """sum_j exp(+i E tau_j) x_j on the uniform grid tau_j = s j, j = -K..K.

    With s = (tau_last - tau_first) / (n - 1) and j = -K + b L + l for
    L = ceil(sqrt(n)), the phase splits exactly into an outer factor
    exp(i E s (b L - K)) and an inner one exp(i E s l). One E x L inner
    block meets the zero-padded (B, L) series in one product; the E x B
    result is weighted by the outer block and summed over b. No more than
    two E x ceil(sqrt(n)) complex arrays are held at once.
    """
    n = tau.size
    step = (tau[-1] - tau[0]) / (n - 1)
    width = math.isqrt(n - 1) + 1
    blocks = -(-n // width)
    padded = np.zeros(blocks * width, dtype=np.complex128)
    padded[:n] = x
    sums = _phase_kernel(energies, step * np.arange(width)) @ \
        padded.reshape(blocks, width).T
    sums *= _phase_kernel(energies,
                          step * (width * np.arange(blocks) - (n - 1) // 2))
    return sums.sum(axis=1)


def to_energy(series: TwoTimeSeries, energies: np.ndarray,
              window: str = "hann") -> CorrelatorSpectrum:
    """f(E) = dtau * sum_k w(tau_k) C(tau_k) exp(+i E tau_k).

    The grid is taken as exactly uniform, tau_k = s k with s spanning its
    end points (_phase_sum), so a call holds O(E sqrt(n)) complex values,
    not an E x n kernel. Energies beyond the Nyquist limit pi/dtau are
    rejected.
    """
    energies = np.asarray(energies, dtype=float)
    step = series.tau_step
    emax = float(np.abs(energies).max()) if energies.size else 0.0
    if emax * step > np.pi * (1.0 + 1e-12):
        raise AliasingError(
            f"|E| up to {emax:.4f} exceeds the Nyquist limit "
            f"{np.pi / step:.4f} of a tau step {step:.4e}")
    w = window_values(series.tau, window)
    vals = step * _phase_sum(energies, series.tau, w * series.values)
    return CorrelatorSpectrum(series.kind, series.pair, series.com_time,
                              energies, vals, window,
                              tau_max=float(np.abs(series.tau).max()),
                              tau_step=step)


def nyquist_energy_grid(tau: np.ndarray) -> np.ndarray:
    """The canonical conjugate grid: spacing 2 pi / (n dtau), n points.

    On this grid the discrete transform satisfies the two-sided sum rule
    (dE / 2 pi) * sum_m f(E_m) = w(0) C(0) exactly.
    """
    tau = np.asarray(tau, dtype=float)
    n = tau.size
    k = (n - 1) // 2
    de = 2.0 * np.pi / (n * float(tau[1] - tau[0]))
    return de * np.arange(-k, k + 1)


def trace_levels(spectra) -> CorrelatorSpectrum:
    """Sum spectra over levels (the trace over diagonal pairs)."""
    spectra = list(spectra)
    if not spectra:
        raise ValueError("nothing to trace")
    first = spectra[0]
    total = np.zeros_like(first.values)
    for s in spectra:
        if s.kind != first.kind or s.window != first.window:
            raise GridMismatchError("cannot trace spectra of mixed kind")
        if s.energies.shape != first.energies.shape or \
                np.abs(s.energies - first.energies).max() > 1e-9:
            raise GridMismatchError("spectra energy grids differ")
        if abs(s.com_time - first.com_time) > 1e-9 * max(1.0, abs(first.com_time)):
            raise GridMismatchError("spectra center-of-mass times differ")
        total += s.values
    return CorrelatorSpectrum(first.kind, None, first.com_time,
                              first.energies.copy(), total, first.window,
                              tau_max=first.tau_max, tau_step=first.tau_step)
