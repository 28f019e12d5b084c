"""Statistical fits: spectral peaks, thermometry, relaxation time scales.

Two independent thermometers act on the spectra produced by the correlator
pipeline:

  * occupations: per-level Lorentzian weights of i G_K and A give
    i G_K / A = 2 n + 1, and the (E, n) points are fitted with a
    Bose-Einstein curve whose only parameter is the temperature;
  * detailed balance: for occupation correlators the two operator orderings
    satisfy ln f(E) - ln r(E) = beta E under the package transform
    f(E) = dtau sum w C exp(+i E tau), which fixes beta by weighted linear
    regression.

All nonlinear fits minimize their squared residuals with the trust-region
reflective method without bounds (Branch, Coleman and Li, SIAM J. Sci.
Comput. 21, 1, 1999), each step solved from one SVD of the Jacobian as in
More (Lecture Notes in Math. 630, 1977). ``_trust_region_fit`` is a port of
the one path of scipy's least_squares the package uses, and gives the same
bytes; it keeps ``scipy.optimize`` out of the process. The fits work on
log-reparametrized positive parameters, with a few deterministic restarts.
The Lorentzian and bi-exponential fits pass analytic Jacobians, so their
standard errors come from the exact Jacobian at the solution. Each
Lorentzian peak is written in min(1, g) and min(1, 1/g), so no trial
log-width overflows, and the bi-exponential sums its terms as logarithms. A
residual or Jacobian that is not finite all the same raises
FitConvergenceError.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg import norm
from scipy.linalg import svd

from .correlators import (CorrelatorSpectrum, _phase_sum, tau_grid,
                          window_values)
from .errors import FitConvergenceError, GridMismatchError, ShortSeriesError

MAX_FIT_ITERATIONS = 500
# |log gamma| below which gamma^2 is a positive, finite float
_LOG_WIDTH_LIMIT = 0.5 * math.log(np.finfo(float).max)


@dataclass
class PeakSet:
    """Lorentzian decomposition of one spectrum, sorted by center."""

    centers: np.ndarray
    widths: np.ndarray
    weights: np.ndarray
    covariance: np.ndarray
    residual: float
    window_scale: float = 1.0

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=float)
        self.widths = np.asarray(self.widths, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if np.any(self.widths <= 0):
            raise ValueError("peak widths must be positive")
        if np.any(np.diff(self.centers) < 0):
            raise ValueError("peaks must be sorted by center")

    @property
    def errors(self) -> np.ndarray:
        """Per-parameter standard errors in (weight, center, width) triples."""
        return np.sqrt(np.abs(np.diag(self.covariance)))


@dataclass
class TemperatureFit:
    """Single-temperature fit result; thermal=False marks a flagged entry."""

    beta: float
    temperature: float
    beta_error: float
    temperature_error: float
    residual: float
    points: int
    thermal: bool
    window: tuple[float, float] | None = None
    time: float | None = None
    detail: str = ""


@dataclass
class RelaxationFit:
    """Bi-exponential relaxation toward a plateau."""

    amplitude_fast: float
    amplitude_slow: float
    tau_fast: float
    tau_slow: float
    plateau: float
    noise_floor: float
    errors: np.ndarray
    residual: float
    detail: str = ""

    def __post_init__(self):
        if self.tau_fast > self.tau_slow:
            raise ValueError("time constants must satisfy tau_fast <= tau_slow")


def _covariance(result) -> np.ndarray:
    """Parameter covariance from the Jacobian at the solution."""
    jac = result.jac
    m, n = jac.shape
    gram = jac.T @ jac
    try:
        inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        inv = np.linalg.pinv(gram)
    variance = 2.0 * result.cost / (m - n) if m > n else np.nan
    return inv * variance


@dataclass(frozen=True)
class _FitResult:
    """Where a trust-region fit stopped: parameters, half the squared
    residual, the Jacobian there, and scipy's status code (0 once the
    evaluation budget is spent, 1-4 for the tolerance that was met)."""

    x: np.ndarray
    cost: float
    jac: np.ndarray
    status: int
    nfev: int

    @property
    def success(self) -> bool:
        return self.status > 0


_EPS = np.finfo(float).eps


def _trust_region_fit(what: str, fun, x0: np.ndarray, jac=None, *,
                      max_nfev: int, gtol: float,
                      jac_scale: bool = False) -> _FitResult:
    """Unbounded trust-region least squares of the residuals fun(x).

    A step-for-step port of scipy's least_squares (BSD-3-Clause, Copyright
    (c) 2001-2002 Enthought, Inc. and 2003 onwards SciPy Developers) for
    method "trf" with the linear loss, no bounds, a dense Jacobian and the
    "exact" trust-region solver: scipy's ``trf_no_bounds`` with Moré's step
    from one SVD (``solve_lsq_trust_region``). Without ``jac`` the Jacobian
    is scipy's default 2-point forward difference; ``jac_scale`` is
    ``x_scale="jac"``, otherwise every parameter has scale 1. ftol and xtol
    are scipy's defaults; the termination rules, the evaluation budget (the
    first residual counts, the difference quotients do not) and
    ``success = status > 0`` are scipy's.
    A residual or Jacobian that is not finite raises FitConvergenceError
    naming ``what``.
    """
    def checked(out, p):
        if not np.all(np.isfinite(out)):
            raise FitConvergenceError(
                f"{what} fit met a non-finite residual or Jacobian at "
                f"parameters {np.array2string(p, precision=3)}")
        return out

    def residuals(p):
        return checked(fun(p), p)

    def jacobian(p, f):
        if jac is not None:
            return checked(jac(p), p)
        # scipy's approx_derivative(method="2-point"), built transposed
        h = _EPS ** 0.5 * ((p >= 0).astype(float) * 2 - 1) \
            * np.maximum(1.0, np.abs(p))
        jt = np.empty((p.size, f.size))
        for i in range(p.size):
            p1 = p.copy()
            p1[i] = p[i] + h[i]
            jt[i] = (residuals(p1) - f) / ((p[i] + h[i]) - p[i])
        return checked(jt.T, p)

    def column_scale(J, scale_inv_old=None):  # scipy's compute_jac_scale
        scale_inv = np.sum(J ** 2, axis=0) ** 0.5
        if scale_inv_old is None:
            scale_inv[scale_inv == 0] = 1
        else:
            scale_inv = np.maximum(scale_inv, scale_inv_old)
        return 1 / scale_inv, scale_inv

    ftol = xtol = 1e-8
    x = x0.astype(float)
    f = residuals(x)
    nfev = 1
    J = jacobian(x, f)
    m, n = J.shape
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    if jac_scale:
        scale, scale_inv = column_scale(J)
    else:
        scale = scale_inv = np.ones(n)
    Delta = norm(x * scale_inv)
    if Delta == 0:
        Delta = 1.0
    alpha = 0.0  # the Levenberg-Marquardt parameter
    status = None
    while True:
        if norm(g, ord=np.inf) < gtol:
            status = 1
        if status is not None or nfev == max_nfev:
            break
        g_h = scale * g
        J_h = J * scale
        U, s, V = svd(J_h, full_matrices=False)
        V = V.T
        uf = U.T.dot(f)
        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            step_h, alpha = _more_step(n, m, uf, s, V, Delta, alpha)
            Js = J_h.dot(step_h)
            predicted_reduction = -(0.5 * np.dot(Js, Js)
                                    + np.dot(step_h, g_h))
            step = scale * step_h
            x_new = x + step
            f_new = residuals(x_new)
            nfev += 1
            step_h_norm = norm(step_h)
            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            # scipy's update_tr_radius
            if predicted_reduction > 0:
                ratio = actual_reduction / predicted_reduction
            elif predicted_reduction == actual_reduction == 0:
                ratio = 1
            else:
                ratio = 0
            Delta_new = Delta
            if ratio < 0.25:
                Delta_new = 0.25 * step_h_norm
            elif ratio > 0.75 and step_h_norm > 0.95 * Delta:
                Delta_new *= 2.0
            # scipy's check_termination
            ftol_met = actual_reduction < ftol * cost and ratio > 0.25
            xtol_met = norm(step) < xtol * (xtol + norm(x))
            if ftol_met and xtol_met:
                status = 4
            elif ftol_met:
                status = 2
            elif xtol_met:
                status = 3
            if status is not None:
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new
        if actual_reduction > 0:
            x = x_new
            f = f_new
            cost = cost_new
            J = jacobian(x, f)
            g = J.T.dot(f)
            if jac_scale:
                scale, scale_inv = column_scale(J, scale_inv)
    return _FitResult(x=x, cost=cost, jac=J,
                      status=0 if status is None else status, nfev=nfev)


def _more_step(n: int, m: int, uf: np.ndarray, s: np.ndarray, V: np.ndarray,
               Delta: float, alpha: float, rtol: float = 0.01,
               max_iter: int = 10) -> tuple[np.ndarray, float]:
    """Moré's trust-region step p, with (J^T J + alpha I) p = -J^T f and
    |p| = Delta unless the Gauss-Newton step fits, from J = U diag(s) V^T
    and uf = U^T f; alpha starts from the previous step's. scipy's
    ``solve_lsq_trust_region``."""
    def phi_and_derivative(alpha):
        denom = s ** 2 + alpha
        p_norm = norm(suf / denom)
        return p_norm - Delta, -np.sum(suf ** 2 / denom ** 3) / p_norm

    suf = s * uf
    full_rank = m >= n and s[-1] > _EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= Delta:
            return p, 0.0
    alpha_upper = norm(suf) / Delta
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
    for _ in range(max_iter):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper,
                        (alpha_lower * alpha_upper) ** 0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if np.abs(phi) < rtol * Delta:
            break
    p = -V.dot(suf / (s ** 2 + alpha))
    # rescale onto the boundary, so the step never leaves the region
    p *= Delta / norm(p)
    return p, alpha


def _lorentzian_model(params: np.ndarray, energies: np.ndarray,
                      jacobian: bool = False) -> np.ndarray:
    """Sum of peaks w (g/pi) / ((E - e0)^2 + g^2) over (w, e0, log g)
    triples, or its Jacobian in the same parameter order.

    With c = min(1, 1/g) and k = min(1, g), so that g = k/c, a peak reads
    w c k / (pi ((c (E - e0))^2 + k^2)). Neither factor exceeds 1, so no
    log-width overflows.
    """
    w, e0, log_g = params.reshape(-1, 3).T
    c = np.exp(-np.maximum(log_g, 0.0))[:, None]
    k = np.exp(np.minimum(log_g, 0.0))[:, None]
    cd = c * (energies - e0[:, None])
    denom = cd ** 2 + k ** 2
    shape = c * k / (np.pi * denom)
    peaks = w[:, None] * shape
    if not jacobian:
        return peaks.sum(axis=0)
    jac = np.empty((energies.size, params.size))
    jac[:, 0::3] = shape.T
    jac[:, 1::3] = (peaks * 2.0 * c * cd / denom).T
    jac[:, 2::3] = (peaks * (1.0 - 2.0 * k ** 2 / denom)).T
    return jac


def _raw_lorentzian_fit(energies: np.ndarray, data: np.ndarray,
                        starts: list[np.ndarray]):
    best = None
    for x0 in starts:
        res = _trust_region_fit(
            "peak", lambda p: _lorentzian_model(p, energies) - data, x0,
            jac=lambda p: _lorentzian_model(p, energies, jacobian=True),
            max_nfev=MAX_FIT_ITERATIONS * x0.size, gtol=1e-12)
        if best is None or res.cost < best.cost:
            best = res
    if best is None or not best.success:
        cost = np.nan if best is None else best.cost
        raise FitConvergenceError(
            f"peak fit did not converge; best squared residual {cost:.3e}")
    return best


def _pick_peaks(energies: np.ndarray, data: np.ndarray, count: int,
                min_separation: float) -> np.ndarray:
    order = np.argsort(data)[::-1]
    chosen: list[float] = []
    for idx in order:
        e = energies[idx]
        if all(abs(e - c) >= min_separation for c in chosen):
            chosen.append(float(e))
        if len(chosen) == count:
            break
    while len(chosen) < count:
        # not enough distinct maxima; spread the rest over the grid
        chosen.append(float(np.interp(len(chosen) / count,
                                      [0, 1], [energies[0], energies[-1]])))
    return np.asarray(sorted(chosen))


@functools.lru_cache(maxsize=16)
def window_weight_scale(tau_max: float, tau_step: float,
                        window: str = "hann") -> float:
    """Fitted Lorentzian weight a unit-mass level acquires through the
    windowed transform; divide fitted weights by this to undo it.

    It depends on the grid alone, so each grid is fitted once per process.
    """
    tau = tau_grid(tau_max, tau_step)
    w = window_values(tau, window)
    lobe = 2.0 * np.pi / tau_max
    energies = np.linspace(-8.0 * lobe, 8.0 * lobe, 641)
    # the windowed transform of a unit series, as to_energy takes it
    kernel = tau_step * _phase_sum(energies, tau, w).real
    gamma0 = 0.25 * lobe
    x0 = np.array([kernel.max() * np.pi * gamma0, 0.0, np.log(gamma0)])
    best = _raw_lorentzian_fit(energies, kernel, [x0])
    return float(best.x[0])


def fit_lorentzians(spectrum: CorrelatorSpectrum, peak_count: int,
                    seed_centers=None) -> PeakSet:
    """Nonlinear least squares of a sum of Lorentzians to Re(spectrum).

    Each of three starts runs the trust-region reflective fit
    (``_trust_region_fit``) with the analytic Jacobian, and the lowest cost
    wins. Seed centers default to the tallest well-separated data maxima.
    Weights are window-mass corrected whenever the spectrum carries its tau
    grid.
    """
    if peak_count < 1:
        raise ValueError("peak_count must be at least 1")
    energies = spectrum.energies
    data = spectrum.values.real.astype(float)
    if energies.size < 3 * peak_count:
        raise ShortSeriesError(
            f"{energies.size} energy points cannot pin {3 * peak_count} "
            "parameters")
    grid_step = float(np.diff(energies).mean())
    if seed_centers is None:
        seed_centers = _pick_peaks(energies, data, peak_count,
                                   4.0 * grid_step)
    seed_centers = np.asarray(seed_centers, dtype=float)
    if seed_centers.size != peak_count:
        raise ValueError("seed_centers length must equal peak_count")

    gamma0 = 3.0 * grid_step
    x0 = np.empty(3 * peak_count)
    for p, e0 in enumerate(seed_centers):
        height = float(np.interp(e0, energies, data))
        x0[3 * p:3 * p + 3] = (max(height, 1e-12) * np.pi * gamma0, e0,
                               np.log(gamma0))
    starts = [x0]
    for shift, widen in ((0.5, 2.0), (-0.5, 0.5)):
        alt = x0.copy()
        alt[1::3] += shift * gamma0
        alt[2::3] += np.log(widen)
        starts.append(alt)
    best = _raw_lorentzian_fit(energies, data, starts)

    params = best.x.copy()
    # widths were fitted in log space; far below zero gamma underflows to
    # no peak, far above it gamma^2 overflows in the covariance
    log_widths = params[2::3]
    if not (np.all(np.isfinite(params))
            and np.all(np.abs(log_widths) < _LOG_WIDTH_LIMIT)):
        shown = ", ".join(f"{x:.3e}" for x in log_widths)
        raise FitConvergenceError(
            "peak fit ended at a non-finite parameter or a log-width beyond "
            f"+-{_LOG_WIDTH_LIMIT:.0f} (log-widths {shown})")
    gammas = np.exp(log_widths)
    cov = _covariance(best)
    # push the covariance through gamma = e^x
    jac_diag = np.ones_like(params)
    jac_diag[2::3] = gammas
    cov = cov * np.outer(jac_diag, jac_diag)
    params[2::3] = gammas

    scale = 1.0
    if spectrum.tau_max is not None and spectrum.tau_step is not None:
        scale = window_weight_scale(spectrum.tau_max, spectrum.tau_step,
                                    spectrum.window)
        params[0::3] /= scale
        correction = np.ones_like(jac_diag)
        correction[0::3] = 1.0 / scale
        cov = cov * np.outer(correction, correction)

    order = np.argsort(params[1::3])
    perm = np.concatenate([[3 * p, 3 * p + 1, 3 * p + 2] for p in order])
    params = params[perm]
    cov = cov[np.ix_(perm, perm)]
    residual = math.sqrt(2.0 * best.cost / energies.size)
    return PeakSet(centers=params[1::3], widths=params[2::3],
                   weights=params[0::3], covariance=cov, residual=residual,
                   window_scale=scale)


def occupation_from_fdt(k_weight: complex, a_weight: complex,
                        tolerance: float = 1e-3) -> float:
    """n = (ratio - 1)/2 with ratio = i k_weight / a_weight.

    k_weight is the fitted weight of G_K itself, which for a thermal
    diagonal spectrum is -i times a positive number. A ratio below
    1 - tolerance is reported as unphysical but never clamped.
    """
    if a_weight == 0:
        raise ValueError("spectral weight must be nonzero")
    ratio = 1j * complex(k_weight) / complex(a_weight)
    if abs(ratio.imag) > 1e-6 * max(1.0, abs(ratio.real)):
        warnings.warn(f"occupation ratio has imaginary residue {ratio.imag:.3e}",
                      stacklevel=2)
    occupation = (ratio.real - 1.0) / 2.0
    if ratio.real < 1.0 - tolerance:
        warnings.warn(
            f"unphysical occupation {occupation:.3e} from ratio "
            f"{ratio.real:.6f} < 1", stacklevel=2)
    return occupation


def fit_bose_einstein(energies, occupations, sigmas=None) -> TemperatureFit:
    """Weighted fit of n(E) = 1/(e^{E/T} - 1); T is the only parameter.

    The fit is the trust-region reflective method (``_trust_region_fit``) in
    log T, with a forward-difference Jacobian.
    """
    energies = np.asarray(energies, dtype=float)
    occupations = np.asarray(occupations, dtype=float)
    if energies.size != occupations.size or energies.size < 2:
        raise ValueError("need at least 2 matching (E, n) points")
    if np.any(energies <= 0):
        raise ValueError("energies must be positive")
    if np.all(occupations <= 0):
        raise FitConvergenceError("all occupations are nonpositive")
    weights = np.ones_like(energies)
    if sigmas is not None:
        sigmas = np.asarray(sigmas, dtype=float)
        if np.any(sigmas <= 0):
            raise ValueError("sigmas must be positive")
        weights = 1.0 / sigmas ** 2
    root_w = np.sqrt(weights)

    def model(log_t: float) -> np.ndarray:
        x = np.clip(energies * np.exp(-log_t), 1e-12, 700.0)
        return 1.0 / np.expm1(x)

    positive = occupations > 0
    guess = energies[positive] / np.log1p(1.0 / occupations[positive])
    x0 = np.array([np.log(np.median(guess))])
    res = _trust_region_fit(
        "temperature", lambda p: root_w * (model(p[0]) - occupations), x0,
        max_nfev=MAX_FIT_ITERATIONS, gtol=1e-12)
    if not res.success:
        raise FitConvergenceError(
            f"temperature fit did not converge; best squared residual "
            f"{res.cost:.3e}")
    temperature = float(np.exp(res.x[0]))
    cov = _covariance(res)
    log_t_error = float(np.sqrt(abs(cov[0, 0])))
    t_error = temperature * log_t_error
    residual = math.sqrt(2.0 * res.cost / weights.sum())
    return TemperatureFit(beta=1.0 / temperature, temperature=temperature,
                          beta_error=t_error / temperature ** 2,
                          temperature_error=t_error, residual=residual,
                          points=int(energies.size), thermal=True)


def fit_fdt_beta(forward: CorrelatorSpectrum, reverse: CorrelatorSpectrum,
                 e_window: tuple[float, float],
                 min_points: int = 5) -> TemperatureFit:
    """beta from ln f(E) - ln r(E) = beta E over one energy window.

    Only points where both spectra are positive enter; weights proportional
    to min(f, r) suppress noise-floor energies. beta <= 0 is returned
    flagged as not thermal rather than raised.
    """
    if forward.energies.shape != reverse.energies.shape or \
            np.abs(forward.energies - reverse.energies).max() > 1e-9:
        raise GridMismatchError("forward and reversed spectra grids differ")
    lo, hi = float(e_window[0]), float(e_window[1])
    if not lo < hi:
        raise ValueError("energy window must be ordered (low, high)")
    energies = forward.energies
    f = forward.values.real
    r = reverse.values.real
    span = float(energies.max() - energies.min())
    usable = ((energies >= lo) & (energies <= hi)
              & (np.abs(energies) > 1e-12 * max(span, 1.0))
              & (f > 0) & (r > 0))
    n = int(usable.sum())
    if n < min_points:
        raise ShortSeriesError(
            f"only {n} usable energy points in window ({lo}, {hi}); "
            f"need {min_points}")
    e = energies[usable]
    d = np.log(f[usable]) - np.log(r[usable])
    w = np.minimum(f[usable], r[usable])
    denom = float(np.sum(w * e * e))
    beta = float(np.sum(w * e * d) / denom)
    resid = d - beta * e
    scatter = float(np.sum(w * resid ** 2) / (n - 1)) if n > 1 else np.nan
    beta_error = math.sqrt(scatter / denom)
    residual = math.sqrt(float(np.sum(w * resid ** 2) / np.sum(w)))
    thermal = beta > 0
    if thermal:
        temperature = 1.0 / beta
        t_error = beta_error / beta ** 2
        detail = ""
    else:
        temperature = np.inf if beta == 0 else 1.0 / beta
        t_error = np.inf
        detail = "not thermal: fitted beta <= 0"
    return TemperatureFit(beta=beta, temperature=temperature,
                          beta_error=beta_error, temperature_error=t_error,
                          residual=residual, points=n, thermal=thermal,
                          window=(lo, hi), time=forward.com_time,
                          detail=detail)


def temperature_timeline(spectra_pairs, e_window) -> list[TemperatureFit]:
    """One detailed-balance fit per center-of-mass time.

    Times whose window holds too few usable points become flagged gap
    entries instead of failing the whole timeline.
    """
    timeline = []
    for forward, reverse in spectra_pairs:
        try:
            timeline.append(fit_fdt_beta(forward, reverse, e_window))
        except ShortSeriesError as exc:
            timeline.append(TemperatureFit(
                beta=np.nan, temperature=np.nan, beta_error=np.nan,
                temperature_error=np.nan, residual=np.nan, points=0,
                thermal=False, window=(float(e_window[0]),
                                       float(e_window[1])),
                time=forward.com_time, detail=f"gap: {exc}"))
    return timeline


def _biexp_model(params: np.ndarray, times: np.ndarray, floor: float,
                 jacobian: bool = False) -> np.ndarray:
    """log(a1 e^{-t/tau1} + a2 e^{-t/tau2} + floor) over the parameters
    log(a1, a2, tau1, tau2), or its Jacobian in the same order.

    The terms are summed as logarithms, so no amplitude or rate overflows
    and the logarithm stays finite where the terms underflow.
    """
    rates = np.exp(-params[2:])[:, None]
    terms = params[:2, None] - rates * times
    log_model = np.logaddexp(terms[0], terms[1])
    if floor > 0:
        log_model = np.logaddexp(log_model, math.log(floor))
    if not jacobian:
        return log_model
    shares = np.exp(terms - log_model)
    return np.column_stack([shares[0], shares[1],
                            shares[0] * rates[0] * times,
                            shares[1] * rates[1] * times])


def fit_biexponential(times, values, plateau: float,
                      noise_floor: float = 0.0) -> RelaxationFit:
    """Fit |y - plateau| with a1 e^{-t/tau1} + a2 e^{-t/tau2} + floor.

    The objective compares logarithms so both decay scales carry weight.
    Each of three starts runs the trust-region reflective fit
    (``_trust_region_fit``) with the analytic Jacobian and parameters scaled
    by its column norms, and the lowest cost wins. Near-degenerate results
    (tau1 ~ tau2 or one amplitude negligible) are reported in the detail
    field.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size != values.size or times.size < 8:
        raise ShortSeriesError("need at least 8 matching samples")
    deviation = np.abs(values - float(plateau))
    keep = deviation > 0
    if noise_floor > 0:
        # points at or below the noise scale carry no decay information and
        # their logarithms would dominate the objective
        keep &= deviation > noise_floor
    t = times[keep]
    z = deviation[keep]
    if t.size < 8:
        raise ShortSeriesError(
            f"only {t.size} samples sit above the plateau noise floor")
    span = float(t.max() - t.min()) or 1.0
    z0 = float(z.max())

    log_z = np.log(z)

    starts = []
    for split, fast, slow in ((0.8, 0.05, 0.33), (0.5, 0.02, 0.2),
                              (0.9, 0.1, 0.5)):
        starts.append(np.log([split * z0, (1 - split) * z0,
                              fast * span, slow * span]))
    best = None
    for x0 in starts:
        res = _trust_region_fit(
            "relaxation", lambda p: _biexp_model(p, t, noise_floor) - log_z,
            x0, jac=lambda p: _biexp_model(p, t, noise_floor, jacobian=True),
            jac_scale=True, max_nfev=MAX_FIT_ITERATIONS * 4, gtol=1e-12)
        if best is None or res.cost < best.cost:
            best = res
    if not best.success:
        raise FitConvergenceError(
            f"relaxation fit did not converge; best squared residual "
            f"{best.cost:.3e}")
    params = np.exp(best.x)
    cov = _covariance(best)
    errors = params * np.sqrt(np.abs(np.diag(cov)))
    if params[2] > params[3]:
        params = params[[1, 0, 3, 2]]
        errors = errors[[1, 0, 3, 2]]
    a1, a2, t1, t2 = params
    detail = ""
    if t2 < 1.05 * t1 or min(a1, a2) < 1e-3 * max(a1, a2):
        detail = "degenerate: a single exponential describes the data"
    residual_norm = math.sqrt(2.0 * best.cost / t.size)
    return RelaxationFit(amplitude_fast=a1, amplitude_slow=a2,
                         tau_fast=t1, tau_slow=t2, plateau=float(plateau),
                         noise_floor=float(noise_floor), errors=errors,
                         residual=residual_norm, detail=detail)


def plateau_stats(values, tail_fraction: float = 0.2) -> tuple[float, float]:
    """Mean and standard deviation over the final fraction of samples."""
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must sit in (0, 1]")
    values = np.asarray(values, dtype=float)
    count = int(round(tail_fraction * values.size))
    if count < 10:
        raise ShortSeriesError(
            f"tail holds {count} samples; need at least 10")
    tail = values[-count:]
    return float(tail.mean()), float(tail.std())
