"""Fit recovery on synthetic data plus a Gibbs-ensemble thermometer check."""

import types
import warnings

import numpy as np
import pytest
from scipy.optimize import least_squares
from scipy.optimize._numdiff import approx_derivative

import oracles
from bosetherm import thermofit
from bosetherm.correlators import CorrelatorSpectrum, TwoTimeSeries, tau_grid, to_energy
from bosetherm.errors import (
    FitConvergenceError,
    GridMismatchError,
    ShortSeriesError,
)
from bosetherm.hamiltonian import HamiltonianParams
from bosetherm.thermofit import (
    fit_biexponential,
    fit_bose_einstein,
    fit_fdt_beta,
    fit_lorentzians,
    occupation_from_fdt,
    plateau_stats,
    temperature_timeline,
    window_weight_scale,
)


def lorentzian(energies, weight, center, width):
    return weight * (width / np.pi) / ((energies - center) ** 2 + width ** 2)


def spectrum_of(energies, values, kind="spectral", **kw):
    return CorrelatorSpectrum(kind, (0, 0), 0.0, energies,
                              np.asarray(values, dtype=complex), "hann", **kw)


def test_single_lorentzian_recovery_with_noise():
    energies = np.linspace(-5.0, 25.0, 601)
    rng = np.random.default_rng(2)
    height = 1.0 / (np.pi * 0.5)
    data = lorentzian(energies, 1.0, 10.0, 0.5) \
        + rng.normal(0.0, 0.01 * height, energies.size)
    peaks = fit_lorentzians(spectrum_of(energies, data), 1)
    assert abs(peaks.weights[0] - 1.0) < 0.03
    assert abs(peaks.centers[0] - 10.0) < 0.03 * 0.5
    assert abs(peaks.widths[0] - 0.5) < 0.03
    assert peaks.errors.shape == (3,)


def test_two_separated_peaks_recovered():
    energies = np.linspace(0.0, 30.0, 901)
    data = lorentzian(energies, 1.0, 8.0, 0.4) \
        + lorentzian(energies, 0.5, 18.0, 0.6)
    peaks = fit_lorentzians(spectrum_of(energies, data), 2)
    assert abs(peaks.centers[0] - 8.0) < 0.1 * 0.4
    assert abs(peaks.centers[1] - 18.0) < 0.1 * 0.6
    np.testing.assert_allclose(peaks.weights, [1.0, 0.5], rtol=1e-4)
    np.testing.assert_allclose(peaks.widths, [0.4, 0.6], rtol=1e-4)


def test_seed_centers_steer_the_fit():
    energies = np.linspace(0.0, 30.0, 901)
    data = lorentzian(energies, 1.0, 8.0, 0.4) \
        + lorentzian(energies, 0.5, 18.0, 0.6)
    peaks = fit_lorentzians(spectrum_of(energies, data), 2,
                            seed_centers=[7.0, 19.0])
    assert abs(peaks.centers[0] - 8.0) < 0.05
    with pytest.raises(ValueError):
        fit_lorentzians(spectrum_of(energies, data), 2, seed_centers=[8.0])


def test_underflowed_width_is_a_fit_failure(monkeypatch):
    # a fitted log-width of -800 underflows exp() to a zero width
    energies = np.linspace(0.0, 20.0, 401)
    data = lorentzian(energies, 1.0, 10.0, 0.5)
    stuck = types.SimpleNamespace(
        x=np.array([1.0, 10.0, -800.0]), cost=0.0, success=True,
        jac=np.ones((energies.size, 3)))
    monkeypatch.setattr(thermofit, "_raw_lorentzian_fit",
                        lambda *args: stuck)
    with pytest.raises(FitConvergenceError):
        fit_lorentzians(spectrum_of(energies, data), 1)
    stuck.x = np.array([1.0, np.nan, 0.0])
    with pytest.raises(FitConvergenceError):
        fit_lorentzians(spectrum_of(energies, data), 1)
    # nor may a huge one overflow on its way to the covariance
    stuck.x = np.array([1.0, 10.0, 900.0])
    with pytest.raises(FitConvergenceError, match="log-width"):
        fit_lorentzians(spectrum_of(energies, data), 1)


@pytest.mark.parametrize("peaks", [1, 2, 3])
@pytest.mark.parametrize("log_width", [-30.0, -8.0, -1.0, 0.0, 1.0, 8.0, 30.0])
def test_lorentzian_jacobian_matches_finite_differences(peaks, log_width):
    # centres sit midway between grid points, where a narrow peak's tails
    # are smooth on the scale of the difference step
    energies = np.linspace(-5.0, 25.0, 61)
    params = np.empty(3 * peaks)
    params[0::3] = [1.0, -0.4, 2.5][:peaks]
    params[1::3] = [1.25, 3.75, 6.25][:peaks]
    params[2::3] = log_width + np.array([0.0, 0.3, -0.2])[:peaks]
    exact = thermofit._lorentzian_model(params, energies, jacobian=True)
    numeric = approx_derivative(
        lambda p: thermofit._lorentzian_model(p, energies), params,
        method="3-point")
    assert exact.shape == (energies.size, 3 * peaks)
    assert np.abs(exact - numeric).max() <= 1e-6 * np.abs(exact).max()


def test_lorentzian_model_does_not_overflow_at_huge_log_widths():
    energies = np.linspace(-5.0, 25.0, 61)
    params = np.array([1.0, 10.0, 900.0, 1.0, 5.0, -30.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = thermofit._lorentzian_model(params, energies)
        jac = thermofit._lorentzian_model(params, energies, jacobian=True)
    assert np.all(np.isfinite(values)) and np.all(np.isfinite(jac))
    # a peak of width e^900 carries no height on the grid
    narrow_only = thermofit._lorentzian_model(params[3:], energies)
    np.testing.assert_array_equal(values, narrow_only)


@pytest.mark.parametrize("taus", [(0.5, 20.0), (3.0, 3.0 * (1 + 1e-9)),
                                  (1e-3, 1e4)])
@pytest.mark.parametrize("floor", [0.0, 1e-3])
def test_biexponential_jacobian_matches_finite_differences(taus, floor):
    times = np.linspace(0.0, 40.0, 81)
    params = np.log([2.0, 0.3, *taus])
    exact = thermofit._biexp_model(params, times, floor, jacobian=True)
    numeric = approx_derivative(
        lambda p: thermofit._biexp_model(p, times, floor), params,
        method="3-point")
    assert np.abs(exact - numeric).max() <= 1e-6 * np.abs(exact).max()


def nan_model(model, jacobian_only):
    """model with NaN in its Jacobian, and in its values unless
    jacobian_only."""
    def broken(*args, jacobian=False):
        out = model(*args, jacobian=jacobian)
        return np.full_like(out, np.nan) if jacobian or not jacobian_only \
            else out
    return broken


@pytest.mark.parametrize("jacobian_only", [False, True])
def test_non_finite_model_is_a_fit_failure(monkeypatch, jacobian_only):
    # scipy would raise ValueError on either; the fit raises its own type
    energies = np.linspace(0.0, 20.0, 401)
    spectrum = spectrum_of(energies, lorentzian(energies, 1.0, 10.0, 0.5))
    monkeypatch.setattr(thermofit, "_lorentzian_model",
                        nan_model(thermofit._lorentzian_model, jacobian_only))
    with pytest.raises(FitConvergenceError, match="non-finite"):
        fit_lorentzians(spectrum, 1)
    times = np.linspace(0.0, 8.0, 81)
    values = 1.0 + np.exp(-times / 0.5) + 0.3 * np.exp(-times / 3.0)
    monkeypatch.setattr(thermofit, "_biexp_model",
                        nan_model(thermofit._biexp_model, jacobian_only))
    with pytest.raises(FitConvergenceError, match="non-finite"):
        fit_biexponential(times, values, plateau=1.0)


def test_window_mass_correction_recovers_level_weight():
    # one level of spectral mass 0.7; the corrected Lorentzian weight should
    # come back as 0.7 regardless of the window distortion
    tau = tau_grid(8.0, 0.05)
    series = TwoTimeSeries("spectral", (0, 0), 0.0, tau,
                           0.7 * np.exp(-1j * 3.0 * tau))
    lobe = 2.0 * np.pi / 8.0
    energies = np.linspace(3.0 - 8 * lobe, 3.0 + 8 * lobe, 641)
    spec = to_energy(series, energies, window="hann")
    peaks = fit_lorentzians(spec, 1, seed_centers=[3.0])
    assert peaks.window_scale != 1.0
    assert abs(peaks.weights[0] - 0.7) < 5e-3
    assert abs(peaks.centers[0] - 3.0) < 1e-6


def test_window_weight_scale_is_cached_free_and_positive():
    scale_hann = window_weight_scale(10.0, 0.01, "hann")
    scale_rect = window_weight_scale(10.0, 0.01, "rect")
    assert scale_hann > 0 and scale_rect > 0
    # rect keeps more window mass than hann
    assert scale_rect > scale_hann


def test_window_weight_scale_fits_each_grid_once():
    window_weight_scale.cache_clear()
    first = window_weight_scale(6.0, 0.04, "hann")
    assert window_weight_scale(6.0, 0.04, "hann") == first
    assert window_weight_scale(6.0, 0.04, "rect") != first
    info = window_weight_scale.cache_info()
    assert (info.hits, info.misses) == (1, 2)


def test_occupation_from_fdt_inversion():
    assert occupation_from_fdt(-3.0j, 1.0) == pytest.approx(1.0)
    assert occupation_from_fdt(-1.0j, 1.0) == pytest.approx(0.0)
    with pytest.warns(UserWarning, match="unphysical"):
        n = occupation_from_fdt(-0.5j, 1.0)
    assert n == pytest.approx(-0.25)
    with pytest.warns(UserWarning, match="imaginary residue"):
        occupation_from_fdt(-3.0j + 0.1, 1.0)
    with pytest.raises(ValueError):
        occupation_from_fdt(-3.0j, 0.0)


def test_bose_einstein_exact_inversion():
    energies = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
    occupations = 1.0 / np.expm1(energies / 50.0)
    fit = fit_bose_einstein(energies, occupations)
    assert abs(fit.temperature - 50.0) < 50.0 * 1e-6
    assert fit.thermal and fit.points == 5
    weighted = fit_bose_einstein(energies, occupations,
                                 sigmas=np.full(5, 0.01))
    assert abs(weighted.temperature - 50.0) < 50.0 * 1e-6


def test_bose_einstein_input_validation():
    with pytest.raises(ValueError):
        fit_bose_einstein([10.0], [0.5])
    with pytest.raises(ValueError):
        fit_bose_einstein([-1.0, 2.0], [0.5, 0.3])
    with pytest.raises(FitConvergenceError):
        fit_bose_einstein([10.0, 20.0], [-0.5, -0.3])


def test_bose_einstein_inconsistent_points_still_fit():
    energies = np.array([10.0, 20.0])
    occupations = np.array([1.0 / np.expm1(10.0 / 30.0),
                            1.0 / np.expm1(20.0 / 300.0)])
    fit = fit_bose_einstein(energies, occupations)
    assert fit.thermal
    assert fit.residual > 0.01


def test_fdt_beta_synthetic_exact_ratio():
    energies = np.linspace(-30.0, 30.0, 241)
    beta = 1.0 / 200.0
    base = np.exp(-((energies / 15.0) ** 2)) + 0.01
    forward = spectrum_of(energies, base, kind="density_forward")
    reverse = spectrum_of(energies, base * np.exp(-beta * energies),
                          kind="density_reversed")
    fit = fit_fdt_beta(forward, reverse, (-25.0, 25.0))
    assert abs(fit.beta - beta) < 1e-4 * beta
    assert fit.thermal and abs(fit.temperature - 200.0) < 0.1


def test_fdt_beta_flags_and_errors():
    energies = np.linspace(-10.0, 10.0, 81)
    base = np.exp(-((energies / 5.0) ** 2)) + 0.01
    same = spectrum_of(energies, base, kind="density_forward")
    fit = fit_fdt_beta(same, spectrum_of(energies, base,
                                         kind="density_reversed"),
                       (-8.0, 8.0))
    assert fit.beta == 0.0 and not fit.thermal
    assert np.isinf(fit.temperature)
    assert "not thermal" in fit.detail
    sparse = base.copy()
    sparse[np.abs(energies) > 1.0] = -1.0
    with pytest.raises(ShortSeriesError):
        fit_fdt_beta(spectrum_of(energies, sparse),
                     spectrum_of(energies, sparse), (4.0, 8.0))
    other_grid = spectrum_of(energies + 0.1, base)
    with pytest.raises(GridMismatchError):
        fit_fdt_beta(same, other_grid, (-8.0, 8.0))
    with pytest.raises(ValueError):
        fit_fdt_beta(same, same, (8.0, -8.0))


def test_fdt_beta_on_gibbs_ensemble_recovers_temperature():
    # end-to-end: Lehmann-sum correlators of a mu=0 thermal ensemble,
    # windowed transform, detailed-balance regression; the recovered beta
    # must be positive and close to the ensemble value
    params = HamiltonianParams(num_modes=3, num_particles=1,
                               level_spacing=10.0, hopping=1.0,
                               u_intra=1.0, u_inter=0.1)
    beta = 0.05
    tau = tau_grid(30.0, 0.02)
    fwd_vals, rev_vals = oracles.gibbs_density_series(params, beta, 4, 0, 1,
                                                      tau)
    forward = TwoTimeSeries("density_forward", (0, 1), 0.0, tau, fwd_vals)
    reverse = TwoTimeSeries("density_reversed", (0, 1), 0.0, tau, rev_vals)
    energies = np.linspace(-30.0, 30.0, 1201)
    fit = fit_fdt_beta(to_energy(forward, energies),
                       to_energy(reverse, energies), (0.3, 28.0))
    assert fit.thermal
    assert abs(fit.beta - beta) < 0.05 * beta


def test_temperature_timeline_keeps_gaps():
    energies = np.linspace(-10.0, 10.0, 81)
    base = np.exp(-((energies / 5.0) ** 2)) + 0.01
    beta = 0.02
    thermal_pair = (spectrum_of(energies, base),
                    spectrum_of(energies, base * np.exp(-beta * energies)))
    flat_pair = (spectrum_of(energies, base), spectrum_of(energies, base))
    sparse = np.full_like(base, -1.0)
    sparse[:3] = 1.0
    sparse_pair = (spectrum_of(energies, sparse),
                   spectrum_of(energies, sparse))
    timeline = temperature_timeline([thermal_pair, flat_pair, sparse_pair],
                                    (-8.0, 8.0))
    assert len(timeline) == 3
    assert timeline[0].thermal and abs(timeline[0].beta - beta) < 1e-6
    assert not timeline[1].thermal and timeline[1].beta == 0.0
    assert not timeline[2].thermal and timeline[2].detail.startswith("gap:")


def test_biexponential_recovery_with_noise():
    rng = np.random.default_rng(9)
    times = np.linspace(0.0, 8.0, 161)
    true = (3.0, 0.4, 0.25, 1.5)
    deviation = true[0] * np.exp(-times / true[2]) \
        + true[1] * np.exp(-times / true[3])
    values = 5.15 + deviation * (1.0 + 0.02 * rng.normal(size=times.size))
    fit = fit_biexponential(times, values, plateau=5.15)
    assert fit.tau_fast <= fit.tau_slow
    assert abs(fit.amplitude_fast - true[0]) < 0.05 * true[0]
    assert abs(fit.amplitude_slow - true[1]) < 0.05 * true[1]
    assert abs(fit.tau_fast - true[2]) < 0.05 * true[2]
    assert abs(fit.tau_slow - true[3]) < 0.05 * true[3]
    assert fit.detail == ""


def test_biexponential_degenerate_single_exponential():
    times = np.linspace(0.0, 6.0, 121)
    values = 5.0 + 2.0 * np.exp(-times / 0.8)
    fit = fit_biexponential(times, values, plateau=5.0)
    assert fit.detail != ""
    assert abs(fit.amplitude_fast + fit.amplitude_slow - 2.0) < 0.02


def test_biexponential_needs_enough_samples():
    with pytest.raises(ShortSeriesError):
        fit_biexponential([0.0, 1.0, 2.0], [1.0, 0.5, 0.2], plateau=0.0)


def test_plateau_stats_basics():
    constant = np.full(100, 2.5)
    mean, std = plateau_stats(constant, tail_fraction=0.5)
    assert mean == 2.5 and std == 0.0
    rng = np.random.default_rng(4)
    noisy = rng.normal(3.0, 0.05, size=400)
    mean, std = plateau_stats(noisy, tail_fraction=0.25)
    assert abs(mean - 3.0) < 0.02
    assert abs(std - 0.05) < 0.2 * 0.05
    with pytest.raises(ShortSeriesError):
        plateau_stats(np.ones(20), tail_fraction=0.2)
    with pytest.raises(ValueError):
        plateau_stats(np.ones(100), tail_fraction=1.5)


@pytest.mark.parametrize("tau_max,tau_step", [(12.0, 0.04), (6.0, 0.04)])
def test_window_weight_scale_matches_the_direct_kernel(tau_max, tau_step):
    def direct(window):
        # the scale with a dense kernel formed by np.exp in one go
        tau = tau_grid(tau_max, tau_step)
        w = thermofit.window_values(tau, window)
        lobe = 2.0 * np.pi / tau_max
        energies = np.linspace(-8.0 * lobe, 8.0 * lobe, 641)
        kernel = tau_step * (np.exp(1j * np.outer(energies, tau)) @ w).real
        gamma0 = 0.25 * lobe
        x0 = np.array([kernel.max() * np.pi * gamma0, 0.0, np.log(gamma0)])
        return float(thermofit._raw_lorentzian_fit(energies, kernel,
                                                   [x0]).x[0])

    window_weight_scale.cache_clear()
    for window in ("hann", "rect"):
        scale = window_weight_scale(tau_max, tau_step, window)
        assert scale == pytest.approx(direct(window), rel=1e-12, abs=0)


# The fits run a port of scipy's trust-region least squares; scipy itself is
# the oracle. Each call the fitters make is replayed through least_squares
# with the options the port stands for, and the result compared byte for
# byte.

def record_fits(monkeypatch):
    """Spy on the port: every call the fitters make, with its result."""
    calls = []
    port = thermofit._trust_region_fit

    def spy(what, fun, x0, jac=None, **options):
        result = port(what, fun, x0, jac, **options)
        calls.append((fun, x0.copy(), jac, options, result))
        return result
    monkeypatch.setattr(thermofit, "_trust_region_fit", spy)
    return calls


def assert_matches_scipy(calls):
    assert calls
    for fun, x0, jac, options, result in calls:
        assert set(options) <= {"max_nfev", "jac_scale", "gtol"}
        oracle = least_squares(
            fun, x0, jac="2-point" if jac is None else jac,
            x_scale="jac" if options.get("jac_scale") else 1.0,
            max_nfev=options["max_nfev"], gtol=options.get("gtol", 1e-8))
        assert result.x.tobytes() == oracle.x.tobytes()
        assert np.float64(result.cost).tobytes() == \
            np.float64(oracle.cost).tobytes()
        assert result.jac.shape == oracle.jac.shape
        assert result.jac.tobytes() == oracle.jac.tobytes()
        assert result.success == oracle.success
        assert result.status == oracle.status


@pytest.mark.parametrize("peaks,points", [(1, 1401), (3, 351)])
def test_lorentzian_fits_match_scipy(monkeypatch, peaks, points):
    energies = np.linspace(-5.0, 25.0, points)
    rng = np.random.default_rng(peaks)
    data = sum(lorentzian(energies, w, c, g) for w, c, g in
               [(1.0, 4.0, 0.5), (0.6, 11.0, 0.8), (0.3, 18.0, 0.4)][:peaks])
    data = data + rng.normal(0.0, 0.005, points)
    calls = record_fits(monkeypatch)
    fit_lorentzians(spectrum_of(energies, data), peaks)
    assert len(calls) == 3
    assert_matches_scipy(calls)


def test_lorentzian_fit_at_its_evaluation_budget_matches_scipy(monkeypatch):
    # two evaluations per parameter: every start stops on the budget
    energies = np.linspace(0.0, 20.0, 401)
    data = lorentzian(energies, 1.0, 10.0, 0.5)
    calls = record_fits(monkeypatch)
    monkeypatch.setattr(thermofit, "MAX_FIT_ITERATIONS", 2)
    with pytest.raises(FitConvergenceError, match="did not converge"):
        fit_lorentzians(spectrum_of(energies, data), 1, seed_centers=[6.0])
    assert [c[-1].status for c in calls] == [0, 0, 0]
    assert [c[-1].nfev for c in calls] == [6, 6, 6]
    assert_matches_scipy(calls)


def test_coincident_peaks_match_scipy(monkeypatch):
    # two peaks seeded on one centre: equal Jacobian columns, rank 3 of 6
    energies = np.linspace(-5.0, 25.0, 351)
    data = lorentzian(energies, 1.0, 10.0, 0.5)
    calls = record_fits(monkeypatch)
    fit_lorentzians(spectrum_of(energies, data), 2, seed_centers=[10.0, 10.0])
    _, x0, jac, _, _ = calls[0]
    assert np.linalg.matrix_rank(jac(x0)) == 3
    assert_matches_scipy(calls)


@pytest.mark.parametrize("weighted", [False, True])
def test_bose_einstein_fit_matches_scipy(monkeypatch, weighted):
    rng = np.random.default_rng(5)
    energies = np.array([3.0, 7.0, 12.0, 18.0, 25.0, 33.0])
    occupations = (1.0 / np.expm1(energies / 14.0)) \
        * (1.0 + 0.05 * rng.normal(size=energies.size))
    sigmas = 0.02 + 0.1 * occupations if weighted else None
    calls = record_fits(monkeypatch)
    fit_bose_einstein(energies, occupations, sigmas)
    assert len(calls) == 1 and calls[0][2] is None  # forward differences
    assert_matches_scipy(calls)


def test_biexponential_fit_matches_scipy(monkeypatch):
    rng = np.random.default_rng(11)
    times = np.linspace(0.0, 8.0, 161)
    deviation = 3.0 * np.exp(-times / 0.25) + 0.4 * np.exp(-times / 1.5)
    values = 5.15 + deviation * (1.0 + 0.02 * rng.normal(size=times.size))
    calls = record_fits(monkeypatch)
    fit_biexponential(times, values, plateau=5.15, noise_floor=1e-3)
    assert len(calls) == 3
    assert all(c[3]["jac_scale"] for c in calls)
    assert_matches_scipy(calls)
