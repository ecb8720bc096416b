from types import SimpleNamespace

import numpy as np
import pytest
from scipy.constants import c, hbar
from scipy.integrate import trapezoid

from poledspdc import (
    ChirpedSource,
    NoSolutionError,
    PumpSpec,
    RandomEnsembleSource,
    Spectrum,
    WavelengthRangeError,
    build_periodic,
    build_random,
    calibrate,
    coupling_g,
    fwhm,
    pair_rate,
    rate_ratio,
    sigma_for_zeta,
    signal_spectrum,
    spectral_density,
    symmetric_grid,
)
from poledspdc import phasematch, spectra
from poledspdc.spectra import half_max_interval, mismatch_on_grid

SINC_HALF_MAX = 1.3915573782515105   # sin(x)/x = 1/sqrt(2)


def linear_r2(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    prediction = slope * np.asarray(x) + intercept
    residual = np.sum((y - prediction) ** 2)
    total = np.sum((y - np.mean(y)) ** 2)
    return 1.0 - residual / total


class TestGrid:
    def test_symmetry_about_degenerate_frequency(self, grid_small, pump):
        mirrored = pump.omega_p0 - grid_small.omega[::-1]
        assert np.allclose(grid_small.omega, mirrored, rtol=1e-13)

    def test_covers_requested_window(self, grid_small):
        lam = grid_small.wavelengths
        assert lam.min() <= 1.0e-6 + 1e-12
        assert lam.max() >= 2.6e-6 - 1e-12

    def test_window_runs_from_lambda_min_to_its_mirror(self, model, pump):
        # the mirror of 1.0 um about the 775 nm pump lies at 3.44 um
        grid = symmetric_grid(pump.omega_p0, model=model)
        assert grid.wavelengths[[0, -1]] == pytest.approx([3.444e-6, 1.0e-6], rel=1e-3)
        wider = symmetric_grid(pump.omega_p0, 0.95e-6, model=model)
        assert wider.omega[0] < grid.omega[0] and wider.omega[-1] > grid.omega[-1]

    def test_rejects_window_outside_dispersion_range(self, model, pump):
        # the mirror of 0.8 um lies at 24.8 um, beyond the 5.0 um end of the fit
        with pytest.raises(WavelengthRangeError):
            symmetric_grid(pump.omega_p0, 0.80e-6, 256, model=model)

    def test_rejects_degenerate_window(self, pump):
        # the window brackets omega_p/2 only for 0 < lambda_min < 2 lambda_p
        for lambda_min in (2.0e-6, 1.6e-6, 0.0, -1e-6, np.inf, np.nan):
            with pytest.raises(ValueError, match="lambda_min"):
                symmetric_grid(pump.omega_p0, lambda_min, 256)


class TestCouplingG:
    def test_signal_idler_swap_invariance(self, model, pump):
        w1 = 2 * np.pi * c / 1.3e-6
        w2 = pump.omega_p0 - w1
        assert abs(coupling_g(w1, w2, model)) == pytest.approx(
            abs(coupling_g(w2, w1, model)), rel=1e-14)

    def test_two_point_ratio_against_hand_value(self, model, pump):
        # |g(w1, wp-w1)|^2 / |g(w0, w0)|^2 at lambda_s = 1.3 um, frozen from
        # an independent evaluation of w_s w_i / (n_s n_i)
        w1 = 2 * np.pi * c / 1.3e-6
        w0 = pump.omega_p0 / 2
        ratio = abs(coupling_g(w1, pump.omega_p0 - w1, model)) ** 2 \
            / abs(coupling_g(w0, w0, model)) ** 2
        assert ratio == pytest.approx(0.963992670433948, rel=1e-9)

    def test_zero_frequency_rejected(self, model):
        with pytest.raises(WavelengthRangeError):
            coupling_g(0.0, 1e15, model)


class TestSpectralDensity:
    def test_periodic_spectrum_is_narrow_sinc_like(self, model, pump, grid_mid, l0):
        stack = build_periodic(2000, l0)
        density = spectral_density(grid_mid, pump, model, stack)
        assert np.all(density.values >= 0)
        width = fwhm(signal_spectrum(density))
        # independent width prediction: detuning = -k'' nu^2 crossing the
        # Dirichlet half-max at 2 * SINC_HALF_MAX / total_length
        w0 = pump.omega_p0 / 2
        mm = mismatch_on_grid(grid_mid, pump, model)
        omega = grid_mid.omega
        # detuning(nu) = -k'' nu^2 to leading order, so d2(detuning)/dnu2 = -2 k''
        curvature = np.interp(0.0, omega - w0,
                              np.gradient(np.gradient(mm.delta_k_small, omega), omega))
        k2 = abs(curvature) / 2
        dk_half = 2 * SINC_HALF_MAX / stack.total_length
        nu_half = np.sqrt(dk_half / k2)
        assert width.width_omega == pytest.approx(2 * nu_half, rel=0.05)

    def test_single_realization_is_multi_peaked(self, model, pump, grid_mid, l0):
        stack = build_random(2000, l0, 2.3e-6, seed=11)
        values = spectral_density(grid_mid, pump, model, stack).values
        interior = values[1:-1]
        peaks = (interior > values[:-2]) & (interior > values[2:]) & (interior > 0.1 * values.max())
        assert peaks.sum() > 10

    def test_realization_spans_wider_than_chirped_envelope(self, model, pump, grid_mid, l0):
        sigma = 2.3e-6
        stack = build_random(2000, l0, sigma, seed=11)
        s_real = signal_spectrum(spectral_density(grid_mid, pump, model, stack))
        chirp = ChirpedSource(n_domains=2000, zeta=1e6)
        s_chirp = signal_spectrum(spectral_density(grid_mid, pump, model, chirp))
        lo_r, hi_r = half_max_interval(grid_mid.omega, s_real.values)
        lo_c, hi_c = half_max_interval(grid_mid.omega, s_chirp.values)
        assert (hi_r - lo_r) > 0.8 * (hi_c - lo_c)
        # the local peaks reach out well beyond the smooth envelope's width
        above = s_real.values > 0.1 * s_real.values.max()
        realization_span = grid_mid.omega[above][-1] - grid_mid.omega[above][0]
        assert realization_span > (hi_c - lo_c)

    def test_ensemble_matches_chirped_width_at_matched_sigma(self, model, pump, grid_mid):
        sigma = sigma_for_zeta(1e6, 2000, model, grid_mid, pump)
        rand = RandomEnsembleSource(n_domains=2000, sigma=sigma)
        chirp = ChirpedSource(n_domains=2000, zeta=1e6)
        w_rand = fwhm(signal_spectrum(spectral_density(grid_mid, pump, model, rand)))
        w_chirp = fwhm(signal_spectrum(spectral_density(grid_mid, pump, model, chirp)))
        assert w_rand.width_omega == pytest.approx(w_chirp.width_omega, rel=1e-3)

    def test_sigma_zero_source_routes_to_periodic(self, model, pump, grid_small, l0):
        # no branch: the closed form's sigma = 0 limit is the periodic stack
        source = RandomEnsembleSource(n_domains=500, sigma=0.0)
        stack = build_periodic(500, l0)
        a = spectral_density(grid_small, pump, model, source).values
        b = spectral_density(grid_small, pump, model, stack).values
        assert np.max(np.abs(a - b)) <= 1e-10 * b.max()

    @pytest.mark.parametrize("power", [0.0, -0.1, np.nan])
    def test_nonpositive_or_nan_pump_power_rejected(self, power):
        with pytest.raises(ValueError, match="pump power"):
            PumpSpec(omega_p0=2 * np.pi * c / 775e-9, power=power)

    def test_negative_sigma_source_rejected(self, model, pump, grid_small):
        source = RandomEnsembleSource(n_domains=500, sigma=-1e-9)
        with pytest.raises(ValueError, match="sigma must be >= 0"):
            spectral_density(grid_small, pump, model, source)

    def test_monte_carlo_mean_spectrum_matches_analytic(self, model, pump, grid_small, l0):
        sigma, n, m = 2e-6, 800, 500
        analytic = spectral_density(grid_small, pump, model,
                                    RandomEnsembleSource(n_domains=n, sigma=sigma)).values
        samples = np.empty((m, grid_small.omega.size))
        for i in range(m):
            stack = build_random(n, l0, sigma, seed=50_000 + i)
            samples[i] = spectral_density(grid_small, pump, model, stack).values
        mean = samples.mean(axis=0)
        stderr = samples.std(axis=0, ddof=1) / np.sqrt(m)
        assert np.all(np.abs(mean - analytic) <= 3 * stderr + 1e-300)


class TestSignalSpectrum:
    def test_ratio_to_density_is_hbar_omega(self, model, pump, grid_small, l0):
        density = spectral_density(grid_small, pump, model, build_periodic(200, l0))
        spectrum = signal_spectrum(density)
        mask = density.values > 0
        ratio = spectrum.values[mask] / density.values[mask]
        assert np.allclose(ratio, hbar * grid_small.omega[mask], rtol=1e-12)

    def test_normalization_mode_emits_one_photon(self, model, pump, grid_small, l0):
        density = spectral_density(grid_small, pump, model, build_periodic(200, l0))
        spectrum = signal_spectrum(density, normalize=True)
        photons = trapezoid(spectrum.values / (hbar * grid_small.omega), grid_small.omega)
        assert photons == pytest.approx(1.0, rel=1e-12)

    def test_unnormalized_scales_with_pump_power(self, model, grid_small, l0):
        stack = build_periodic(200, l0)
        pump_1 = PumpSpec(omega_p0=2 * np.pi * c / 775e-9, power=0.1)
        pump_2 = PumpSpec(omega_p0=2 * np.pi * c / 775e-9, power=0.2)
        s1 = signal_spectrum(spectral_density(grid_small, pump_1, model, stack))
        s2 = signal_spectrum(spectral_density(grid_small, pump_2, model, stack))
        assert np.allclose(s2.values, 2 * s1.values, rtol=1e-12)


class TestFwhm:
    def test_sinc_squared_analytic_width(self, grid_small):
        scale = 4.0e-14
        x = (grid_small.omega - grid_small.center) * scale
        values = np.sinc(x / np.pi) ** 2      # numpy sinc is sin(pi t)/(pi t)
        width = fwhm(Spectrum(grid_small, values))
        expected = 2 * SINC_HALF_MAX / scale
        assert width.width_omega == pytest.approx(expected, abs=2 * grid_small.step)

    def test_two_peak_spectrum_uses_outermost_crossings(self, grid_small):
        nu = grid_small.detuning
        spread = nu.max() / 3
        values = np.exp(-((nu - spread) / (spread / 5)) ** 2) \
            + np.exp(-((nu + spread) / (spread / 5)) ** 2)
        width = fwhm(Spectrum(grid_small, values))
        assert width.width_omega > 2 * spread      # not a single-lobe width

    def test_zero_spectrum_is_an_error(self, grid_small):
        with pytest.raises(ValueError):
            fwhm(Spectrum(grid_small, np.zeros_like(grid_small.omega)))

    def test_wavelength_width_consistent_with_crossings(self, grid_small):
        nu = grid_small.detuning
        values = np.exp(-(nu / (nu.max() / 4)) ** 2)
        width = fwhm(Spectrum(grid_small, values))
        expected = 2 * np.pi * c * (1 / width.omega_lo - 1 / width.omega_hi)
        assert width.width_wavelength == pytest.approx(expected, rel=1e-12)


class TestRatesAndCalibration:
    def test_calibrated_reference_rate_is_exact(self, model, pump, grid_mid, calibration, l0):
        density = spectral_density(grid_mid, pump, model, build_periodic(2000, l0))
        report = pair_rate(density, calibration)
        assert report.calibrated
        assert report.pair_rate == pytest.approx(2e7, rel=1e-12)

    def test_rate_linear_in_pump_power(self, model, grid_mid, calibration, l0):
        stack = build_periodic(2000, l0)
        pump_2 = PumpSpec(omega_p0=2 * np.pi * c / 775e-9, power=0.2)
        report = pair_rate(spectral_density(grid_mid, pump_2, model, stack), calibration)
        assert report.pair_rate == pytest.approx(4e7, rel=1e-12)

    def test_uncalibrated_rate_is_flagged(self, model, pump, grid_small, l0):
        density = spectral_density(grid_small, pump, model, build_periodic(100, l0))
        report = pair_rate(density)
        assert not report.calibrated
        assert report.pair_rate > 0

    def test_analytic_rates_linear_in_domain_count(self, model, pump, grid_mid, calibration):
        counts = [500, 1000, 2000, 4000]
        slopes = {}
        for sigma in (0.5e-6, 2e-6):
            rates = []
            for n in counts:
                density = spectral_density(grid_mid, pump, model,
                                           RandomEnsembleSource(n_domains=n, sigma=sigma))
                rates.append(pair_rate(density, calibration).pair_rate)
            assert linear_r2(counts, rates) > 0.999
            slopes[sigma] = np.polyfit(counts, rates, 1)[0]
        assert slopes[2e-6] < slopes[0.5e-6]

    def test_calibration_idempotent(self, model, pump, grid_mid, calibration, l0):
        density = spectral_density(grid_mid, pump, model, build_periodic(2000, l0))
        raw = pair_rate(density).pair_rate
        again = 2e7 / raw
        assert again == pytest.approx(calibration, rel=1e-12)

    def test_calibration_stable_under_grid_refinement(self, model, pump):
        grids = [symmetric_grid(pump.omega_p0, n_samples=n, model=model)
                 for n in (2 ** 13, 2 ** 14)]
        constants = [calibrate(model, g, pump) for g in grids]
        assert abs(constants[1] - constants[0]) / constants[0] < 1e-3


class TestSigmaZetaMap:
    def test_matched_sigma_increases_with_chirp(self, model, pump, grid_mid):
        values = [sigma_for_zeta(z, 2000, model, grid_mid, pump) for z in (1e5, 5e5, 1e6)]
        assert values[0] < values[1] < values[2]

    def test_small_chirp_needs_small_sigma(self, model, pump, grid_mid):
        assert sigma_for_zeta(1e4, 2000, model, grid_mid, pump) < 5e-7

    def test_solver_postcondition(self, model, pump, grid_mid):
        sigma = sigma_for_zeta(1e6, 2000, model, grid_mid, pump)
        rand = RandomEnsembleSource(n_domains=2000, sigma=sigma)
        chirp = ChirpedSource(n_domains=2000, zeta=1e6)
        w_rand = fwhm(signal_spectrum(spectral_density(grid_mid, pump, model, rand))).width_omega
        w_chirp = fwhm(signal_spectrum(spectral_density(grid_mid, pump, model, chirp))).width_omega
        assert abs(w_rand - w_chirp) <= 1e-3 * w_chirp

    def test_width_evaluations_per_solve(self, model, pump, grid_mid, monkeypatch):
        calls = []
        f_avg_sq = phasematch.f_avg_sq

        def counted(*args, **kwargs):
            calls.append(1)
            return f_avg_sq(*args, **kwargs)

        monkeypatch.setattr(phasematch, "f_avg_sq", counted)
        sigma_for_zeta(1e6, 2000, model, grid_mid, pump)
        assert 0 < len(calls) <= 7

    def test_unconverged_solve_raises(self, model, pump, grid_mid, monkeypatch):
        def stalled(f, a, b, **kwargs):
            return a, SimpleNamespace(converged=False, flag="convergence error")

        monkeypatch.setattr(spectra, "brentq", stalled)
        with pytest.raises(NoSolutionError, match="did not converge"):
            sigma_for_zeta(1e6, 2000, model, grid_mid, pump)

    def test_no_bracket_raises(self, model, pump, grid_mid, monkeypatch):
        # no natural input is left unbracketed, so narrow the bracket
        monkeypatch.setattr(spectra, "SIGMA_BRACKET", (1e-9, 1e-7))
        with pytest.raises(NoSolutionError, match="not bracketed"):
            sigma_for_zeta(1e6, 2000, model, grid_mid, pump)


class TestRateRatio:
    def test_ratio_near_one_at_small_chirp(self, model, pump, grid_mid):
        ratio = rate_ratio(1e4, 2000, model, grid_mid, pump)
        assert ratio == pytest.approx(1.0, abs=0.05)

    def test_ratio_independent_of_pump_power(self, model, grid_mid):
        pump_1 = PumpSpec(omega_p0=2 * np.pi * c / 775e-9, power=0.1)
        pump_2 = PumpSpec(omega_p0=2 * np.pi * c / 775e-9, power=0.7)
        sigma = sigma_for_zeta(5e5, 2000, model, grid_mid, pump_1)
        r1 = rate_ratio(5e5, 2000, model, grid_mid, pump_1, sigma=sigma)
        r2 = rate_ratio(5e5, 2000, model, grid_mid, pump_2, sigma=sigma)
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_zero_chirp_is_the_periodic_rate(self, model, pump, grid_mid, l0):
        # zeta = 0 takes the general chirped path, which must land on the
        # periodic stack bit for bit
        sigma = 2.3e-6
        random_rate = pair_rate(spectral_density(
            grid_mid, pump, model, RandomEnsembleSource(n_domains=2000, sigma=sigma))).pair_rate
        periodic_rate = pair_rate(spectral_density(
            grid_mid, pump, model, build_periodic(2000, l0))).pair_rate
        ratio = rate_ratio(0.0, 2000, model, grid_mid, pump, sigma=sigma)
        assert ratio == random_rate / periodic_rate


class TestGridRefinement:
    def test_rate_and_width_drift_below_half_percent(self, model, pump):
        coarse = symmetric_grid(pump.omega_p0, n_samples=2 ** 12, model=model)
        fine = symmetric_grid(pump.omega_p0, n_samples=2 ** 13, model=model)
        for source in (RandomEnsembleSource(n_domains=2000, sigma=2.3e-6),
                       ChirpedSource(n_domains=2000, zeta=1e6)):
            rates, widths = [], []
            for grid in (coarse, fine):
                density = spectral_density(grid, pump, model, source)
                rates.append(pair_rate(density).pair_rate)
                widths.append(fwhm(signal_spectrum(density)).width_omega)
            assert abs(rates[1] - rates[0]) / rates[0] < 0.005
            assert abs(widths[1] - widths[0]) / widths[0] < 0.005
