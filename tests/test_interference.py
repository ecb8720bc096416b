import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import trapezoid

from poledspdc import (
    PhaseUnavailableError,
    PhaseUnwrapError,
    RandomEnsembleSource,
    TwoPhotonAmplitude,
    build_chirped,
    build_periodic,
    build_random,
    compensate_phase,
    default_hom_delays,
    hom_trace,
    mean_abs_f_sq,
    spectral_density,
    sum_frequency_trace,
    two_photon_amplitude,
)
from poledspdc.interference import fft_delay_axis
from poledspdc.spectra import mismatch_on_grid, symmetric_grid

from helpers import trace_fwhm

# Delay rows per block of the dense oracles: 100 x 2^14 complex is 26 MB.
ORACLE_BLOCK = 100


def dense_hom_rates(curve, grid, delays):
    """Oracle: the coincidence trace from a delays x frequency cosine matrix."""
    baseline = trapezoid(curve, grid.omega)
    return np.concatenate([
        1.0 - trapezoid(np.cos(2.0 * np.outer(block, grid.detuning)) * curve,
                        grid.omega, axis=1) / baseline
        for block in np.array_split(delays, max(1, delays.size // ORACLE_BLOCK))
    ])


def dense_sum_frequency(values, grid, delays):
    """Oracle: unit-area sum-frequency intensity from a delays x frequency
    matrix of complex exponentials."""
    raw = np.concatenate([
        np.abs(grid.step * (np.exp(-1j * np.outer(block, grid.detuning)) @ values)) ** 2
        for block in np.array_split(delays, max(1, delays.size // ORACLE_BLOCK))
    ])
    return raw / trapezoid(raw, delays)


@pytest.fixture(scope="module")
def grid_default(model, pump):
    return symmetric_grid(pump.omega_p0, model=model)


@pytest.fixture(scope="module")
def matched_sigma():
    # width-matched disorder for zeta = 1e6, solved once in test_spectra;
    # frozen here to keep this module independent and fast
    return 2.558e-6


class TestHomTrace:
    def test_zero_delay_gives_zero_rate(self, model, pump, grid_mid, l0):
        curve = mean_abs_f_sq(grid_mid, pump, model,
                              RandomEnsembleSource(n_domains=2000, sigma=2e-6))
        trace = hom_trace(curve, grid_mid, pump, np.array([0.0]))
        assert abs(trace.rates[0]) < 1e-12

    def test_large_delay_recovers_unity(self, model, pump, grid_mid):
        curve = mean_abs_f_sq(grid_mid, pump, model,
                              RandomEnsembleSource(n_domains=2000, sigma=2e-6))
        delays = np.array([-200e-15, 200e-15])
        trace = hom_trace(curve, grid_mid, pump, delays)
        assert np.allclose(trace.rates, 1.0, atol=0.02)

    def test_rates_within_physical_bounds(self, model, pump, grid_mid, matched_sigma, l0):
        for source in (RandomEnsembleSource(n_domains=2000, sigma=matched_sigma),
                       build_chirped(2000, l0, 1e6, np.pi / l0),
                       build_random(2000, l0, matched_sigma, seed=3)):
            curve = mean_abs_f_sq(grid_mid, pump, model, source)
            trace = hom_trace(curve, grid_mid, pump)
            assert np.all(trace.rates >= -1e-12)
            assert np.all(trace.rates <= 2.0 + 1e-12)

    def test_dip_width_is_a_few_femtoseconds(self, model, pump, grid_mid, matched_sigma):
        curve = mean_abs_f_sq(grid_mid, pump, model,
                              RandomEnsembleSource(n_domains=2000, sigma=matched_sigma))
        trace = hom_trace(curve, grid_mid, pump)
        width = trace_fwhm(trace.delays, 1.0 - trace.rates)
        assert 1e-15 < width < 20e-15

    def test_trace_depends_only_on_the_curve(self, model, pump, grid_mid):
        # analytic curve fed twice through different containers
        curve = mean_abs_f_sq(grid_mid, pump, model,
                              RandomEnsembleSource(n_domains=1000, sigma=1.5e-6))
        a = hom_trace(curve, grid_mid, pump)
        b = hom_trace(curve.copy(), grid_mid, pump)
        assert np.array_equal(a.rates, b.rates)

    @pytest.mark.parametrize("delays", [default_hom_delays(), np.array([0.0]),
                                        np.array([-200e-15, 200e-15])],
                             ids=["default", "zero", "pm200fs"])
    def test_chirp_z_matches_dense_oracle(self, model, pump, grid_default, delays):
        curve = mean_abs_f_sq(grid_default, pump, model,
                              RandomEnsembleSource(n_domains=2000, sigma=2.5e-6))
        trace = hom_trace(curve, grid_default, pump, delays)
        assert np.max(np.abs(trace.rates - dense_hom_rates(curve, grid_default, delays))) <= 1e-10
        zero = np.flatnonzero(delays == 0.0)
        assert np.all(np.abs(trace.rates[zero]) <= 1e-12)

    def test_nonuniform_grid_rejected(self, pump, grid_small):
        omega = grid_small.omega.copy()
        omega[3] *= 1.0001
        bad_grid = type(grid_small)(omega, grid_small.step, grid_small.center)
        with pytest.raises(ValueError, match="evenly spaced"):
            hom_trace(np.ones(omega.size), bad_grid, pump)

    def test_zero_curve_rejected(self, model, pump, grid_mid):
        with pytest.raises(ValueError):
            hom_trace(np.zeros(grid_mid.omega.size), grid_mid, pump)

    def test_wrong_length_rejected(self, model, pump, grid_mid):
        with pytest.raises(ValueError):
            hom_trace(np.ones(17), grid_mid, pump)


class TestTwoPhotonAmplitude:
    def test_magnitude_squared_tracks_density(self, model, pump, grid_small, l0):
        stack = build_random(300, l0, 1.5e-6, seed=21)
        amplitude = two_photon_amplitude(stack, grid_small, pump, model)
        density = spectral_density(grid_small, pump, model, stack)
        ratio = np.abs(amplitude.values) ** 2 / (2 * np.pi * density.values)
        assert np.allclose(ratio, 1.0, rtol=1e-10)

    def test_periodic_phase_is_quadratic_with_dispersion_curvature(self, model, pump, grid_mid, l0):
        stack = build_periodic(2000, l0)
        amplitude = two_photon_amplitude(stack, grid_mid, pump, model)
        power = np.abs(amplitude.values) ** 2
        band = power >= power.max() / 2
        nu = grid_mid.detuning[band]
        phase = np.unwrap(np.angle(amplitude.values[band]))
        coeffs = np.polyfit(nu, phase, 2)
        residual = phase - np.polyval(coeffs, nu)
        assert np.sqrt(np.mean(residual ** 2)) < 0.05
        # quadratic coefficient is -k'' L / 2 (phase accumulated to mid-stack)
        mm = mismatch_on_grid(grid_mid, pump, model)
        curvature = np.interp(0.0, grid_mid.detuning,
                              np.gradient(np.gradient(mm.delta_k_small, grid_mid.omega),
                                          grid_mid.omega))
        k2 = abs(curvature) / 2
        assert coeffs[0] == pytest.approx(-k2 * stack.total_length / 2, rel=0.03)

    def test_ensemble_source_rejected(self, model, pump, grid_small):
        with pytest.raises(PhaseUnavailableError):
            two_photon_amplitude(RandomEnsembleSource(n_domains=10, sigma=1e-6),
                                 grid_small, pump, model)


class TestCompensatePhase:
    def test_ideal_zeroes_the_phase(self, model, pump, grid_small, l0):
        amplitude = two_photon_amplitude(build_random(200, l0, 2e-6, seed=5),
                                         grid_small, pump, model)
        ideal = compensate_phase(amplitude, "ideal")
        assert ideal.compensation == "ideal"
        assert np.all(ideal.values.real >= 0)
        assert np.all(ideal.values.imag == 0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_magnitudes_preserved_in_both_modes(self, model, pump, grid_small, l0, seed):
        amplitude = two_photon_amplitude(build_random(150, l0, 2e-6, seed=seed),
                                         grid_small, pump, model)
        magnitude = np.abs(amplitude.values)
        for mode in ("ideal", "quadratic"):
            out = compensate_phase(amplitude, mode)
            assert np.allclose(np.abs(out.values), magnitude, rtol=1e-12, atol=0)

    def test_real_positive_input_is_fixed_point_of_quadratic(self, grid_small):
        values = np.exp(-(grid_small.detuning / (grid_small.detuning.max() / 4)) ** 2)
        amplitude = TwoPhotonAmplitude(grid_small, values.astype(complex))
        out = compensate_phase(amplitude, "quadratic")
        assert np.allclose(out.values, values, rtol=1e-9, atol=1e-12)
        assert max(abs(c) for c in out.fit_coefficients[:2]) < 1e-12

    def test_double_compensation_rejected(self, grid_small):
        values = np.ones(grid_small.omega.size, dtype=complex)
        once = compensate_phase(TwoPhotonAmplitude(grid_small, values), "ideal")
        with pytest.raises(ValueError):
            compensate_phase(once, "quadratic")

    def test_unknown_mode_rejected(self, grid_small):
        amplitude = TwoPhotonAmplitude(grid_small, np.ones(grid_small.omega.size, complex))
        with pytest.raises(ValueError):
            compensate_phase(amplitude, "cubic")

    def test_gap_inside_fit_window_is_diagnosed(self, grid_small):
        # two bright lobes with an exact null between them, all above half max
        nu = grid_small.detuning / grid_small.detuning.max()
        values = (np.abs(nu) * np.exp(-nu ** 2)).astype(complex)
        center = np.argmin(np.abs(nu))
        values[center] = 0.0
        with pytest.raises(PhaseUnwrapError) as err:
            compensate_phase(TwoPhotonAmplitude(grid_small, values), "quadratic")
        assert "omega" in str(err.value)


class TestSumFrequencyTrace:
    def test_gaussian_amplitude_gives_gaussian_trace(self, grid_mid):
        # |FT of exp(-nu^2/(2 s^2))|^2 = const exp(-s^2 tau^2): FWHM = 2 sqrt(ln 2)/s
        s = grid_mid.detuning.max() / 6
        values = np.exp(-grid_mid.detuning ** 2 / (2 * s ** 2)).astype(complex)
        trace = sum_frequency_trace(TwoPhotonAmplitude(grid_mid, values))
        width = trace_fwhm(trace.delays, trace.intensity)
        assert width == pytest.approx(2 * np.sqrt(np.log(2)) / s, rel=1e-3)

    def test_unit_area_normalization(self, model, pump, grid_mid, l0):
        amplitude = two_photon_amplitude(build_random(500, l0, 2e-6, seed=2),
                                         grid_mid, pump, model)
        trace = sum_frequency_trace(compensate_phase(amplitude, "ideal"))
        assert trapezoid(trace.intensity, trace.delays) == pytest.approx(1.0, rel=1e-9)
        assert np.all(trace.intensity >= 0)

    def test_linear_spectral_phase_shifts_without_reshaping(self, grid_mid):
        s = grid_mid.detuning.max() / 6
        base = np.exp(-grid_mid.detuning ** 2 / (2 * s ** 2))
        shift = 30e-15
        shifted_amp = base * np.exp(1j * shift * grid_mid.detuning)
        t0 = sum_frequency_trace(TwoPhotonAmplitude(grid_mid, base.astype(complex)))
        t1 = sum_frequency_trace(TwoPhotonAmplitude(grid_mid, shifted_amp))
        peak0 = t0.delays[np.argmax(t0.intensity)]
        peak1 = t1.delays[np.argmax(t1.intensity)]
        assert peak1 - peak0 == pytest.approx(shift, abs=2 * (t0.delays[1] - t0.delays[0]))
        assert trace_fwhm(t1.delays, t1.intensity) == pytest.approx(
            trace_fwhm(t0.delays, t0.intensity), rel=1e-6)

    def test_parseval_identity(self, model, pump, grid_mid, l0):
        amplitude = two_photon_amplitude(build_random(400, l0, 2e-6, seed=9),
                                         grid_mid, pump, model)
        values = amplitude.values
        step = grid_mid.step
        n = values.size * 16
        transform = np.abs(step * np.fft.fft(values, n)) ** 2
        delays = 2 * np.pi * np.fft.fftfreq(n, d=step)
        lhs = np.sum(transform) * abs(delays[1] - delays[0])
        rhs = 2 * np.pi * np.sum(np.abs(values) ** 2) * step
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_explicit_delays_match_fft_path(self, model, pump, grid_small, l0):
        amplitude = compensate_phase(
            two_photon_amplitude(build_random(200, l0, 2e-6, seed=7), grid_small, pump, model),
            "ideal")
        fft_trace = sum_frequency_trace(amplitude)
        # probe the exact FFT delay samples: the two paths evaluate the same
        # transform, so the peak-normalized shapes must agree to roundoff
        probe = fft_trace.delays[::257][1:-1]
        direct = sum_frequency_trace(amplitude, delays=probe)
        expected = np.interp(probe, fft_trace.delays, fft_trace.intensity)
        scale = fft_trace.intensity.max()
        got = direct.intensity * (trapezoid(expected, probe) / trapezoid(direct.intensity, probe))
        assert np.allclose(got / scale, expected / scale, atol=1e-9)

    def test_time_axis_resolution_refinement(self, model, pump, grid_mid, l0):
        amplitude = compensate_phase(
            two_photon_amplitude(build_chirped(2000, l0, 1e6, np.pi / l0),
                                 grid_mid, pump, model),
            "ideal")
        widths = []
        for pad in (16, 32):
            trace = sum_frequency_trace(amplitude, pad_factor=pad)
            widths.append(trace_fwhm(trace.delays, trace.intensity))
        assert abs(widths[1] - widths[0]) / widths[0] < 0.01

    @pytest.mark.parametrize("kind", ["random", "chirped"])
    @pytest.mark.parametrize("delays", [default_hom_delays(), np.array([-200e-15, 200e-15])],
                             ids=["default", "pm200fs"])
    def test_chirp_z_matches_dense_oracle(self, model, pump, grid_default, l0, kind, delays):
        stack = (build_random(300, l0, 2.5e-6, seed=4) if kind == "random"
                 else build_chirped(300, l0, 1e6, np.pi / l0))
        amplitude = two_photon_amplitude(stack, grid_default, pump, model)
        trace = sum_frequency_trace(amplitude, delays=delays)
        expected = dense_sum_frequency(amplitude.values, grid_default, delays)
        assert np.max(np.abs(trace.intensity - expected)) <= 1e-10 * expected.max()

    def test_nonuniform_grid_rejected(self, grid_small):
        omega = grid_small.omega.copy()
        omega[3] *= 1.0001
        bad_grid = type(grid_small)(omega, grid_small.step, grid_small.center)
        with pytest.raises(ValueError, match="evenly spaced"):
            sum_frequency_trace(TwoPhotonAmplitude(bad_grid, np.ones(omega.size, complex)))

    def test_single_delay_rejected_before_normalizing(self, grid_small):
        # a trapezoid over one delay is zero however bright the trace is
        amplitude = TwoPhotonAmplitude(grid_small, np.ones(grid_small.omega.size, complex))
        with pytest.raises(ValueError, match="at least two delays"):
            sum_frequency_trace(amplitude, delays=[0.0])

    def test_fft_delay_axis_matches_trace(self, grid_small):
        values = np.ones(grid_small.omega.size, dtype=complex)
        trace = sum_frequency_trace(TwoPhotonAmplitude(grid_small, values))
        assert np.array_equal(fft_delay_axis(grid_small), trace.delays)


def test_nonuniform_delays_rejected_by_both_traces(pump, grid_small):
    delays = default_hom_delays(span=20e-15, step=1e-15)
    delays[5] += 0.1e-15
    with pytest.raises(ValueError, match="delays must be evenly spaced"):
        hom_trace(np.ones(grid_small.omega.size), grid_small, pump, delays)
    amplitude = TwoPhotonAmplitude(grid_small, np.ones(grid_small.omega.size, complex))
    with pytest.raises(ValueError, match="delays must be evenly spaced"):
        sum_frequency_trace(amplitude, delays=delays)
