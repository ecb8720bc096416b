"""Hong-Ou-Mandel coincidence traces and phase-compensated temporal
correlation profiles.

The coincidence rate behind a balanced beam splitter is

    R_n(tau) = 1 - Re[ e^(i w_p tau) Int dw e^(-2 i w tau) <|F|^2> ] / R0 ,

a cosine transform of <|F|^2> about the degenerate frequency.  The
sum-frequency intensity I_sum(tau), the measurable proxy for the two-photon
temporal wave packet, is the squared modulus of the Fourier transform of the
collapsed two-photon amplitude; for the stationary cw-pumped state the
detection-time average cancels into the unit-area normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft
from scipy.integrate import trapezoid

from . import phasematch, spectra
from .dispersion import DispersionModel
from .spectra import PumpSpec, SpectralGrid
from .structure import DomainStack

__all__ = [
    "PhaseUnavailableError",
    "PhaseUnwrapError",
    "TwoPhotonAmplitude",
    "HomTrace",
    "SumFrequencyTrace",
    "default_hom_delays",
    "hom_trace",
    "two_photon_amplitude",
    "compensate_phase",
    "sum_frequency_trace",
    "fft_delay_axis",
]

# |Phi| below this fraction of the band maximum counts as a gap for unwrapping.
UNWRAP_GAP_FRACTION = 1e-8


class PhaseUnavailableError(ValueError):
    """Requested a phase-carrying amplitude from a phase-free source."""


class PhaseUnwrapError(ValueError):
    """Amplitude magnitude vanishes inside the phase-fit window."""


@dataclass(frozen=True, eq=False)
class TwoPhotonAmplitude:
    """Collapsed two-photon spectral amplitude on a symmetric grid.

    compensation records the phase state; quadratic compensation stores the
    removed polynomial coefficients (highest power first).
    """

    grid: SpectralGrid
    values: np.ndarray
    compensation: str = "none"
    fit_coefficients: tuple = None


@dataclass(frozen=True, eq=False)
class HomTrace:
    """Normalized coincidence rates over relative delays, with the
    zero-delay baseline R0 (m^2 rad/s)."""

    delays: np.ndarray
    rates: np.ndarray
    baseline: float


@dataclass(frozen=True, eq=False)
class SumFrequencyTrace:
    """Unit-area sum-frequency intensity over relative delays."""

    delays: np.ndarray
    intensity: np.ndarray


def default_hom_delays(span: float = 200e-15, step: float = 0.25e-15) -> np.ndarray:
    """Delays -span..span in steps of step; both must be finite and positive."""
    if not (0.0 < span < np.inf and 0.0 < step < np.inf):
        raise ValueError(f"delay span and step must be finite and positive, got {span}, {step}")
    n = int(round(span / step))
    return np.arange(-n, n + 1) * step


def _uniform_axis(x: np.ndarray, label: str) -> tuple:
    """Start and step of an evenly spaced axis; ValueError otherwise.

    Every sample must lie within 1e-9 of a step of the straight line through
    the end points: that admits the roundoff of arange- or linspace-built
    axes, and the chirp-z transform treats the axis as exactly uniform.
    """
    if x.size < 2:
        return (float(x[0]) if x.size else 0.0), 0.0
    step = (x[-1] - x[0]) / (x.size - 1)
    line = x[0] + np.arange(x.size) * step
    if np.max(np.abs(x - line)) > 1e-9 * abs(step):
        raise ValueError(f"{label} must be evenly spaced")
    return float(x[0]), float(step)


def _chirp_z(values: np.ndarray, omega0: float, d_omega: float,
             tau0: float, d_tau: float, m: int) -> np.ndarray:
    """X_j = sum_k v_k exp(-i (tau0 + j d_tau)(omega0 + k d_omega)), j < m.

    Bluestein's form: with jk = (j^2 + k^2 - (j - k)^2) / 2 the sum becomes
    a convolution with the chirp exp(i a n^2 / 2), a = d_tau d_omega, done
    by three FFTs in O((N + M) log(N + M)) time and O(N + M) memory.  The
    chirp is built from integer squares, exact in float64.
    """
    n = values.size
    a = d_tau * d_omega
    k = np.arange(max(n, m), dtype=float)
    chirp = np.exp(-0.5j * a * k * k)
    size = sp_fft.next_fast_len(n + m - 1)
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = chirp[:m].conj()
    kernel[size - n + 1:] = chirp[1:n][::-1].conj()
    u = values * np.exp(-1j * tau0 * d_omega * k[:n]) * chirp[:n]
    conv = sp_fft.ifft(sp_fft.fft(u, size) * sp_fft.fft(kernel))[:m]
    return np.exp(-1j * (tau0 + k[:m] * d_tau) * omega0) * chirp[:m] * conv


def hom_trace(mean_abs_f_sq: np.ndarray, grid: SpectralGrid, pump: PumpSpec,
              delays: np.ndarray = None) -> HomTrace:
    """Coincidence-rate trace from <|F|^2> sampled on the grid.

    Works identically for concrete stacks and ensemble averages; two sources
    with the same <|F|^2> produce the same trace.  The grid and the delays
    must be evenly spaced: the trace is one chirp-z transform.
    """
    curve = np.asarray(mean_abs_f_sq, dtype=float)
    if curve.size == 0 or curve.size != grid.omega.size:
        raise ValueError("mean_abs_f_sq must be sampled on the grid")
    delays = default_hom_delays() if delays is None else np.asarray(delays, dtype=float)
    nu0, d_nu = _uniform_axis(grid.detuning, "spectral grid")
    tau0, d_tau = _uniform_axis(delays, "delays")
    weights = np.gradient(grid.omega)   # trapezoid weights: half steps at the ends
    weights[[0, -1]] /= 2.0
    baseline = float(np.dot(weights, curve))
    if baseline <= 0.0:
        raise ValueError("zero baseline: <|F|^2> integrates to zero")
    # e^(i w_p tau) e^(-2 i w tau) = e^(-2 i (w - w_p/2) tau)
    transform = _chirp_z(weights * curve, nu0, d_nu, 2.0 * tau0, 2.0 * d_tau, delays.size)
    rates = 1.0 - transform.real / baseline
    return HomTrace(delays, rates, baseline)


def two_photon_amplitude(source, grid: SpectralGrid, pump: PumpSpec,
                         model: DispersionModel) -> TwoPhotonAmplitude:
    """Collapsed amplitude g * xi_p * F(dk) of a concrete stack, on a fresh set-up."""
    return _amplitude(spectra._SpectralSetup(grid, pump, model), source)


def _amplitude(setup, source) -> TwoPhotonAmplitude:
    """g * xi_p * F(dk) on the set-up's mismatch and coupling.  Ensemble
    sources carry no phase; their amplitude is per realization."""
    if not isinstance(source, DomainStack):
        raise PhaseUnavailableError(
            f"{type(source).__name__} carries |F|^2 only; build per-realization "
            "stacks to obtain phases"
        )
    f = phasematch.f_exact(source, setup.mismatch).value
    values = setup.coupling * np.sqrt(setup.pump.power) * f
    return TwoPhotonAmplitude(setup.grid, values, compensation="none")


def compensate_phase(amplitude: TwoPhotonAmplitude, mode: str) -> TwoPhotonAmplitude:
    """Remove spectral phase: none of it ('none'), all of it ('ideal') or its
    fitted quadratic part ('quadratic'); magnitudes are preserved exactly.

    The quadratic fit runs over the band where |Phi|^2 is at least half its
    maximum, on the unwrapped phase, weighted by |Phi|^2.
    """
    if amplitude.compensation != "none":
        raise ValueError(f"amplitude already compensated ({amplitude.compensation})")
    if mode not in ("none", "ideal", "quadratic"):
        raise ValueError(f"mode must be 'none', 'ideal' or 'quadratic', got {mode!r}")
    if mode == "none":
        return amplitude
    magnitude = np.abs(amplitude.values)
    if mode == "ideal":
        return TwoPhotonAmplitude(amplitude.grid, magnitude.astype(complex), "ideal")

    power = magnitude ** 2
    band = power >= power.max() / 2.0
    lo, hi = np.flatnonzero(band)[[0, -1]]
    window = slice(lo, hi + 1)
    gaps = magnitude[window] < UNWRAP_GAP_FRACTION * magnitude.max()
    if gaps.any():
        idx = lo + int(np.argmax(gaps))
        raise PhaseUnwrapError(
            f"|Phi| vanishes inside the fit window at sample {idx} "
            f"(omega = {amplitude.grid.omega[idx]:.6e} rad/s)"
        )
    detuning = amplitude.grid.detuning
    phase = np.unwrap(np.angle(amplitude.values[window]))
    # polyfit squares the weights; passing |Phi| weights residuals by |Phi|^2
    coeffs = np.polyfit(detuning[window], phase, 2, w=magnitude[window])
    residual_phase = np.angle(amplitude.values) - np.polyval(coeffs, detuning)
    values = magnitude * np.exp(1j * residual_phase)
    return TwoPhotonAmplitude(amplitude.grid, values, "quadratic", tuple(coeffs))


def sum_frequency_trace(amplitude: TwoPhotonAmplitude, delays: np.ndarray = None,
                        pad_factor: int = 16) -> SumFrequencyTrace:
    """Unit-area sum-frequency intensity |Int dw Phi(w) e^(-i w tau)|^2.

    With delays=None the delay axis comes from an FFT of the spectral grid,
    zero-padded by pad_factor for sub-step delay resolution; explicit,
    evenly spaced delays are evaluated by chirp-z transform.
    """
    nu0, d_nu = _uniform_axis(amplitude.grid.detuning, "spectral grid")
    step = amplitude.grid.step
    if delays is not None:
        delays = np.asarray(delays, dtype=float)
        if delays.size < 2:
            raise ValueError("unit-area normalization needs at least two delays")
        tau0, d_tau = _uniform_axis(delays, "delays")
        transform = _chirp_z(amplitude.values, nu0, d_nu, tau0, d_tau, delays.size)
        intensity = np.abs(step * transform) ** 2
    else:
        transform = np.fft.fft(amplitude.values, amplitude.values.size * pad_factor)
        intensity = np.fft.fftshift(np.abs(step * transform) ** 2)
        delays = fft_delay_axis(amplitude.grid, pad_factor)
    area = trapezoid(intensity, delays)
    if area <= 0.0:
        raise ValueError("intensity integrates to zero; cannot normalize")
    return SumFrequencyTrace(delays, intensity / area)


def fft_delay_axis(grid: SpectralGrid, pad_factor: int = 16) -> np.ndarray:
    """Sorted delay axis of the FFT path of sum_frequency_trace."""
    n = grid.omega.size * pad_factor
    return np.sort(2.0 * np.pi * np.fft.fftfreq(n, d=grid.step))
