"""Photon-pair observables: spectral densities, widths, rates and the
disorder-chirp equivalence map.

With a cw pump at omega_p the energy delta function collapses every
observable onto the line omega_i = omega_p - omega_s; densities here are
one-dimensional functions of the signal frequency, interpreted per unit
time.  The absolute scale (second-order susceptibility, pump amplitude
normalization, quantization constants) is absorbed into a single
calibration constant pinned to a reference pair rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.constants import c as C_VACUUM, hbar
from scipy.integrate import trapezoid
from scipy.optimize import brentq

from . import phasematch, structure
from .dispersion import DispersionModel, PhaseMismatch, base_domain_length, delta_k, refractive_index
from .structure import DomainStack

__all__ = [
    "NoSolutionError",
    "PumpSpec",
    "SpectralGrid",
    "Spectrum",
    "RateReport",
    "FwhmResult",
    "RandomEnsembleSource",
    "ChirpedSource",
    "default_pump",
    "symmetric_grid",
    "coupling_g",
    "mismatch_on_grid",
    "mean_abs_f_sq",
    "spectral_density",
    "signal_spectrum",
    "half_max_interval",
    "fwhm",
    "pair_rate",
    "calibrate",
    "sigma_for_zeta",
    "rate_ratio",
]

DEFAULT_PUMP_WAVELENGTH = 775e-9
DEFAULT_PUMP_POWER = 0.1
DEFAULT_LAMBDA_MIN = 1.0e-6
DEFAULT_SAMPLES = 2 ** 14
REFERENCE_PAIR_RATE = 2e7          # pairs/s for the reference configuration
REFERENCE_N_DOMAINS = 2000
SIGMA_BRACKET = (1e-9, 5e-6)       # m, disorder range searched by sigma_for_zeta


class NoSolutionError(ValueError):
    """Root bracketing failed for the requested equivalence map."""


@dataclass(frozen=True)
class PumpSpec:
    """cw pump: frequency and optical power; the squared pump amplitude is
    the power in the units of the calibration constant."""

    omega_p0: float
    power: float

    def __post_init__(self):
        if not 0.0 < self.omega_p0 < np.inf:
            raise ValueError("pump frequency must be positive and finite")
        if not 0.0 < self.power < np.inf:
            raise ValueError(f"pump power must be positive and finite, got {self.power}")


def default_pump(power: float = DEFAULT_PUMP_POWER,
                 wavelength: float = DEFAULT_PUMP_WAVELENGTH) -> PumpSpec:
    return PumpSpec(omega_p0=2.0 * np.pi * C_VACUUM / wavelength, power=power)


@dataclass(frozen=True, eq=False)
class SpectralGrid:
    """Uniform signal-frequency grid symmetric about the degenerate frequency.

    For every sample w the mirror omega_p - w is also a sample, which the
    interference transforms rely on.
    """

    omega: np.ndarray
    step: float
    center: float

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=float)
        om.setflags(write=False)
        object.__setattr__(self, "omega", om)

    @property
    def wavelengths(self) -> np.ndarray:
        return 2.0 * np.pi * C_VACUUM / self.omega

    @property
    def detuning(self) -> np.ndarray:
        return self.omega - self.center

    def idler(self, omega_p0: float) -> np.ndarray:
        return omega_p0 - self.omega


def symmetric_grid(omega_p0: float,
                   lambda_min: float = DEFAULT_LAMBDA_MIN,
                   n_samples: int = DEFAULT_SAMPLES,
                   model: DispersionModel = None) -> SpectralGrid:
    """Grid from the signal edge lambda_min to its energy-conservation
    mirror, symmetric about omega_p/2; lowering lambda_min widens it.

    At the 775 nm pump the default 1.0 um edge gives a grid spanning
    1.0-3.44 um.  lambda_min must be positive and finite and lie below
    twice the pump wavelength, the degenerate wavelength.
    """
    center = omega_p0 / 2.0
    half = 2.0 * np.pi * C_VACUUM / lambda_min - center if lambda_min > 0.0 else np.nan
    if not 0.0 < half < np.inf:
        raise ValueError(f"lambda_min must be positive and below twice the pump "
                         f"wavelength, got {lambda_min!r}")
    if n_samples < 4:
        raise ValueError("n_samples must be at least 4")
    step = 2.0 * half / (n_samples - 1)
    k = np.arange(n_samples, dtype=float)
    omega = center + (k - (n_samples - 1) / 2.0) * step
    if model is not None:
        refractive_index(model, omega[0])
        refractive_index(model, omega[-1])
    return SpectralGrid(omega, step, center)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Non-negative samples on a spectral grid."""

    grid: SpectralGrid
    values: np.ndarray


@dataclass(frozen=True)
class RateReport:
    pair_rate: float
    calibrated: bool


@dataclass(frozen=True)
class RandomEnsembleSource:
    """Analytic ensemble of randomly poled stacks (f_avg_sq path)."""

    n_domains: int
    sigma: float
    l0: float = None


@dataclass(frozen=True)
class ChirpedSource:
    """Analytic chirped stack (closed-form path).

    With envelope=True the Fresnel ripples are averaged out, giving the
    smooth spectral envelope used for width measurements and the
    disorder-chirp map.
    """

    n_domains: int
    zeta: float
    l0: float = None
    envelope: bool = True


def coupling_g(omega_s, omega_i, model: DispersionModel):
    """Two-photon coupling up to the global susceptibility constant:
    sqrt(w_s w_i) / (i c pi sqrt(n_s n_i))."""
    omega_s = np.asarray(omega_s, dtype=float)
    omega_i = np.asarray(omega_i, dtype=float)
    n_s = refractive_index(model, omega_s)
    n_i = refractive_index(model, omega_i)
    g = np.sqrt(omega_s * omega_i) / (1j * C_VACUUM * np.pi * np.sqrt(n_s * n_i))
    return g if np.ndim(g) else complex(g)


def mismatch_on_grid(grid: SpectralGrid, pump: PumpSpec, model: DispersionModel) -> PhaseMismatch:
    return delta_k(model, grid.omega, grid.idler(pump.omega_p0), pump.omega_p0)


def mean_abs_f_sq(grid: SpectralGrid, pump: PumpSpec, model: DispersionModel, source) -> np.ndarray:
    """<|F|^2> on the grid for a concrete stack (identity average), an
    analytic random ensemble (the average of |f_exact|^2 at every
    sigma >= 0) or an analytic chirped stack; an analytic source without
    l0 uses the base domain length."""
    mismatch = mismatch_on_grid(grid, pump, model)
    if isinstance(source, DomainStack):
        return phasematch.f_exact(source, mismatch).abs_sq
    if not isinstance(source, (RandomEnsembleSource, ChirpedSource)):
        raise TypeError(f"unsupported source {type(source).__name__}")
    l0 = base_domain_length(model, pump.omega_p0) if source.l0 is None else source.l0
    if isinstance(source, RandomEnsembleSource):
        return phasematch.f_avg_sq(mismatch, source.n_domains, l0, source.sigma)
    if source.zeta == 0.0:
        stack = structure.build_periodic(source.n_domains, l0)
        return phasematch.f_exact(stack, mismatch).abs_sq
    zeta_prime = source.zeta / mismatch.delta_k0
    if source.envelope:
        return phasematch.f_chirped_envelope(mismatch, source.n_domains, l0, zeta_prime)
    return phasematch.f_chirped(mismatch, source.n_domains, l0, zeta_prime).abs_sq


def spectral_density(grid: SpectralGrid, pump: PumpSpec, model: DispersionModel, source) -> Spectrum:
    """Mean pair-number spectral density (per unit time, uncalibrated):
    |g|^2 |xi_p|^2 / (2 pi) * <|F|^2> on the energy-conservation line."""
    g = coupling_g(grid.omega, grid.idler(pump.omega_p0), model)
    weight = np.abs(g) ** 2 * pump.power / (2.0 * np.pi)
    return Spectrum(grid, weight * mean_abs_f_sq(grid, pump, model, source))


def signal_spectrum(density: Spectrum, normalize: bool = False) -> Spectrum:
    """Signal-field spectrum hbar w_s * density; with normalize=True the
    result is rescaled so exactly one photon is emitted."""
    values = hbar * density.grid.omega * density.values
    if normalize:
        photons = trapezoid(values / (hbar * density.grid.omega), density.grid.omega)
        if photons <= 0.0:
            raise ValueError("cannot normalize an identically zero spectrum")
        values = values / photons
    return Spectrum(density.grid, values)


@dataclass(frozen=True)
class FwhmResult:
    width_omega: float
    width_wavelength: float
    omega_lo: float
    omega_hi: float


def half_max_interval(x: np.ndarray, y: np.ndarray):
    """Outermost crossings of half the global maximum, linearly interpolated.

    Returns (x_lo, x_hi) for ascending x.  Raises ValueError on a
    non-positive curve.
    """
    y = np.asarray(y, dtype=float)
    peak = y.max()
    if not peak > 0.0:
        raise ValueError("curve has no positive maximum; width undefined")
    half = peak / 2.0
    above = y >= half
    first = int(np.argmax(above))
    last = int(len(y) - 1 - np.argmax(above[::-1]))

    def _cross(i_out, i_in):
        return x[i_out] + (half - y[i_out]) * (x[i_in] - x[i_out]) / (y[i_in] - y[i_out])

    lo = x[0] if first == 0 else _cross(first - 1, first)
    hi = x[-1] if last == len(y) - 1 else _cross(last + 1, last)
    return float(lo), float(hi)


def fwhm(spectrum: Spectrum) -> FwhmResult:
    """Full width at half maximum of the raw curve, in rad/s and meters."""
    lo, hi = half_max_interval(spectrum.grid.omega, spectrum.values)
    width_wavelength = 2.0 * np.pi * C_VACUUM * (1.0 / lo - 1.0 / hi)
    return FwhmResult(hi - lo, width_wavelength, lo, hi)


def pair_rate(density: Spectrum, calibration: float = None) -> RateReport:
    """Photon-pair rate, integral of the density; uncalibrated results are
    flagged rather than rejected."""
    raw = float(trapezoid(density.values, density.grid.omega))
    if calibration is None:
        return RateReport(raw, calibrated=False)
    return RateReport(calibration * raw, calibrated=True)


def calibrate(model: DispersionModel, grid: SpectralGrid, pump: PumpSpec) -> float:
    """Fix the global constant so the periodic reference stack of
    REFERENCE_N_DOMAINS domains reproduces REFERENCE_PAIR_RATE at the pump."""
    stack = structure.build_periodic(REFERENCE_N_DOMAINS, base_domain_length(model, pump.omega_p0))
    raw = pair_rate(spectral_density(grid, pump, model, stack)).pair_rate
    if raw <= 0.0:
        raise ValueError("reference configuration produced a zero raw rate")
    return REFERENCE_PAIR_RATE / raw


def _width(source, grid, pump, model):
    return fwhm(signal_spectrum(spectral_density(grid, pump, model, source))).width_omega


def sigma_for_zeta(zeta: float, n_domains: int, model: DispersionModel,
                   grid: SpectralGrid, pump: PumpSpec, rtol: float = 1e-3,
                   l0: float = None) -> float:
    """Disorder parameter sigma whose ensemble signal spectrum has the same
    width as the chirped spectrum at the given chirp parameter, both stacks
    at domain length l0 (default: the base domain length).

    Brent's method solves log(width(sigma) / target) = 0 in log sigma over
    SIGMA_BRACKET to within rtol / 2; the ensemble width is close to linear
    in sigma, so the widths then match within rtol.  Raises NoSolutionError
    when the target is not bracketed or the solver does not converge.
    """
    target = _width(ChirpedSource(n_domains=n_domains, zeta=zeta, l0=l0), grid, pump, model)

    @cache  # brentq starts by re-evaluating the two bracket ends checked below
    def width(log_sigma):
        source = RandomEnsembleSource(n_domains=n_domains, sigma=np.exp(log_sigma), l0=l0)
        return _width(source, grid, pump, model)

    lo, hi = SIGMA_BRACKET
    w_lo, w_hi = width(np.log(lo)), width(np.log(hi))
    if not (w_lo <= target <= w_hi):
        raise NoSolutionError(
            f"chirped width {target:.4e} rad/s not bracketed by sigma in "
            f"[{lo:.2e}, {hi:.2e}] m (widths [{w_lo:.4e}, {w_hi:.4e}])"
        )
    log_sigma, result = brentq(lambda x: np.log(width(x) / target), np.log(lo), np.log(hi),
                               xtol=rtol / 2.0, full_output=True, disp=False)
    if not result.converged:
        raise NoSolutionError(f"width match did not converge: {result.flag}")
    return float(np.exp(log_sigma))


def rate_ratio(zeta: float, n_domains: int, model: DispersionModel,
               grid: SpectralGrid, pump: PumpSpec, sigma: float = None) -> float:
    """Pair-rate ratio random/chirped at width-matched disorder.

    The ratio is calibration- and pump-power-independent.  `sigma` may be
    supplied to reuse a previously solved match.
    """
    if sigma is None:
        sigma = sigma_for_zeta(zeta, n_domains, model, grid, pump)
    random_rate = pair_rate(spectral_density(
        grid, pump, model, RandomEnsembleSource(n_domains=n_domains, sigma=sigma))).pair_rate
    l0 = base_domain_length(model, pump.omega_p0)
    chirp_stack = structure.build_chirped(n_domains, l0, zeta, np.pi / l0)
    chirped_rate = pair_rate(spectral_density(grid, pump, model, chirp_stack)).pair_rate
    return random_rate / chirped_rate
