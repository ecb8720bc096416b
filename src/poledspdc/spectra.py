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
from functools import cached_property

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
_SEED_SPREAD = np.log(1.25)        # first sigma_for_zeta bracket: sigma* / 1.25 to 1.25 sigma*


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


@dataclass(frozen=True, eq=False)
class _SpectralSetup:
    """The sigma-independent part of every spectral evaluation on one grid,
    each computed on first use: the phase mismatch, the base domain length
    and the coupling weight |g|^2 |xi_p|^2 / (2 pi)."""

    grid: SpectralGrid
    pump: PumpSpec
    model: DispersionModel

    @cached_property
    def mismatch(self) -> PhaseMismatch:
        return mismatch_on_grid(self.grid, self.pump, self.model)

    @cached_property
    def l0(self) -> float:
        return base_domain_length(self.model, self.pump.omega_p0)

    @cached_property
    def weight(self) -> np.ndarray:
        g = coupling_g(self.grid.omega, self.grid.idler(self.pump.omega_p0), self.model)
        return np.abs(g) ** 2 * self.pump.power / (2.0 * np.pi)

    def stack_l0(self, l0) -> float:
        """l0, or the base domain length when l0 is None."""
        return self.l0 if l0 is None else l0

    def abs_f_sq(self, source) -> np.ndarray:
        mismatch = self.mismatch
        if isinstance(source, DomainStack):
            return phasematch.f_exact(source, mismatch).abs_sq
        if not isinstance(source, (RandomEnsembleSource, ChirpedSource)):
            raise TypeError(f"unsupported source {type(source).__name__}")
        l0 = self.stack_l0(source.l0)
        if isinstance(source, RandomEnsembleSource):
            return phasematch.f_avg_sq(mismatch, source.n_domains, l0, source.sigma)
        if source.zeta == 0.0:
            stack = structure.build_periodic(source.n_domains, l0)
            return phasematch.f_exact(stack, mismatch).abs_sq
        zeta_prime = source.zeta / mismatch.delta_k0
        if source.envelope:
            return phasematch.f_chirped_envelope(mismatch, source.n_domains, l0, zeta_prime)
        return phasematch.f_chirped(mismatch, source.n_domains, l0, zeta_prime).abs_sq

    def density(self, source) -> Spectrum:
        return Spectrum(self.grid, self.weight * self.abs_f_sq(source))

    def width(self, source) -> float:
        """FWHM in rad/s of the source's signal spectrum."""
        return fwhm(signal_spectrum(self.density(source))).width_omega


def mean_abs_f_sq(grid: SpectralGrid, pump: PumpSpec, model: DispersionModel, source) -> np.ndarray:
    """<|F|^2> on the grid for a concrete stack (identity average), an
    analytic random ensemble (the average of |f_exact|^2 at every
    sigma >= 0) or an analytic chirped stack; an analytic source without
    l0 uses the base domain length."""
    return _SpectralSetup(grid, pump, model).abs_f_sq(source)


def spectral_density(grid: SpectralGrid, pump: PumpSpec, model: DispersionModel, source) -> Spectrum:
    """Mean pair-number spectral density (per unit time, uncalibrated):
    |g|^2 |xi_p|^2 / (2 pi) * <|F|^2> on the energy-conservation line."""
    return _SpectralSetup(grid, pump, model).density(source)


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


def _ensemble_log_width_ratio(log_sigma, setup, n_domains, l0, target, widths):
    """log(width(sigma) / target) for the random ensemble at sigma = e^log_sigma.

    `widths` memoizes the widths already evaluated, so brentq's first calls
    at the bracket ends cost nothing.  brentq's wrapper of its objective is
    a reference cycle, freed only by a full collection; the set-up's arrays
    therefore come in through brentq's args, never through a closure.
    """
    if log_sigma not in widths:
        source = RandomEnsembleSource(n_domains=n_domains, sigma=np.exp(log_sigma), l0=l0)
        widths[log_sigma] = setup.width(source)
    return np.log(widths[log_sigma] / target)


def sigma_for_zeta(zeta: float, n_domains: int, model: DispersionModel,
                   grid: SpectralGrid, pump: PumpSpec, rtol: float = 1e-3,
                   l0: float = None) -> float:
    """Disorder parameter sigma whose ensemble signal spectrum has the same
    width as the chirped spectrum at the given chirp parameter, both stacks
    at domain length l0 (default: the base domain length).

    Large-N law.  Near dk0 = pi/l0 the ensemble's <|F|^2> is a Lorentzian
    in q = dk - dk0: each domain multiplies the boundary sum by a step of
    mean e^a, |e^a| = e^(-(sigma dk)^2/4), so the stationary sum has half
    width sigma^2 dk0^2 / (4 l0) in q.  The chirped stack's local period
    sweeps q over a flat top out to |q| = zeta N l0.  Both map to the
    signal detuning through the same q(Omega), so equal half widths in q
    give equal widths in Omega:

        sigma* = 2 l0^2 sqrt(zeta N) / pi ,

    2.56 um at zeta = 1e6 m^-2, N = 2000.  It holds once the chirp band
    clears the periodic main lobe (zeta (N l0)^2 large), to within 5% at
    N = 2000 and zeta >= 2e5 m^-2.

    Solver.  The first bracket runs from sigma* / 1.25 to 1.25 sigma*
    (from the bottom of SIGMA_BRACKET when zeta <= 0).  While it misses the
    target it moves towards it, reusing its inner end and doubling its
    width, never beyond SIGMA_BRACKET.  Brent's method then solves
    log(width(sigma) / target) = 0 in log sigma to within rtol / 2; the
    ensemble width is close to linear in sigma, so the widths then match
    within rtol.  One spectral set-up serves the target and every width.
    Raises NoSolutionError when SIGMA_BRACKET does not bracket the target
    or the solver does not converge.
    """
    setup = _SpectralSetup(grid, pump, model)
    target = setup.width(ChirpedSource(n_domains=n_domains, zeta=zeta, l0=l0))
    widths = {}
    args = (setup, n_domains, l0, target, widths)
    bottom, top = np.log(SIGMA_BRACKET)
    if zeta > 0.0:
        seed = np.log(2.0 * setup.stack_l0(l0) ** 2 * np.sqrt(zeta * n_domains) / np.pi)
    else:
        seed = bottom
    seed = min(max(seed, bottom), top)
    lo, hi = max(seed - _SEED_SPREAD, bottom), min(seed + _SEED_SPREAD, top)
    while _ensemble_log_width_ratio(lo, *args) > 0.0 and lo > bottom:
        lo, hi = max(lo - 2.0 * (hi - lo), bottom), lo
    while _ensemble_log_width_ratio(hi, *args) < 0.0 and hi < top:
        lo, hi = hi, min(hi + 2.0 * (hi - lo), top)
    if _ensemble_log_width_ratio(lo, *args) > 0.0 or _ensemble_log_width_ratio(hi, *args) < 0.0:
        for end in (bottom, top):
            _ensemble_log_width_ratio(end, *args)
        raise NoSolutionError(
            f"chirped width {target:.4e} rad/s not bracketed by sigma in "
            f"[{SIGMA_BRACKET[0]:.2e}, {SIGMA_BRACKET[1]:.2e}] m "
            f"(widths [{widths[bottom]:.4e}, {widths[top]:.4e}])"
        )
    log_sigma, result = brentq(_ensemble_log_width_ratio, lo, hi, args=args, xtol=rtol / 2.0,
                               full_output=True, disp=False)
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
    setup = _SpectralSetup(grid, pump, model)
    random_rate = pair_rate(setup.density(
        RandomEnsembleSource(n_domains=n_domains, sigma=sigma))).pair_rate
    chirp_stack = structure.build_chirped(n_domains, setup.l0, zeta, np.pi / setup.l0)
    chirped_rate = pair_rate(setup.density(chirp_stack)).pair_rate
    return random_rate / chirped_rate
