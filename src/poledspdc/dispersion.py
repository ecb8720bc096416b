"""Extraordinary-index dispersion of congruent lithium niobate.

The default model is the Sellmeier fit of Jundt, Opt. Lett. 22, 1553 (1997)
for the extraordinary index of congruent LiNbO3:

    n_e^2 = a1 + b1 f + (a2 + b2 f)/(lam^2 - (a3 + b3 f)^2)
            + (a4 + b4 f)/(lam^2 - a5^2) - a6 lam^2

with lam the vacuum wavelength in micrometers and f = (T - 24.5)(T + 570.82)
for T in degrees Celsius.  The fit is valid for wavelengths between 0.4 um
and 5.0 um.  At the default temperature of 24.5 C (297.65 K) the thermal
term vanishes and the coefficients reduce to the room-temperature polynomial.

All frequencies in this package are angular frequencies in rad/s; wavelengths
appear only at input/output boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.constants import c as C_VACUUM

__all__ = [
    "WavelengthRangeError",
    "DispersionModel",
    "PhaseMismatch",
    "congruent_linbo3_extraordinary",
    "refractive_index",
    "delta_k",
    "mismatch_from_detuning",
    "base_domain_length",
]

# Jundt 1997 coefficients (a1..a6, b1..b4), lam in micrometers.
JUNDT_1997_NE = (
    5.35583, 0.100473, 0.20692, 100.0, 11.34927, 1.5334e-2,
    4.629e-7, 3.862e-8, -0.89e-8, 2.657e-5,
)
JUNDT_1997_RANGE = (0.40e-6, 5.0e-6)


class WavelengthRangeError(ValueError):
    """Vacuum wavelength outside the validity range of the Sellmeier fit."""


@dataclass(frozen=True)
class DispersionModel:
    """A pinned Sellmeier fit at a fixed temperature.

    Attributes:
        name: identifier of the fit.
        coefficients: (a1..a6, b1..b4) of the Jundt-form Sellmeier equation.
        wavelength_range: validity interval of the fit in meters.
        temperature: fixed operating temperature in kelvin.
    """

    name: str
    coefficients: tuple
    wavelength_range: tuple
    temperature: float = 297.65

    def __post_init__(self):
        if not 0.0 < self.temperature < np.inf:
            raise ValueError(f"temperature must be positive and finite (kelvin), "
                             f"got {self.temperature}")


@dataclass(frozen=True)
class PhaseMismatch:
    """Collinear phase mismatch and its detuning from the degenerate point.

    delta_k_small is delta_k - delta_k0 exactly; fields may be scalars or
    arrays of equal shape (delta_k0 is always scalar).
    """

    delta_k: object
    delta_k0: float
    delta_k_small: object


def congruent_linbo3_extraordinary(temperature: float = 297.65) -> DispersionModel:
    """Default crystal model: congruent LiNbO3, n_e, Jundt 1997 fit."""
    return DispersionModel(
        name="cln_ne_jundt1997",
        coefficients=JUNDT_1997_NE,
        wavelength_range=JUNDT_1997_RANGE,
        temperature=temperature,
    )


def _check_range(model: DispersionModel, wavelength) -> None:
    lo, hi = model.wavelength_range
    wavelength = np.asarray(wavelength)
    if np.any(wavelength < lo) or np.any(wavelength > hi):
        bad = wavelength[(wavelength < lo) | (wavelength > hi)]
        raise WavelengthRangeError(
            f"vacuum wavelength {np.min(bad):.4e} m outside the validity range "
            f"[{lo:.3e}, {hi:.3e}] m of Sellmeier fit {model.name!r}"
        )


def refractive_index(model: DispersionModel, omega):
    """Extraordinary index n_e at angular frequency omega (rad/s).

    Accepts scalars or arrays; raises WavelengthRangeError if the vacuum
    wavelength 2 pi c / omega falls outside the model's validity range.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0.0):
        raise WavelengthRangeError("frequency must be positive")
    wavelength = 2.0 * np.pi * C_VACUUM / omega
    _check_range(model, wavelength)
    a1, a2, a3, a4, a5, a6, b1, b2, b3, b4 = model.coefficients
    t_c = model.temperature - 273.15
    f = (t_c - 24.5) * (t_c + 570.82)
    lam2 = (wavelength * 1e6) ** 2
    n2 = (
        a1 + b1 * f
        + (a2 + b2 * f) / (lam2 - (a3 + b3 * f) ** 2)
        + (a4 + b4 * f) / (lam2 - a5 ** 2)
        - a6 * lam2
    )
    n = np.sqrt(n2)
    return n if n.ndim else float(n)


def delta_k(model: DispersionModel, omega_s, omega_i, omega_p) -> PhaseMismatch:
    """Collinear phase mismatch Delta k = [n_p w_p - n_s w_s - n_i w_i]/c.

    The detuning field is filled relative to the degenerate point
    Delta k0 = Delta k(w_p/2, w_p/2).
    """
    n_p = refractive_index(model, omega_p)
    n_s = refractive_index(model, omega_s)
    n_i = refractive_index(model, omega_i)
    dk = (n_p * omega_p - n_s * np.asarray(omega_s) - n_i * np.asarray(omega_i)) / C_VACUUM
    n_deg = refractive_index(model, omega_p / 2.0)
    dk0 = float((n_p * omega_p - n_deg * omega_p) / C_VACUUM)
    small = dk - dk0
    if np.ndim(dk) == 0:
        return PhaseMismatch(float(dk), dk0, float(small))
    return PhaseMismatch(dk, dk0, small)


def mismatch_from_detuning(delta_k0: float, detuning) -> PhaseMismatch:
    """PhaseMismatch at given detuning(s) from a known degenerate mismatch."""
    detuning = np.asarray(detuning, dtype=float)
    dk = delta_k0 + detuning
    if dk.ndim == 0:
        return PhaseMismatch(float(dk), float(delta_k0), float(detuning))
    return PhaseMismatch(dk, float(delta_k0), detuning)


def base_domain_length(model: DispersionModel, omega_p) -> float:
    """Domain length pi / Delta k0 that quasi-phase-matches degenerate emission."""
    half = omega_p / 2.0
    mismatch = delta_k(model, half, half, omega_p)
    return float(np.pi / mismatch.delta_k)
