"""Phase-matching function of a poled stack and its analytic forms.

The stochastic phase-matching function of a stack with boundaries z_0..z_N is

    F(dk) = sum_n (-1)^(n-1) integral_{z_(n-1)}^{z_n} exp(i dk z) dz ,

a length-dimensioned complex amplitude.  f_exact evaluates it in closed
per-domain form, f_boundary_sum evaluates the large-N boundary-sum
approximation (2i/dk) sum_j (-1)^j exp(i dk z_j), f_avg_sq gives the exact
ensemble average of |f_exact|^2 over Gaussian domain-length disorder, and
f_chirped / f_chirped_envelope give the closed-form response of a
quadratically chirped stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np
from numpy.polynomial.chebyshev import chebinterpolate, chebvander
from scipy.special import erf as _scipy_erf
from scipy.special import i0 as _scipy_i0

from .dispersion import PhaseMismatch, mismatch_from_detuning

__all__ = [
    "NumericalDomainError",
    "PhaseMatchSample",
    "f_exact",
    "f_boundary_sum",
    "f_avg_sq",
    "f_chirped",
    "f_chirped_envelope",
    "BOUNDARY_SUM_MIN_MISMATCH",
]

# f_boundary_sum carries a 1/dk artifact of the approximation; reject tiny dk.
BOUNDARY_SUM_MIN_MISMATCH = 1e-3
# Boundary sums are chunked to bound the (boundaries x mismatch) matrix and the
# (mismatch x kernel width) resampling arrays.
_CHUNK_ELEMENTS = 8_000_000
# Resampling kernel of _resampled_boundary_sum: width in nodes and shape.
_KB_WIDTH = 14
_KB_BETA = 0.75 * np.pi * _KB_WIDTH
_KB_DEGREE = 16


def _kaiser_bessel_i0(f: np.ndarray) -> np.ndarray:
    """Kernel weights I0(beta sqrt(1 - x^2)) of targets at fraction f past a
    node, on the _KB_WIDTH nodes about each: x = (f + W/2 - j) / (W/2), j = 1..W."""
    x = (f[:, None] + 0.5 * _KB_WIDTH - np.arange(1, _KB_WIDTH + 1)) / (0.5 * _KB_WIDTH)
    return _scipy_i0(_KB_BETA * np.sqrt(np.maximum(1.0 - x * x, 0.0)))


# Each kernel column as a degree-_KB_DEGREE Chebyshev series in 2f - 1,
# (_KB_DEGREE + 1) x _KB_WIDTH.  Interpolating at 129 points and truncating
# averages I0's rounding out of the low coefficients: 2e-15 of the kernel's
# maximum, against 1.7e-14 when interpolating at 17 points.
_KB_TABLE = chebinterpolate(lambda s: _kaiser_bessel_i0(0.5 * (s + 1.0)), 128)[:_KB_DEGREE + 1]


def _kaiser_bessel(f: np.ndarray) -> np.ndarray:
    """_kaiser_bessel_i0 from the table: one product of the Chebyshev matrix
    of 2f - 1, built by the three-term recurrence, with _KB_TABLE."""
    return chebvander(2.0 * f - 1.0, _KB_DEGREE) @ _KB_TABLE


class NumericalDomainError(ValueError):
    """Input lies outside the numerically validated domain of an operation."""


@dataclass(frozen=True)
class PhaseMatchSample:
    """Phase-matching amplitude (m) and |F|^2 (m^2), scalars for a scalar
    mismatch."""

    value: object
    abs_sq: object


def _sample(value, at: PhaseMismatch) -> PhaseMatchSample:
    if np.ndim(at.delta_k) == 0:
        v = complex(np.ravel(value)[0])
        return PhaseMatchSample(v, abs(v) ** 2)
    return PhaseMatchSample(value, np.abs(value) ** 2)


def _signed_boundary_sum(boundaries: np.ndarray, dk: np.ndarray) -> np.ndarray:
    """sum_j (-1)^j exp(i dk z_j), summed in fixed index order per chunk."""
    signs = np.where(np.arange(boundaries.size) % 2 == 0, 1.0, -1.0)
    out = np.empty(dk.shape, dtype=complex)
    chunk = max(1, _CHUNK_ELEMENTS // boundaries.size)
    for i in range(0, dk.size, chunk):
        block = dk[i:i + chunk]
        phases = np.exp(1j * np.multiply.outer(boundaries, block))
        out[i:i + chunk] = np.einsum("j,jk->k", signs, phases)
    return out


def _geometric_rows(first: np.ndarray, ratio: np.ndarray, count: int) -> np.ndarray:
    """Rows first * ratio^k for k < count, by a running product."""
    rows = np.empty((count, first.size), dtype=complex)
    rows[0] = first
    for k in range(1, count):
        np.multiply(rows[k - 1], ratio, out=rows[k])
    return rows


def _power_sums(terms: np.ndarray, step: np.ndarray, n_nodes: int) -> np.ndarray:
    """sum_j terms_j step_j^n for n < n_nodes, in baby and giant steps.

    With B = ceil(sqrt(n_nodes)), node B k + m is sum_j (terms_j step_j^(B k))
    step_j^m: one product of a giant table (rows k) and a baby table
    (columns m), each a running product about sqrt(n_nodes) long.
    """
    baby = int(np.ceil(np.sqrt(n_nodes)))
    powers = _geometric_rows(np.ones_like(step), step, baby)
    giant = _geometric_rows(terms, powers[-1] * step, -(-n_nodes // baby))
    return (giant @ powers.T).ravel()[:n_nodes]


def _resampled_boundary_sum(boundaries: np.ndarray, dk: np.ndarray) -> np.ndarray:
    """sum_j (-1)^j exp(i dk z_j) through its band limit (a type-3 NUFFT).

    About the midpoint c the frequencies u_j = z_j - c lie in [-L/2, L/2],
    so the sum is sampled on the uniform nodes k_n = n h, h = pi/L (2x
    oversampled), each weight divided by the Kaiser-Bessel transform
    2a sinh(s)/s, s = sqrt(beta^2 - (a u_j)^2), and resampled onto dk with
    the kernel I0(beta sqrt(1 - x^2)), x = (dk - k_n)/a, on _KB_WIDTH nodes
    of half-width a (Dutt & Rokhlin 1993; Barnett et al., FINUFFT 2019).
    The node sums come from _power_sums.  A target's kernel weights depend
    only on its fraction f past a node and come from a fixed Chebyshev
    table in f (_kaiser_bessel): one product per block of targets.
    """
    c = 0.5 * (boundaries[0] + boundaries[-1])
    u = boundaries - c
    h = np.pi / (boundaries[-1] - boundaries[0])
    a = 0.5 * _KB_WIDTH * h
    s = np.sqrt(_KB_BETA ** 2 - (a * u) ** 2)
    weights = np.where(np.arange(u.size) % 2 == 0, 0.5, -0.5) * s / (a * np.sinh(s))
    t = dk / h                                  # target positions in node units
    first = np.floor(t.min() - 0.5 * _KB_WIDTH)
    n_nodes = int(np.ceil(t.max() + 0.5 * _KB_WIDTH) - first) + 1
    nodes = _power_sums(weights * np.exp(1j * (first * h) * u), np.exp(1j * h * u), n_nodes)
    t -= first
    out = np.empty(dk.shape, dtype=complex)
    chunk = _CHUNK_ELEMENTS // (4 * _KB_WIDTH)      # ~40 bytes per kernel weight
    offsets = np.arange(1, _KB_WIDTH + 1) - _KB_WIDTH // 2
    for i in range(0, t.size, chunk):
        block = t[i:i + chunk]
        cell = np.floor(block)
        index = cell.astype(int)[:, None] + offsets
        out[i:i + chunk] = np.einsum("mn,mn->m", _kaiser_bessel(block - cell), nodes[index])
    return h * np.exp(1j * dk * c) * out


def f_exact(stack, mismatch: PhaseMismatch) -> PhaseMatchSample:
    """Exact F: per-domain integrals summed over the stack.

    For dk != 0 the per-domain integrals telescope to the boundary sum with
    half-weight end corrections,

        F = (2i/dk) [ sum_j (-1)^j e^(i dk z_j)
                      - (e^(i dk z_0) + (-1)^N e^(i dk z_N)) / 2 ] .

    On long vectors the boundary sum is evaluated on n ~ (span L / pi + 14)
    uniform nodes and resampled (_resampled_boundary_sum), within ~1e-12 of
    max|F| of the direct sum.  That path is taken when it costs less, at
    4096 plus 8 per point plus (N+1)(1 + sqrt(n)/2) against (N+1) per
    point, in units of one complex exp, and when |dk| varies by less than
    2x, as 2/|dk| amplifies its absolute error, ~1e-13 (N+1) in the sum.
    Otherwise the sum is direct.  Near dk = 0 each domain integral takes
    its analytic limit, the signed domain-length sum.
    """
    z = stack.boundaries
    dk = np.atleast_1d(np.asarray(mismatch.delta_k, dtype=float))
    value = np.empty(dk.shape, dtype=complex)

    # |dk| L << 1 would cancel catastrophically in the telescoped form.
    tiny = np.abs(dk) * stack.total_length < 1e-8
    if tiny.any():
        alternating = np.where(np.arange(stack.n_domains) % 2 == 0, 1.0, -1.0)
        value[tiny] = np.dot(alternating, stack.domain_lengths)
    regular = ~tiny
    if regular.any():
        dkr = dk[regular]
        span = np.ptp(dkr)
        n_nodes = span * stack.total_length / np.pi + _KB_WIDTH
        if (4096 + 8 * dkr.size + z.size * (1 + np.sqrt(n_nodes) / 2) < z.size * dkr.size
                and span < np.abs(dkr).min()):
            s = _resampled_boundary_sum(z, dkr)
        else:
            s = _signed_boundary_sum(z, dkr)
        ends = 0.5 * (np.exp(1j * dkr * z[0])
                      + (-1.0) ** stack.n_domains * np.exp(1j * dkr * z[-1]))
        value[regular] = (2j / dkr) * (s - ends)

    return _sample(value, mismatch)


def f_boundary_sum(stack, mismatch: PhaseMismatch) -> PhaseMatchSample:
    """Large-N approximation F = (2i/dk) sum_j (-1)^j exp(i dk z_j).

    Kept separate from f_exact so the approximation error is measurable.
    Raises NumericalDomainError for |dk| < BOUNDARY_SUM_MIN_MISMATCH * dk0.
    """
    dk = np.atleast_1d(np.asarray(mismatch.delta_k, dtype=float))
    threshold = BOUNDARY_SUM_MIN_MISMATCH * abs(mismatch.delta_k0)
    if np.any(np.abs(dk) < threshold):
        raise NumericalDomainError(
            f"boundary sum needs |delta_k| >= {threshold:.3e} rad/m; "
            "use f_exact near delta_k = 0"
        )
    value = (2j / dk) * _signed_boundary_sum(stack.boundaries, dk)
    return _sample(value, mismatch)


def _excess(x, expm1_x, n: int):
    """sum_(m<n) expm1(m x) = expm1(n x) / expm1(x) - n at full relative
    precision: where |n x| is small, a power series replaces the ratio."""
    near = np.abs(n * x) < 1e-2
    out = np.expm1(n * x) / np.where(near, 1.0, expm1_x) - n
    sums = np.vander(np.arange(n, dtype=float), 7).sum(axis=0)   # sum_(m<n) m^k, k = 6..0
    out[near] = x[near] * np.polyval(sums[:-1] / [factorial(k) for k in range(6, 0, -1)], x[near])
    return out


def f_avg_sq(mismatch: PhaseMismatch, n_domains: int, l0: float, sigma: float):
    """Ensemble average of |f_exact|^2 over Gaussian domain-length disorder.

    f_exact = (2i/dk) S, S = sum_j w_j (-1)^j e^(i dk z_j) with half weights
    at both ends.  Each domain multiplies the next term by -e^(i dk l), of
    mean e^a over the density exp(-(l-l0)^2/sigma^2): a = i (dk l0 - pi)
    - (sigma dk)^2/4, b = 2 Re a.  With [m] = (1 - e^(m a))/(1 - e^a),
    <S> = (1 + e^a) [N] / 2 and the N steps of S - <S> are uncorrelated:

        <|F|^2> = (4/dk^2) [ |<S>|^2 - expm1(b) sum_(m<N) |[m] + e^(m a)/2|^2 ] .

    The sum goes through _excess at a and b, so sigma = 0 is a continuous
    limit, the periodic stack's |f_exact|^2.  Returns |F|^2 in m^2, shaped
    like the mismatch; rejects a negative or NaN sigma.
    """
    if not sigma >= 0.0:
        raise ValueError("sigma must be >= 0")
    if n_domains < 1:
        raise ValueError("n_domains must be >= 1")
    dk = np.atleast_1d(np.asarray(mismatch.delta_k, dtype=float))
    b = -0.5 * (sigma * dk) ** 2
    a = 1j * (np.remainder(dk * l0, 2.0 * np.pi) - np.pi) + 0.5 * b   # e^a is 2 pi i periodic
    expm1_a, expm1_b = np.expm1(a), np.expm1(b)
    xa, xb = _excess(a, expm1_a, n_domains), _excess(b, expm1_b, n_domains)
    mean = 0.5 * (2.0 + expm1_a) * (n_domains + xa)
    # a = 0 only where sigma dk = 0, where the covariance weight expm1(b) is 0
    d = np.where(expm1_a == 0.0, 1.0, expm1_a)
    spread = ((xb - 2.0 * xa.real) / np.abs(d) ** 2 - np.real((xa.conj() - xb) / d)
              + 0.25 * (n_domains + xb))
    result = 4.0 / dk ** 2 * (np.abs(mean) ** 2 - expm1_b * spread)
    return result if np.ndim(mismatch.delta_k) else float(result[0])


_SQRT_MINUS_I = np.exp(-1j * np.pi / 4.0)


def f_chirped(mismatch: PhaseMismatch, n_domains: int, l0: float, zeta_prime: float) -> PhaseMatchSample:
    """Closed-form F of a quadratically chirped stack (continuum limit).

    Completing the square in the boundary sum over z_n = n l0
    + zeta' (n - N/2)^2 l0^2 gives a Fresnel integral:

        F = (2i/dk) e^(i q l0 N/2) e^(-i q^2/(4 dk zeta'))
            * sqrt(pi) / (2 sqrt(-i) sqrt(zeta' dk) l0)
            * [ erf(f(N)) - erf(f(-N)) ] ,

        f(x) = (sqrt(-i)/2) (sqrt(zeta' dk) x l0 + q / sqrt(zeta' dk)) ,

    with q = dk - pi/l0 the detuning from the stack's first-order
    quasi-phase-matching point.  The erf arguments lie on the diagonal
    Im f = -Re f, where exp(-f^2) has unit modulus, so erf cannot
    overflow.  The phase is quoted for the unshifted chirp law; a rigid
    stack shift only rotates it.
    Agrees with f_exact on the built stack to well below 1% over the
    phase-matched band at N ~ 2000.
    """
    if zeta_prime <= 0.0:
        raise NumericalDomainError("f_chirped requires zeta_prime > 0; use the periodic path at zero chirp")
    dk = np.asarray(mismatch.delta_k, dtype=float)
    if np.any(dk <= 0.0):
        raise NumericalDomainError("f_chirped requires delta_k > 0")
    # q = dk - pi/l0, taken from delta_k_small to keep its precision
    q = np.asarray(mismatch.delta_k_small, dtype=float) - (np.pi / l0 - mismatch.delta_k0)
    root = np.sqrt(zeta_prime * dk)
    upper = _SQRT_MINUS_I / 2.0 * (root * n_domains * l0 + q / root)
    lower = _SQRT_MINUS_I / 2.0 * (-root * n_domains * l0 + q / root)
    bracket = _scipy_erf(upper) - _scipy_erf(lower)
    amplitude = (2j / dk) * np.sqrt(np.pi) / (2.0 * _SQRT_MINUS_I * root * l0)
    phase = np.exp(1j * q * l0 * n_domains / 2.0 - 1j * q ** 2 / (4.0 * dk * zeta_prime))
    value = amplitude * phase * bracket
    return _sample(value, mismatch)


def f_chirped_envelope(mismatch: PhaseMismatch, n_domains: int, l0: float, zeta_prime: float):
    """Fresnel-ripple-averaged |F|^2 of a chirped stack.

    The closed form carries an oscillation of quasi-period 4 pi / (N l0) in
    detuning (the Fresnel transient of the erf terms).  This helper evaluates
    |f_chirped|^2 on an internal uniform detuning grid and applies a boxcar
    of 8 ripple periods, capped at a quarter of the swept band, yielding the
    smooth spectral envelope used for width measurements.  As zeta' -> 0 the
    boxcar shrinks to one tap, the identity, once the band edge
    zeta' dk0 N l0 lies within a quarter ripple.
    Returns |F|^2 (m^2) at the requested mismatch.
    """
    dk0 = float(mismatch.delta_k0)
    small = np.atleast_1d(np.asarray(mismatch.delta_k_small, dtype=float))
    band_edge = zeta_prime * dk0 * n_domains * l0
    ripple = 4.0 * np.pi / (n_domains * l0)
    width = min(8.0 * ripple, 0.5 * band_edge)
    lo = min(small.min(), -1.3 * band_edge) - width
    hi = max(small.max(), 1.3 * band_edge) + width
    step = ripple / 12.0
    grid = np.arange(lo, hi + step, step)
    # keep the internal grid in the dk > 0 domain of the closed form
    grid = grid[grid > -0.9 * dk0]
    raw = f_chirped(mismatch_from_detuning(dk0, grid), n_domains, l0, zeta_prime).abs_sq
    n_ker = int(round(width / step)) | 1
    kernel = np.ones(n_ker) / n_ker
    smooth = np.convolve(raw, kernel, mode="same")
    out = np.interp(small, grid, smooth)
    return out if np.ndim(mismatch.delta_k_small) else float(out[0])
