"""Domain-stack builders for periodic, randomly poled and chirped crystals.

A stack is the ordered list of boundary positions z_0 .. z_N of the poled
structure; the nonlinear susceptibility flips sign at every boundary.  All
builders place z_0 = 0 and are pure functions of their parameters (and seed),
so identical calls give bit-identical stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "StackConstructionError",
    "DomainStack",
    "build_periodic",
    "build_random",
    "build_chirped",
]


class StackConstructionError(ValueError):
    """Stack parameters violate a structural invariant."""


@dataclass(frozen=True, eq=False)
class DomainStack:
    """Ordered boundary positions of a poled structure.

    Attributes:
        boundaries: strictly increasing positions z_0..z_N in meters.
        kind: one of 'periodic', 'random', 'chirped'.
        sigma: Gaussian declination parameter (random stacks), meters.
        zeta: chirp parameter (chirped stacks), 1/m^2.
        seed: RNG seed used for random stacks.
        rejected_draws: number of declination redraws forced by monotonicity.
    """

    boundaries: np.ndarray
    kind: str
    sigma: float = 0.0
    zeta: float = 0.0
    seed: int | None = None
    rejected_draws: int = 0

    def __post_init__(self):
        z = np.asarray(self.boundaries, dtype=float)
        if z.ndim != 1 or z.size < 2:
            raise StackConstructionError("a stack needs at least one domain")
        gaps = np.diff(z)
        if not np.all(gaps > 0.0):
            first = int(np.argmax(~(gaps > 0.0))) + 1
            raise StackConstructionError(
                f"boundaries must be strictly increasing; first violation at index {first}"
            )
        z.setflags(write=False)
        object.__setattr__(self, "boundaries", z)

    @property
    def n_domains(self) -> int:
        return self.boundaries.size - 1

    @property
    def total_length(self) -> float:
        return float(self.boundaries[-1] - self.boundaries[0])

    @property
    def domain_lengths(self) -> np.ndarray:
        return np.diff(self.boundaries)


def _check_common(n_domains: int, l0: float) -> None:
    if n_domains < 1:
        raise StackConstructionError(f"n_domains must be >= 1, got {n_domains}")
    if not 0.0 < l0 < np.inf:
        raise StackConstructionError(f"l0 must be positive and finite, got {l0}")


def build_periodic(n_domains: int, l0: float) -> DomainStack:
    """Stack with z_n = n * l0 exactly."""
    _check_common(n_domains, l0)
    z = np.arange(n_domains + 1, dtype=float) * l0
    return DomainStack(z, "periodic")


def build_random(n_domains: int, l0: float, sigma: float, seed: int) -> DomainStack:
    """Stack with z_n = z_{n-1} + l0 + dl_n, dl_n Gaussian with density
    proportional to exp(-dl^2 / sigma^2).

    That density has standard deviation sigma / sqrt(2); sigma is the
    distribution parameter, not the statistical standard deviation.  Draws
    with dl <= -l0 (which would produce a non-increasing stack) are rejected
    and redrawn; the count is recorded on the stack.
    """
    _check_common(n_domains, l0)
    if not sigma >= 0.0:
        raise StackConstructionError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        return replace(build_periodic(n_domains, l0), kind="random", sigma=0.0, seed=seed)
    rng = np.random.default_rng(seed)
    scale = sigma / np.sqrt(2.0)
    declinations = rng.normal(0.0, scale, n_domains)
    rejected = 0
    bad = declinations <= -l0
    while bad.any():
        rejected += int(bad.sum())
        declinations[bad] = rng.normal(0.0, scale, int(bad.sum()))
        bad = declinations <= -l0
    z = np.empty(n_domains + 1)
    z[0] = 0.0
    np.cumsum(l0 + declinations, out=z[1:])
    return DomainStack(z, "random", sigma=sigma, seed=seed, rejected_draws=rejected)


def build_chirped(n_domains: int, l0: float, zeta: float, delta_k0: float) -> DomainStack:
    """Stack following z_n = n l0 + (zeta/delta_k0) (n - N/2)^2 l0^2,
    rigidly shifted so that z_0 = 0.

    The shift multiplies the phase-matching function by a pure phase and
    leaves every observable unchanged.
    """
    _check_common(n_domains, l0)
    if delta_k0 <= 0.0:
        raise StackConstructionError(f"delta_k0 must be positive, got {delta_k0}")
    zeta_prime = zeta / delta_k0
    n = np.arange(n_domains + 1, dtype=float)
    z = n * l0 + zeta_prime * (n - n_domains / 2.0) ** 2 * l0 ** 2
    z -= z[0]
    gaps = np.diff(z)
    if not np.all(gaps > 0.0):
        first = int(np.argmax(~(gaps > 0.0))) + 1
        raise StackConstructionError(
            f"chirp zeta={zeta:g} makes boundary {first} non-increasing; "
            f"|zeta| must stay below ~{np.pi / (l0 ** 2 * max(n_domains - 1, 1)):.3e} 1/m^2"
        )
    return DomainStack(z, "chirped", zeta=zeta)
