"""Monte Carlo ensembles of random crystals.

Realization i of an ensemble uses a child seed hashed from (base_seed, i)
through numpy's SeedSequence, so streams are disjoint, order-independent and
reproducible.  Per-realization observables are reduced in index order
regardless of worker count, making estimates bit-reproducible.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import interference, spectra, structure
from .dispersion import DispersionModel
from .spectra import PumpSpec, SpectralGrid

__all__ = [
    "EnsembleSpec",
    "EnsembleEstimate",
    "ConvergenceReport",
    "RealizationError",
    "child_seed",
    "run_ensemble",
    "convergence_report",
]

OBSERVABLES = ("spectrum", "pair_rate", "hom", "sumfreq")


class RealizationError(RuntimeError):
    """One realization of an ensemble failed; carries its index and seed."""

    def __init__(self, index: int, seed: int, cause: Exception):
        super().__init__(f"realization {index} (seed {seed}) failed: {cause}")
        self.index = index
        self.seed = seed


@dataclass(frozen=True)
class EnsembleSpec:
    """Seeded ensemble of random stacks with fixed structure parameters."""

    n_realizations: int
    base_seed: int
    n_domains: int
    sigma: float
    l0: float

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")


@dataclass(frozen=True, eq=False)
class EnsembleEstimate:
    """Elementwise mean and standard error over realizations."""

    mean: np.ndarray
    stderr: np.ndarray
    n_realizations: int


@dataclass(frozen=True)
class ConvergenceReport:
    """Drift of nested-ensemble means and the scaling of their stderr."""

    sizes: tuple
    max_drifts: tuple
    stderr_exponent: float
    converged: bool


def child_seed(base_seed: int, index: int) -> int:
    """Deterministic 64-bit child seed hashed from (base_seed, index)."""
    ss = np.random.SeedSequence((base_seed, index))
    return int(ss.generate_state(1, np.uint64)[0])


def _make_estimator(observable, model, grid, pump, delays, compensation, calibration):
    if callable(observable):
        return observable
    if observable not in OBSERVABLES:
        raise ValueError(f"observable must be callable or one of {OBSERVABLES}")
    if model is None or grid is None or pump is None:
        raise ValueError(f"observable {observable!r} needs model, grid and pump")

    if observable == "spectrum":
        def estimator(stack):
            return spectra.spectral_density(grid, pump, model, stack).values
    elif observable == "pair_rate":
        def estimator(stack):
            density = spectra.spectral_density(grid, pump, model, stack)
            return spectra.pair_rate(density, calibration).pair_rate
    elif observable == "hom":
        def estimator(stack):
            curve = spectra.mean_abs_f_sq(grid, pump, model, stack)
            return interference.hom_trace(curve, grid, pump, delays).rates
    else:  # sumfreq
        def estimator(stack):
            amp = interference.two_photon_amplitude(stack, grid, pump, model)
            comp = interference.compensate_phase(amp, compensation)
            return interference.sum_frequency_trace(comp, delays=delays).intensity
    return estimator


def run_ensemble(spec: EnsembleSpec, observable, *,
                 model: DispersionModel = None,
                 grid: SpectralGrid = None,
                 pump: PumpSpec = None,
                 delays: np.ndarray = None,
                 compensation: str = "ideal",
                 calibration: float = None,
                 n_workers: int = 1) -> EnsembleEstimate:
    """Evaluate an observable over seeded realizations; elementwise mean and
    stderr, independent of worker count and scheduling.

    observable is 'spectrum', 'pair_rate', 'hom', 'sumfreq' (each needs
    model, grid and pump), or any callable mapping a DomainStack to a scalar
    or fixed-shape array.
    """
    estimator = _make_estimator(observable, model, grid, pump, delays,
                                compensation, calibration)

    def one(index):
        seed = child_seed(spec.base_seed, index)
        try:
            stack = structure.build_random(spec.n_domains, spec.l0, spec.sigma, seed)
            return np.asarray(estimator(stack), dtype=float)
        except Exception as exc:
            raise RealizationError(index, seed, exc) from exc

    # Chunked, index-ordered accumulation bounds memory for curve-valued
    # observables and keeps the reduction order independent of n_workers.
    chunk = 32
    total = np.array(0.0)
    total_sq = np.array(0.0)
    pool = ThreadPoolExecutor(max_workers=n_workers) if n_workers > 1 else None
    try:
        for start in range(0, spec.n_realizations, chunk):
            indices = range(start, min(start + chunk, spec.n_realizations))
            if pool is not None:
                results = list(pool.map(one, indices))
            else:
                results = [one(i) for i in indices]
            block = np.stack(results)
            total = total + block.sum(axis=0)
            total_sq = total_sq + np.square(block).sum(axis=0)
    finally:
        if pool is not None:
            pool.shutdown()

    m = spec.n_realizations
    mean = total / m
    if m > 1:
        variance = np.maximum(total_sq - m * np.square(mean), 0.0) / (m - 1)
        stderr = np.sqrt(variance / m)
    else:
        stderr = np.full_like(np.asarray(mean, dtype=float), np.nan)
    return EnsembleEstimate(np.asarray(mean), np.asarray(stderr), m)


def convergence_report(estimates) -> ConvergenceReport:
    """Diagnose nested ensembles at increasing sizes (typically M, 2M, 4M).

    Reports the max-norm drift of successive means, the fitted scaling
    exponent of the stderr norm versus size (expected -0.5), and flags
    non-convergence when the final drift exceeds 3 stderr.
    """
    if len(estimates) < 2:
        raise ValueError("need at least two nested estimates")
    sizes = tuple(e.n_realizations for e in estimates)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("estimates must come in increasing ensemble size")
    drifts = tuple(
        float(np.max(np.abs(np.asarray(b.mean) - np.asarray(a.mean))))
        for a, b in zip(estimates, estimates[1:])
    )
    norms = [float(np.sqrt(np.mean(np.square(np.asarray(e.stderr))))) for e in estimates]
    if all(n > 0.0 for n in norms):
        exponent = float(np.polyfit(np.log(sizes), np.log(norms), 1)[0])
    else:
        exponent = 0.0   # deterministic observable: stderr identically zero
    final_band = 3.0 * float(np.max(np.asarray(estimates[-1].stderr))) if norms[-1] > 0 else 0.0
    converged = drifts[-1] <= max(final_band, 1e-300) or norms[-1] == 0.0
    return ConvergenceReport(sizes, drifts, exponent, converged)
