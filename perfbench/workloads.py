"""The benchmark's four workloads.

Each workload draws its inputs from the run's random generator (seeded by
--seed) and hands the library only those inputs.  `setup` builds what the
timed steps need; `next_pass` returns one pass of timed steps, a fixed unit
of work whose wall time is `wall_s`; `gates` checks the library's outputs
against the benchmark's own references after the timed region.

Why each workload exists:
- mc_ensemble: seeded Monte Carlo spectra; ~97% of the time is the
  boundary-sum kernel (phasematch.f_exact), with ensemble threading around
  it and no bisection or interference code.
- equivalence_map: the disorder-chirp map; bisection, f_avg_sq, the chirped
  envelope and grid/dispersion re-evaluation, and never f_exact.
- dip_traces: dense coincidence-dip and explicit-delay sum-frequency
  transforms (hundreds of MB per trace); f_exact only in set-up.
- figures_quick: the command-line figure path at --quick sizes, the only
  workload through `cli` and `output`, with every kernel at a small grid.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.integrate import trapezoid

from poledspdc import cli, dispersion, ensemble, interference, phasematch, spectra, structure

N_WORKERS = 2            # the machine has 2 cores; BLAS is pinned to 1 thread


@dataclass
class Step:
    """One timed call into the library, accounting for n_ops operations."""

    label: str
    n_ops: int
    run: Callable
    check: Callable = None


@dataclass
class Gate:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        self.passed = bool(self.passed)


class CommandFailed(RuntimeError):
    """A command-line run returned a nonzero exit code."""


def _seed(rng) -> int:
    return int(rng.integers(2 ** 62))


def _log_uniform(rng, lo, hi) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def direct_domain_sum(boundaries: np.ndarray, dk: np.ndarray, chunk: int = 256) -> np.ndarray:
    """F(dk) = sum_n (-1)^(n-1) int_{z_(n-1)}^{z_n} exp(i dk z) dz, domain by domain."""
    signs = np.where(np.arange(boundaries.size - 1) % 2 == 0, 1.0, -1.0)
    out = np.empty(dk.size, dtype=complex)
    for i in range(0, dk.size, chunk):
        k = dk[i:i + chunk]
        e = np.exp(1j * np.multiply.outer(k, boundaries))
        out[i:i + chunk] = ((e[:, 1:] - e[:, :-1]) / (1j * k[:, None])) @ signs
    return out


def oracle_residual(stack, mismatch, max_points: int = 4096) -> float:
    """max |f_exact - direct sum| / max |direct sum| on up to max_points mismatches."""
    dk = np.atleast_1d(np.asarray(mismatch.delta_k, dtype=float))
    stride = max(1, dk.size // max_points)
    dk = dk[::stride]
    sample = dispersion.PhaseMismatch(dk, mismatch.delta_k0, dk - mismatch.delta_k0)
    value = phasematch.f_exact(stack, sample).value
    reference = direct_domain_sum(stack.boundaries, dk)
    return float(np.max(np.abs(value - reference)) / np.max(np.abs(reference)))


def width_mismatch(args: dict, sigma: float) -> float:
    """|random width(sigma) - chirped width| / chirped width, as sigma_for_zeta sees them."""
    grid, pump, model, n = args["grid"], args["pump"], args["model"], args["n_domains"]
    pump = pump or spectra.default_pump()
    grid = grid or spectra.symmetric_grid(pump.omega_p0, model=model)

    def width(source):
        density = spectra.spectral_density(grid, pump, model, source)
        return spectra.fwhm(spectra.signal_spectrum(density)).width_omega

    target = width(spectra.ChirpedSource(n_domains=n, zeta=args["zeta"], envelope=True))
    return abs(width(spectra.RandomEnsembleSource(n_domains=n, sigma=sigma)) - target) / target


class Workload:
    name = ""
    sizes: dict = {}
    failures: tuple = ()
    min_passes = 1
    parallel_efficiency = 0.0

    def __init__(self, rng, workdir: Path):
        self.rng = rng
        self.workdir = workdir
        self.model = dispersion.congruent_linbo3_extraordinary()
        self.pump = spectra.default_pump()
        self.l0 = dispersion.base_domain_length(self.model, self.pump.omega_p0)

    def setup(self):
        raise NotImplementedError

    def next_pass(self) -> list:
        raise NotImplementedError

    def end_pass(self):
        pass

    def gates(self) -> list:
        return []

    def close(self):
        pass


class McEnsemble(Workload):
    """run_ensemble(spec, "spectrum") on seeded random stacks.

    Each call gives every worker one realization, so a call's wall time is
    the latency of a realization with both cores busy.
    """

    name = "mc_ensemble"
    failures = (ensemble.RealizationError,)
    n_domains = 2000
    n_samples = 2 ** 12
    per_call = N_WORKERS
    identity_realizations = 4
    min_passes = 8
    sizes = {"n_domains": n_domains, "n_samples": n_samples, "n_workers": N_WORKERS,
             "realizations_per_call": per_call}

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        self.sigma = float(rng.uniform(1.5e-6, 3.5e-6))
        self.first_base_seed = None
        self.call_rates = []

    def _ensemble(self, base_seed, n_realizations, n_workers):
        spec = ensemble.EnsembleSpec(n_realizations, base_seed, self.n_domains, self.sigma, self.l0)
        return ensemble.run_ensemble(spec, "spectrum", model=self.model, grid=self.grid,
                                     pump=self.pump, n_workers=n_workers)

    def setup(self):
        self.grid = spectra.symmetric_grid(self.pump.omega_p0, n_samples=self.n_samples,
                                           model=self.model)
        self._ensemble(_seed(self.rng), self.per_call, N_WORKERS)

    def next_pass(self):
        base_seed = _seed(self.rng)
        if self.first_base_seed is None:
            self.first_base_seed = base_seed
        return [Step("run_ensemble", self.per_call,
                     lambda: self._ensemble(base_seed, self.per_call, N_WORKERS),
                     lambda est: self.call_rates.append(trapezoid(est.mean, self.grid.omega)))]

    def gates(self):
        gates = []
        stack = structure.build_random(self.n_domains, self.l0, self.sigma,
                                       ensemble.child_seed(self.first_base_seed, 0))
        residual = oracle_residual(stack, spectra.mismatch_on_grid(self.grid, self.pump,
                                                                   self.model))
        gates.append(Gate("f_exact_vs_direct_domain_sum", residual <= 1e-10,
                          f"max|dF|/max|F| = {residual:.3e} (limit 1e-10)"))

        timings = {}
        estimates = {}
        for workers in (1, N_WORKERS):
            t0 = time.perf_counter()
            estimates[workers] = self._ensemble(self.first_base_seed, self.identity_realizations,
                                                workers)
            timings[workers] = time.perf_counter() - t0
        one, many = estimates[1], estimates[N_WORKERS]
        identical = (one.mean.tobytes() == many.mean.tobytes()
                     and one.stderr.tobytes() == many.stderr.tobytes())
        gates.append(Gate("bit_identical_across_workers", identical,
                          f"first {self.identity_realizations} realizations, n_workers 1 vs "
                          f"{N_WORKERS}"))
        self.parallel_efficiency = timings[1] / (N_WORKERS * timings[N_WORKERS])

        rates = np.asarray(self.call_rates)
        analytic = spectra.pair_rate(spectra.spectral_density(
            self.grid, self.pump, self.model,
            spectra.RandomEnsembleSource(n_domains=self.n_domains, sigma=self.sigma,
                                         l0=self.l0))).pair_rate
        stderr = rates.std(ddof=1) / np.sqrt(rates.size)
        gap = abs(rates.mean() - analytic)
        gates.append(Gate("ensemble_rate_vs_f_avg_sq", rates.size > 1 and gap <= 5.0 * stderr,
                          f"|MC - analytic| = {gap / stderr:.2f} stderr over "
                          f"{rates.size * self.per_call} realizations (limit 5)"))
        return gates


class EquivalenceMap(Workload):
    """Disorder-chirp map: solve sigma, chirped FWHM, ensemble rate at sigma."""

    name = "equivalence_map"
    failures = (spectra.NoSolutionError,)
    domain_counts = (1000, 2000, 4000)
    zeta_range = (1e5, 1e6)
    strata = 4
    rtol = 1e-3
    min_passes = 2
    sizes = {"n_samples": spectra.DEFAULT_SAMPLES, "n_domains": list(domain_counts),
             "zeta_per_m2": list(zeta_range), "zeta_strata": strata, "rtol": rtol}

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        self.mismatches = []

    def _solve(self, zeta, n_domains):
        sigma = spectra.sigma_for_zeta(zeta, n_domains, self.model, self.grid, self.pump,
                                       rtol=self.rtol)
        chirped = spectra.spectral_density(
            self.grid, self.pump, self.model,
            spectra.ChirpedSource(n_domains=n_domains, zeta=zeta, envelope=True))
        target = spectra.fwhm(spectra.signal_spectrum(chirped)).width_omega
        density = spectra.spectral_density(
            self.grid, self.pump, self.model,
            spectra.RandomEnsembleSource(n_domains=n_domains, sigma=sigma))
        return target, density, spectra.pair_rate(density).pair_rate

    def _check(self, result):
        target, density, _ = result
        width = spectra.fwhm(spectra.signal_spectrum(density)).width_omega
        self.mismatches.append(abs(width - target) / target)

    def setup(self):
        self.grid = spectra.symmetric_grid(self.pump.omega_p0, model=self.model)
        self._solve(_log_uniform(self.rng, *self.zeta_range), self.domain_counts[1])

    def next_pass(self):
        lo, hi = np.log10(self.zeta_range)
        steps = []
        for n_domains in self.domain_counts:
            for k in range(self.strata):
                zeta = 10.0 ** (lo + (hi - lo) * (k + self.rng.uniform()) / self.strata)
                steps.append(Step(f"solve N={n_domains}", 1,
                                  lambda z=zeta, n=n_domains: self._solve(z, n), self._check))
        return steps

    def gates(self):
        worst = max(self.mismatches, default=0.0)
        return [Gate("solved_width_matches_chirped", worst <= self.rtol,
                     f"max |w(sigma) - w_chirp| / w_chirp = {worst:.2e} over "
                     f"{len(self.mismatches)} solves (rtol {self.rtol:g})")]


class DipTraces(Workload):
    """Dense coincidence dips and explicit-delay sum-frequency traces at 2^14."""

    name = "dip_traces"
    failures = (ValueError,)
    n_domains_curves = 2000
    n_domains_stacks = 1000
    reference_delays = 16
    sizes = {"n_samples": spectra.DEFAULT_SAMPLES, "n_delays": 1601,
             "n_domains_curves": n_domains_curves, "n_domains_stacks": n_domains_stacks,
             "hom_curves": 3, "sum_frequency_traces": 4}

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        self.sigma = float(rng.uniform(1.5e-6, 3.5e-6))
        self.zeta = _log_uniform(rng, 1e5, 1e6)
        self.stack_seed = _seed(rng)
        self.delays = interference.default_hom_delays()
        self.zero = int(np.flatnonzero(self.delays == 0.0)[0])
        picks = rng.choice(self.delays.size, self.reference_delays - 1, replace=False)
        self.picks = np.union1d(picks, [self.zero])
        self.errors = {"hom_r0": 0.0, "hom_reference": 0.0, "sum_area": 0.0,
                       "sum_reference": 0.0}

    def setup(self):
        grid = spectra.symmetric_grid(self.pump.omega_p0, model=self.model)
        n = self.n_domains_curves
        self.curves = {
            label: spectra.mean_abs_f_sq(grid, self.pump, self.model, source)
            for label, source in (
                ("ensemble", spectra.RandomEnsembleSource(n_domains=n, sigma=self.sigma)),
                ("chirped_envelope", spectra.ChirpedSource(n_domains=n, zeta=self.zeta)),
                ("chirped_closed_form",
                 spectra.ChirpedSource(n_domains=n, zeta=self.zeta, envelope=False)),
            )
        }
        stacks = {
            "random": structure.build_random(self.n_domains_stacks, self.l0, self.sigma,
                                             self.stack_seed),
            "chirped": structure.build_chirped(self.n_domains_stacks, self.l0, self.zeta,
                                               np.pi / self.l0),
        }
        self.amplitudes = {label: interference.two_photon_amplitude(stack, grid, self.pump,
                                                                    self.model)
                           for label, stack in stacks.items()}
        self.grid = grid

    def _hom(self, curve):
        return curve, interference.hom_trace(curve, self.grid, self.pump, self.delays)

    def _sum_frequency(self, amplitude, mode):
        compensated = interference.compensate_phase(amplitude, mode)
        return compensated, interference.sum_frequency_trace(compensated, delays=self.delays)

    def _check_hom(self, result):
        curve, trace = result
        omega, detuning = self.grid.omega, self.grid.detuning
        baseline = trapezoid(curve, omega)
        reference = np.array([1.0 - trapezoid(curve * np.cos(2.0 * tau * detuning), omega) / baseline
                              for tau in self.delays[self.picks]])
        self._worst("hom_r0", abs(trace.rates[self.zero]))
        self._worst("hom_reference", np.max(np.abs(trace.rates[self.picks] - reference)))

    def _check_sum_frequency(self, result):
        amplitude, trace = result
        detuning = self.grid.detuning
        raw = np.array([abs(np.dot(amplitude.values, np.exp(-1j * tau * detuning))) ** 2
                        for tau in self.delays[self.picks]])
        measured = trace.intensity[self.picks]
        scale = np.dot(measured, raw) / np.dot(raw, raw)
        self._worst("sum_area", abs(trapezoid(trace.intensity, trace.delays) - 1.0))
        self._worst("sum_reference",
                    np.max(np.abs(measured - scale * raw)) / np.max(trace.intensity))

    def _worst(self, key, value):
        self.errors[key] = max(self.errors[key], float(value))

    def next_pass(self):
        steps = [Step(f"hom_trace {label}", 1, lambda c=curve: self._hom(c), self._check_hom)
                 for label, curve in self.curves.items()]
        steps += [Step(f"sum_frequency_trace {label} {mode}", 1,
                       lambda a=amplitude, m=mode: self._sum_frequency(a, m),
                       self._check_sum_frequency)
                  for label, amplitude in self.amplitudes.items()
                  for mode in ("ideal", "quadratic")]
        return steps

    def gates(self):
        e = self.errors
        return [
            Gate("hom_zero_delay", e["hom_r0"] <= 1e-12, f"max |R(0)| = {e['hom_r0']:.2e}"),
            Gate("hom_vs_direct_trapezoid", e["hom_reference"] <= 1e-9,
                 f"max |dR| = {e['hom_reference']:.2e} at {self.picks.size} delays"),
            Gate("sum_frequency_unit_area", e["sum_area"] <= 1e-9,
                 f"max |area - 1| = {e['sum_area']:.2e}"),
            Gate("sum_frequency_vs_direct_fourier", e["sum_reference"] <= 1e-9,
                 f"max |dI| / max I = {e['sum_reference']:.2e} at {self.picks.size} delays"),
        ]


class FiguresQuick(Workload):
    """cli.main for fig1-fig4 at the `reproduce_figures.py --quick` sizes.

    Set-up is the start of a fresh interpreter that imports the command
    line, which every command invocation pays.
    """

    name = "figures_quick"
    failures = (CommandFailed,)
    min_passes = 2
    sizes = {"n_samples": 2048, "n_realizations": 16, "threads": N_WORKERS,
             "n_domains_scan_fig1": "250,500,1000", "commands": ["fig1", "fig2", "fig3", "fig4"]}

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        self.outdir = workdir / f"figures-{os.getpid()}"
        common = ["--outdir", str(self.outdir), "--threads", str(N_WORKERS),
                  "--n-samples", "2048", "--n-realizations", "16",
                  "--seed", str(_seed(rng)), "--base-seed", str(_seed(rng)),
                  "--zeta", repr(_log_uniform(rng, 3e5, 1e6))]
        self.commands = [["fig1", *common, "--n-domains-scan", "250,500,1000"],
                         ["fig2", *common], ["fig3", *common], ["fig4", *common]]
        self.digests = []

    def setup(self):
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        subprocess.run([sys.executable, "-c",
                        "import poledspdc.cli as c; c.build_parser()"],
                       env=env, check=True, timeout=120)

    def _command(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise CommandFailed(f"poledspdc {argv[0]} exited {code}")

    def next_pass(self):
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)
        return [Step(argv[0], 1, lambda a=argv: self._command(a)) for argv in self.commands]

    def end_pass(self):
        self.digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                             for p in sorted(self.outdir.iterdir())})

    def gates(self):
        expected = {f"{c}{suffix}" for c in ("fig1", "fig2", "fig3")
                    for suffix in (".csv", "_meta.json", "_config.ini")}
        expected |= {"fig4_hom.csv", "fig4_sumfreq.csv", "fig4_meta.json", "fig4_config.ini"}
        first = self.digests[0]
        return [
            Gate("outputs_written", set(first) == expected,
                 f"{len(first)} files, expected {len(expected)}"),
            Gate("reruns_byte_identical", all(d == first for d in self.digests),
                 f"{len(self.digests)} passes compared"),
        ]

    def close(self):
        shutil.rmtree(self.outdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (McEnsemble, EquivalenceMap, DipTraces, FiguresQuick)}
