"""Command-line front end.

Subcommands: l0 | spectrum | fig1 | fig2 | fig3 | fig4 | hom | sumfreq | mc.
Parameters come from an INI configuration file plus flag overrides (flags
win); each run writes its data as CSV with a '#'-metadata header, a JSON
sidecar of the resolved configuration, and a rerunnable resolved INI.
The output directory resolves flag > POLEDSPDC_OUTDIR > config > cwd.

Exit codes: 0 success, 2 configuration/usage errors and unusable paths
(any OSError), 3 numerical-domain or wavelength-range errors and failed
ensemble realizations.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.constants import c as C_VACUUM, hbar
from scipy.integrate import trapezoid

from . import __version__, ensemble, interference, output, spectra, structure
from .dispersion import (
    DispersionModel,
    WavelengthRangeError,
    base_domain_length,
    model_from_mapping,
)
from .phasematch import NumericalDomainError
from .spectra import NoSolutionError
from .structure import StackConstructionError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

OUTDIR_ENV = "POLEDSPDC_OUTDIR"

SIGMA_SCAN_FIG1 = (0.0, 0.5e-6, 2.0e-6)
DEFAULT_N_DOMAINS_SCAN = "250,500,1000,2000,4000"
# The chirp scan tops out at the 1e6 anchor: beyond it the emission band
# outruns the default 1.0-2.6 um window and widths become window-limited.
DEFAULT_ZETA_SCAN = "1e5,2e5,5e5,1e6"


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters; serialized verbatim alongside results."""

    sellmeier: str = "cln_ne_jundt1997"
    temperature_k: float = 297.65
    pump_wavelength_m: float = 775e-9
    pump_power_w: float = 0.1
    kind: str = "random"
    n_domains: int = 2000
    l0_m: float = None
    sigma_m: float = 2.3e-6
    zeta_per_m2: float = 1e6
    seed: int = 12345
    lambda_min_m: float = 1.0e-6
    lambda_max_m: float = 2.6e-6
    n_samples: int = 16384
    n_realizations: int = 1000
    base_seed: int = 424242
    directory: str = "."
    formats: str = "csv,json"
    threads: int = 1

    def mapping(self) -> dict:
        return {
            "crystal": {"sellmeier": self.sellmeier, "temperature_k": self.temperature_k},
            "pump": {"wavelength_m": self.pump_wavelength_m, "power_w": self.pump_power_w},
            "structure": {
                "kind": self.kind, "n_domains": self.n_domains,
                "l0_m": "" if self.l0_m is None else self.l0_m,
                "sigma_m": self.sigma_m, "zeta_per_m2": self.zeta_per_m2,
                "seed": self.seed,
            },
            "grid": {"lambda_min_m": self.lambda_min_m, "lambda_max_m": self.lambda_max_m,
                     "n_samples": self.n_samples},
            "ensemble": {"n_realizations": self.n_realizations, "base_seed": self.base_seed},
            "output": {"directory": self.directory, "formats": self.formats,
                       "threads": self.threads},
        }


_SCHEMA = {
    ("crystal", "sellmeier"): ("sellmeier", str),
    ("crystal", "temperature_k"): ("temperature_k", float),
    ("pump", "wavelength_m"): ("pump_wavelength_m", float),
    ("pump", "power_w"): ("pump_power_w", float),
    ("structure", "kind"): ("kind", str),
    ("structure", "n_domains"): ("n_domains", int),
    ("structure", "l0_m"): ("l0_m", float),
    ("structure", "sigma_m"): ("sigma_m", float),
    ("structure", "zeta_per_m2"): ("zeta_per_m2", float),
    ("structure", "seed"): ("seed", int),
    ("grid", "lambda_min_m"): ("lambda_min_m", float),
    ("grid", "lambda_max_m"): ("lambda_max_m", float),
    ("grid", "n_samples"): ("n_samples", int),
    ("ensemble", "n_realizations"): ("n_realizations", int),
    ("ensemble", "base_seed"): ("base_seed", int),
    ("output", "directory"): ("directory", str),
    ("output", "formats"): ("formats", str),
    ("output", "threads"): ("threads", int),
}


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"configuration file {path} not found")
    values = {}
    for (section, key), (field_name, cast) in _SCHEMA.items():
        if parser.has_option(section, key):
            raw = parser.get(section, key).strip()
            if raw == "":
                continue
            values[field_name] = cast(raw)
    return RunConfig(**values)


def write_resolved_config(config: RunConfig, path) -> None:
    parser = configparser.ConfigParser()
    for section, entries in config.mapping().items():
        parser[section] = {k: str(v) for k, v in entries.items()}
    with open(path, "w") as handle:
        parser.write(handle)


def _resolve(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    for field_name in (
        "sellmeier", "temperature_k", "pump_wavelength_m", "pump_power_w",
        "kind", "n_domains", "l0_m", "sigma_m", "zeta_per_m2", "seed",
        "lambda_min_m", "lambda_max_m", "n_samples",
        "n_realizations", "base_seed", "threads",
    ):
        value = getattr(args, field_name, None)
        if value is not None:
            overrides[field_name] = value
    directory = getattr(args, "outdir", None) or os.environ.get(OUTDIR_ENV) or config.directory
    overrides["directory"] = directory
    return replace(config, **overrides)


@dataclass
class Context:
    config: RunConfig
    model: DispersionModel
    pump: spectra.PumpSpec
    grid: spectra.SpectralGrid
    l0: float
    delta_k0: float
    outdir: Path


def _context(args, need_grid: bool = True) -> Context:
    config = _resolve(args)
    model = model_from_mapping(config.mapping()["crystal"])
    pump = spectra.PumpSpec(
        omega_p0=2.0 * np.pi * C_VACUUM / config.pump_wavelength_m,
        power=config.pump_power_w,
    )
    l0 = config.l0_m if config.l0_m is not None else base_domain_length(model, pump.omega_p0)
    grid = None
    if need_grid:
        grid = spectra.symmetric_grid(pump.omega_p0, config.lambda_min_m,
                                      config.lambda_max_m, config.n_samples, model=model)
    delta_k0 = float(np.pi / base_domain_length(model, pump.omega_p0))
    outdir = Path(config.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    return Context(config, model, pump, grid, l0, delta_k0, outdir)


def _emit(ctx: Context, name: str, columns: dict, meta: dict) -> Path:
    meta = dict(meta)
    meta["tool_version"] = __version__
    csv_path = output.write_csv(ctx.outdir / f"{name}.csv", columns, meta)
    output.write_json(ctx.outdir / f"{name}_meta.json",
                      {"command": name, "meta": meta, "config": ctx.config.mapping()})
    write_resolved_config(ctx.config, ctx.outdir / f"{name}_config.ini")
    return csv_path


def _structure_stack(ctx: Context, kind: str = None, seed: int = None) -> structure.DomainStack:
    kind = kind or ctx.config.kind
    if kind == "periodic":
        return structure.build_periodic(ctx.config.n_domains, ctx.l0)
    if kind == "random":
        return structure.build_random(ctx.config.n_domains, ctx.l0, ctx.config.sigma_m,
                                      ctx.config.seed if seed is None else seed)
    if kind == "chirped":
        return structure.build_chirped(ctx.config.n_domains, ctx.l0,
                                       ctx.config.zeta_per_m2, ctx.delta_k0)
    raise ValueError(f"unknown structure kind {kind!r}")


def _parse_scan(text: str, label: str) -> list:
    values = [float(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"{label} scan list is empty")
    return values


# ---------------------------------------------------------------- commands

def cmd_l0(args) -> int:
    ctx = _context(args, need_grid=False)
    if args.json:
        output_obj = {"l0_m": ctx.l0, "delta_k0_rad_per_m": ctx.delta_k0}
        import json
        print(json.dumps(output_obj, sort_keys=True))
    else:
        print(f"l0 = {ctx.l0 * 1e6:.6f} um (delta_k0 = {ctx.delta_k0:.6e} rad/m)")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    ctx = _context(args)
    stack = _structure_stack(ctx)
    density = spectra.spectral_density(ctx.grid, ctx.pump, ctx.model, stack)
    spectrum = spectra.signal_spectrum(density, normalize=args.normalize)
    meta = {"structure_kind": stack.kind, "n_domains": stack.n_domains,
            "sigma_m": stack.sigma, "zeta_per_m2": stack.zeta, "seed": stack.seed,
            "normalized": args.normalize}
    _emit(ctx, "spectrum", {
        "wavelength_m": ctx.grid.wavelengths,
        "omega_rad_s": ctx.grid.omega,
        "signal_spectrum": spectrum.values,
    }, meta)
    return EXIT_OK


def cmd_fig1(args) -> int:
    ctx = _context(args)
    n_scan = [int(v) for v in _parse_scan(args.n_domains_scan, "n_domains")]
    calibration = spectra.calibrate(ctx.model, ctx.grid, ctx.pump)
    columns = {"n_domains": np.asarray(n_scan, dtype=float)}
    meta = {"sigma_scan_m": ",".join(str(s) for s in SIGMA_SCAN_FIG1),
            "pump_power_w": ctx.config.pump_power_w,
            "base_seed": ctx.config.base_seed,
            "n_realizations": ctx.config.n_realizations,
            "calibration_constant": calibration}
    for i, sigma in enumerate(SIGMA_SCAN_FIG1):
        analytic = []
        mc_mean, mc_err = [], []
        for n_domains in n_scan:
            source = spectra.RandomEnsembleSource(n_domains=n_domains, sigma=sigma)
            density = spectra.spectral_density(ctx.grid, ctx.pump, ctx.model, source)
            analytic.append(spectra.pair_rate(density, calibration).pair_rate)
            if sigma == 0.0 or not args.mc:
                mc_mean.append(analytic[-1] if sigma == 0.0 else np.nan)
                mc_err.append(0.0 if sigma == 0.0 else np.nan)
            else:
                spec = ensemble.EnsembleSpec(ctx.config.n_realizations, ctx.config.base_seed,
                                             n_domains, sigma, ctx.l0)
                est = ensemble.run_ensemble(spec, "pair_rate", model=ctx.model,
                                            grid=ctx.grid, pump=ctx.pump,
                                            calibration=calibration,
                                            n_workers=ctx.config.threads)
                mc_mean.append(float(est.mean))
                mc_err.append(float(est.stderr))
        columns[f"rate_analytic_sigma{i}"] = np.asarray(analytic)
        columns[f"rate_mc_sigma{i}"] = np.asarray(mc_mean)
        columns[f"rate_mc_stderr_sigma{i}"] = np.asarray(mc_err)
    _emit(ctx, "fig1", columns, meta)
    return EXIT_OK


def cmd_fig2(args) -> int:
    ctx = _context(args)
    zetas = _parse_scan(args.zeta_scan, "zeta")
    calibration = spectra.calibrate(ctx.model, ctx.grid, ctx.pump)
    n_domains = ctx.config.n_domains
    rows = {k: [] for k in ("zeta_per_m2", "fwhm_chirp_omega_rad_s", "fwhm_chirp_wavelength_m",
                            "sigma_match_m", "rate_chirp", "rate_random", "rate_ratio")}
    for zeta in zetas:
        chirp_env = spectra.ChirpedSource(n_domains=n_domains, zeta=zeta, envelope=True)
        s_chirp = spectra.signal_spectrum(
            spectra.spectral_density(ctx.grid, ctx.pump, ctx.model, chirp_env))
        width = spectra.fwhm(s_chirp)
        sigma = spectra.sigma_for_zeta(zeta, n_domains, ctx.model, ctx.grid, ctx.pump)
        stack = structure.build_chirped(n_domains, ctx.l0, zeta, ctx.delta_k0)
        rate_chirp = spectra.pair_rate(
            spectra.spectral_density(ctx.grid, ctx.pump, ctx.model, stack), calibration).pair_rate
        rate_random = spectra.pair_rate(
            spectra.spectral_density(ctx.grid, ctx.pump, ctx.model,
                                     spectra.RandomEnsembleSource(n_domains, sigma)),
            calibration).pair_rate
        rows["zeta_per_m2"].append(zeta)
        rows["fwhm_chirp_omega_rad_s"].append(width.width_omega)
        rows["fwhm_chirp_wavelength_m"].append(width.width_wavelength)
        rows["sigma_match_m"].append(sigma)
        rows["rate_chirp"].append(rate_chirp)
        rows["rate_random"].append(rate_random)
        rows["rate_ratio"].append(rate_random / rate_chirp)
    meta = {"n_domains": n_domains, "calibration_constant": calibration,
            "pump_power_w": ctx.config.pump_power_w}
    _emit(ctx, "fig2", {k: np.asarray(v) for k, v in rows.items()}, meta)
    return EXIT_OK


def _normalized_signal(ctx, values: np.ndarray) -> np.ndarray:
    photons = trapezoid(values / (hbar * ctx.grid.omega), ctx.grid.omega)
    return values / photons


def cmd_fig3(args) -> int:
    ctx = _context(args)
    zeta = ctx.config.zeta_per_m2
    if args.sigma_m is not None:
        sigma = args.sigma_m
    else:
        sigma = spectra.sigma_for_zeta(zeta, ctx.config.n_domains, ctx.model, ctx.grid, ctx.pump)
    realization = structure.build_random(ctx.config.n_domains, ctx.l0, sigma, ctx.config.seed)
    s_real = spectra.signal_spectrum(
        spectra.spectral_density(ctx.grid, ctx.pump, ctx.model, realization), normalize=True)
    chirp = spectra.ChirpedSource(n_domains=ctx.config.n_domains, zeta=zeta, envelope=True)
    s_chirp = spectra.signal_spectrum(
        spectra.spectral_density(ctx.grid, ctx.pump, ctx.model, chirp), normalize=True)
    rand = spectra.RandomEnsembleSource(n_domains=ctx.config.n_domains, sigma=sigma)
    s_ens = spectra.signal_spectrum(
        spectra.spectral_density(ctx.grid, ctx.pump, ctx.model, rand), normalize=True)
    spec = ensemble.EnsembleSpec(ctx.config.n_realizations, ctx.config.base_seed,
                                 ctx.config.n_domains, sigma, ctx.l0)
    est = ensemble.run_ensemble(spec, "spectrum", model=ctx.model, grid=ctx.grid,
                                pump=ctx.pump, n_workers=ctx.config.threads)
    mc_signal = _normalized_signal(ctx, hbar * ctx.grid.omega * est.mean)
    meta = {"sigma_m": sigma, "zeta_per_m2": zeta, "n_domains": ctx.config.n_domains,
            "seed": ctx.config.seed, "base_seed": ctx.config.base_seed,
            "n_realizations": ctx.config.n_realizations,
            "normalization": "unit photon number"}
    _emit(ctx, "fig3", {
        "wavelength_m": ctx.grid.wavelengths,
        "omega_rad_s": ctx.grid.omega,
        "s_realization": s_real.values,
        "s_chirped_envelope": s_chirp.values,
        "s_ensemble_analytic": s_ens.values,
        "s_ensemble_mc": mc_signal,
    }, meta)
    return EXIT_OK


def cmd_fig4(args) -> int:
    ctx = _context(args)
    zeta = ctx.config.zeta_per_m2
    if args.sigma_m is not None:
        sigma = args.sigma_m
    else:
        sigma = spectra.sigma_for_zeta(zeta, ctx.config.n_domains, ctx.model, ctx.grid, ctx.pump)
    n_domains = ctx.config.n_domains
    realization = structure.build_random(n_domains, ctx.l0, sigma, ctx.config.seed)
    chirp_stack = structure.build_chirped(n_domains, ctx.l0, zeta, ctx.delta_k0)
    rand = spectra.RandomEnsembleSource(n_domains=n_domains, sigma=sigma)

    delays = interference.default_hom_delays(args.delay_span, args.delay_step)
    hom_cols = {"tau_s": delays}
    for label, source in (("realization", realization), ("chirped", chirp_stack),
                          ("ensemble", rand)):
        curve = spectra.mean_abs_f_sq(ctx.grid, ctx.pump, ctx.model, source)
        hom_cols[f"rn_{label}"] = interference.hom_trace(curve, ctx.grid, ctx.pump, delays).rates
    meta = {"sigma_m": sigma, "zeta_per_m2": zeta, "n_domains": n_domains,
            "seed": ctx.config.seed, "base_seed": ctx.config.base_seed,
            "n_realizations": ctx.config.n_realizations}
    output.write_csv(ctx.outdir / "fig4_hom.csv", hom_cols, meta)

    tau = interference.fft_delay_axis(ctx.grid)
    sum_cols = {"tau_s": tau}
    for label, stack in (("realization", realization), ("chirped", chirp_stack)):
        amp = interference.two_photon_amplitude(stack, ctx.grid, ctx.pump, ctx.model)
        for mode in ("ideal", "quadratic"):
            trace = interference.sum_frequency_trace(interference.compensate_phase(amp, mode))
            sum_cols[f"isum_{label}_{mode}"] = trace.intensity
    spec = ensemble.EnsembleSpec(ctx.config.n_realizations, ctx.config.base_seed,
                                 n_domains, sigma, ctx.l0)
    est = ensemble.run_ensemble(spec, "sumfreq", model=ctx.model, grid=ctx.grid,
                                pump=ctx.pump, compensation="ideal",
                                n_workers=ctx.config.threads)
    sum_cols["isum_ensemble_ideal"] = est.mean
    output.write_csv(ctx.outdir / "fig4_sumfreq.csv", sum_cols, meta)
    output.write_json(ctx.outdir / "fig4_meta.json",
                      {"command": "fig4", "meta": meta, "config": ctx.config.mapping()})
    write_resolved_config(ctx.config, ctx.outdir / "fig4_config.ini")
    return EXIT_OK


def cmd_hom(args) -> int:
    ctx = _context(args)
    if args.source == "ensemble":
        source = spectra.RandomEnsembleSource(ctx.config.n_domains, ctx.config.sigma_m)
    else:
        source = _structure_stack(ctx, kind=args.source)
    curve = spectra.mean_abs_f_sq(ctx.grid, ctx.pump, ctx.model, source)
    delays = interference.default_hom_delays(args.delay_span, args.delay_step)
    trace = interference.hom_trace(curve, ctx.grid, ctx.pump, delays)
    meta = {"source": args.source, "n_domains": ctx.config.n_domains,
            "sigma_m": ctx.config.sigma_m, "zeta_per_m2": ctx.config.zeta_per_m2,
            "seed": ctx.config.seed, "baseline_m2_rad_s": trace.baseline}
    _emit(ctx, "hom", {"tau_s": trace.delays, "rn": trace.rates}, meta)
    return EXIT_OK


def cmd_sumfreq(args) -> int:
    ctx = _context(args)
    stack = _structure_stack(ctx, kind=args.source)
    amp = interference.two_photon_amplitude(stack, ctx.grid, ctx.pump, ctx.model)
    if args.compensation != "none":
        amp = interference.compensate_phase(amp, args.compensation)
    trace = interference.sum_frequency_trace(amp)
    meta = {"source": args.source, "compensation": args.compensation,
            "n_domains": ctx.config.n_domains, "sigma_m": ctx.config.sigma_m,
            "zeta_per_m2": ctx.config.zeta_per_m2, "seed": ctx.config.seed}
    if amp.fit_coefficients is not None:
        meta["quadratic_fit_coefficients"] = ",".join(repr(c) for c in amp.fit_coefficients)
    _emit(ctx, "sumfreq", {"tau_s": trace.delays, "isum": trace.intensity}, meta)
    return EXIT_OK


def cmd_mc(args) -> int:
    ctx = _context(args)
    base = ensemble.EnsembleSpec(ctx.config.n_realizations, ctx.config.base_seed,
                                 ctx.config.n_domains, ctx.config.sigma_m, ctx.l0)
    delays = interference.default_hom_delays() if args.observable == "hom" else None
    kwargs = dict(model=ctx.model, grid=ctx.grid, pump=ctx.pump, delays=delays,
                  n_workers=ctx.config.threads)
    est = ensemble.run_ensemble(base, args.observable, **kwargs)
    if args.observable == "pair_rate":
        axis = np.zeros(1)
        columns = {"index": axis, "mean": np.atleast_1d(est.mean),
                   "stderr": np.atleast_1d(est.stderr)}
    elif args.observable == "hom":
        columns = {"tau_s": delays, "mean": est.mean, "stderr": est.stderr}
    elif args.observable == "sumfreq":
        columns = {"tau_s": interference.fft_delay_axis(ctx.grid),
                   "mean": est.mean, "stderr": est.stderr}
    else:
        columns = {"omega_rad_s": ctx.grid.omega, "mean": est.mean, "stderr": est.stderr}
    meta = {"observable": args.observable, "n_realizations": base.n_realizations,
            "base_seed": base.base_seed, "sigma_m": base.sigma,
            "n_domains": base.n_domains}
    report = None
    if args.convergence:
        estimates = [
            ensemble.run_ensemble(replace(base, n_realizations=m), args.observable, **kwargs)
            for m in (base.n_realizations, 2 * base.n_realizations, 4 * base.n_realizations)
        ]
        report = ensemble.convergence_report(estimates)
        meta.update({"convergence_sizes": ",".join(str(s) for s in report.sizes),
                     "stderr_exponent": report.stderr_exponent,
                     "converged": report.converged})
    _emit(ctx, "mc", columns, meta)
    if report is not None:
        print(f"convergence: sizes={report.sizes} drifts={report.max_drifts} "
              f"stderr_exponent={report.stderr_exponent:.3f} converged={report.converged}")
    return EXIT_OK


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poledspdc",
        description="Photon-pair observables of SPDC in periodically, randomly "
                    "and chirped periodically poled crystals.",
    )
    parser.add_argument("--version", action="version", version=__version__)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI configuration file")
    common.add_argument("--outdir", help=f"output directory (also {OUTDIR_ENV})")
    common.add_argument("--threads", type=int, help="worker threads for ensemble sweeps")
    common.add_argument("--sellmeier", help="dispersion fit name or coefficients")
    common.add_argument("--temperature-k", dest="temperature_k", type=float)
    common.add_argument("--pump-wavelength", dest="pump_wavelength_m", type=float)
    common.add_argument("--power", dest="pump_power_w", type=float)
    common.add_argument("--kind", choices=("periodic", "random", "chirped"))
    common.add_argument("--n-domains", dest="n_domains", type=int)
    common.add_argument("--l0", dest="l0_m", type=float)
    common.add_argument("--sigma", dest="sigma_m", type=float)
    common.add_argument("--zeta", dest="zeta_per_m2", type=float)
    common.add_argument("--seed", type=int)
    common.add_argument("--lambda-min", dest="lambda_min_m", type=float)
    common.add_argument("--lambda-max", dest="lambda_max_m", type=float)
    common.add_argument("--n-samples", dest="n_samples", type=int)
    common.add_argument("--n-realizations", dest="n_realizations", type=int)
    common.add_argument("--base-seed", dest="base_seed", type=int)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("l0", parents=[common], help="print the base domain length")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_l0)

    p = sub.add_parser("spectrum", parents=[common], help="signal spectrum of one structure")
    p.add_argument("--normalize", action="store_true", help="rescale to unit photon number")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("fig1", parents=[common],
                       help="pair rate versus domain count for three disorder strengths")
    p.add_argument("--n-domains-scan", default=DEFAULT_N_DOMAINS_SCAN)
    p.add_argument("--mc", action=argparse.BooleanOptionalAction, default=True,
                   help="include Monte Carlo columns")
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("fig2", parents=[common],
                       help="chirp scan: width, matched disorder, rates, ratio")
    p.add_argument("--zeta-scan", default=DEFAULT_ZETA_SCAN)
    p.set_defaults(func=cmd_fig2)

    p = sub.add_parser("fig3", parents=[common],
                       help="signal spectra: one realization, chirped, ensemble")
    p.set_defaults(func=cmd_fig3)

    p = sub.add_parser("fig4", parents=[common],
                       help="coincidence dips and sum-frequency traces")
    p.add_argument("--delay-span", type=float, default=200e-15)
    p.add_argument("--delay-step", type=float, default=0.25e-15)
    p.set_defaults(func=cmd_fig4)

    p = sub.add_parser("hom", parents=[common], help="coincidence-dip trace for one source")
    p.add_argument("--source", choices=("periodic", "random", "chirped", "ensemble"),
                   default="ensemble")
    p.add_argument("--delay-span", type=float, default=200e-15)
    p.add_argument("--delay-step", type=float, default=0.25e-15)
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("sumfreq", parents=[common],
                       help="sum-frequency temporal trace for one stack")
    p.add_argument("--source", choices=("periodic", "random", "chirped"), default="random")
    p.add_argument("--compensation", choices=("none", "ideal", "quadratic"), default="ideal")
    p.set_defaults(func=cmd_sumfreq)

    p = sub.add_parser("mc", parents=[common], help="Monte Carlo ensemble of one observable")
    p.add_argument("--observable", choices=ensemble.OBSERVABLES, default="spectrum")
    p.add_argument("--convergence", action="store_true",
                   help="also run 2M and 4M and report convergence")
    p.set_defaults(func=cmd_mc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError) as exc:
        if isinstance(exc, (WavelengthRangeError, NumericalDomainError,
                            StackConstructionError, NoSolutionError)):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ensemble.RealizationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
