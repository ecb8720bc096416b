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
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

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
# outruns the default 1.0-3.44 um grid and widths become window-limited.
DEFAULT_ZETA_SCAN = "1e5,2e5,5e5,1e6"


def _field(default, section: str, key: str, flag: str = None, **argparse_kwargs):
    """A RunConfig field with its INI section and key and, unless flag is
    None, its command-line flag; the field's annotation casts INI text and
    flag values."""
    return field(default=default, metadata={"section": section, "key": key, "flag": flag,
                                            "argparse": argparse_kwargs})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters; serialized verbatim alongside results."""

    sellmeier: str = _field("cln_ne_jundt1997", "crystal", "sellmeier", "--sellmeier",
                            help="registered dispersion fit name")
    temperature_k: float = _field(297.65, "crystal", "temperature_k", "--temperature-k")
    pump_wavelength_m: float = _field(775e-9, "pump", "wavelength_m", "--pump-wavelength")
    pump_power_w: float = _field(0.1, "pump", "power_w", "--power")
    kind: str = _field("random", "structure", "kind", "--kind",
                       choices=("periodic", "random", "chirped"))
    n_domains: int = _field(2000, "structure", "n_domains", "--n-domains")
    l0_m: float = _field(None, "structure", "l0_m", "--l0")
    sigma_m: float = _field(2.3e-6, "structure", "sigma_m", "--sigma")
    zeta_per_m2: float = _field(1e6, "structure", "zeta_per_m2", "--zeta")
    seed: int = _field(12345, "structure", "seed", "--seed")
    lambda_min_m: float = _field(1.0e-6, "grid", "lambda_min_m", "--lambda-min")
    lambda_max_m: float = _field(2.6e-6, "grid", "lambda_max_m", "--lambda-max")
    n_samples: int = _field(16384, "grid", "n_samples", "--n-samples")
    n_realizations: int = _field(1000, "ensemble", "n_realizations", "--n-realizations")
    base_seed: int = _field(424242, "ensemble", "base_seed", "--base-seed")
    directory: str = _field(".", "output", "directory")
    threads: int = _field(1, "output", "threads", "--threads",
                          help="worker threads for ensemble sweeps")

    def mapping(self) -> dict:
        sections = {}
        for f in fields(self):
            value = getattr(self, f.name)
            sections.setdefault(f.metadata["section"], {})[f.metadata["key"]] = (
                "" if value is None else value)
        return sections


_CASTS = get_type_hints(RunConfig)


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise FileNotFoundError(f"configuration file {path} not found")
    values = {}
    for f in fields(RunConfig):
        section, key = f.metadata["section"], f.metadata["key"]
        raw = parser.get(section, key, fallback="").strip()
        if raw:
            values[f.name] = _CASTS[f.name](raw)
            choices = f.metadata["argparse"].get("choices")
            if choices and values[f.name] not in choices:
                raise ValueError(f"[{section}] {key} must be one of {choices}, got {raw!r}")
    return RunConfig(**values)


def write_resolved_config(config: RunConfig, path) -> None:
    parser = configparser.ConfigParser()
    for section, entries in config.mapping().items():
        parser[section] = {k: str(v) for k, v in entries.items()}
    with open(path, "w") as handle:
        parser.write(handle)


def _resolve(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)
                 if getattr(args, f.name, None) is not None}
    overrides["directory"] = args.outdir or os.environ.get(OUTDIR_ENV) or config.directory
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
    pump = spectra.default_pump(config.pump_power_w, config.pump_wavelength_m)
    base_l0 = base_domain_length(model, pump.omega_p0)
    l0 = base_l0 if config.l0_m is None else config.l0_m
    grid = None
    if need_grid:
        grid = spectra.symmetric_grid(pump.omega_p0, config.lambda_min_m,
                                      config.lambda_max_m, config.n_samples, model=model)
    delta_k0 = float(np.pi / base_l0)
    outdir = Path(config.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    return Context(config, model, pump, grid, l0, delta_k0, outdir)


def _emit(ctx: Context, name: str, tables: dict, meta: dict) -> None:
    """Write NAME{suffix}.csv for each suffix -> columns of tables ("" for
    a single table), the NAME_meta.json sidecar and NAME_config.ini."""
    meta = {**meta, "tool_version": __version__}
    for suffix, columns in tables.items():
        output.write_csv(ctx.outdir / f"{name}{suffix}.csv", columns, meta)
    output.write_json(ctx.outdir / f"{name}_meta.json",
                      {"command": name, "meta": meta, "config": ctx.config.mapping()})
    write_resolved_config(ctx.config, ctx.outdir / f"{name}_config.ini")


def _ensemble(ctx: Context, observable: str, sigma: float, n_domains: int = None,
              n_realizations: int = None, **options) -> ensemble.EnsembleEstimate:
    """Seeded ensemble over the configured base seed, worker count and grid;
    n_domains and n_realizations default to the configured ones."""
    config = ctx.config
    spec = ensemble.EnsembleSpec(
        config.n_realizations if n_realizations is None else n_realizations, config.base_seed,
        config.n_domains if n_domains is None else n_domains, sigma, ctx.l0)
    return ensemble.run_ensemble(spec, observable, model=ctx.model, grid=ctx.grid,
                                 pump=ctx.pump, n_workers=config.threads, **options)


def _matched_disorder(args, ctx: Context):
    """fig3/fig4 disorder: --sigma, else the width match of the configured
    chirp; returned with the metadata both figures start from."""
    config = ctx.config
    sigma = args.sigma_m
    if sigma is None:
        sigma = spectra.sigma_for_zeta(config.zeta_per_m2, config.n_domains,
                                       ctx.model, ctx.grid, ctx.pump)
    return sigma, {"sigma_m": sigma, "zeta_per_m2": config.zeta_per_m2,
                   "n_domains": config.n_domains, "seed": config.seed,
                   "base_seed": config.base_seed, "n_realizations": config.n_realizations}


def _source(ctx: Context, kind: str = None, sigma: float = None):
    """The configured stack of one kind, or the random ensemble ('ensemble');
    sigma overrides the configured disorder."""
    kind = kind or ctx.config.kind
    sigma = ctx.config.sigma_m if sigma is None else sigma
    if kind == "periodic":
        return structure.build_periodic(ctx.config.n_domains, ctx.l0)
    if kind == "random":
        return structure.build_random(ctx.config.n_domains, ctx.l0, sigma, ctx.config.seed)
    if kind == "chirped":
        return structure.build_chirped(ctx.config.n_domains, ctx.l0,
                                       ctx.config.zeta_per_m2, ctx.delta_k0)
    if kind == "ensemble":
        return spectra.RandomEnsembleSource(ctx.config.n_domains, sigma, l0=ctx.l0)
    raise ValueError(f"unknown structure kind {kind!r}")


def _pair_rate(ctx: Context, source, calibration: float) -> float:
    density = spectra.spectral_density(ctx.grid, ctx.pump, ctx.model, source)
    return spectra.pair_rate(density, calibration).pair_rate


def _parse_scan(text: str, label: str) -> list:
    values = [float(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"{label} scan list is empty")
    return values


# ---------------------------------------------------------------- commands

def cmd_l0(args) -> int:
    ctx = _context(args, need_grid=False)
    if args.json:
        print(json.dumps({"l0_m": ctx.l0, "delta_k0_rad_per_m": ctx.delta_k0}, sort_keys=True))
    else:
        print(f"l0 = {ctx.l0 * 1e6:.6f} um (delta_k0 = {ctx.delta_k0:.6e} rad/m)")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    ctx = _context(args)
    stack = _source(ctx)
    density = spectra.spectral_density(ctx.grid, ctx.pump, ctx.model, stack)
    spectrum = spectra.signal_spectrum(density, normalize=args.normalize)
    meta = {"structure_kind": stack.kind, "n_domains": stack.n_domains,
            "sigma_m": stack.sigma, "zeta_per_m2": stack.zeta, "seed": stack.seed,
            "normalized": args.normalize}
    _emit(ctx, "spectrum", {"": {
        "wavelength_m": ctx.grid.wavelengths,
        "omega_rad_s": ctx.grid.omega,
        "signal_spectrum": spectrum.values,
    }}, meta)
    return EXIT_OK


def cmd_fig1(args) -> int:
    ctx = _context(args)
    scan = _parse_scan(args.n_domains_scan, "n_domains")
    if not all(v.is_integer() for v in scan):
        raise ValueError(f"n_domains scan entries must be integers, got {args.n_domains_scan!r}")
    n_scan = [int(v) for v in scan]
    calibration = spectra.calibrate(ctx.model, ctx.grid, ctx.pump)
    columns = {"n_domains": np.asarray(n_scan, dtype=float)}
    meta = {"sigma_scan_m": ",".join(str(s) for s in SIGMA_SCAN_FIG1),
            "pump_power_w": ctx.config.pump_power_w,
            "base_seed": ctx.config.base_seed,
            "n_realizations": ctx.config.n_realizations,
            "calibration_constant": calibration}
    for i, sigma in enumerate(SIGMA_SCAN_FIG1):
        rows = []
        for n_domains in n_scan:
            rate = _pair_rate(ctx, spectra.RandomEnsembleSource(n_domains, sigma, ctx.l0),
                              calibration)
            if sigma == 0.0:
                rows.append((rate, rate, 0.0))
            elif args.mc:
                est = _ensemble(ctx, "pair_rate", sigma, n_domains, calibration=calibration)
                rows.append((rate, float(est.mean), float(est.stderr)))
            else:
                rows.append((rate, np.nan, np.nan))
        for prefix, values in zip(("rate_analytic", "rate_mc", "rate_mc_stderr"),
                                  np.asarray(rows).T):
            columns[f"{prefix}_sigma{i}"] = values
    _emit(ctx, "fig1", {"": columns}, meta)
    return EXIT_OK


def cmd_fig2(args) -> int:
    ctx = _context(args)
    zetas = _parse_scan(args.zeta_scan, "zeta")
    calibration = spectra.calibrate(ctx.model, ctx.grid, ctx.pump)
    n_domains = ctx.config.n_domains
    rows = []
    for zeta in zetas:
        chirp_env = spectra.ChirpedSource(n_domains=n_domains, zeta=zeta, envelope=True)
        s_chirp = spectra.signal_spectrum(
            spectra.spectral_density(ctx.grid, ctx.pump, ctx.model, chirp_env))
        width = spectra.fwhm(s_chirp)
        sigma = spectra.sigma_for_zeta(zeta, n_domains, ctx.model, ctx.grid, ctx.pump)
        stack = structure.build_chirped(n_domains, ctx.l0, zeta, ctx.delta_k0)
        rate_chirp = _pair_rate(ctx, stack, calibration)
        rate_random = _pair_rate(ctx, spectra.RandomEnsembleSource(n_domains, sigma), calibration)
        rows.append((zeta, width.width_omega, width.width_wavelength, sigma,
                     rate_chirp, rate_random, rate_random / rate_chirp))
    names = ("zeta_per_m2", "fwhm_chirp_omega_rad_s", "fwhm_chirp_wavelength_m",
             "sigma_match_m", "rate_chirp", "rate_random", "rate_ratio")
    meta = {"n_domains": n_domains, "calibration_constant": calibration,
            "pump_power_w": ctx.config.pump_power_w}
    _emit(ctx, "fig2", {"": dict(zip(names, np.asarray(rows).T))}, meta)
    return EXIT_OK


def cmd_fig3(args) -> int:
    ctx = _context(args)
    sigma, meta = _matched_disorder(args, ctx)
    sources = (_source(ctx, "random", sigma),
               spectra.ChirpedSource(n_domains=ctx.config.n_domains,
                                     zeta=ctx.config.zeta_per_m2, envelope=True),
               _source(ctx, "ensemble", sigma))
    densities = [spectra.spectral_density(ctx.grid, ctx.pump, ctx.model, s) for s in sources]
    densities.append(spectra.Spectrum(ctx.grid, _ensemble(ctx, "spectrum", sigma).mean))
    columns = {"wavelength_m": ctx.grid.wavelengths, "omega_rad_s": ctx.grid.omega}
    for name, density in zip(("s_realization", "s_chirped_envelope", "s_ensemble_analytic",
                              "s_ensemble_mc"), densities):
        columns[name] = spectra.signal_spectrum(density, normalize=True).values
    _emit(ctx, "fig3", {"": columns}, {**meta, "normalization": "unit photon number"})
    return EXIT_OK


def cmd_fig4(args) -> int:
    ctx = _context(args)
    sigma, meta = _matched_disorder(args, ctx)
    realization = _source(ctx, "random", sigma)
    chirp_stack = _source(ctx, "chirped")

    delays = interference.default_hom_delays(args.delay_span, args.delay_step)
    hom_cols = {"tau_s": delays}
    for label, source in (("realization", realization), ("chirped", chirp_stack),
                          ("ensemble", _source(ctx, "ensemble", sigma))):
        curve = spectra.mean_abs_f_sq(ctx.grid, ctx.pump, ctx.model, source)
        hom_cols[f"rn_{label}"] = interference.hom_trace(curve, ctx.grid, ctx.pump, delays).rates

    sum_cols = {"tau_s": interference.fft_delay_axis(ctx.grid)}
    for label, stack in (("realization", realization), ("chirped", chirp_stack)):
        amp = interference.two_photon_amplitude(stack, ctx.grid, ctx.pump, ctx.model)
        for mode in ("ideal", "quadratic"):
            trace = interference.sum_frequency_trace(interference.compensate_phase(amp, mode))
            sum_cols[f"isum_{label}_{mode}"] = trace.intensity
    sum_cols["isum_ensemble_ideal"] = _ensemble(ctx, "sumfreq", sigma,
                                                compensation="ideal").mean
    _emit(ctx, "fig4", {"_hom": hom_cols, "_sumfreq": sum_cols}, meta)
    return EXIT_OK


def cmd_hom(args) -> int:
    ctx = _context(args)
    curve = spectra.mean_abs_f_sq(ctx.grid, ctx.pump, ctx.model, _source(ctx, args.source))
    delays = interference.default_hom_delays(args.delay_span, args.delay_step)
    trace = interference.hom_trace(curve, ctx.grid, ctx.pump, delays)
    meta = {"source": args.source, "n_domains": ctx.config.n_domains,
            "sigma_m": ctx.config.sigma_m, "zeta_per_m2": ctx.config.zeta_per_m2,
            "seed": ctx.config.seed, "baseline_m2_rad_s": trace.baseline}
    _emit(ctx, "hom", {"": {"tau_s": trace.delays, "rn": trace.rates}}, meta)
    return EXIT_OK


def cmd_sumfreq(args) -> int:
    ctx = _context(args)
    stack = _source(ctx, args.source)
    amp = interference.two_photon_amplitude(stack, ctx.grid, ctx.pump, ctx.model)
    if args.compensation != "none":
        amp = interference.compensate_phase(amp, args.compensation)
    trace = interference.sum_frequency_trace(amp)
    meta = {"source": args.source, "compensation": args.compensation,
            "n_domains": ctx.config.n_domains, "sigma_m": ctx.config.sigma_m,
            "zeta_per_m2": ctx.config.zeta_per_m2, "seed": ctx.config.seed}
    if amp.fit_coefficients is not None:
        meta["quadratic_fit_coefficients"] = ",".join(repr(c) for c in amp.fit_coefficients)
    _emit(ctx, "sumfreq", {"": {"tau_s": trace.delays, "isum": trace.intensity}}, meta)
    return EXIT_OK


def cmd_mc(args) -> int:
    ctx = _context(args)
    config = ctx.config
    delays = interference.default_hom_delays() if args.observable == "hom" else None
    est = _ensemble(ctx, args.observable, config.sigma_m, delays=delays)
    if args.observable == "pair_rate":
        axis = ("index", np.zeros(1))
    elif args.observable == "hom":
        axis = ("tau_s", delays)
    elif args.observable == "sumfreq":
        axis = ("tau_s", interference.fft_delay_axis(ctx.grid))
    else:
        axis = ("omega_rad_s", ctx.grid.omega)
    columns = {axis[0]: axis[1], "mean": np.atleast_1d(est.mean),
               "stderr": np.atleast_1d(est.stderr)}
    meta = {"observable": args.observable, "n_realizations": config.n_realizations,
            "base_seed": config.base_seed, "sigma_m": config.sigma_m,
            "n_domains": config.n_domains}
    if args.convergence:
        # seeds are index-derived, so the M-realization run above is the first
        # nested estimate
        report = ensemble.convergence_report([est] + [
            _ensemble(ctx, args.observable, config.sigma_m,
                      n_realizations=k * config.n_realizations, delays=delays)
            for k in (2, 4)
        ])
        meta.update({"convergence_sizes": ",".join(str(s) for s in report.sizes),
                     "stderr_exponent": report.stderr_exponent,
                     "converged": report.converged})
        print(f"convergence: sizes={report.sizes} drifts={report.max_drifts} "
              f"stderr_exponent={report.stderr_exponent:.3f} converged={report.converged}")
    _emit(ctx, "mc", {"": columns}, meta)
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
    for f in fields(RunConfig):
        if f.metadata["flag"]:
            common.add_argument(f.metadata["flag"], dest=f.name, type=_CASTS[f.name],
                                **f.metadata["argparse"])

    delay_axis = argparse.ArgumentParser(add_help=False)
    delay_axis.add_argument("--delay-span", type=float, default=200e-15)
    delay_axis.add_argument("--delay-step", type=float, default=0.25e-15)

    sub = parser.add_subparsers(dest="command", required=True)

    def command(func, help_text, *parents):
        p = sub.add_parser(func.__name__.removeprefix("cmd_"), parents=[common, *parents],
                           help=help_text)
        p.set_defaults(func=func)
        return p

    command(cmd_l0, "print the base domain length").add_argument("--json", action="store_true")

    command(cmd_spectrum, "signal spectrum of one structure").add_argument(
        "--normalize", action="store_true", help="rescale to unit photon number")

    p = command(cmd_fig1, "pair rate versus domain count for three disorder strengths")
    p.add_argument("--n-domains-scan", default=DEFAULT_N_DOMAINS_SCAN)
    p.add_argument("--mc", action=argparse.BooleanOptionalAction, default=True,
                   help="include Monte Carlo columns")

    command(cmd_fig2, "chirp scan: width, matched disorder, rates, ratio").add_argument(
        "--zeta-scan", default=DEFAULT_ZETA_SCAN)

    command(cmd_fig3, "signal spectra: one realization, chirped, ensemble")

    command(cmd_fig4, "coincidence dips and sum-frequency traces", delay_axis)

    command(cmd_hom, "coincidence-dip trace for one source", delay_axis).add_argument(
        "--source", choices=("periodic", "random", "chirped", "ensemble"), default="ensemble")

    p = command(cmd_sumfreq, "sum-frequency temporal trace for one stack")
    p.add_argument("--source", choices=("periodic", "random", "chirped"), default="random")
    p.add_argument("--compensation", choices=("none", "ideal", "quadratic"), default="ideal")

    p = command(cmd_mc, "Monte Carlo ensemble of one observable")
    p.add_argument("--observable", choices=ensemble.OBSERVABLES, default="spectrum")
    p.add_argument("--convergence", action="store_true",
                   help="also run 2M and 4M and report convergence")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WavelengthRangeError, NumericalDomainError, StackConstructionError,
            NoSolutionError, ensemble.RealizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FileNotFoundError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
