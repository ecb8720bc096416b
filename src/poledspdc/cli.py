"""Command-line front end.

Subcommands: l0 | spectrum | fig1 | fig2 | fig3 | fig4 | hom | sumfreq | mc.
Every option that shapes a command's output is a RunConfig field: one INI
key ([crystal], [pump], [structure], [grid], [fig1], [fig2], [spectrum],
[sumfreq], [delays], [ensemble], [mc], [output]) and one flag override
(flags win).  Each run writes its data as CSV with a '#'-metadata header, a
JSON sidecar of the resolved configuration, and a resolved INI; rerunning
with --config and that INI alone writes byte-identical CSVs.  Keys the
table does not know, such as the retired [crystal] sellmeier, are ignored.
An empty sigma_m means the disorder whose ensemble width matches the
configured chirp, solved only for the kinds and commands that use a sigma.
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
from functools import cached_property
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__, ensemble, interference, output, spectra, structure
from .dispersion import (
    DispersionModel,
    WavelengthRangeError,
    base_domain_length,
    congruent_linbo3_extraordinary,
)
from .phasematch import NumericalDomainError
from .spectra import NoSolutionError
from .structure import StackConstructionError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

OUTDIR_ENV = "POLEDSPDC_OUTDIR"

SIGMA_SCAN_FIG1 = (0.0, 0.5e-6, 2.0e-6)


def _field(default, section: str, key: str, flag: str = None, **argparse_kwargs):
    """A RunConfig field with its INI section and key and, unless flag is
    None, its command-line flag; the field's annotation casts INI text and
    flag values, and a bool field is a configparser boolean and a
    --flag/--no-flag pair."""
    return field(default=default, metadata={"section": section, "key": key, "flag": flag,
                                            "argparse": argparse_kwargs})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters; serialized verbatim alongside results."""

    temperature_k: float = _field(297.65, "crystal", "temperature_k", "--temperature-k")
    pump_wavelength_m: float = _field(775e-9, "pump", "wavelength_m", "--pump-wavelength")
    pump_power_w: float = _field(0.1, "pump", "power_w", "--power")
    kind: str = _field("random", "structure", "kind", "--kind",
                       choices=("periodic", "random", "chirped", "ensemble"))
    n_domains: int = _field(2000, "structure", "n_domains", "--n-domains")
    l0_m: float = _field(None, "structure", "l0_m", "--l0")
    sigma_m: float = _field(None, "structure", "sigma_m", "--sigma",
                            help="disorder; unset: width-matched to the configured chirp")
    zeta_per_m2: float = _field(1e6, "structure", "zeta_per_m2", "--zeta")
    seed: int = _field(12345, "structure", "seed", "--seed")
    lambda_min_m: float = _field(1.0e-6, "grid", "lambda_min_m", "--lambda-min")
    n_samples: int = _field(16384, "grid", "n_samples", "--n-samples")
    n_domains_scan: str = _field("250,500,1000,2000,4000", "fig1", "n_domains_scan",
                                 "--n-domains-scan")
    mc: bool = _field(True, "fig1", "mc", "--mc", help="include Monte Carlo columns")
    # The chirp scan tops out at the 1e6 anchor: beyond it the emission band
    # outruns the default 1.0-3.44 um grid and widths become window-limited.
    zeta_scan: str = _field("1e5,2e5,5e5,1e6", "fig2", "zeta_scan", "--zeta-scan")
    normalize: bool = _field(False, "spectrum", "normalize", "--normalize",
                             help="rescale to unit photon number")
    compensation: str = _field("ideal", "sumfreq", "compensation", "--compensation",
                               choices=("none", "ideal", "quadratic"))
    delay_span_s: float = _field(200e-15, "delays", "span_s", "--delay-span")
    delay_step_s: float = _field(0.25e-15, "delays", "step_s", "--delay-step")
    n_realizations: int = _field(1000, "ensemble", "n_realizations", "--n-realizations")
    base_seed: int = _field(424242, "ensemble", "base_seed", "--base-seed")
    observable: str = _field("spectrum", "mc", "observable", "--observable",
                             choices=ensemble.OBSERVABLES)
    convergence: bool = _field(False, "mc", "convergence", "--convergence",
                               help="also run 2M and 4M and report convergence")
    directory: str = _field(".", "output", "directory")
    threads: int = _field(1, "output", "threads", "--threads",
                          help="worker threads for ensemble sweeps (>= 1)")

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
            values[f.name] = (parser.getboolean(section, key) if _CASTS[f.name] is bool
                              else _CASTS[f.name](raw))
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
    config = replace(config, **overrides)
    if config.threads < 1:
        raise ValueError(f"--threads / [output] threads must be at least 1, got {config.threads}")
    return config


@dataclass
class Context:
    """A resolved configuration and what the commands derive from it; the
    grid and the disorder are computed on first use."""

    config: RunConfig
    model: DispersionModel
    pump: spectra.PumpSpec
    l0: float
    delta_k0: float
    outdir: Path

    @cached_property
    def grid(self) -> spectra.SpectralGrid:
        return spectra.symmetric_grid(self.pump.omega_p0, self.config.lambda_min_m,
                                      self.config.n_samples, model=self.model)

    @cached_property
    def sigma(self) -> float:
        """sigma_m, else the disorder width-matched to the configured chirp."""
        config = self.config
        if config.sigma_m is not None:
            return config.sigma_m
        return spectra.sigma_for_zeta(config.zeta_per_m2, config.n_domains,
                                      self.model, self.grid, self.pump, l0=self.l0)

    @property
    def delays(self) -> np.ndarray:
        return interference.default_hom_delays(self.config.delay_span_s,
                                               self.config.delay_step_s)


def _context(config: RunConfig) -> Context:
    model = congruent_linbo3_extraordinary(config.temperature_k)
    pump = spectra.default_pump(config.pump_power_w, config.pump_wavelength_m)
    base_l0 = base_domain_length(model, pump.omega_p0)
    l0 = base_l0 if config.l0_m is None else config.l0_m
    outdir = Path(config.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    return Context(config, model, pump, l0, float(np.pi / base_l0), outdir)


def _emit(ctx: Context, name: str, tables: dict, meta: dict) -> None:
    """Write NAME{suffix}.csv for each suffix -> columns of tables ("" for
    a single table), the NAME_meta.json sidecar and NAME_config.ini."""
    meta = {**meta, "tool_version": __version__}
    for suffix, columns in tables.items():
        output.write_csv(ctx.outdir / f"{name}{suffix}.csv", columns, meta)
    output.write_json(ctx.outdir / f"{name}_meta.json",
                      {"command": name, "meta": meta, "config": ctx.config.mapping()})
    write_resolved_config(ctx.config, ctx.outdir / f"{name}_config.ini")


def _ensemble(ctx: Context, observable: str, sigma: float = None, n_domains: int = None,
              n_realizations: int = None, **options) -> ensemble.EnsembleEstimate:
    """Seeded ensemble over the configured base seed, worker count and grid;
    sigma, n_domains and n_realizations default to the configured ones."""
    config = ctx.config
    spec = ensemble.EnsembleSpec(
        config.n_realizations if n_realizations is None else n_realizations, config.base_seed,
        config.n_domains if n_domains is None else n_domains,
        ctx.sigma if sigma is None else sigma, ctx.l0)
    return ensemble.run_ensemble(spec, observable, model=ctx.model, grid=ctx.grid,
                                 pump=ctx.pump, n_workers=config.threads, **options)


def _source(ctx: Context, kind: str = None):
    """The configured stack of one kind (default: the configured kind), or
    the analytic random ensemble ('ensemble')."""
    config = ctx.config
    kind = kind or config.kind
    if kind == "periodic":
        return structure.build_periodic(config.n_domains, ctx.l0)
    if kind == "random":
        return structure.build_random(config.n_domains, ctx.l0, ctx.sigma, config.seed)
    if kind == "chirped":
        return structure.build_chirped(config.n_domains, ctx.l0, config.zeta_per_m2,
                                       ctx.delta_k0)
    if kind == "ensemble":
        return spectra.RandomEnsembleSource(config.n_domains, ctx.sigma, l0=ctx.l0)
    raise ValueError(f"unknown structure kind {kind!r}")


def _structure_meta(ctx: Context) -> dict:
    """The configured structure, with sigma_m for the kinds that use one."""
    config = ctx.config
    meta = {"structure_kind": config.kind, "n_domains": config.n_domains,
            "zeta_per_m2": config.zeta_per_m2, "seed": config.seed}
    if config.kind in ("random", "ensemble"):
        meta["sigma_m"] = ctx.sigma
    return meta


def _disorder_meta(ctx: Context) -> dict:
    """The metadata fig3 and fig4 start from."""
    config = ctx.config
    return {"sigma_m": ctx.sigma, "zeta_per_m2": config.zeta_per_m2,
            "n_domains": config.n_domains, "seed": config.seed,
            "base_seed": config.base_seed, "n_realizations": config.n_realizations}


def _pair_rate(ctx: Context, source, calibration: float) -> float:
    density = spectra.spectral_density(ctx.grid, ctx.pump, ctx.model, source)
    return spectra.pair_rate(density, calibration).pair_rate


def _parse_scan(text: str, label: str) -> list:
    values = [float(part) for part in text.split(",") if part.strip()]
    if not values or not np.all(np.isfinite(values)):
        raise ValueError(f"{label} scan must list finite numbers, got {text!r}")
    return values


# ---------------------------------------------------------------- commands

def cmd_l0(ctx: Context, as_json: bool) -> None:
    if as_json:
        print(json.dumps({"l0_m": ctx.l0, "delta_k0_rad_per_m": ctx.delta_k0}, sort_keys=True))
    else:
        print(f"l0 = {ctx.l0 * 1e6:.6f} um (delta_k0 = {ctx.delta_k0:.6e} rad/m)")


def cmd_spectrum(ctx: Context):
    """signal spectrum of one structure"""
    density = spectra.spectral_density(ctx.grid, ctx.pump, ctx.model, _source(ctx))
    spectrum = spectra.signal_spectrum(density, normalize=ctx.config.normalize)
    return {"": {
        "wavelength_m": ctx.grid.wavelengths,
        "omega_rad_s": ctx.grid.omega,
        "signal_spectrum": spectrum.values,
    }}, {**_structure_meta(ctx), "normalized": ctx.config.normalize}


def cmd_fig1(ctx: Context):
    """pair rate versus domain count for three disorder strengths"""
    config = ctx.config
    scan = _parse_scan(config.n_domains_scan, "n_domains")
    if not all(v.is_integer() for v in scan):
        raise ValueError(f"n_domains scan entries must be integers, got {config.n_domains_scan!r}")
    n_scan = [int(v) for v in scan]
    calibration = spectra.calibrate(ctx.model, ctx.grid, ctx.pump)
    columns = {"n_domains": np.asarray(n_scan, dtype=float)}
    meta = {"sigma_scan_m": ",".join(str(s) for s in SIGMA_SCAN_FIG1),
            "pump_power_w": config.pump_power_w,
            "base_seed": config.base_seed,
            "n_realizations": config.n_realizations,
            "calibration_constant": calibration}
    for i, sigma in enumerate(SIGMA_SCAN_FIG1):
        rows = []
        for n_domains in n_scan:
            rate = _pair_rate(ctx, spectra.RandomEnsembleSource(n_domains, sigma, ctx.l0),
                              calibration)
            if sigma == 0.0:
                rows.append((rate, rate, 0.0))
            elif config.mc:
                est = _ensemble(ctx, "pair_rate", sigma, n_domains, calibration=calibration)
                rows.append((rate, float(est.mean), float(est.stderr)))
            else:
                rows.append((rate, np.nan, np.nan))
        for prefix, values in zip(("rate_analytic", "rate_mc", "rate_mc_stderr"),
                                  np.asarray(rows).T):
            columns[f"{prefix}_sigma{i}"] = values
    return {"": columns}, meta


def cmd_fig2(ctx: Context):
    """chirp scan: width, matched disorder, rates, ratio"""
    zetas = _parse_scan(ctx.config.zeta_scan, "zeta")
    calibration = spectra.calibrate(ctx.model, ctx.grid, ctx.pump)
    n_domains = ctx.config.n_domains
    rows = []
    for zeta in zetas:
        chirp_env = spectra.ChirpedSource(n_domains=n_domains, zeta=zeta, l0=ctx.l0)
        s_chirp = spectra.signal_spectrum(
            spectra.spectral_density(ctx.grid, ctx.pump, ctx.model, chirp_env))
        width = spectra.fwhm(s_chirp)
        sigma = spectra.sigma_for_zeta(zeta, n_domains, ctx.model, ctx.grid, ctx.pump, l0=ctx.l0)
        stack = structure.build_chirped(n_domains, ctx.l0, zeta, ctx.delta_k0)
        rate_chirp = _pair_rate(ctx, stack, calibration)
        rate_random = _pair_rate(ctx, spectra.RandomEnsembleSource(n_domains, sigma, l0=ctx.l0),
                                 calibration)
        rows.append((zeta, width.width_omega, width.width_wavelength, sigma,
                     rate_chirp, rate_random, rate_random / rate_chirp))
    names = ("zeta_per_m2", "fwhm_chirp_omega_rad_s", "fwhm_chirp_wavelength_m",
             "sigma_match_m", "rate_chirp", "rate_random", "rate_ratio")
    meta = {"n_domains": n_domains, "calibration_constant": calibration,
            "pump_power_w": ctx.config.pump_power_w}
    return {"": dict(zip(names, np.asarray(rows).T))}, meta


def cmd_fig3(ctx: Context):
    """signal spectra: one realization, chirped, ensemble"""
    sources = (_source(ctx, "random"),
               spectra.ChirpedSource(n_domains=ctx.config.n_domains,
                                     zeta=ctx.config.zeta_per_m2, l0=ctx.l0),
               _source(ctx, "ensemble"))
    densities = [spectra.spectral_density(ctx.grid, ctx.pump, ctx.model, s) for s in sources]
    densities.append(spectra.Spectrum(ctx.grid, _ensemble(ctx, "spectrum").mean))
    columns = {"wavelength_m": ctx.grid.wavelengths, "omega_rad_s": ctx.grid.omega}
    for name, density in zip(("s_realization", "s_chirped_envelope", "s_ensemble_analytic",
                              "s_ensemble_mc"), densities):
        columns[name] = spectra.signal_spectrum(density, normalize=True).values
    return {"": columns}, {**_disorder_meta(ctx), "normalization": "unit photon number"}


def cmd_fig4(ctx: Context):
    """coincidence dips and sum-frequency traces"""
    realization = _source(ctx, "random")
    chirp_stack = _source(ctx, "chirped")

    delays = ctx.delays
    hom_cols = {"tau_s": delays}
    for label, source in (("realization", realization), ("chirped", chirp_stack),
                          ("ensemble", _source(ctx, "ensemble"))):
        curve = spectra.mean_abs_f_sq(ctx.grid, ctx.pump, ctx.model, source)
        hom_cols[f"rn_{label}"] = interference.hom_trace(curve, ctx.grid, ctx.pump, delays).rates

    sum_cols = {"tau_s": interference.fft_delay_axis(ctx.grid)}
    for label, stack in (("realization", realization), ("chirped", chirp_stack)):
        amp = interference.two_photon_amplitude(stack, ctx.grid, ctx.pump, ctx.model)
        for mode in ("ideal", "quadratic"):
            trace = interference.sum_frequency_trace(interference.compensate_phase(amp, mode))
            sum_cols[f"isum_{label}_{mode}"] = trace.intensity
    sum_cols["isum_ensemble_ideal"] = _ensemble(ctx, "sumfreq", compensation="ideal").mean
    return {"_hom": hom_cols, "_sumfreq": sum_cols}, _disorder_meta(ctx)


def cmd_hom(ctx: Context):
    """coincidence-dip trace for one source"""
    curve = spectra.mean_abs_f_sq(ctx.grid, ctx.pump, ctx.model, _source(ctx))
    trace = interference.hom_trace(curve, ctx.grid, ctx.pump, ctx.delays)
    meta = {**_structure_meta(ctx), "baseline_m2_rad_s": trace.baseline}
    return {"": {"tau_s": trace.delays, "rn": trace.rates}}, meta


def cmd_sumfreq(ctx: Context):
    """sum-frequency temporal trace for one stack"""
    amp = interference.two_photon_amplitude(_source(ctx), ctx.grid, ctx.pump, ctx.model)
    amp = interference.compensate_phase(amp, ctx.config.compensation)
    trace = interference.sum_frequency_trace(amp)
    meta = {**_structure_meta(ctx), "compensation": ctx.config.compensation}
    if amp.fit_coefficients is not None:
        meta["quadratic_fit_coefficients"] = ",".join(repr(c) for c in amp.fit_coefficients)
    return {"": {"tau_s": trace.delays, "isum": trace.intensity}}, meta


def cmd_mc(ctx: Context):
    """Monte Carlo ensemble of one observable"""
    config = ctx.config
    observable = config.observable
    calibration = (spectra.calibrate(ctx.model, ctx.grid, ctx.pump)
                   if observable == "pair_rate" else None)
    options = {"delays": ctx.delays if observable == "hom" else None,
               "compensation": config.compensation, "calibration": calibration}
    est = _ensemble(ctx, observable, **options)
    if observable == "pair_rate":
        axis = ("index", np.zeros(1))
    elif observable == "hom":
        axis = ("tau_s", options["delays"])
    elif observable == "sumfreq":
        axis = ("tau_s", interference.fft_delay_axis(ctx.grid))
    else:
        axis = ("omega_rad_s", ctx.grid.omega)
    columns = {axis[0]: axis[1], "mean": np.atleast_1d(est.mean),
               "stderr": np.atleast_1d(est.stderr)}
    meta = {"observable": observable, "n_realizations": config.n_realizations,
            "base_seed": config.base_seed, "sigma_m": ctx.sigma,
            "n_domains": config.n_domains}
    if calibration is not None:
        meta["calibration_constant"] = calibration
    if config.convergence:
        # seeds are index-derived, so the M-realization run above is the first
        # nested estimate
        report = ensemble.convergence_report([est] + [
            _ensemble(ctx, observable, n_realizations=k * config.n_realizations, **options)
            for k in (2, 4)
        ])
        meta.update({"convergence_sizes": ",".join(str(s) for s in report.sizes),
                     "stderr_exponent": report.stderr_exponent,
                     "converged": report.converged})
        print(f"convergence: sizes={report.sizes} drifts={report.max_drifts} "
              f"stderr_exponent={report.stderr_exponent:.3f} converged={report.converged}")
    return {"": columns}, meta


# Each command returns its tables and metadata; its docstring is its --help line.
COMMANDS = {func.__name__.removeprefix("cmd_"): func for func in (
    cmd_spectrum, cmd_fig1, cmd_fig2, cmd_fig3, cmd_fig4, cmd_hom, cmd_sumfreq, cmd_mc)}


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
            conversion = ({"action": argparse.BooleanOptionalAction} if _CASTS[f.name] is bool
                          else {"type": _CASTS[f.name]})
            common.add_argument(f.metadata["flag"], dest=f.name, **conversion,
                                **f.metadata["argparse"])

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("l0", parents=[common], help="print the base domain length").add_argument(
        "--json", action="store_true")
    for name, func in COMMANDS.items():
        sub.add_parser(name, parents=[common], help=func.__doc__)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ctx = _context(_resolve(args))
        if args.command == "l0":
            cmd_l0(ctx, args.json)
        else:
            _emit(ctx, args.command, *COMMANDS[args.command](ctx))
        return EXIT_OK
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
