import json
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.constants import hbar
from scipy.integrate import trapezoid

from poledspdc import (
    __version__,
    base_domain_length,
    build_periodic,
    ensemble,
    pair_rate,
    spectral_density,
    symmetric_grid,
)
from poledspdc.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    RunConfig,
    _context,
    _resolve,
    build_parser,
    load_config,
    main,
    write_resolved_config,
)

FAST = [
    "--n-samples", "1024",
    "--n-domains", "400",
    "--n-realizations", "6",
]


def read_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    data = np.asarray(rows)
    return meta, {name: data[:, i] for i, name in enumerate(header)}


# Every field away from its default; the computed floats need long reprs to round-trip.
NON_DEFAULT = RunConfig(
    sellmeier="2.0,3.0,4.0,5.0,6.0,7.0,8.0,9.0,10.0,11.0", temperature_k=931.0 / 3,
    pump_wavelength_m=0.1 * 7.7e-6, pump_power_w=0.1 + 0.2, kind="chirped", n_domains=777,
    l0_m=9.4 * 1.1e-6, sigma_m=1.7e-6 / 3, zeta_per_m2=3.3e5, seed=99, lambda_min_m=1.1e-6,
    lambda_max_m=2.2e-6 / 3, n_samples=4096, n_realizations=17, base_seed=5,
    directory="some/dir", threads=3,
)


def csv_body(path):
    return "".join(line for line in path.read_text().splitlines(keepends=True)
                   if not line.startswith("#"))


class TestL0:
    def test_default_prints_domain_length(self, capsys):
        assert main(["l0"]) == EXIT_OK
        out = capsys.readouterr().out
        value = float(out.split("=")[1].split("um")[0])
        assert value == pytest.approx(9.515, rel=0.02)

    def test_json_mode_keys(self, capsys):
        assert main(["l0", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"l0_m", "delta_k0_rad_per_m"}
        assert payload["l0_m"] * payload["delta_k0_rad_per_m"] == pytest.approx(np.pi)

    def test_out_of_range_pump_is_clean_numeric_error(self, capsys):
        assert main(["l0", "--pump-wavelength", "10.2e-6"]) == EXIT_NUMERIC
        assert "error" in capsys.readouterr().err

    def test_nan_pump_wavelength_is_config_error(self, capsys):
        assert main(["l0", "--pump-wavelength", "nan"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "pump frequency" in captured.err and "l0 =" not in captured.out

    def test_explicit_sellmeier_coefficients_are_config_error(self, capsys):
        # the CLI takes a registered fit name only; other fits go through
        # the DispersionModel constructor
        coefficients = ("5.35583,0.100473,0.20692,100,11.34927,"
                        "1.5334e-2,4.629e-7,3.862e-8,-0.89e-8,2.657e-5")
        assert main(["l0", "--sellmeier", coefficients]) == EXIT_CONFIG
        assert "must name a registered fit" in capsys.readouterr().err

    def test_console_entry_point(self):
        result = subprocess.run([sys.executable, "-m", "poledspdc.cli", "l0"],
                                capture_output=True, text=True)
        assert result.returncode == 0
        assert "l0" in result.stdout


class TestConfigTable:
    @pytest.mark.parametrize("l0_m", [NON_DEFAULT.l0_m, None], ids=["l0_set", "l0_derived"])
    def test_resolved_config_round_trips_exactly(self, tmp_path, l0_m):
        config = replace(NON_DEFAULT, l0_m=l0_m)
        for f in fields(RunConfig):
            if f.name != "l0_m" or l0_m is not None:
                assert getattr(config, f.name) != f.default, f.name
        write_resolved_config(config, tmp_path / "run.ini")
        assert load_config(tmp_path / "run.ini") == config

    def test_common_flags_are_unchanged(self):
        subparsers = next(a for a in build_parser()._actions if a.choices and a.dest == "command")
        shared = set.intersection(*(
            {s for action in p._actions for s in action.option_strings}
            for p in subparsers.choices.values()
        ))
        assert shared - {"-h", "--help"} == {
            "--config", "--outdir", "--threads", "--sellmeier", "--temperature-k",
            "--pump-wavelength", "--power", "--kind", "--n-domains", "--l0", "--sigma",
            "--zeta", "--seed", "--lambda-min", "--lambda-max", "--n-samples",
            "--n-realizations", "--base-seed",
        }

    def test_each_flag_sets_its_field(self, monkeypatch):
        monkeypatch.delenv("POLEDSPDC_OUTDIR", raising=False)
        flagged = [f for f in fields(RunConfig) if f.metadata["flag"]]
        assert len(flagged) == 16
        for f in flagged:
            value = getattr(NON_DEFAULT, f.name)
            args = build_parser().parse_args(["spectrum", f.metadata["flag"], str(value)])
            resolved = _resolve(args)
            assert resolved == RunConfig(**{f.name: value}), f.name
            assert type(getattr(resolved, f.name)) is type(value), f.name

    def test_config_file_kind_outside_flag_choices_is_config_error(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[structure]\nkind = ensemble\n")
        code = main(["spectrum", "--config", str(config), "--outdir", str(tmp_path), *FAST])
        assert code == EXIT_CONFIG


class TestSpectrumCommand:
    def test_writes_csv_sidecar_and_resolved_config(self, tmp_path):
        code = main(["spectrum", "--outdir", str(tmp_path), "--kind", "periodic", *FAST])
        assert code == EXIT_OK
        meta, columns = read_csv(tmp_path / "spectrum.csv")
        assert set(columns) == {"wavelength_m", "omega_rad_s", "signal_spectrum"}
        assert np.all(columns["signal_spectrum"] >= 0)
        assert meta["structure_kind"] == "periodic"
        sidecar = json.loads((tmp_path / "spectrum_meta.json").read_text())
        assert sidecar["config"]["structure"]["n_domains"] == 400
        assert (tmp_path / "spectrum_config.ini").exists()

    def test_rerun_with_resolved_config_is_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        main(["spectrum", "--outdir", str(first), "--kind", "random", *FAST, "--seed", "3"])
        main(["spectrum", "--config", str(first / "spectrum_config.ini"),
              "--outdir", str(second)])
        assert csv_body(second / "spectrum.csv") == csv_body(first / "spectrum.csv")

    def test_env_var_output_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POLEDSPDC_OUTDIR", str(tmp_path / "env"))
        main(["spectrum", "--kind", "periodic", *FAST])
        assert (tmp_path / "env" / "spectrum.csv").exists()

    def test_flag_overrides_config_file(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[structure]\nkind = periodic\nn_domains = 500\n")
        main(["spectrum", "--config", str(config), "--outdir", str(tmp_path),
              "--n-domains", "123", "--n-samples", "512"])
        sidecar = json.loads((tmp_path / "spectrum_meta.json").read_text())
        assert sidecar["config"]["structure"]["n_domains"] == 123

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        code = main(["spectrum", "--config", str(tmp_path / "nope.ini")])
        assert code == EXIT_CONFIG

    def test_nan_disorder_is_numeric_error(self, tmp_path, capsys):
        code = main(["spectrum", "--outdir", str(tmp_path), "--kind", "random", *FAST,
                     "--sigma", "nan"])
        assert code == EXIT_NUMERIC
        assert "sigma" in capsys.readouterr().err
        assert not (tmp_path / "spectrum.csv").exists()

    def test_nan_grid_window_is_config_error(self, tmp_path, capsys):
        code = main(["spectrum", "--outdir", str(tmp_path), "--kind", "periodic", *FAST,
                     "--lambda-min", "nan"])
        assert code == EXIT_CONFIG
        assert "lambda_min" in capsys.readouterr().err
        assert not (tmp_path / "spectrum.csv").exists()

    @pytest.mark.parametrize("flag", [["--l0", "nan"], ["--l0", "inf"],
                                      ["--temperature-k", "nan"]],
                             ids=["l0-nan", "l0-inf", "temperature-nan"])
    def test_non_finite_l0_is_named(self, tmp_path, capsys, flag):
        code = main(["spectrum", "--outdir", str(tmp_path), "--kind", "periodic", *FAST, *flag])
        assert code == EXIT_NUMERIC
        assert "l0 must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "spectrum.csv").exists()


class TestFig1:
    def test_rates_and_ordering(self, tmp_path):
        code = main(["fig1", "--outdir", str(tmp_path), *FAST,
                     "--n-domains-scan", "200,400"])
        assert code == EXIT_OK
        meta, columns = read_csv(tmp_path / "fig1.csv")
        assert "base_seed" in meta
        assert np.all(np.diff(columns["rate_analytic_sigma0"]) > 0)
        # rates drop with disorder at fixed domain count
        assert np.all(columns["rate_analytic_sigma0"] > columns["rate_analytic_sigma1"])
        assert np.all(columns["rate_analytic_sigma1"] > columns["rate_analytic_sigma2"])
        assert np.all(columns["rate_mc_stderr_sigma1"] > 0)

    def test_analytic_rates_use_the_configured_l0(self, tmp_path, model, pump):
        l0 = 1.002 * base_domain_length(model, pump.omega_p0)
        code = main(["fig1", "--outdir", str(tmp_path), *FAST, "--n-domains-scan", "200,400",
                     "--l0", repr(l0), "--no-mc"])
        assert code == EXIT_OK
        meta, columns = read_csv(tmp_path / "fig1.csv")
        grid = symmetric_grid(pump.omega_p0, n_samples=1024, model=model)
        calibration = float(meta["calibration_constant"])
        for n, rate in zip((200, 400), columns["rate_analytic_sigma0"]):
            periodic = pair_rate(spectral_density(grid, pump, model, build_periodic(n, l0)),
                                 calibration).pair_rate
            assert rate == pytest.approx(periodic, rel=1e-9)

    def test_empty_scan_is_config_error(self, tmp_path, capsys):
        code = main(["fig1", "--outdir", str(tmp_path), "--n-domains-scan", ","])
        assert code == EXIT_CONFIG

    def test_non_integer_domain_counts_are_config_error(self, tmp_path, capsys):
        code = main(["fig1", "--outdir", str(tmp_path), *FAST, "--n-domains-scan", "1.5,2.7"])
        assert code == EXIT_CONFIG
        assert "integers" in capsys.readouterr().err
        assert not (tmp_path / "fig1.csv").exists()


class TestFig2:
    def test_scan_columns_and_monotonicity(self, tmp_path):
        code = main(["fig2", "--outdir", str(tmp_path), "--n-samples", "4096",
                     "--n-domains", "2000", "--zeta-scan", "2e5,1e6"])
        assert code == EXIT_OK
        _, columns = read_csv(tmp_path / "fig2.csv")
        assert 1e6 in columns["zeta_per_m2"]
        assert np.all(np.diff(columns["fwhm_chirp_omega_rad_s"]) > 0)
        assert np.all(np.diff(columns["sigma_match_m"]) > 0)
        assert np.allclose(columns["rate_ratio"],
                           columns["rate_random"] / columns["rate_chirp"], rtol=1e-12)


class TestFig3:
    def test_spectra_normalized_and_multi_peaked(self, tmp_path, pump):
        code = main(["fig3", "--outdir", str(tmp_path), "--n-samples", "4096",
                     "--n-domains", "1000", "--n-realizations", "6", "--seed", "11"])
        assert code == EXIT_OK
        meta, columns = read_csv(tmp_path / "fig3.csv")
        omega = columns["omega_rad_s"]
        for name in ("s_realization", "s_chirped_envelope", "s_ensemble_analytic",
                     "s_ensemble_mc"):
            photons = trapezoid(columns[name] / (hbar * omega), omega)
            assert photons == pytest.approx(1.0, rel=1e-9)
        values = columns["s_realization"]
        interior = values[1:-1]
        peaks = (interior > values[:-2]) & (interior > values[2:]) \
            & (interior > 0.1 * values.max())
        assert peaks.sum() > 10
        assert float(meta["sigma_m"]) > 0


class TestFig4:
    def test_traces_and_normalization(self, tmp_path):
        code = main(["fig4", "--outdir", str(tmp_path), "--n-samples", "2048",
                     "--n-domains", "500", "--n-realizations", "4",
                     "--delay-span", "100e-15", "--delay-step", "1e-15"])
        assert code == EXIT_OK
        hom_meta, hom = read_csv(tmp_path / "fig4_hom.csv")
        mid = hom["tau_s"].size // 2
        for name in ("rn_realization", "rn_chirped", "rn_ensemble"):
            assert abs(hom[name][mid]) < 1e-10
        sumfreq_meta, sumfreq = read_csv(tmp_path / "fig4_sumfreq.csv")
        assert hom_meta["tool_version"] == sumfreq_meta["tool_version"] == __version__
        tau = sumfreq["tau_s"]
        for name in ("isum_realization_ideal", "isum_realization_quadratic",
                     "isum_chirped_ideal", "isum_chirped_quadratic",
                     "isum_ensemble_ideal"):
            assert trapezoid(sumfreq[name], tau) == pytest.approx(1.0, rel=1e-6)


class TestHomSumfreqMc:
    def test_hom_command(self, tmp_path):
        code = main(["hom", "--outdir", str(tmp_path), "--source", "ensemble", *FAST,
                     "--delay-span", "50e-15", "--delay-step", "1e-15"])
        assert code == EXIT_OK
        _, columns = read_csv(tmp_path / "hom.csv")
        assert abs(columns["rn"][columns["rn"].size // 2]) < 1e-10

    @pytest.mark.parametrize("step", [["--delay-step", "0"], ["--delay-step=-1e-15"]],
                             ids=["zero", "negative"])
    def test_bad_delay_axis_is_config_error(self, tmp_path, capsys, step):
        code = main(["hom", "--outdir", str(tmp_path), *FAST, *step])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "delay span and step" in err and "Traceback" not in err
        assert not (tmp_path / "hom.csv").exists()

    def test_sumfreq_command_modes(self, tmp_path):
        for mode in ("none", "ideal", "quadratic"):
            code = main(["sumfreq", "--outdir", str(tmp_path), "--source", "random",
                         "--compensation", mode, *FAST])
            assert code == EXIT_OK
            _, columns = read_csv(tmp_path / "sumfreq.csv")
            assert trapezoid(columns["isum"], columns["tau_s"]) == pytest.approx(1.0, rel=1e-6)

    def test_unusable_outdir_is_config_error(self, tmp_path, capsys):
        blocker = tmp_path / "plain_file"
        blocker.write_text("")
        code = main(["hom", "--outdir", str(blocker / "out"), *FAST])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_failed_realization_is_numeric_error(self, tmp_path, capsys):
        # a negative sigma is rejected inside each realization's stack builder
        code = main(["mc", "--outdir", str(tmp_path), "--observable", "pair_rate",
                     *FAST, "--sigma=-1e-6"])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: realization 0")

    def test_mc_convergence_report(self, tmp_path, capsys):
        code = main(["mc", "--outdir", str(tmp_path), "--observable", "pair_rate",
                     *FAST, "--convergence"])
        assert code == EXIT_OK
        assert "stderr_exponent" in capsys.readouterr().out
        meta, columns = read_csv(tmp_path / "mc.csv")
        assert meta["observable"] == "pair_rate"
        assert "converged" in meta

    def test_mc_convergence_reuses_the_base_ensemble(self, tmp_path, monkeypatch):
        run_ensemble = ensemble.run_ensemble
        calls = []

        def counting(spec, *args, **kwargs):
            calls.append(spec.n_realizations)
            return run_ensemble(spec, *args, **kwargs)

        monkeypatch.setattr(ensemble, "run_ensemble", counting)
        assert main(["mc", "--outdir", str(tmp_path / "conv"), "--observable", "pair_rate",
                     *FAST, "--convergence"]) == EXIT_OK
        assert calls == [6, 12, 24]
        monkeypatch.setattr(ensemble, "run_ensemble", run_ensemble)
        assert main(["mc", "--outdir", str(tmp_path / "plain"), "--observable", "pair_rate",
                     *FAST]) == EXIT_OK
        # the report equals the one from three standalone ensembles
        args = build_parser().parse_args(
            ["mc", "--config", str(tmp_path / "plain" / "mc_config.ini")])
        ctx = _context(args)
        report = ensemble.convergence_report([
            ensemble.run_ensemble(
                ensemble.EnsembleSpec(m, ctx.config.base_seed, ctx.config.n_domains,
                                      ctx.config.sigma_m, ctx.l0),
                "pair_rate", model=ctx.model, grid=ctx.grid, pump=ctx.pump)
            for m in (6, 12, 24)
        ])
        meta, _ = read_csv(tmp_path / "conv" / "mc.csv")
        assert meta["convergence_sizes"] == "6,12,24"
        assert meta["stderr_exponent"] == str(report.stderr_exponent)
        assert meta["converged"] == str(report.converged)
        assert csv_body(tmp_path / "conv" / "mc.csv") == csv_body(tmp_path / "plain" / "mc.csv")

    def test_mc_spectrum_columns(self, tmp_path):
        code = main(["mc", "--outdir", str(tmp_path), "--observable", "spectrum", *FAST])
        assert code == EXIT_OK
        _, columns = read_csv(tmp_path / "mc.csv")
        assert set(columns) == {"omega_rad_s", "mean", "stderr"}
