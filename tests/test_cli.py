import configparser
import json
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.constants import hbar
from scipy.integrate import trapezoid

from poledspdc import (
    ChirpedSource,
    RandomEnsembleSource,
    __version__,
    base_domain_length,
    build_periodic,
    calibrate,
    ensemble,
    fwhm,
    pair_rate,
    sigma_for_zeta,
    signal_spectrum,
    spectra,
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
    temperature_k=931.0 / 3, pump_wavelength_m=0.1 * 7.7e-6, pump_power_w=0.1 + 0.2,
    kind="chirped", n_domains=777, l0_m=9.4 * 1.1e-6, sigma_m=1.7e-6 / 3, zeta_per_m2=3.3e5,
    seed=99, lambda_min_m=1.1e-6, n_samples=4096, n_domains_scan="200,400", mc=False,
    zeta_scan="3e5", normalize=True, compensation="quadratic", delay_span_s=50e-15,
    delay_step_s=1e-15 / 3, n_realizations=17, base_seed=5, observable="hom",
    convergence=True, directory="some/dir", threads=3,
)


def flag_argv(f, value):
    """Command-line words that set field f to value."""
    flag = f.metadata["flag"]
    if isinstance(value, bool):
        return [flag if value else "--no-" + flag.removeprefix("--")]
    return [flag, str(value)]


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
        # every subcommand takes the same flags; outside the RunConfig table
        # only --config, --outdir, --version and l0 --json are declared
        parser = build_parser()
        assert {s for a in parser._actions for s in a.option_strings} == {
            "-h", "--help", "--version"}
        subparsers = next(a for a in parser._actions if a.choices and a.dest == "command")
        options = {name: {s for action in p._actions for s in action.option_strings}
                   for name, p in subparsers.choices.items()}
        shared = set.intersection(*options.values())
        assert shared - {"-h", "--help"} == {
            "--config", "--outdir", "--threads", "--temperature-k",
            "--pump-wavelength", "--power", "--kind", "--n-domains", "--l0", "--sigma",
            "--zeta", "--seed", "--lambda-min", "--n-samples",
            "--n-realizations", "--base-seed", "--n-domains-scan", "--mc", "--no-mc",
            "--zeta-scan", "--normalize", "--no-normalize", "--compensation",
            "--delay-span", "--delay-step", "--observable", "--convergence",
            "--no-convergence",
        }
        assert {name: opts - shared for name, opts in options.items()} == {
            name: {"--json"} if name == "l0" else set() for name in options}

    def test_each_flag_sets_its_field(self, monkeypatch):
        monkeypatch.delenv("POLEDSPDC_OUTDIR", raising=False)
        flagged = [f for f in fields(RunConfig) if f.metadata["flag"]]
        assert len(flagged) == 23
        for f in flagged:
            value = getattr(NON_DEFAULT, f.name)
            args = build_parser().parse_args(["spectrum", *flag_argv(f, value)])
            resolved = _resolve(args)
            assert resolved == RunConfig(**{f.name: value}), f.name
            assert type(getattr(resolved, f.name)) is type(value), f.name

    def test_config_file_kind_outside_flag_choices_is_config_error(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[structure]\nkind = spiral\n")
        code = main(["spectrum", "--config", str(config), "--outdir", str(tmp_path), *FAST])
        assert code == EXIT_CONFIG

    def test_retired_sellmeier_key_is_ignored(self, tmp_path, capsys):
        # the default Jundt fit is the only model; an old INI that names it
        # (or anything else) still loads, and the flag is gone
        config = tmp_path / "old.ini"
        config.write_text("[crystal]\nsellmeier = cln_ne_jundt1997\ntemperature_k = 310\n")
        assert load_config(config) == RunConfig(temperature_k=310.0)
        assert main(["l0", "--config", str(config), "--outdir", str(tmp_path)]) == EXIT_OK
        with pytest.raises(SystemExit) as exc:
            main(["l0", "--sellmeier", "cln_ne_jundt1997"])
        assert exc.value.code == EXIT_CONFIG

    def test_readme_block_lists_every_key_at_its_default(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        (tmp_path / "readme.ini").write_text(block)
        parser = configparser.ConfigParser()
        parser.read(tmp_path / "readme.ini")
        assert {(s, k) for s in parser.sections() for k in parser[s]} == {
            (f.metadata["section"], f.metadata["key"]) for f in fields(RunConfig)}
        assert load_config(tmp_path / "readme.ini") == RunConfig()


# One non-default command option each; a rerun from the resolved INI alone
# must rewrite every CSV byte for byte.
RERUNS = {
    "spectrum": ["spectrum", "--normalize"],
    "fig1": ["fig1", "--n-domains-scan", "200,400", "--no-mc"],
    "fig2": ["fig2", "--zeta-scan", "3e5"],
    "fig3": ["fig3", "--sigma", "3e-6"],
    "fig4": ["fig4", "--delay-span", "50e-15"],
    "hom": ["hom", "--kind", "chirped"],
    "sumfreq": ["sumfreq", "--kind", "chirped", "--compensation", "quadratic"],
    "mc": ["mc", "--observable", "hom"],
}


class TestResolvedConfig:
    @pytest.mark.parametrize("argv", RERUNS.values(), ids=RERUNS.keys())
    def test_rerun_from_config_alone_is_byte_identical(self, tmp_path, argv):
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([*argv, *FAST, "--outdir", str(first)]) == EXIT_OK
        assert main([argv[0], "--config", str(first / f"{argv[0]}_config.ini"),
                     "--outdir", str(second)]) == EXIT_OK
        names = sorted(p.name for p in first.glob("*.csv"))
        assert names and names == sorted(p.name for p in second.glob("*.csv"))
        for name in names:
            assert (second / name).read_bytes() == (first / name).read_bytes(), name

    def test_config_file_sigma_is_the_fig3_disorder(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[structure]\nsigma_m = 3e-6\n")
        assert main(["fig3", "--config", str(config), *FAST,
                     "--outdir", str(tmp_path / "ini")]) == EXIT_OK
        assert main(["fig3", "--sigma", "3e-6", *FAST,
                     "--outdir", str(tmp_path / "flag")]) == EXIT_OK
        meta, _ = read_csv(tmp_path / "ini" / "fig3.csv")
        assert float(meta["sigma_m"]) == 3e-6
        assert (tmp_path / "ini" / "fig3.csv").read_bytes() == \
            (tmp_path / "flag" / "fig3.csv").read_bytes()

    def test_unset_sigma_is_width_matched_to_the_chirp(self, tmp_path, model, pump):
        assert main(["spectrum", *FAST, "--zeta", "5e5", "--outdir", str(tmp_path)]) == EXIT_OK
        meta, _ = read_csv(tmp_path / "spectrum.csv")
        grid = symmetric_grid(pump.omega_p0, n_samples=1024, model=model)
        l0 = base_domain_length(model, pump.omega_p0)
        assert float(meta["sigma_m"]) == sigma_for_zeta(5e5, 400, model, grid, pump, l0=l0)
        assert (tmp_path / "spectrum_config.ini").read_text().count("sigma_m = \n") == 1


# Each command's ensembles on the FAST grid (fig1: two disorders x five domain counts).
ENSEMBLES = {"spectrum": 0, "fig1": 10, "fig2": 0, "fig3": 1, "fig4": 1, "hom": 0, "sumfreq": 0,
             "mc": 1}


class TestOneSetUp:
    @pytest.mark.parametrize("command", ENSEMBLES)
    def test_one_mismatch_per_run_and_per_ensemble(self, tmp_path, monkeypatch, command):
        # the command evaluates on its one set-up, and its ensembles share it
        counts = {"mismatch_on_grid": 0, "run_ensemble": 0}

        def count(module, name):
            original = getattr(module, name)

            def counting(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        count(spectra, "mismatch_on_grid")
        count(ensemble, "run_ensemble")
        assert main([command, *FAST, "--outdir", str(tmp_path)]) == EXIT_OK
        assert counts["run_ensemble"] == ENSEMBLES[command]
        assert counts["mismatch_on_grid"] == 1

    @pytest.mark.parametrize("command", ENSEMBLES)
    def test_base_l0_flag_is_byte_identical(self, tmp_path, capsys, command):
        # the configured l0 set to the base value changes no output
        assert main(["l0", "--json", "--outdir", str(tmp_path)]) == EXIT_OK
        base_l0 = json.loads(capsys.readouterr().out)["l0_m"]
        plain, flagged = tmp_path / "plain", tmp_path / "flagged"
        assert main([command, *FAST, "--outdir", str(plain)]) == EXIT_OK
        assert main([command, *FAST, "--l0", repr(base_l0), "--outdir", str(flagged)]) == EXIT_OK
        names = sorted(p.name for p in plain.glob("*.csv"))
        assert names and names == sorted(p.name for p in flagged.glob("*.csv"))
        for name in names:
            assert (flagged / name).read_bytes() == (plain / name).read_bytes(), name


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

    def test_infinite_pump_power_is_config_error(self, tmp_path, capsys):
        code = main(["spectrum", "--outdir", str(tmp_path), "--kind", "periodic", *FAST,
                     "--power", "inf"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "pump power" in err[0]
        assert not (tmp_path / "spectrum.csv").exists()

    def test_nan_disorder_is_numeric_error(self, tmp_path, capsys):
        code = main(["spectrum", "--outdir", str(tmp_path), "--kind", "random", *FAST,
                     "--sigma", "nan"])
        assert code == EXIT_NUMERIC
        assert "sigma" in capsys.readouterr().err
        assert not (tmp_path / "spectrum.csv").exists()

    @pytest.mark.parametrize("lambda_min", ["nan", "0", "-1e-6", "inf", "1.6e-6"])
    def test_nan_grid_window_is_config_error(self, tmp_path, capsys, lambda_min):
        # the window edge must lie in (0, 2 lambda_p) = (0, 1.55 um)
        code = main(["spectrum", "--outdir", str(tmp_path), "--kind", "periodic", *FAST,
                     f"--lambda-min={lambda_min}"])
        assert code == EXIT_CONFIG
        assert "lambda_min" in capsys.readouterr().err
        assert not (tmp_path / "spectrum.csv").exists()

    @pytest.mark.parametrize("flag", [["--l0", "nan"], ["--l0", "inf"]],
                             ids=["l0-nan", "l0-inf"])
    def test_non_finite_l0_is_named(self, tmp_path, capsys, flag):
        code = main(["spectrum", "--outdir", str(tmp_path), "--kind", "periodic", *FAST, *flag])
        assert code == EXIT_NUMERIC
        assert "l0 must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "spectrum.csv").exists()

    def test_exhausted_memory_is_config_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array with shape "
                              "(100000000000,) and data type float64")

        monkeypatch.setattr(spectra, "symmetric_grid", exhausted)
        code = main(["spectrum", "--outdir", str(tmp_path), "--kind", "periodic", *FAST])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error: out of memory")
        assert not (tmp_path / "spectrum.csv").exists()

    @pytest.mark.parametrize("kelvin", ["nan", "inf", "0", "-5"])
    def test_temperature_outside_its_domain_is_config_error(self, tmp_path, capsys, kelvin):
        code = main(["spectrum", "--outdir", str(tmp_path), "--kind", "periodic", *FAST,
                     f"--temperature-k={kelvin}"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "temperature must be positive and finite" in err[0]
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

    def test_reference_rate_is_exact(self, tmp_path):
        # the calibration and the sigma = 0 column evaluate the same closed form
        code = main(["fig1", "--outdir", str(tmp_path), "--n-samples", "2048",
                     "--n-domains-scan", "2000", "--no-mc"])
        assert code == EXIT_OK
        _, columns = read_csv(tmp_path / "fig1.csv")
        assert columns["rate_analytic_sigma0"][0] == pytest.approx(2e7, rel=1e-15)

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

    @pytest.mark.parametrize("scan", ["nan", "1e5,inf"])
    def test_non_finite_scan_is_config_error(self, tmp_path, capsys, scan):
        code = main(["fig2", "--outdir", str(tmp_path), *FAST, f"--zeta-scan={scan}"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "zeta scan" in err[0]
        assert not (tmp_path / "fig2.csv").exists()

    def test_matches_widths_at_the_configured_l0(self, tmp_path, model, pump):
        # the width match and both sources move with --l0, so random and
        # chirped stacks of the same l0 keep comparable rates
        code = main(["fig2", "--outdir", str(tmp_path), "--n-samples", "2048",
                     "--n-domains", "400", "--zeta-scan", "5e5", "--l0", "9.6e-6"])
        assert code == EXIT_OK
        _, columns = read_csv(tmp_path / "fig2.csv")
        grid = symmetric_grid(pump.omega_p0, n_samples=2048, model=model)

        def width(source):
            density = spectral_density(grid, pump, model, source)
            return fwhm(signal_spectrum(density)).width_omega

        target = width(ChirpedSource(n_domains=400, zeta=5e5, l0=9.6e-6))
        matched = width(RandomEnsembleSource(400, columns["sigma_match_m"][0], l0=9.6e-6))
        assert matched == pytest.approx(target, rel=1e-3)
        assert 0.9 <= columns["rate_ratio"][0] <= 1.1


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
        code = main(["hom", "--outdir", str(tmp_path), "--kind", "ensemble", *FAST,
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
            code = main(["sumfreq", "--outdir", str(tmp_path), "--kind", "random",
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
        ctx = _context(load_config(tmp_path / "plain" / "mc_config.ini"))
        calibration = calibrate(ctx.model, ctx.grid, ctx.pump)
        report = ensemble.convergence_report([
            ensemble.run_ensemble(
                ensemble.EnsembleSpec(m, ctx.config.base_seed, ctx.config.n_domains,
                                      ctx.sigma, ctx.l0),
                "pair_rate", model=ctx.model, grid=ctx.grid, pump=ctx.pump,
                calibration=calibration)
            for m in (6, 12, 24)
        ])
        meta, _ = read_csv(tmp_path / "conv" / "mc.csv")
        assert meta["convergence_sizes"] == "6,12,24"
        assert meta["stderr_exponent"] == str(report.stderr_exponent)
        assert meta["converged"] == str(report.converged)
        assert csv_body(tmp_path / "conv" / "mc.csv") == csv_body(tmp_path / "plain" / "mc.csv")

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_nonpositive_threads_is_config_error(self, tmp_path, capsys, threads):
        code = main(["mc", "--outdir", str(tmp_path), *FAST, "--sigma", "2e-6",
                     f"--threads={threads}"])
        assert code == EXIT_CONFIG
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not (tmp_path / "mc.csv").exists()

    @pytest.mark.parametrize("command", ["l0", "spectrum", "fig1", "fig2", "fig3", "fig4", "hom",
                                         "sumfreq", "mc", "config-file"])
    def test_threads_below_one_is_named_for_every_command(self, tmp_path, capsys, command):
        if command == "config-file":
            config = tmp_path / "run.ini"
            config.write_text("[output]\nthreads = 0\n")
            argv = ["spectrum", "--config", str(config)]
        else:
            argv = [command, "--threads", "0"]
        assert main([*argv, "--outdir", str(tmp_path / "out"), *FAST]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == ["configuration error: --threads / [output] threads must be at least 1, "
                       "got 0"]
        assert not (tmp_path / "out").exists()

    def test_mc_pair_rate_is_calibrated(self, tmp_path, model, pump):
        code = main(["mc", "--outdir", str(tmp_path), "--observable", "pair_rate", *FAST,
                     "--n-realizations", "64", "--sigma", "2.3e-6"])
        assert code == EXIT_OK
        meta, columns = read_csv(tmp_path / "mc.csv")
        grid = symmetric_grid(pump.omega_p0, n_samples=1024, model=model)
        calibration = calibrate(model, grid, pump)
        assert float(meta["calibration_constant"]) == calibration
        l0 = base_domain_length(model, pump.omega_p0)
        analytic = pair_rate(spectral_density(grid, pump, model,
                                              RandomEnsembleSource(400, 2.3e-6, l0)),
                             calibration).pair_rate
        assert abs(columns["mean"][0] - analytic) <= 4.0 * columns["stderr"][0]

    @pytest.mark.parametrize("argv", [
        ["mc", "--observable", "spectrum", *FAST],
        ["fig3", "--n-samples", "4096", "--n-domains", "1000", "--n-realizations", "6",
         "--seed", "11"],
    ], ids=["mc-spectrum", "fig3"])
    def test_csv_is_byte_identical_across_threads(self, tmp_path, argv):
        written = []
        for threads in ("1", "2"):
            outdir = tmp_path / f"threads{threads}"
            assert main([*argv, "--outdir", str(outdir), "--threads", threads]) == EXIT_OK
            written.append((outdir / f"{argv[0]}.csv").read_bytes())
        assert written[0] == written[1]

    def test_mc_spectrum_columns(self, tmp_path):
        code = main(["mc", "--outdir", str(tmp_path), "--observable", "spectrum", *FAST])
        assert code == EXIT_OK
        _, columns = read_csv(tmp_path / "mc.csv")
        assert set(columns) == {"omega_rad_s", "mean", "stderr"}
