from dataclasses import replace

import numpy as np
import pytest

from poledspdc import (
    EnsembleEstimate,
    EnsembleSpec,
    PhaseUnavailableError,
    RandomEnsembleSource,
    RealizationError,
    build_periodic,
    child_seed,
    convergence_report,
    hom_trace,
    mean_abs_f_sq,
    pair_rate,
    run_ensemble,
    spectral_density,
    spectra,
)
from poledspdc.ensemble import _make_estimator


@pytest.fixture(scope="module")
def small_spec(l0):
    return EnsembleSpec(n_realizations=64, base_seed=777, n_domains=400,
                        sigma=2e-6, l0=l0)


class TestChildSeeds:
    def test_frozen_derivation(self):
        # guards the documented hash against accidental change
        assert child_seed(42, 0) == 11465652750463011511
        assert child_seed(42, 1) == 15658369528003122356
        assert child_seed(42, 2) == 11821647455969306524

    def test_distinct_across_indices_and_bases(self):
        seeds = {child_seed(b, i) for b in (0, 1, 99) for i in range(200)}
        assert len(seeds) == 600

    def test_streams_do_not_collide(self):
        # 1000 streams x 1000 draws: all 64-bit outputs distinct
        draws = np.concatenate([
            np.random.default_rng(child_seed(7, i)).integers(0, 2 ** 63, 1000)
            for i in range(1000)
        ])
        assert np.unique(draws).size == draws.size

    def test_realization_stack_uses_child_seed(self, small_spec):
        # realization i is the random stack drawn from child seed i
        seeds = []
        run_ensemble(replace(small_spec, n_realizations=6),
                     lambda stack: seeds.append(stack.seed) or 0.0)
        assert seeds == [child_seed(777, i) for i in range(6)]


class TestRunEnsemble:
    def test_sigma_zero_is_deterministic(self, model, pump, grid_small, l0):
        spec = EnsembleSpec(n_realizations=8, base_seed=1, n_domains=300, sigma=0.0, l0=l0)
        est = run_ensemble(spec, "spectrum", model=model, grid=grid_small, pump=pump)
        reference = spectral_density(grid_small, pump, model, build_periodic(300, l0)).values
        assert np.allclose(est.mean, reference, rtol=1e-13)
        # identical realizations: stderr at the accumulation noise floor
        assert np.all(est.stderr <= 1e-7 * np.abs(est.mean).max())

    def test_mean_spectrum_within_three_stderr_of_analytic(self, model, pump, grid_small, l0):
        spec = EnsembleSpec(n_realizations=400, base_seed=11, n_domains=400,
                            sigma=2e-6, l0=l0)
        est = run_ensemble(spec, "spectrum", model=model, grid=grid_small, pump=pump)
        analytic = spectral_density(
            grid_small, pump, model,
            RandomEnsembleSource(n_domains=400, sigma=2e-6)).values
        # grid points share realizations, so the z-scores are correlated;
        # demand the criterion-style 95% coverage rather than pointwise 99.7%
        assert np.mean(np.abs(est.mean - analytic) <= 3 * est.stderr) >= 0.95

    def test_doubling_realizations_halves_stderr(self, model, pump, grid_small, l0):
        base = EnsembleSpec(n_realizations=400, base_seed=3, n_domains=300, sigma=2e-6, l0=l0)
        double = EnsembleSpec(n_realizations=800, base_seed=3, n_domains=300, sigma=2e-6, l0=l0)
        e1 = run_ensemble(base, "pair_rate", model=model, grid=grid_small, pump=pump)
        e2 = run_ensemble(double, "pair_rate", model=model, grid=grid_small, pump=pump)
        ratio = float(e2.stderr) / float(e1.stderr)
        assert ratio == pytest.approx(1 / np.sqrt(2), rel=0.2)

    def test_bit_reproducible_across_worker_counts(self, model, pump, grid_small, small_spec):
        estimates = [
            run_ensemble(small_spec, "spectrum", model=model, grid=grid_small,
                         pump=pump, n_workers=w)
            for w in (1, 2, 4)
        ]
        for other in estimates[1:]:
            assert np.array_equal(estimates[0].mean, other.mean)
            assert np.array_equal(estimates[0].stderr, other.stderr)

    def test_bit_reproducible_on_the_resampled_path(self, model, pump, grid_mid, l0):
        # N = 2000 on 2^12 points takes f_exact's resampled boundary sum
        spec = EnsembleSpec(n_realizations=4, base_seed=13, n_domains=2000, sigma=2e-6, l0=l0)
        one, two = (run_ensemble(spec, "spectrum", model=model, grid=grid_mid, pump=pump,
                                 n_workers=w) for w in (1, 2))
        assert np.array_equal(one.mean, two.mean)
        assert np.array_equal(one.stderr, two.stderr)

    def test_custom_callable_observable(self, small_spec):
        est = run_ensemble(small_spec, lambda stack: stack.total_length)
        assert est.mean == pytest.approx(small_spec.n_domains * small_spec.l0, rel=1e-3)

    def test_estimator_failure_reports_index_and_seed(self, small_spec):
        def flaky(stack):
            if stack.seed == child_seed(777, 7):
                raise RuntimeError("synthetic failure")
            return 1.0

        with pytest.raises(RealizationError) as err:
            run_ensemble(small_spec, flaky)
        assert err.value.index == 7
        assert err.value.seed == child_seed(777, 7)

    def test_named_observable_requires_context(self, small_spec, model, grid_small):
        with pytest.raises(ValueError):
            run_ensemble(small_spec, "spectrum")
        with pytest.raises(ValueError, match="pump"):
            run_ensemble(small_spec, "spectrum", model=model, grid=grid_small)

    def test_unknown_observable_rejected(self, small_spec):
        with pytest.raises(ValueError):
            run_ensemble(small_spec, "entropy")

    def test_hom_observable_shape(self, model, pump, grid_small, l0):
        import poledspdc.interference as interference
        delays = interference.default_hom_delays(span=50e-15, step=1e-15)
        spec = EnsembleSpec(n_realizations=8, base_seed=5, n_domains=200, sigma=2e-6, l0=l0)
        est = run_ensemble(spec, "hom", model=model, grid=grid_small, pump=pump, delays=delays)
        assert est.mean.shape == delays.shape
        mid = delays.size // 2
        assert est.mean[mid] == pytest.approx(0.0, abs=1e-10)

    def test_hom_observable_bit_reproducible_across_worker_counts(self, model, pump,
                                                                  grid_small, l0):
        import poledspdc.interference as interference
        delays = interference.default_hom_delays(span=50e-15, step=1e-15)
        spec = EnsembleSpec(n_realizations=8, base_seed=5, n_domains=200, sigma=2e-6, l0=l0)
        one, two = (run_ensemble(spec, "hom", model=model, grid=grid_small, pump=pump,
                                 delays=delays, n_workers=w) for w in (1, 2))
        assert np.array_equal(one.mean, two.mean)
        assert np.array_equal(one.stderr, two.stderr)

    @pytest.mark.parametrize("observable", ["spectrum", "pair_rate", "hom", "sumfreq"])
    @pytest.mark.parametrize("n_realizations", [1, 7])
    def test_one_mismatch_per_call(self, monkeypatch, model, pump, grid_small, l0,
                                   observable, n_realizations):
        # every realization evaluates on the one set-up the call builds, and
        # workers sharing it reproduce the one-worker estimate
        mismatch_on_grid, calls = spectra.mismatch_on_grid, []

        def counting(*args):
            calls.append(args)
            return mismatch_on_grid(*args)

        monkeypatch.setattr(spectra, "mismatch_on_grid", counting)
        spec = EnsembleSpec(n_realizations, base_seed=3, n_domains=100, sigma=2e-6, l0=l0)
        one, four = (run_ensemble(spec, observable, model=model, grid=grid_small, pump=pump,
                                  n_workers=w) for w in (1, 4))
        assert len(calls) == 2
        assert np.array_equal(one.mean, four.mean)

    @pytest.mark.parametrize("observable", ["spectrum", "pair_rate", "hom"])
    def test_estimator_of_a_closed_form_source(self, model, pump, grid_small, observable):
        # the estimator the ensembles use evaluates the closed form bit for bit
        # like the public functions
        source = RandomEnsembleSource(n_domains=400, sigma=2e-6)
        setup = spectra._SpectralSetup(grid_small, pump, model)
        got = _make_estimator(observable, setup, calibration=3.0)(source)
        if observable == "spectrum":
            expected = spectral_density(grid_small, pump, model, source).values
        elif observable == "pair_rate":
            expected = pair_rate(spectral_density(grid_small, pump, model, source), 3.0).pair_rate
        else:
            expected = hom_trace(mean_abs_f_sq(grid_small, pump, model, source),
                                 grid_small, pump).rates
        assert np.array_equal(got, expected)

    def test_sumfreq_estimator_needs_a_stack(self, model, pump, grid_small):
        setup = spectra._SpectralSetup(grid_small, pump, model)
        estimator = _make_estimator("sumfreq", setup)
        with pytest.raises(PhaseUnavailableError):
            estimator(RandomEnsembleSource(n_domains=400, sigma=2e-6))

    def test_rate_scaling_with_domain_count(self, model, pump, grid_small, l0, dk0):
        # mean pair rate grows linearly in the domain count
        counts = [200, 400, 800]
        means = []
        for n in counts:
            spec = EnsembleSpec(n_realizations=100, base_seed=21, n_domains=n,
                                sigma=2e-6, l0=l0)
            est = run_ensemble(spec, "pair_rate", model=model, grid=grid_small, pump=pump)
            means.append(float(est.mean))
        slope, intercept = np.polyfit(counts, means, 1)
        prediction = slope * np.asarray(counts) + intercept
        r2 = 1 - np.sum((means - prediction) ** 2) / np.sum((means - np.mean(means)) ** 2)
        assert r2 > 0.99


class TestConvergenceReport:
    def test_deterministic_observable_has_zero_drift(self, model, pump, grid_small, l0):
        estimates = [
            run_ensemble(EnsembleSpec(m, 9, 200, 0.0, l0), "pair_rate",
                         model=model, grid=grid_small, pump=pump)
            for m in (4, 8, 16)
        ]
        report = convergence_report(estimates)
        assert report.max_drifts == (0.0, 0.0)
        assert report.converged

    def test_stderr_exponent_near_minus_half(self, model, pump, grid_small, l0):
        estimates = [
            run_ensemble(EnsembleSpec(m, 13, 300, 2e-6, l0), "pair_rate",
                         model=model, grid=grid_small, pump=pump)
            for m in (250, 500, 1000)
        ]
        report = convergence_report(estimates)
        assert -0.6 <= report.stderr_exponent <= -0.4
        assert report.converged

    def test_drifting_mean_is_flagged(self):
        estimates = [
            EnsembleEstimate(np.array(0.0), np.array(1e-3), 100),
            EnsembleEstimate(np.array(0.5), np.array(7e-4), 200),
            EnsembleEstimate(np.array(1.0), np.array(5e-4), 400),
        ]
        report = convergence_report(estimates)
        assert not report.converged

    def test_requires_increasing_sizes(self):
        a = EnsembleEstimate(np.array(0.0), np.array(1.0), 100)
        with pytest.raises(ValueError):
            convergence_report([a, a])
