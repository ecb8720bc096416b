import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf

from poledspdc import (
    DomainStack,
    StackConstructionError,
    build_chirped,
    build_periodic,
    build_random,
)

L0 = 9.515e-6


class TestPeriodic:
    def test_three_domain_boundaries(self):
        stack = build_periodic(3, L0)
        assert np.allclose(stack.boundaries, [0.0, L0, 2 * L0, 3 * L0], rtol=0, atol=0)

    def test_total_length(self):
        assert build_periodic(2000, L0).total_length == pytest.approx(19e-3, rel=0.02)

    @pytest.mark.parametrize("n,l0", [(0, L0), (-3, L0), (5, 0.0), (5, -1e-6)])
    def test_invalid_arguments(self, n, l0):
        with pytest.raises(StackConstructionError):
            build_periodic(n, l0)


class TestRandom:
    def test_sigma_zero_equals_periodic(self):
        random = build_random(200, L0, 0.0, seed=9)
        periodic = build_periodic(200, L0)
        assert np.array_equal(random.boundaries, periodic.boundaries)
        assert random.seed == 9

    def test_negative_sigma_rejected(self):
        with pytest.raises(StackConstructionError):
            build_random(10, L0, -1e-6, seed=0)
        with pytest.raises(StackConstructionError):
            build_random(10, L0, np.nan, seed=0)

    def test_nan_boundary_rejected(self):
        with pytest.raises(StackConstructionError, match="index 1"):
            DomainStack(np.array([0.0, np.nan, 2 * L0]))

    def test_same_seed_bit_identical(self):
        a = build_random(500, L0, 2e-6, seed=123)
        b = build_random(500, L0, 2e-6, seed=123)
        assert np.array_equal(a.boundaries, b.boundaries)

    def test_different_seeds_differ(self):
        a = build_random(500, L0, 2e-6, seed=123)
        b = build_random(500, L0, 2e-6, seed=124)
        assert not np.array_equal(a.boundaries, b.boundaries)

    def test_declination_variance_matches_distribution(self):
        # density ~ exp(-dl^2/sigma^2) has variance sigma^2/2
        sigma = 2e-6
        stack = build_random(100_000, L0, sigma, seed=77)
        declinations = stack.domain_lengths - L0
        assert declinations.var() == pytest.approx(sigma ** 2 / 2, rel=0.05)
        assert abs(declinations.mean()) < 5 * sigma / np.sqrt(2 * declinations.size)

    def test_declination_histogram_matches_density(self):
        # bin masses against the exact Gaussian CDF (4-sigma multinomial bands)
        sigma = 2e-6
        stack = build_random(100_000, L0, sigma, seed=78)
        declinations = stack.domain_lengths - L0
        edges = np.linspace(-3 * sigma, 3 * sigma, 25)
        counts, _ = np.histogram(declinations, edges)
        cdf = 0.5 * (1 + erf(edges / sigma))
        expected = np.diff(cdf) * declinations.size
        tolerance = 4 * np.sqrt(expected * (1 - np.diff(cdf)))
        assert np.all(np.abs(counts - expected) <= tolerance + 1)

    def test_mean_total_length_is_unbiased(self):
        # zero-mean declinations: <z_N> = N l0
        n, sigma = 500, 2e-6
        ends = [build_random(n, L0, sigma, seed=s).boundaries[-1] for s in range(300)]
        stderr = np.std(ends, ddof=1) / np.sqrt(len(ends))
        assert np.mean(ends) == pytest.approx(n * L0, abs=4 * stderr)

    def test_extreme_disorder_counts_rejections(self):
        stack = build_random(5000, L0, 8e-6, seed=5)
        assert stack.rejected_draws > 0
        again = build_random(5000, L0, 8e-6, seed=5)
        assert np.array_equal(stack.boundaries, again.boundaries)
        assert stack.rejected_draws == again.rejected_draws

    @given(seed=st.integers(0, 2 ** 63 - 1), sigma=st.sampled_from([0.0, 5e-7, 2e-6, 4e-6]))
    @settings(max_examples=1000, deadline=None)
    def test_invariants_hold_for_any_seed(self, seed, sigma):
        stack = build_random(64, L0, sigma, seed=seed)
        assert stack.boundaries[0] == 0.0
        assert np.all(np.diff(stack.boundaries) > 0)
        assert stack.boundaries.size == 65


class TestChirped:
    def test_zero_chirp_equals_periodic(self):
        chirped = build_chirped(100, L0, 0.0, np.pi / L0)
        assert np.allclose(chirped.boundaries, build_periodic(100, L0).boundaries,
                           rtol=0, atol=0)

    def test_gap_law_is_exact(self):
        n, zeta, dk0 = 2000, 1e6, np.pi / L0
        zp = zeta / dk0
        stack = build_chirped(n, L0, zeta, dk0)
        idx = np.arange(1, n + 1)
        expected = L0 + zp * L0 ** 2 * (2 * idx - 1 - n)
        assert np.allclose(stack.domain_lengths, expected, rtol=1e-12)
        assert np.all(stack.domain_lengths > 0)

    def test_center_domain_length_near_base(self):
        n, zeta, dk0 = 2000, 1e6, np.pi / L0
        zp = zeta / dk0
        stack = build_chirped(n, L0, zeta, dk0)
        assert stack.domain_lengths[n // 2 - 1] == pytest.approx(L0 - zp * L0 ** 2, rel=1e-9)
        assert stack.domain_lengths[n // 2] == pytest.approx(L0 + zp * L0 ** 2, rel=1e-9)

    def test_monotonicity_violation_reports_index(self):
        with pytest.raises(StackConstructionError) as err:
            build_chirped(2000, L0, 5e7, np.pi / L0)
        assert "boundary 1" in str(err.value)

    def test_starts_at_origin(self):
        stack = build_chirped(2000, L0, 1e6, np.pi / L0)
        assert stack.boundaries[0] == 0.0
