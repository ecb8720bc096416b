import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf, i0

from poledspdc import (
    NumericalDomainError,
    build_chirped,
    build_periodic,
    build_random,
    f_avg_sq,
    f_boundary_sum,
    f_chirped,
    f_chirped_envelope,
    f_exact,
    mismatch_from_detuning,
    symmetric_grid,
)
from poledspdc import phasematch
from poledspdc.spectra import mismatch_on_grid

from helpers import shifted
from series_erf import erf_series

L0 = 9.488133e-6
DK0 = np.pi / L0


def at_detuning(detuning):
    return mismatch_from_detuning(DK0, detuning)


def brute_force_f(stack, dk, points_per_domain=20_000):
    """Independent oracle: dense trapezoid of the sign-modulated integral."""
    total = 0.0 + 0.0j
    boundaries = stack.boundaries
    for n in range(stack.n_domains):
        z = np.linspace(boundaries[n], boundaries[n + 1], points_per_domain)
        total += (-1.0) ** n * np.trapezoid(np.exp(1j * dk * z), z)
    return total


class TestFExact:
    def test_periodic_at_qpm_peak(self):
        stack = build_periodic(2000, L0)
        sample = f_exact(stack, at_detuning(0.0))
        assert abs(sample.value) == pytest.approx(2 * 2000 / DK0, rel=1e-12)
        assert sample.abs_sq == pytest.approx((2 * 2000 / DK0) ** 2, rel=1e-12)

    def test_matches_brute_force_quadrature(self):
        stack = build_random(7, L0, 2e-6, seed=3)
        for detuning in (0.0, 0.3 * DK0, -0.5 * DK0):
            mm = at_detuning(detuning)
            expected = brute_force_f(stack, mm.delta_k)
            got = f_exact(stack, mm).value
            assert got == pytest.approx(expected, rel=1e-7)

    def test_full_cancellation_at_double_period(self):
        # dk l0 = 2 pi: every domain integral vanishes identically
        stack = build_periodic(50, L0)
        sample = f_exact(stack, at_detuning(DK0))
        assert abs(sample.value) <= 2 / (2 * DK0)
        assert abs(sample.value) < 1e-12 * L0

    @given(detuning=st.floats(-3e5, 3e5))
    @settings(max_examples=100, deadline=None)
    def test_single_domain_sinc(self, detuning):
        stack = build_periodic(1, L0)
        mm = at_detuning(detuning)
        value = f_exact(stack, mm).value
        expected = abs(2 * np.sin(mm.delta_k * L0 / 2) / mm.delta_k)
        assert abs(value) == pytest.approx(expected, rel=1e-10, abs=1e-22)

    def test_zero_mismatch_limit(self):
        stack = build_random(11, L0, 1.5e-6, seed=8)
        signed = ((-1.0) ** np.arange(11) * stack.domain_lengths).sum()
        value = f_exact(stack, mismatch_from_detuning(DK0, -DK0)).value
        assert value == pytest.approx(signed, rel=1e-9)
        near = f_exact(stack, mismatch_from_detuning(DK0, -DK0 + 1e-4)).value
        assert near == pytest.approx(value, rel=1e-4)

    def test_vectorized_matches_scalar(self):
        stack = build_random(100, L0, 1e-6, seed=1)
        detunings = np.array([-2e4, 0.0, 1e4])
        vec = f_exact(stack, at_detuning(detunings)).value
        for i, d in enumerate(detunings):
            assert vec[i] == f_exact(stack, at_detuning(float(d))).value

    @given(offset=st.floats(-1e-3, 1e-3))
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance_of_magnitude(self, offset):
        stack = build_random(40, L0, 2e-6, seed=17)
        mm = at_detuning(1.7e4)
        base = abs(f_exact(stack, mm).value)
        moved = abs(f_exact(shifted(stack, offset), mm).value)
        assert moved == pytest.approx(base, rel=1e-9)


def domain_sum(stack, dk):
    """Dense reference: sum_n (-1)^n (e^(i dk z_(n+1)) - e^(i dk z_n)) / (i dk)."""
    signs = (-1.0) ** np.arange(stack.n_domains)
    out = np.empty(dk.size, dtype=complex)
    for i in range(0, dk.size, 256):
        block = dk[i:i + 256]
        phases = np.exp(1j * np.multiply.outer(block, stack.boundaries))
        out[i:i + 256] = np.diff(phases, axis=1) @ signs / (1j * block)
    return out


def stack_of(kind, n):
    if kind == "periodic":
        return build_periodic(n, L0)
    if kind == "random":
        return build_random(n, L0, 2e-6, seed=n)
    return build_chirped(n, L0, 1e6, DK0)


@pytest.fixture(scope="module")
def grid_mismatch(model, pump):
    return {e: mismatch_on_grid(symmetric_grid(pump.omega_p0, n_samples=2 ** e, model=model),
                                pump, model) for e in (8, 10, 12, 14)}


def gap_to_dense(stack, mismatch, max_points=1024):
    """max |f_exact - dense| / max |dense| on up to max_points of the vector."""
    stride = max(1, mismatch.delta_k.size // max_points)
    got = f_exact(stack, mismatch).value[::stride]
    reference = domain_sum(stack, mismatch.delta_k[::stride])
    return np.max(np.abs(got - reference)) / np.max(np.abs(reference))


class TestResamplingKernel:
    """The tabulated kernel and the node sums of _resampled_boundary_sum."""

    def test_table_matches_i0(self):
        f = np.random.default_rng(0).random(100_000)
        x = (f[:, None] + 7.0 - np.arange(1, 15)) / 7.0
        reference = i0(10.5 * np.pi * np.sqrt(np.maximum(1.0 - x * x, 0.0)))
        gap = np.abs(phasematch._kaiser_bessel(f) - reference)
        assert np.all(gap.max(axis=0) <= 1e-14 * reference.max())

    @pytest.mark.parametrize("n_nodes", [1, 2, 15, 16, 17, 196, 197, 700])
    def test_node_product_matches_direct_sum(self, n_nodes):
        rng = np.random.default_rng(n_nodes)
        length = 2000 * L0
        u = np.sort(rng.uniform(-0.5 * length, 0.5 * length, 2001))
        weights = rng.normal(size=u.size)
        h, k0 = np.pi / length, 300 * np.pi / length
        nodes = phasematch._power_sums(weights * np.exp(1j * k0 * u), np.exp(1j * h * u),
                                       n_nodes)
        direct = np.exp(1j * np.multiply.outer(k0 + h * np.arange(n_nodes), u)) @ weights
        assert nodes.shape == (n_nodes,)
        assert np.max(np.abs(nodes - direct)) <= 1e-12 * np.max(np.abs(direct))


class TestResampledBoundarySum:
    """f_exact's resampled boundary sum against the dense forms, gated at 1e-10."""

    @pytest.mark.parametrize("exponent", [8, 10, 12, 14])
    @pytest.mark.parametrize("n", [1, 7, 250, 2000, 4000])
    @pytest.mark.parametrize("kind", ["periodic", "random", "chirped"])
    def test_matches_dense_on_grids(self, grid_mismatch, kind, n, exponent):
        stack, mismatch = stack_of(kind, n), grid_mismatch[exponent]
        assert gap_to_dense(stack, mismatch) <= 1e-10
        # the kernel itself, also where f_exact keeps the direct sum (small N)
        dk = mismatch.delta_k
        stride = max(1, dk.size // 1024)
        got = phasematch._resampled_boundary_sum(stack.boundaries, dk)[::stride]
        direct = phasematch._signed_boundary_sum(stack.boundaries, dk[::stride])
        assert np.max(np.abs(got - direct)) <= 1e-10 * np.max(np.abs(direct))

    @pytest.mark.parametrize("exponent", [8, 10, 12, 14])
    def test_wide_disorder_short_stack(self, grid_mismatch, exponent):
        stack = build_random(250, L0, 5e-6, seed=exponent)
        assert gap_to_dense(stack, grid_mismatch[exponent]) <= 1e-10

    def test_shifted_stack(self, grid_mismatch):
        stack = shifted(build_random(2000, L0, 2e-6, seed=5), 1e-3)
        assert gap_to_dense(stack, grid_mismatch[12]) <= 1e-10

    def test_unsorted_mismatch(self, grid_mismatch):
        stack = build_random(2000, L0, 2e-6, seed=6)
        mm = grid_mismatch[12]
        order = np.random.default_rng(0).permutation(mm.delta_k.size)
        shuffled = mismatch_from_detuning(mm.delta_k0, mm.delta_k_small[order])
        assert gap_to_dense(stack, shuffled) <= 1e-10
        sorted_value = f_exact(stack, mm).value[order]
        assert np.allclose(f_exact(stack, shuffled).value, sorted_value,
                           rtol=0.0, atol=1e-10 * np.abs(sorted_value).max())

    def test_vector_with_zero_mismatch(self, grid_mismatch):
        stack = build_random(2000, L0, 2e-6, seed=7)
        mm = grid_mismatch[12]
        with_zero = mismatch_from_detuning(mm.delta_k0, np.append(mm.delta_k_small, -mm.delta_k0))
        value = f_exact(stack, with_zero).value
        signed = ((-1.0) ** np.arange(stack.n_domains) * stack.domain_lengths).sum()
        assert value[-1] == pytest.approx(signed, rel=1e-12)
        reference = domain_sum(stack, mm.delta_k)
        assert np.max(np.abs(value[:-1] - reference)) <= 1e-10 * np.max(np.abs(reference))

    def test_window_reaching_zero_mismatch(self):
        # 2/dk would amplify the resampling error near dk = 0; such vectors
        # keep the direct sum
        stack = build_periodic(250, L0)
        near_zero = at_detuning(np.linspace(-DK0, -0.8 * DK0, 1024)[1:])
        assert gap_to_dense(stack, near_zero) <= 1e-10

    def test_both_sides_of_the_crossover(self, grid_mismatch, monkeypatch):
        # N = 2000 on the default span: ~196 nodes, crossover near 10 points
        calls = []
        resampled = phasematch._resampled_boundary_sum
        monkeypatch.setattr(phasematch, "_resampled_boundary_sum",
                            lambda z, dk: calls.append(dk.size) or resampled(z, dk))
        stack = build_random(2000, L0, 2e-6, seed=8)
        dk = grid_mismatch[12].delta_k
        for size in (6, 10, 16, 32):
            points = np.linspace(dk.min(), dk.max(), size)
            mm = mismatch_from_detuning(DK0, points - DK0)
            assert gap_to_dense(stack, mm) <= 1e-10
        assert calls == [16, 32]


class TestFBoundarySum:
    def test_periodic_at_qpm_peak(self):
        stack = build_periodic(2000, L0)
        sample = f_boundary_sum(stack, at_detuning(0.0))
        assert abs(sample.value) == pytest.approx(2 * 2001 / DK0, rel=1e-12)

    def test_approximation_gap_near_peak(self):
        # O(1/N) end-effect difference inside the central lobe (first zeros
        # sit at |detuning| = 2 pi / total length ~ 331 rad/m here)
        stack = build_periodic(2000, L0)
        for detuning in (0.0, 50.0, -80.0, 120.0):
            mm = at_detuning(detuning)
            exact = abs(f_exact(stack, mm).value)
            approx = abs(f_boundary_sum(stack, mm).value)
            assert abs(approx - exact) / exact < 0.01

    def test_rejects_tiny_mismatch(self):
        stack = build_periodic(10, L0)
        with pytest.raises(NumericalDomainError):
            f_boundary_sum(stack, mismatch_from_detuning(DK0, -DK0 + 0.1))

    def test_shift_invariance(self):
        stack = build_random(60, L0, 1e-6, seed=6)
        mm = at_detuning(2e4)
        a = abs(f_boundary_sum(stack, mm).value)
        b = abs(f_boundary_sum(shifted(stack, 7.7e-4), mm).value)
        assert a == pytest.approx(b, rel=1e-9)


class TestFAvgSq:
    def test_rejects_nonpositive_sigma(self):
        # sigma = 0 is the periodic limit; a negative or NaN sigma is rejected
        for sigma in (-1e-9, np.nan):
            with pytest.raises(ValueError, match="sigma"):
                f_avg_sq(at_detuning(0.0), 100, L0, sigma)
        assert f_avg_sq(at_detuning(0.0), 100, L0, 0.0) == pytest.approx(
            (2 * 100 / DK0) ** 2, rel=1e-12)

    def test_zero_detuning_closed_form(self):
        # symbolic reduction at dk_small = 0 where h is real: <|S|^2> is
        # sum_jk w_j w_k h^|j-k| with half weights w_0 = w_N = 1/2, i.e.
        # (N - 1/2) + 2 [sum_(d<N) (N - d) h^d + h^N / 4]
        sigma, n = 2e-6, 2000
        h = np.exp(-(sigma * DK0) ** 2 / 4)
        weighted = (n - (n + 1) * h + h ** (n + 1)) / (1 - h) ** 2 - n
        expected = (4 / DK0 ** 2) * ((n - 0.5) + 2 * weighted + 0.5 * h ** n)
        assert f_avg_sq(at_detuning(0.0), n, L0, sigma) == pytest.approx(expected, rel=1e-12)

    def test_linear_growth_slope(self):
        sigma = 2e-6
        h = np.exp(-(sigma * DK0) ** 2 / 4)
        slope = (4 / DK0 ** 2) * (1 + h) / (1 - h)
        grown = f_avg_sq(at_detuning(0.0), 4000, L0, sigma)
        base = f_avg_sq(at_detuning(0.0), 2000, L0, sigma)
        assert (grown - base) / 2000 == pytest.approx(slope, rel=1e-3)

    def test_peak_width_grows_with_sigma(self):
        detuning = np.linspace(-6e4, 6e4, 2001)
        widths = []
        for sigma in (0.5e-6, 1e-6, 2e-6, 3e-6):
            curve = f_avg_sq(at_detuning(detuning), 2000, L0, sigma)
            above = curve >= curve.max() / 2
            widths.append(detuning[above][-1] - detuning[above][0])
        assert np.all(np.diff(widths) > 0)

    def test_monte_carlo_consistency_spot_check(self):
        # the decisive check of the disorder convention and the damping term
        sigma, n, m = 2e-6, 500, 1500
        detunings = np.array([-2.5e4, -1e4, 0.0, 8e3, 2e4])
        mm = at_detuning(detunings)
        samples = np.empty((m, detunings.size))
        for i in range(m):
            stack = build_random(n, L0, sigma, seed=20_000 + i)
            samples[i] = f_exact(stack, mm).abs_sq
        mean = samples.mean(axis=0)
        stderr = samples.std(axis=0, ddof=1) / np.sqrt(m)
        analytic = f_avg_sq(mm, n, L0, sigma)
        assert np.all(np.abs(mean - analytic) <= 3 * stderr)

    def test_unbiased_against_f_exact_at_small_disorder(self):
        # short stacks at weak disorder expose the O(1/N) end terms and the
        # phase of <-e^(i dk l)>; an average of the boundary-sum square sits
        # 10 to 1600 stderr away here
        sigma, n, m = 0.3e-6, 50, 4000
        mm = at_detuning(np.linspace(-4e4, 4e4, 9))
        samples = np.array([f_exact(build_random(n, L0, sigma, seed=70_000 + i), mm).abs_sq
                            for i in range(m)])
        stderr = samples.std(axis=0, ddof=1) / np.sqrt(m)
        analytic = f_avg_sq(mm, n, L0, sigma)
        assert np.all(np.abs(samples.mean(axis=0) - analytic) <= 4 * stderr)

    @pytest.mark.parametrize("factor", [1.002, 3.0])
    def test_off_base_domain_length(self, factor):
        # l0 away from pi / dk0 keeps the phase dk l0 - pi of every domain,
        # up to third-order quasi-phase matching at l0 = 3 pi / dk0
        l0 = factor * L0
        mm = at_detuning(np.linspace(-3e4, 1e4, 7))
        periodic = f_exact(build_periodic(300, l0), mm).abs_sq
        for sigma in (0.0, 1e-12):
            gap = np.max(np.abs(f_avg_sq(mm, 300, l0, sigma) - periodic))
            assert gap <= 1e-10 * periodic.max()

    @pytest.mark.parametrize("n", [250, 2000])
    def test_sigma_zero_is_the_periodic_stack(self, n, model, pump, grid_mid, l0):
        # continuous limit, no branch: sigma = 0 and a vanishing sigma both
        # give the periodic |f_exact|^2 on the whole grid
        mm = mismatch_on_grid(grid_mid, pump, model)
        periodic = f_exact(build_periodic(n, l0), mm).abs_sq
        for sigma in (0.0, 1e-12):
            gap = np.max(np.abs(f_avg_sq(mm, n, l0, sigma) - periodic))
            assert gap <= 1e-10 * periodic.max()

    def test_small_sigma_approaches_periodic_peak(self):
        # the sigma -> 0 limit at the peak is the periodic f_exact, (2N/dk0)^2
        n = 2000
        limit = (2 * n / DK0) ** 2
        gaps = [abs(f_avg_sq(at_detuning(0.0), n, L0, sigma) - limit)
                for sigma in (1e-8, 1e-9, 1e-10)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert f_avg_sq(at_detuning(0.0), n, L0, 1e-9) == pytest.approx(limit, rel=1e-4)
        assert f_avg_sq(at_detuning(0.0), n, L0, 0.0) == pytest.approx(limit, rel=1e-12)


class TestFChirped:
    def test_matches_exact_stack_on_plateau(self):
        n, zeta = 2000, 1e6
        zeta_prime = zeta / DK0
        stack = build_chirped(n, L0, zeta, DK0)
        band_edge = zeta * n * L0
        detuning = np.linspace(-0.8 * band_edge, 0.8 * band_edge, 401)
        mm = at_detuning(detuning)
        closed = f_chirped(mm, n, L0, zeta_prime).abs_sq
        exact = f_exact(stack, mm).abs_sq
        rel = np.abs(closed - exact) / exact
        assert rel.max() < 0.10   # measured headroom: agrees to ~1e-3

    def test_plateau_widens_with_chirp(self):
        n = 2000
        detuning = np.linspace(-6e4, 6e4, 4001)
        mm = at_detuning(detuning)
        widths = []
        for zeta in (1e5, 1e6):
            curve = f_chirped_envelope(mm, n, L0, zeta / DK0)
            above = curve >= curve.max() / 2
            widths.append(detuning[above][-1] - detuning[above][0])
        assert widths[1] > widths[0]

    def test_decays_outside_plateau(self):
        n, zeta = 2000, 1e6
        band_edge = zeta * n * L0
        inside = f_chirped(at_detuning(0.0), n, L0, zeta / DK0).abs_sq
        outside = f_chirped(at_detuning(2.5 * band_edge), n, L0, zeta / DK0).abs_sq
        assert outside < 0.05 * inside

    def test_envelope_matches_local_average_of_exact(self):
        n, zeta = 2000, 1e6
        stack = build_chirped(n, L0, zeta, DK0)
        detuning = np.linspace(-1.2e4, 1.2e4, 1601)
        mm = at_detuning(detuning)
        envelope = f_chirped_envelope(mm, n, L0, zeta / DK0)
        exact = f_exact(stack, mm).abs_sq
        # ripple-averaged exact curve vs closed-form envelope, mid-plateau
        window = 201
        kernel = np.ones(window) / window
        averaged = np.convolve(exact, kernel, mode="same")
        center = slice(window, detuning.size - window)
        assert np.allclose(envelope[center], averaged[center], rtol=0.05)

    def test_matches_exact_stack_off_base_domain_length(self, grid_mismatch, l0):
        # the closed form measures its detuning from pi/l0, the stack's own
        # phase-matching point, not from dk0
        n, zeta, length = 2000, 1e6, 1.001 * l0
        mm = grid_mismatch[12]
        exact = f_exact(build_chirped(n, length, zeta, mm.delta_k0), mm).abs_sq
        closed = f_chirped(mm, n, length, zeta / mm.delta_k0).abs_sq
        assert np.max(np.abs(closed - exact)) <= 1e-3 * exact.max()

    @pytest.mark.parametrize("n", [250, 4000])
    @pytest.mark.parametrize("zeta", [1e2, 1e6])
    def test_finite_on_the_default_grid(self, grid_mismatch, l0, zeta, n):
        mm = grid_mismatch[14]
        value = f_chirped(mm, n, l0, zeta / mm.delta_k0).value
        assert np.all(np.isfinite(value))

    @pytest.mark.parametrize("n", [250, 2000])
    @pytest.mark.parametrize("zeta", [1e1, 1e2, 1e3])
    def test_envelope_tends_to_the_periodic_stack(self, grid_mid, grid_mismatch, l0, zeta, n):
        # as the chirp vanishes the boxcar shrinks to the identity, so the
        # envelope keeps the periodic main lobe's area and peak
        mm = grid_mismatch[12]
        envelope = f_chirped_envelope(mm, n, l0, zeta / mm.delta_k0)
        periodic = f_exact(build_periodic(n, l0), mm).abs_sq
        area = np.trapezoid(envelope, grid_mid.omega) / np.trapezoid(periodic, grid_mid.omega)
        assert area == pytest.approx(1.0, abs=0.01)
        assert envelope.max() / periodic.max() == pytest.approx(1.0, abs=0.015)

    def test_requires_positive_chirp_and_mismatch(self):
        with pytest.raises(NumericalDomainError):
            f_chirped(at_detuning(0.0), 100, L0, 0.0)
        with pytest.raises(NumericalDomainError):
            f_chirped(mismatch_from_detuning(DK0, -2 * DK0), 100, L0, 3.0)


class TestCerf:
    """The complex error function f_chirped evaluates, scipy.special.erf."""

    def test_zero(self):
        assert erf(0j) == 0.0

    def test_reference_point(self):
        assert erf(1.0 + 0j).real == pytest.approx(0.842700792949715, abs=1e-14)
        assert erf(1.0 + 0j).imag == 0.0

    @given(x=st.floats(-3, 3), y=st.floats(-3, 3))
    @settings(max_examples=150, deadline=None)
    def test_reflection_symmetries(self, x, y):
        z = complex(x, y)
        assert erf(np.conj(z)) == pytest.approx(np.conj(erf(z)), rel=1e-12, abs=1e-300)
        assert erf(-z) == pytest.approx(-erf(z), rel=1e-12, abs=1e-300)

    def test_against_series_oracle(self):
        rng = np.random.default_rng(42)
        radii = 4.0 * np.sqrt(rng.uniform(0, 1, 100))
        angles = rng.uniform(0, 2 * np.pi, 100)
        points = radii * np.exp(1j * angles)
        for z in points:
            reference = erf_series(complex(z))
            value = erf(complex(z))
            assert abs(value - reference) <= 1e-10 * max(abs(reference), 1e-30)

    def test_fresnel_ray_against_series_oracle(self):
        ray = np.exp(-1j * np.pi / 4)
        for t in (-6.0, -2.5, 1.0, 3.5, 6.0):
            z = ray * t
            reference = erf_series(complex(z))
            assert abs(erf(complex(z)) - reference) <= 1e-10 * abs(reference)

    def test_large_ray_argument_is_finite(self):
        value = erf(np.exp(-1j * np.pi / 4) * 300.0)
        assert np.isfinite(value.real) and np.isfinite(value.imag)
