import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import c

from poledspdc import (
    WavelengthRangeError,
    base_domain_length,
    congruent_linbo3_extraordinary,
    delta_k,
    mismatch_from_detuning,
    refractive_index,
)


def jundt_ne_reference(lam_um):
    """Independent evaluation of the published fit at 24.5 C."""
    l2 = lam_um ** 2
    n2 = (5.35583
          + 0.100473 / (l2 - 0.20692 ** 2)
          + 100.0 / (l2 - 11.34927 ** 2)
          - 1.5334e-2 * l2)
    return np.sqrt(n2)


def omega_of(lam_m):
    return 2 * np.pi * c / lam_m


class TestRefractiveIndex:
    def test_telecom_wavelength_matches_published_fit(self, model):
        n = refractive_index(model, omega_of(1.55e-6))
        assert n == pytest.approx(jundt_ne_reference(1.55), rel=1e-12)
        # frozen to 6 significant digits
        assert n == pytest.approx(2.13786, abs=5e-6)

    def test_pump_wavelength_matches_published_fit(self, model):
        n = refractive_index(model, omega_of(0.775e-6))
        assert n == pytest.approx(jundt_ne_reference(0.775), rel=1e-12)
        assert n == pytest.approx(2.17870, abs=5e-6)

    def test_out_of_range_wavelength_names_interval(self, model):
        with pytest.raises(WavelengthRangeError) as err:
            refractive_index(model, omega_of(10e-6))
        assert "4.000e-07" in str(err.value) and "5.000e-06" in str(err.value)

    def test_rejects_nonpositive_frequency(self, model):
        with pytest.raises(WavelengthRangeError):
            refractive_index(model, 0.0)

    def test_vectorized_evaluation(self, model):
        omegas = omega_of(np.array([0.775e-6, 1.0e-6, 1.55e-6]))
        n = refractive_index(model, omegas)
        assert n.shape == (3,)
        assert n[0] == pytest.approx(refractive_index(model, omegas[0]))

    @given(lam_um=st.floats(0.45, 4.9))
    @settings(max_examples=200, deadline=None)
    def test_index_above_one_and_finite(self, lam_um):
        model = congruent_linbo3_extraordinary()
        n = refractive_index(model, omega_of(lam_um * 1e-6))
        assert np.isfinite(n) and n > 1.0


class TestDeltaK:
    def test_degenerate_point_has_zero_detuning(self, model, pump):
        half = pump.omega_p0 / 2
        mm = delta_k(model, half, half, pump.omega_p0)
        assert mm.delta_k == pytest.approx(mm.delta_k0, rel=1e-15)
        assert mm.delta_k_small == 0.0

    def test_degenerate_value_near_paper_configuration(self, model, pump):
        half = pump.omega_p0 / 2
        mm = delta_k(model, half, half, pump.omega_p0)
        assert mm.delta_k0 == pytest.approx(3.302e5, rel=0.02)

    @given(split=st.floats(0.30, 0.70))
    @settings(max_examples=100, deadline=None)
    def test_signal_idler_exchange_symmetry(self, split):
        model = congruent_linbo3_extraordinary()
        omega_p = omega_of(775e-9)
        omega_s = split * omega_p
        omega_i = omega_p - omega_s
        a = delta_k(model, omega_s, omega_i, omega_p)
        b = delta_k(model, omega_i, omega_s, omega_p)
        assert a.delta_k == pytest.approx(b.delta_k, rel=1e-14)

    def test_detuning_is_exact_difference(self, model, pump):
        omega_s = 0.45 * pump.omega_p0
        mm = delta_k(model, omega_s, pump.omega_p0 - omega_s, pump.omega_p0)
        assert mm.delta_k_small == mm.delta_k - mm.delta_k0

    def test_mismatch_from_detuning(self):
        mm = mismatch_from_detuning(3.3e5, np.array([-1.0, 0.0, 2.0]))
        assert np.all(mm.delta_k == 3.3e5 + np.array([-1.0, 0.0, 2.0]))
        assert mm.delta_k0 == 3.3e5


class TestBaseDomainLength:
    def test_reproduces_reference_domain_length(self, model, pump):
        l0 = base_domain_length(model, pump.omega_p0)
        assert l0 == pytest.approx(9.515e-6, rel=0.02)

    def test_length_times_mismatch_is_pi(self, model, pump):
        l0 = base_domain_length(model, pump.omega_p0)
        half = pump.omega_p0 / 2
        mm = delta_k(model, half, half, pump.omega_p0)
        assert l0 * mm.delta_k == pytest.approx(np.pi, rel=1e-14)

    def test_total_crystal_length(self, l0):
        assert 2000 * l0 == pytest.approx(19e-3, rel=0.02)

    def test_out_of_range_pump(self, model):
        with pytest.raises(WavelengthRangeError):
            base_domain_length(model, omega_of(10.2e-6))
