"""Closed-form defect, spectrum, and expansion checks.

High-precision expected values were generated independently with mpmath at
50 significant digits and frozen here.
"""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgbound.core import ALPHA_FS, PhysicalParams
from kgbound.coulomb import (
    DefectValue,
    energy_expansion,
    energy_level,
    sigma_closed,
    sigma_series,
    system_mass,
)
from kgbound.errors import InvalidQuantumNumbers, SupercriticalCoupling

P_FS = PhysicalParams()
P_01 = PhysicalParams(alpha=0.1)
P_03 = PhysicalParams(alpha=0.3)


class TestSigmaClosed:
    def test_frozen_values(self):
        assert sigma_closed(P_FS, 0).sigma_l == pytest.approx(
            5.3254190529478261e-5, rel=1e-14)
        assert sigma_closed(P_01, 0).sigma_l == pytest.approx(
            0.010102051443364380, rel=1e-14)
        assert sigma_closed(P_03, 1).sigma_l == pytest.approx(
            0.030306154330093141, rel=1e-14)
        assert sigma_closed(P_03, 3).sigma_l == pytest.approx(
            0.012880845167461158, rel=1e-14)

    def test_exact_rational_point(self):
        # At Z*alpha = 0.3, l = 0 the square root is exactly 0.8 and the
        # defect collapses to the rational value 1/10.
        assert sigma_closed(P_03, 0).sigma_l == pytest.approx(0.1, abs=2e-16)

    def test_supercritical(self):
        with pytest.raises(SupercriticalCoupling):
            sigma_closed(PhysicalParams(alpha=0.5), 0)
        with pytest.raises(SupercriticalCoupling):
            sigma_closed(PhysicalParams(alpha=0.7), 0)
        sigma_closed(PhysicalParams(alpha=0.7), 1)

    def test_negative_l_rejected(self):
        with pytest.raises(InvalidQuantumNumbers):
            sigma_closed(P_FS, -1)

    @given(
        za=st.floats(min_value=1e-6, max_value=0.49),
        l=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=150)
    def test_bounds_and_small_coupling_scaling(self, za, l):
        p = PhysicalParams(alpha=za)
        d = sigma_closed(p, l)
        assert 0.0 < d.sigma_l < l + 0.5
        # leading behaviour (Z*alpha)^2 / (2l+1)
        lead = za ** 2 / (2 * l + 1)
        assert d.sigma_l >= lead * (1.0 - 1e-12)
        upper = 2.0 * lead / (1.0 + math.sqrt(1.0 - (za / (l + 0.5)) ** 2))
        assert d.sigma_l <= upper * (1.0 + 1e-12)

    def test_defect_value_validation(self):
        with pytest.raises(ValueError):
            DefectValue(sigma_l=0.6, l=0)
        with pytest.raises(ValueError):
            DefectValue(sigma_l=-0.01, l=0)


class TestSigmaSeries:
    def test_two_terms_match_quartic(self):
        # partial sum k_max=2 at l=0 is exactly (Z a)^2 + (Z a)^4
        got = sigma_series(P_FS, 0, 2).sigma_l
        a2 = P_FS.alpha ** 2
        assert got == pytest.approx(a2 + a2 * a2, rel=1e-15)
        assert abs(got - sigma_closed(P_FS, 0).sigma_l) < 1e-12

    def test_frozen_partial_sum(self):
        got = sigma_series(P_03, 0, 20).sigma_l
        assert got == pytest.approx(0.099999999998918356, rel=1e-14)
        rem = abs(got - sigma_closed(P_03, 0).sigma_l)
        assert rem == pytest.approx(1.0816435543309636e-12, rel=1e-3)

    def test_rapid_convergence_away_from_threshold(self):
        # true remainders are 1e-45..1e-20 here; what survives in float is
        # rounding noise of the accumulation, well under 1e-14
        for za in (0.05, 0.1, 0.2):
            p = PhysicalParams(alpha=za)
            for l in range(4):
                rem = abs(sigma_series(p, l, 20).sigma_l
                          - sigma_closed(p, l).sigma_l)
                assert rem < 1e-14, (za, l, rem)

    def test_monotone_in_k(self):
        vals = [sigma_series(P_03, 0, k).sigma_l for k in range(1, 12)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v < sigma_closed(P_03, 0).sigma_l for v in vals)


class TestEnergyLevel:
    def test_frozen_ratios(self):
        cases = [
            (P_FS, 1, 0, 0.99997337255022472),
            (P_01, 1, 0, 0.99493615300512405),
            (P_01, 2, 0, 0.99873966279911638),
            (P_01, 2, 1, 0.99874817276691965),
            (P_03, 1, 0, 0.94868329805051380),
            (P_03, 4, 0, 0.99705448550158157),
            (P_03, 3, 2, 0.99497732994537737),
        ]
        for p, n, l, ratio in cases:
            b = energy_level(p, n, l)
            assert b.e_total / p.rest_energy == pytest.approx(ratio, rel=1e-14)

    def test_eprime_identity_at_weak_coupling(self):
        # E' = E - m0 c^2 keeps full precision even when the binding is 1e-5
        # of the rest energy.
        b = energy_level(P_FS, 1, 0)
        assert b.e_prime == pytest.approx(-2.6627449775279898e-5, rel=1e-13)
        assert b.e_total - P_FS.rest_energy == pytest.approx(
            b.e_prime, rel=0, abs=1.2e-16)

    def test_ordering_in_n_and_l(self):
        energies_n = [energy_level(P_03, n, 0).e_total for n in range(1, 6)]
        assert all(b > a for a, b in zip(energies_n, energies_n[1:]))
        energies_l = [energy_level(P_03, 4, l).e_total for l in range(4)]
        assert all(b > a for a, b in zip(energies_l, energies_l[1:]))

    def test_bad_quantum_numbers(self):
        with pytest.raises(InvalidQuantumNumbers):
            energy_level(P_FS, 0, 0)
        with pytest.raises(InvalidQuantumNumbers):
            energy_level(P_FS, 2, 2)

    def test_supercritical(self):
        with pytest.raises(SupercriticalCoupling):
            energy_level(PhysicalParams(alpha=0.51), 1, 0)

    def test_nonrelativistic_limit(self):
        p = PhysicalParams(alpha=1e-3)
        for n in range(1, 5):
            for l in range(n):
                got = energy_level(p, n, l).e_prime
                ref = -p.z_alpha ** 2 * p.rest_energy / (2.0 * n ** 2)
                assert abs(got - ref) / abs(ref) < 5.0 * p.z_alpha ** 2

    def test_scaling_with_rest_mass_and_c(self):
        # spectrum in units of m0 c^2 depends only on Z*alpha and (n, l)
        p_scaled = PhysicalParams(alpha=0.3, rest_mass=2.5, c=3.0, hbar=7.0)
        b = energy_level(p_scaled, 3, 1)
        ref = energy_level(P_03, 3, 1)
        assert b.e_total / p_scaled.rest_energy == pytest.approx(
            ref.e_total / P_03.rest_energy, rel=1e-14)


class TestSystemMass:
    def test_frozen_value(self):
        assert system_mass(P_01, 2, 0) == pytest.approx(
            0.99873966279911638, rel=1e-14)

    def test_consistent_with_energy_level(self):
        b = energy_level(P_03, 3, 1)
        assert system_mass(P_03, 3, 1) == pytest.approx(b.system_mass, rel=1e-14)

    def test_below_rest_mass(self):
        for n in range(1, 5):
            m = system_mass(P_03, n, 0)
            assert 0.0 < m < P_03.rest_mass


class TestEnergyExpansion:
    def test_frozen_gap(self):
        gap = energy_level(P_01, 1, 0).e_total - energy_expansion(P_01, 1, 0)
        # closed form sits below the truncated expansion here
        assert gap < 0
        assert abs(gap) == pytest.approx(1.3469948759472612e-6, rel=1e-8)

    def test_printed_formula(self):
        # m0 c^2 (1 - (Za)^2/(2n^2) - (Za)^4/(2n^4) (n/(l+1/2) - 3/4))
        p, n, l = P_01, 3, 1
        za = p.z_alpha
        ref = p.rest_energy * (
            1.0 - za ** 2 / (2.0 * n ** 2)
            - za ** 4 / (2.0 * n ** 4) * (n / (l + 0.5) - 0.75)
        )
        assert energy_expansion(p, n, l) == pytest.approx(ref, rel=1e-15)

    def test_sixth_order_agreement_envelope(self):
        for za in (0.01, 0.02, 0.05, 0.1):
            p = PhysicalParams(alpha=za)
            for n in range(1, 5):
                for l in range(n):
                    gap = abs(energy_level(p, n, l).e_total
                              - energy_expansion(p, n, l))
                    assert gap <= 10.0 * za ** 6 * p.rest_energy, (za, n, l)
