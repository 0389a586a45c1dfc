"""The eta products and the radial polynomials."""
import math

import numpy as np
import pytest
import scipy.special as sps

from kgbound.core import ALPHA_FS, PhysicalParams
from kgbound.coulomb import sigma_closed
from kgbound.errors import InvalidQuantumNumbers
from kgbound.special import eta_product, laguerre_classical, laguerre_rel

P_03 = PhysicalParams(alpha=0.3)
P_01 = PhysicalParams(alpha=0.1)


def series_coefficient_ratio(s, nu, beta, l, z_alpha):
    """Ratio b_{nu+1}/b_nu of the power-series coefficients of u(r).

    b_{nu+1}/b_nu = (s + nu - beta) / ((s + nu)(s + nu + 1) - l(l+1) + Z^2 alpha^2).

    The numerator vanishing at nu = beta - s is what terminates the series
    and quantizes the spectrum.  The recurrence oracle for laguerre_rel,
    which builds its coefficients from Gamma functions instead.
    """
    return (s + nu - beta) / ((s + nu) * (s + nu + 1.0) - l * (l + 1.0) + z_alpha ** 2)


class TestEtaProduct:
    def test_empty_product(self):
        assert eta_product(0, 0, 0.3, 0.1) == 1.0

    def test_frozen_values(self):
        s0 = sigma_closed(P_01, 0).sigma_l
        assert eta_product(0, 1, 0.1, s0) == pytest.approx(
            1.0050766681028501, rel=1e-14)
        s1 = sigma_closed(P_03, 1).sigma_l
        assert eta_product(1, 2, 0.3, s1) == pytest.approx(
            1.0327895096789641, rel=1e-14)

    def test_factor_structure(self):
        # product over k of (1 + (Za)^2 / ((k - sigma)(2l + 1 + k - sigma)))
        s = 0.05
        za = 0.2
        direct = 1.0
        for k in (1, 2, 3):
            direct *= 1.0 + za ** 2 / ((k - s) * (2 * 1 + 1 + k - s))
        assert eta_product(1, 3, za, s) == pytest.approx(direct, rel=1e-14)

    def test_at_least_one(self):
        for nu in range(6):
            assert eta_product(2, nu, 0.25, 0.01) >= 1.0

    def test_negative_nu_rejected(self):
        with pytest.raises(ValueError):
            eta_product(0, -1, 0.3, 0.1)


class TestSeriesCoefficientRatio:
    def test_classical_ground_ratio(self):
        # hydrogen-like (2,0) polynomial: c1/c0 = -1/2 in these variables
        assert series_coefficient_ratio(1.0, 0, 2.0, 0, 0.0) == pytest.approx(
            -0.5, rel=1e-15)

    def test_matches_polynomial_ratios(self):
        # The generated coefficients must satisfy the recurrence they came
        # from, with s = l + 1 - sigma and beta = n - sigma.
        for p in (PhysicalParams(alpha=0.05), P_03):
            za = p.z_alpha
            for n in range(1, 7):
                for l in range(n - 1):
                    sig = sigma_closed(p, l).sigma_l
                    lag = laguerre_rel(p, n, l)
                    for nu in range(n - l - 1):
                        got = lag[nu + 1] / lag[nu]
                        want = series_coefficient_ratio(
                            l + 1.0 - sig, nu, n - sig, l, za)
                        assert got == pytest.approx(want, rel=1e-12), (n, l, nu)


class TestRelativisticLaguerre:
    def test_frozen_coefficients(self):
        lag31 = laguerre_rel(P_03, 3, 1)
        assert lag31[0] == pytest.approx(-97.907738825204838, rel=1e-13)
        assert lag31[1] == pytest.approx(24.853542351376369, rel=1e-13)
        lag10 = laguerre_rel(P_03, 1, 0)
        assert lag10[0] == pytest.approx(-0.97297979390370248, rel=1e-13)

    def test_shape(self):
        assert laguerre_rel(P_03, 5, 2).shape == (3,)

    def test_sign_alternation(self):
        # c_nu carries (-1)^(nu+1): strictly alternating signs
        signs = np.sign(laguerre_rel(P_01, 6, 0))
        assert all(a == -b for a, b in zip(signs, signs[1:]))
        assert signs[0] == -1.0

    def test_bad_quantum_numbers(self):
        with pytest.raises(InvalidQuantumNumbers):
            laguerre_rel(P_03, 2, 2)

    def test_against_the_defining_formula_in_scipy(self):
        # every entry of the defining formula, with scipy's Gamma in place
        # of math.gamma, up to n + l = 98 where [(n+l)!]^2 nears 1e308
        for p in (PhysicalParams(alpha=ALPHA_FS), P_01, P_03):
            za = p.z_alpha
            for n, l in ((1, 0), (4, 2), (9, 0), (17, 5), (30, 29), (60, 38), (50, 48)):
                sig = sigma_closed(p, l).sigma_l
                want = [
                    (-1.0) ** (nu + 1) * sps.gamma(n + l + 1.0) ** 2 / (
                        sps.gamma(n - l - nu) * sps.gamma(2 * l + nu + 2.0 - sig)
                        * sps.gamma(nu + 1.0 - sig) * eta_product(l, nu, za, sig))
                    for nu in range(n - l)
                ]
                np.testing.assert_allclose(laguerre_rel(p, n, l), want, rtol=1e-12,
                                           err_msg=str((za, n, l)))

    def test_top_coefficient_is_a_gamma_ratio(self):
        # |c_top| k! = [(n+l)!]^2 Gamma(a+1) / (Gamma(a+k+1) Gamma(1-sigma)
        # Gamma(2l+2-sigma)), k = n-l-1, a = 2l+1-2 sigma: the identity
        # that lets wavefunction.py skip the coefficient table
        for p in (PhysicalParams(alpha=ALPHA_FS), P_03):
            for n in range(1, 50):
                for l in range(n):
                    if n + l > 98:
                        break
                    sig = sigma_closed(p, l).sigma_l
                    k, a = n - l - 1, 2 * l + 1 - 2 * sig
                    log_top = (2 * sps.gammaln(n + l + 1.0) + sps.gammaln(a + 1.0)
                               - sps.gammaln(a + k + 1.0) - sps.gammaln(1.0 - sig)
                               - sps.gammaln(2 * l + 2.0 - sig))
                    c_top = laguerre_rel(p, n, l)[-1]
                    assert math.log(abs(c_top) * math.factorial(k)) == pytest.approx(
                        log_top, rel=1e-13, abs=1e-11), (p.z_alpha, n, l)

    def test_overflow_names_the_state(self):
        assert np.isfinite(laguerre_rel(P_03, 50, 48)).all()  # n + l = 98
        for n, l in ((50, 49), (100, 99)):  # (n+l)!^2, then Gamma itself, overflow
            with pytest.raises(OverflowError, match=rf"float range for \(n={n}, l={l}\)"):
                laguerre_rel(P_03, n, l)


class TestGeneralizedLaguerreIdentity:
    def test_rel_is_scaled_generalized_laguerre(self):
        # Z^2 alpha^2 = sigma (2l+1-sigma) turns each eta factor into
        # j(a+j)/((j-sigma)(2l+1+j-sigma)), so laguerre_rel / c_top is
        # (-1)^k k! L_k^(a) with k = n-l-1 and a = 2l+1-2 sigma
        for z_alpha in (ALPHA_FS, 0.1, 0.3, 0.45):
            p = PhysicalParams(alpha=z_alpha)
            for n in range(1, 13):
                for l in range(n):
                    if z_alpha >= l + 0.5:
                        continue
                    coeffs = laguerre_rel(p, n, l)
                    k, a = n - l - 1, 2 * l + 1 - 2 * sigma_closed(p, l).sigma_l
                    ref = (-1) ** k * math.factorial(k) * sps.genlaguerre(k, a).coeffs[::-1]
                    np.testing.assert_allclose(coeffs / coeffs[-1], ref, rtol=1e-13,
                                               err_msg=str((z_alpha, n, l)))


class TestClassicalLimit:
    def test_classical_matches_scipy_up_to_overall_factor(self):
        # two conventions differ by a constant; the evaluated ratio must be
        # flat in x
        for n, l in ((2, 0), (4, 1), (6, 2), (5, 0)):
            coeffs = laguerre_classical(n, l)
            xs = np.linspace(0.3, 8.0, 7)
            mine = np.polyval(coeffs[::-1], xs)
            ref = sps.eval_genlaguerre(n - l - 1, 2 * l + 1, xs)
            ratio = mine / ref
            np.testing.assert_allclose(ratio, ratio[0], rtol=1e-10)

    def test_weak_coupling_coefficients_converge(self):
        p = PhysicalParams(alpha=1e-6)
        for n in range(1, 7):
            for l in range(n):
                rel = laguerre_rel(p, n, l)
                cla = laguerre_classical(n, l)
                scale = np.abs(cla).max()
                assert np.abs(rel - cla).max() / scale < 1e-9, (n, l)
