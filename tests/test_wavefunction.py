"""Radial wavefunctions, harmonics, and current diagnostics."""
import math
import struct
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from kgbound import wavefunction

from kgbound.core import ALPHA_FS, PhysicalParams
from kgbound.coulomb import sigma_closed, system_mass
from kgbound.errors import InvalidQuantumNumbers
from kgbound.special import laguerre_rel
from kgbound.wavefunction import (
    SeparableField,
    SphericalGrid3D,
    _laguerre,
    _legendre_p,
    build_radial,
    continuity_check,
    count_radial_nodes,
    current_check_grid,
    divergence_field,
    probability_current,
    radial_ode_residual,
    reference_residual_grid,
    sample_state,
    spherical_harmonic,
)

P_03 = PhysicalParams(alpha=0.3)
P_FS = PhysicalParams()


class TestBuildRadial:
    def test_rho_scale_formula(self):
        # rho = 2 Z r / ((n - sigma) a0(m)), with a0 built from the system mass
        R = build_radial(P_03, 2, 1)
        sig = sigma_closed(P_03, 1).sigma_l
        a0 = P_03.bohr_radius(system_mass(P_03, 2, 1))
        assert R.rho_scale == pytest.approx(
            2.0 * P_03.z_number / ((2.0 - sig) * a0), rel=1e-13)

    def test_normalization_against_frozen_integral(self):
        # for (1,0) at Z*alpha = 0.3 the norm integral in rho variables is
        # c0^2 * Gamma(3 - 2 sigma0) = 1.5871165262933790 (mpmath, 50 digits),
        # and N = sqrt(rho_scale^3 / I)
        R = build_radial(P_03, 1, 0)
        ref = math.sqrt(R.rho_scale ** 3 / 1.5871165262933790)
        assert R.normalization == pytest.approx(ref, rel=1e-11)

    def test_orientation_marks_positive_origin(self):
        for n in range(1, 7):
            for l in range(n):
                R = build_radial(P_03, n, l)
                r_small = 1e-8 / R.rho_scale
                assert R.evaluate(r_small) > 0.0, (n, l)

    def test_unit_norm_on_independent_grid(self):
        # trapezoid on a dense log lattice, nothing shared with the
        # closed form that fixed the constant
        for p, n, l in ((P_03, 1, 0), (P_03, 3, 1), (P_03, 6, 5), (P_03, 6, 0),
                        (P_FS, 35, 34), (P_FS, 40, 0), (P_FS, 49, 48), (P_FS, 74, 0),
                        (P_FS, 50, 49), (P_03, 75, 37)):
            R = build_radial(p, n, l)
            r = np.geomspace(1e-7 / R.rho_scale, R.tail_radius(1e-13), 400_000)
            integ = np.trapezoid((r * R.evaluate(r)) ** 2, r)
            assert integ == pytest.approx(1.0, rel=1e-8), (n, l)

    def test_tail_radius_threshold(self):
        R = build_radial(P_03, 3, 0)
        r_t = R.tail_radius(1e-10)
        r_probe = np.linspace(r_t, 3.0 * r_t, 200)
        r_body = np.geomspace(1e-4 / R.rho_scale, r_t, 2000)
        u_max = np.abs(r_body * R.evaluate(r_body)).max()
        assert np.abs(r_probe * R.evaluate(r_probe)).max() <= 1e-10 * u_max * 1.5

    def test_supercritical_and_bad_qn(self):
        from kgbound.errors import SupercriticalCoupling
        with pytest.raises(SupercriticalCoupling):
            build_radial(PhysicalParams(alpha=0.6), 1, 0)
        with pytest.raises(InvalidQuantumNumbers):
            build_radial(P_03, 0, 0)
        # u passes 1e308 on the tail_radius probe before exp(-rho/2) damps it
        with pytest.raises(OverflowError, match="u leaves the float range"):
            build_radial(P_FS, 75, 0)
        # Gamma(k+a+1) overflows in the amplitude, and the normalization
        # amplitude / (|c_top| k!) underflows
        for n, l in ((100, 99), (75, 54)):
            with pytest.raises(OverflowError, match=rf"normalization .* \(n={n}, l={l}\)"):
                build_radial(P_FS, n, l)

    def test_normalization_against_laguerre_rel(self):
        # the Gamma ratio for |c_top| k! against the paper's coefficient
        # table, wherever [(n+l)!]^2 fits a float
        for p in (P_FS, P_03):
            for n in range(1, 99):
                for l in range(min(n, 99 - n)):
                    try:
                        R = build_radial(p, n, l)
                    except OverflowError:  # the tail probe, from n = 75 at l = 0
                        continue
                    c_top = laguerre_rel(p, n, l)[-1]
                    ref = R.amplitude / (abs(c_top) * math.factorial(n - l - 1))
                    assert R.normalization == pytest.approx(ref, rel=1e-12), (n, l)


# R of two n = 16 states at a few radii, generated with mpmath at 50
# digits from laguerre_rel's defining formula (eta products and Gamma
# functions, not the Laguerre identity), normalized by mpmath.quad, and
# frozen here.
_FROZEN_R = {
    (0.45, 16, 3): (
        (50.0, -3.2387837900499278298e-4),
        (150.0, 1.205302277604935039e-4),
        (300.0, 1.1593983104916447524e-5),
        (600.0, 4.1239054558983887291e-5),
        (900.0, 2.2563848761454121808e-5),
        (1200.0, 1.6994239139774933614e-5),
    ),
    (ALPHA_FS, 16, 0): (
        (20.0, 1.6774339389375632443e-5),
        (700.0, -1.1384546296016803743e-6),
        (3000.0, -1.196395979419370027e-7),
        (6000.0, -3.6155620709358427082e-7),
        (30000.0, 2.1842921475305516358e-8),
        (50000.0, 1.0107943150160392404e-7),
    ),
}


class TestClosedForm:
    def test_recurrence_matches_scipy(self):
        from scipy.special import eval_genlaguerre
        for p in (P_FS, P_03):
            for n in range(1, 40):
                for l in range(n):
                    if p.z_alpha >= l + 0.5:
                        continue
                    k, a = n - l - 1, 2 * l + 1 - 2 * sigma_closed(p, l).sigma_l
                    x = np.linspace(0.0, 4.0 * n + 20.0, 300)
                    ref = eval_genlaguerre(k, a, x)
                    err = np.abs(_laguerre(k, a, x) - ref).max()
                    assert err <= 1e-13 * np.abs(ref).max(), (n, l)

    @pytest.mark.parametrize("k, a, n", [(0, 1.0, 1), (3, 1.0, 5), (40, 3.2, 41), (98, 1.9, 70),
                                         (98, 60.5, 99)])
    def test_in_place_recurrence_keeps_the_bits(self, k, a, n):
        # the recurrence as written before it ran in place, one new array
        # per step: the same operations in the same order
        def reference(k, a, x):
            prev, cur = np.zeros_like(x), np.ones_like(x)
            for j in range(k):
                prev, cur = cur, (2 * j + 1 + a - x) / (j + 1) * cur - (j + a) / (j + 1) * prev
            return cur

        x = np.geomspace(1e-6, 80.0 * n ** 2, 4096)  # the tail probe of state n
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(_laguerre(k, a, x), reference(k, a, x), equal_nan=True)

    @pytest.mark.parametrize("alpha, n, l", sorted(_FROZEN_R))
    def test_against_frozen_mpmath(self, alpha, n, l):
        R = build_radial(PhysicalParams(alpha=alpha), n, l)
        r = np.geomspace(1e-6 / R.rho_scale, R.tail_radius(), 20_000)
        peak = np.abs(R.evaluate(r)).max()
        for r_i, ref in _FROZEN_R[alpha, n, l]:
            assert abs(R.evaluate(r_i) - ref) <= 1e-13 * peak, r_i


class TestNodesAndNormalize:
    @pytest.mark.parametrize("p", [P_FS, P_03], ids=["alpha_fs", "alpha_0.3"])
    def test_node_counts(self, p):
        # every state that builds: u passes 1e308 on the tail probe at
        # l = 0 from n = 75 and at l = n-1 from n = 58, and the
        # normalization leaves the normal floats from n + l = 121
        built = 0
        for n in range(1, 100):
            for l in range(n):
                try:
                    R = build_radial(p, n, l)
                except OverflowError:
                    continue
                built += 1
                assert count_radial_nodes(R) == n - l - 1, (n, l)
        assert built == (3277 if p is P_FS else 3296)


    @pytest.mark.parametrize("n, l", [(1, 0), (4, 1), (17, 0)])
    def test_tail_probe_evaluated_once_per_state(self, monkeypatch, n, l):
        # the wavefunction command's three scans of the 4096-point probe
        # (build_radial's range check, tail_radius(1e-10) and the node
        # count's tail_radius(1e-8)) share one evaluation of L_k^(a)
        from kgbound import wavefunction

        probe_calls = []
        laguerre = wavefunction._laguerre

        def counting(k, a, x):
            if np.ndim(x) == 1 and x.size == 4096 and x[0] == 1e-6:
                probe_calls.append(k)
            return laguerre(k, a, x)

        monkeypatch.setattr(wavefunction, "_laguerre", counting)
        R = build_radial(P_03, n, l)
        R.tail_radius(1e-10)
        assert count_radial_nodes(R) == n - l - 1
        reference_residual_grid(R)
        current_check_grid(R)
        assert probe_calls == [n - l - 1]
        with pytest.raises(ValueError, match="read-only"):
            R._probe[1][0] = 0.0

    @pytest.mark.parametrize("n", [1, 4, 17])
    def test_probe_radii_are_the_geomspace_shared_per_n(self, n):
        rho = wavefunction._probe_radii(n)
        assert rho.tobytes() == np.geomspace(1e-6, 80.0 * n ** 2, 4096).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            rho[0] = 0.0
        states = [build_radial(P_03, n, l) for l in range(min(n, 3))]
        assert all(R._probe[0] is rho for R in states)


class TestOdeResidual:
    def test_reference_grid_residual_small(self):
        for p, n, l in ((P_03, 1, 0), (P_03, 3, 1), (P_FS, 6, 2)):
            R = build_radial(p, n, l)
            res = radial_ode_residual(R, p, reference_residual_grid(R))
            assert res < 1e-6, (n, l, res)

    def test_reference_grid_shape(self):
        R = build_radial(P_03, 2, 0)
        r = reference_residual_grid(R, n_points=5000)
        assert r.shape == (5000,)
        assert r[0] == pytest.approx(0.1 / R.rho_scale, rel=1e-12)
        assert r[-1] == pytest.approx(R.tail_radius(1e-10), rel=1e-12)
        ratios = r[1:] / r[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-10)

    @pytest.mark.parametrize("n, l", [(1, 0), (3, 1), (6, 5)])
    @pytest.mark.parametrize("n_points", [2, 7, 12000])
    def test_reference_grid_ends_are_exact(self, n, l, n_points):
        R = build_radial(P_03, n, l)
        r = reference_residual_grid(R, n_points)
        assert r[0] == 0.1 / R.rho_scale and r[-1] == R.tail_radius(1e-10)
        assert (np.diff(r) > 0.0).all()

    def test_residual_detects_wrong_parameters(self):
        # evaluating the (Z alpha)-dependent equation with a 1% different
        # coupling must blow the residual up by orders of magnitude
        R = build_radial(P_03, 2, 1)
        r = reference_residual_grid(R)
        res_right = radial_ode_residual(R, P_03, r)
        res_wrong = radial_ode_residual(
            R, PhysicalParams(alpha=0.3 * 1.01), r)
        assert res_wrong > 10.0 * res_right


class TestSphericalHarmonics:
    def test_y00(self):
        val = spherical_harmonic(0, 0, 0.7, 1.3)
        assert val == pytest.approx(1.0 / math.sqrt(4.0 * math.pi), rel=1e-14)

    def test_y11_closed_form(self):
        theta, phi = 0.9, 2.1
        ref = -math.sqrt(3.0 / (8.0 * math.pi)) * math.sin(theta) * np.exp(1j * phi)
        assert spherical_harmonic(1, 1, theta, phi) == pytest.approx(ref, rel=1e-13)

    def test_negative_m_relation(self):
        theta, phi = 1.1, 0.4
        for l, m in ((1, 1), (2, 1), (3, 2)):
            plus = spherical_harmonic(l, m, theta, phi)
            minus = spherical_harmonic(l, -m, theta, phi)
            assert minus == pytest.approx((-1) ** m * np.conj(plus), rel=1e-13)

    def test_orthonormality_on_check_grid(self):
        R = build_radial(P_03, 2, 1)
        grid = current_check_grid(R, n_r=4, n_theta=48, n_phi=64)
        d_phi = 2.0 * math.pi / grid.phi.size
        pairs = [((1, 1), (1, 1)), ((2, 1), (2, 1)), ((1, 1), (2, 1)),
                 ((1, 0), (1, 1)), ((3, 2), (3, 2))]
        for (l1, m1), (l2, m2) in pairs:
            y1 = spherical_harmonic(l1, m1, grid.theta[:, None], grid.phi[None, :])
            y2 = spherical_harmonic(l2, m2, grid.theta[:, None], grid.phi[None, :])
            val = np.sum(grid.theta_weights[:, None] * np.conj(y1) * y2) * d_phi
            want = 1.0 if (l1, m1) == (l2, m2) else 0.0
            assert abs(val - want) < 1e-12

    def test_invalid(self):
        with pytest.raises(InvalidQuantumNumbers):
            spherical_harmonic(1, 2, 0.3, 0.3)

    def test_legendre_recurrence_matches_scipy(self):
        from scipy.special import lpmv

        x = np.concatenate([np.linspace(-1.0, 1.0, 2001), [-1.0, 1.0]])
        for l in range(41):
            for m in range(l + 1):
                ref = lpmv(m, l, x)
                err = np.abs(_legendre_p(l, m, x) - ref).max()
                assert err <= 2e-14 * np.abs(ref).max(), (l, m)


class TestCheckGrid:
    @pytest.mark.parametrize("n_theta", [1, 2, 3, 8, 32, 128])
    def test_colatitudes_are_the_gauss_legendre_nodes(self, n_theta):
        R = build_radial(P_03, 2, 1)
        x, w = leggauss(n_theta)
        order = np.argsort(-x)
        grid = current_check_grid(R, n_r=5, n_theta=n_theta, n_phi=4)
        assert grid.theta.tobytes() == np.arccos(x[order]).tobytes()
        assert grid.theta_weights.tobytes() == w[order].tobytes()
        for array in (grid.theta, grid.theta_weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        again = current_check_grid(build_radial(P_03, 3, 2), n_r=7, n_theta=n_theta, n_phi=3)
        assert again.theta is grid.theta and again.theta_weights is grid.theta_weights

    def test_a_float_n_theta_misses_the_cache(self):
        R = build_radial(P_03, 2, 1)
        current_check_grid(R, n_theta=2)
        with pytest.raises(TypeError):
            current_check_grid(R, n_theta=2.0)
        # an untyped cache keys np.int64(2) and 2.0 alike (a bare int takes
        # another key), so 2.0 would hit the entry instead of raising
        wavefunction._colatitudes(np.int64(2))
        with pytest.raises(TypeError):
            wavefunction._colatitudes(2.0)

    @pytest.mark.parametrize("name", ["n_r", "n_theta", "n_phi"])
    @pytest.mark.parametrize("count, error", [
        (0, ValueError), (-1, ValueError), (2.0, TypeError), (0.5, TypeError), ("8", TypeError),
    ])
    def test_bad_point_counts(self, name, count, error):
        R = build_radial(P_03, 2, 1)
        counts = {"n_r": 10, "n_theta": 4, "n_phi": 4, name: count}
        before = wavefunction._colatitudes.cache_info()
        with pytest.raises(error, match=name if error is ValueError else None):
            current_check_grid(R, **counts)
        assert wavefunction._colatitudes.cache_info() == before


class TestProbabilityCurrent:
    def test_real_states_give_exact_zero(self):
        for n, l, m in ((1, 0, 0), (2, 1, 0)):
            R = build_radial(P_03, n, l)
            grid = current_check_grid(R, n_r=40, n_theta=16, n_phi=16)
            psi = sample_state(P_03, R, m, grid)
            J = probability_current(psi, grid, P_03, system_mass(P_03, n, l))
            for comp in J:
                assert not comp.any()

    def test_m1_current_is_azimuthal(self):
        R = build_radial(P_03, 2, 1)
        m_sys = system_mass(P_03, 2, 1)
        grid = current_check_grid(R, n_r=100, n_theta=32, n_phi=32)
        psi = sample_state(P_03, R, 1, grid)
        j_r, j_theta, j_phi = probability_current(psi, grid, P_03, m_sys)
        scale = np.abs(j_phi).max()
        assert scale > 0
        # analytic: J_phi = (2 hbar / (m0 + m)) |psi|^2 * m / (r sin th)
        pref = 2.0 * P_03.hbar / (P_03.rest_mass + m_sys)
        exact = pref * np.abs(psi) ** 2 / (
            grid.r[:, None, None] * np.sin(grid.theta)[None, :, None])
        assert np.abs(j_phi - exact).max() / scale < 1e-12
        assert np.abs(j_r).max() / scale < 1e-12
        assert np.abs(j_theta).max() / scale < 1e-12

    def test_continuity_residual_at_floor(self):
        R = build_radial(P_03, 2, 1)
        m_sys = system_mass(P_03, 2, 1)
        grid = current_check_grid(R, n_r=100, n_theta=32, n_phi=32)
        psi = sample_state(P_03, R, 1, grid)
        J = probability_current(psi, grid, P_03, m_sys)
        assert continuity_check(J, grid) / np.abs(J[2]).max() < 1e-10

    def test_divergence_field_shape_and_max(self):
        R = build_radial(P_03, 2, 1)
        grid = current_check_grid(R, n_r=50, n_theta=16, n_phi=16)
        psi = sample_state(P_03, R, 1, grid)
        J = probability_current(psi, grid, P_03, system_mass(P_03, 2, 1))
        div = divergence_field(J, grid)
        assert div.shape == (50 - 4, 16 - 2, 16)
        assert continuity_check(J, grid) == pytest.approx(
            float(np.abs(div).max()), rel=0)

    def test_sample_state_shape(self):
        R = build_radial(P_03, 3, 2)
        grid = current_check_grid(R, n_r=10, n_theta=8, n_phi=6)
        psi = sample_state(P_03, R, -2, grid)
        assert psi.shape == grid.shape == (10, 8, 6)


def _dense_phi_derivative(f):
    """Spectral d/dphi along the last axis; the unpaired Nyquist mode gets 0."""
    n_phi = f.shape[-1]
    k = np.fft.fftfreq(n_phi, d=1.0 / n_phi)
    if n_phi % 2 == 0:
        k[n_phi // 2] = 0.0
    return np.fft.ifft(1j * k * np.fft.fft(f, axis=-1), axis=-1)


def _dense_current(psi, grid, p, m_sys):
    """probability_current by differences of the dense 3D field: the oracle."""
    psi = np.asarray(psi, dtype=complex)
    if not psi.imag.any():
        zeros = np.zeros(grid.shape)
        return zeros, zeros.copy(), zeros.copy()
    pref = 2.0 * p.hbar / (p.rest_mass + m_sys)
    r = grid.r[:, None, None]
    sin_t = np.sin(grid.theta)[None, :, None]
    conj = np.conj(psi)
    j_r = pref * np.imag(conj * np.gradient(psi, grid.r, axis=0))
    j_theta = pref * np.imag(conj * np.gradient(psi, grid.theta, axis=1)) / r
    j_phi = pref * np.imag(conj * _dense_phi_derivative(psi)) / (r * sin_t)
    return j_r, j_theta, j_phi


def _dense_divergence(J, grid):
    """divergence_field by differences of the dense 3D components: the oracle."""
    j_r, j_theta, j_phi = (np.asarray(comp) for comp in J)
    r = grid.r[:, None, None]
    sin_t = np.sin(grid.theta)[None, :, None]
    d_phi = 2.0 * math.pi / grid.phi.size
    term_r = np.gradient(r ** 2 * j_r, grid.r, axis=0) / r ** 2
    term_theta = np.gradient(sin_t * j_theta, grid.theta, axis=1) / (r * sin_t)
    term_phi = (np.roll(j_phi, -1, axis=2) - np.roll(j_phi, 1, axis=2)) / (2.0 * d_phi * r * sin_t)
    return (term_r + term_theta + term_phi)[2:-2, 1:-1, :]


def _unit_current_scale(psi, grid, p, m_sys):
    """max of 2 hbar/(m0 + m) |psi|^2/(r sin theta): J_phi of one unit of m."""
    pref = 2.0 * p.hbar / (p.rest_mass + m_sys)
    return pref * float(np.max(np.abs(np.asarray(psi)) ** 2 / (
        grid.r[:, None, None] * np.sin(grid.theta)[None, :, None])))


# (Zalpha, n, l, m, grid shape): every m of l = 0..3 at two couplings, then
# odd n_phi, the Nyquist mode |m| = n_phi/2 and aliased modes |m| > n_phi/2
_FACTORED_CASES = (
    [(za, l + 1, l, m, (30, 10, 16))
     for za in (0.1, 0.3) for l in range(4) for m in range(-l, l + 1)]
    + [(0.3, 2, 1, 1, (30, 11, 15)), (0.3, 4, 3, -3, (30, 11, 7))]
    + [(0.3, 4, 3, m, (30, 10, 6)) for m in (3, -3)]
    + [(0.3, 4, 3, 3, (30, 10, 4)), (0.3, 3, 2, -2, (30, 10, 3))]
)


def _slab_divergence(J, grid):
    """divergence_field by 4-row radial slabs, (rows, 3) @ (3, interior angles): the reference."""
    radial, angular = wavefunction._divergence_terms([(c.radial, c.angular) for c in J], grid)
    flat = angular.reshape(3, -1)
    return np.concatenate([
        (rows @ flat).reshape(-1, *angular.shape[1:])
        for rows in np.array_split(radial, max(1, len(radial) // 4))
    ])


# Grid shapes with interior angle columns 1, 8, 100, 129 (two of them),
# 185, 257 and 430, and interior radii 1 to 396
_SMALL_SHAPES = [
    (5, 3, 1), (6, 3, 8), (37, 12, 10), (9, 3, 129), (20, 5, 43), (13, 7, 37),
    (30, 3, 257), (400, 12, 43),
]


class TestFactoredCurrent:
    """The factored current and divergence against dense differences."""

    @pytest.mark.parametrize("za, n, l, m, shape", _FACTORED_CASES)
    def test_factored_matches_dense(self, za, n, l, m, shape):
        p = PhysicalParams(alpha=za)
        R = build_radial(p, n, l)
        m_sys = system_mass(p, n, l)
        grid = current_check_grid(R, *shape)
        psi = sample_state(p, R, m, grid)
        factored = probability_current(psi, grid, p, m_sys)
        dense = _dense_current(psi, grid, p, m_sys)
        assert all(isinstance(c, SeparableField) for c in factored)
        if m == 0:
            assert not any(c.any() for c in factored + dense)
            return
        assert not factored[0].angular.any()  # Im(conj(Y) Y) = 0 exactly
        # The Nyquist mode's J_phi is rounding noise on both paths, so the
        # tolerance is set by the current one unit of m would carry.
        scale = _unit_current_scale(psi, grid, p, m_sys)
        for a, b in zip(factored, dense):
            assert a.shape == b.shape == grid.shape
            assert np.abs(a - b).max() <= 1e-12 * scale
        if 2 * abs(m) == shape[2]:
            assert np.abs(factored[2]).max() <= 1e-12 * scale
        div_f = divergence_field(factored, grid)
        div_d = _dense_divergence(dense, grid)
        assert div_f.shape == div_d.shape == (shape[0] - 4, shape[1] - 2, shape[2])
        assert np.abs(div_f - div_d).max() <= 1e-10 * scale

    def test_factored_divergence_matches_dense_on_a_nonzero_field(self):
        # Eigenstate divergences are rounding noise, so the divergence
        # terms are compared on separable components with a real signal.
        R = build_radial(P_03, 2, 1)
        grid = current_check_grid(R, n_r=30, n_theta=10, n_phi=15)
        s = grid.r / grid.r[-1]
        th, ph = grid.theta[:, None], grid.phi[None, :]
        J = (
            SeparableField(s * np.exp(-s), np.cos(th) * (1.0 + np.sin(ph))),
            SeparableField(np.exp(-2.0 * s), np.sin(2.0 * th) * np.cos(ph)),
            SeparableField(s ** 2 * np.exp(-s), np.sin(th) * np.sin(2.0 * ph)),
        )
        div_f = divergence_field(J, grid)
        div_d = _dense_divergence(J, grid)
        assert div_f.shape == div_d.shape == (26, 8, 15)
        assert np.abs(div_f - div_d).max() <= 1e-12 * np.abs(div_d).max()

    @pytest.mark.parametrize("shape", _SMALL_SHAPES)
    def test_rank_two_and_three_match_the_radial_slabs_bit_for_bit(self, shape):
        # an eigenstate's div J is rank 1 (see below)
        R = build_radial(P_03, 2, 1)
        grid = current_check_grid(R, *shape)
        rng = np.random.default_rng(shape[0] * shape[2])
        with_nan = rng.standard_normal(shape[1:])
        with_nan[1, 0] = np.nan
        currents = [
            tuple(SeparableField(rng.standard_normal(shape[0]), rng.standard_normal(shape[1:]))
                  for _ in range(3)),
            (SeparableField(R.evaluate(grid.r), with_nan),
             SeparableField(-R.evaluate(grid.r), rng.standard_normal(shape[1:])),
             SeparableField(rng.standard_normal(shape[0]), np.zeros(shape[1:]))),
        ]
        for J in currents:
            with np.errstate(invalid="ignore"):
                want = _slab_divergence(J, grid)
                got = divergence_field(J, grid)
                check = continuity_check(J, grid)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert struct.pack("<d", check) == struct.pack("<d", np.abs(want).max())
        assert math.isnan(check)

    def test_fields_without_factors_raise_type_error(self):
        R = build_radial(P_03, 2, 1)
        m_sys = system_mass(P_03, 2, 1)
        grid = current_check_grid(R, n_r=30, n_theta=10, n_phi=16)
        psi = sample_state(P_03, R, 1, grid)
        J = probability_current(psi, grid, P_03, m_sys)
        # a plain array, a full slice and an arithmetic result, all grid-shaped
        for field in (np.asarray(psi), psi[:], psi * 1):
            with pytest.raises(TypeError, match="sample_state or SeparableField"):
                probability_current(field, grid, P_03, m_sys)
        for bad in (tuple(np.asarray(c) for c in J), (np.asarray(J[0]), J[1], J[2]),
                    (J[0], J[1][:], J[2]), (J[0], J[1], J[2] * 1),
                    (np.zeros(grid.shape),) * 3):
            with pytest.raises(TypeError, match="sample_state or SeparableField"):
                divergence_field(bad, grid)
            with pytest.raises(TypeError, match="sample_state or SeparableField"):
                continuity_check(bad, grid)
        # a real current has no use for a complex angular factor
        twisted = SeparableField(
            R.evaluate(grid.r), np.sin(grid.theta)[:, None] * np.exp(2j * grid.phi)[None, :])
        zeros = SeparableField(np.zeros(30), np.zeros((10, 16)))
        for diagnostic in (divergence_field, continuity_check):
            with pytest.raises(TypeError, match="a current component must be real"):
                diagnostic((zeros, zeros, twisted), grid)

    def test_tiny_grids_raise_value_error(self):
        R = build_radial(P_03, 2, 1)
        m_sys = system_mass(P_03, 2, 1)
        for shape in ((4, 8, 8), (5, 2, 8), (2, 3, 4)):
            grid = current_check_grid(R, *shape)
            J = probability_current(sample_state(P_03, R, 1, grid), grid, P_03, m_sys)
            zeros = (SeparableField(np.zeros(shape[0]), np.zeros(shape[1:])),) * 3
            for current in (J, zeros):
                with pytest.raises(ValueError, match="n_r >= 5, n_theta >= 3"):
                    continuity_check(current, grid)
        # the smallest grid with an interior works
        grid = current_check_grid(R, 5, 3, 1)
        J = probability_current(sample_state(P_03, R, 1, grid), grid, P_03, m_sys)
        assert divergence_field(J, grid).shape == (1, 1, 1)

    def test_components_must_match_the_grid(self):
        R = build_radial(P_03, 2, 1)
        grid = current_check_grid(R, n_r=10, n_theta=6, n_phi=8)
        J = (SeparableField(np.zeros(10), np.zeros((6, 8))),) * 2 + (
            SeparableField(np.zeros(10), np.zeros((6, 7))),)
        with pytest.raises(ValueError, match="match the grid"):
            divergence_field(J, grid)
        psi = sample_state(P_03, R, 1, current_check_grid(R, n_r=11, n_theta=6, n_phi=8))
        with pytest.raises(ValueError, match="match the grid"):
            probability_current(psi, grid, P_03, system_mass(P_03, 2, 1))


    @staticmethod
    def _counting_slabs(monkeypatch):
        """Record the name of every _divergence_terms call."""
        calls = []

        def counting(*args, _f=wavefunction._divergence_terms):
            calls.append("_divergence_terms")
            return _f(*args)

        monkeypatch.setattr(wavefunction, "_divergence_terms", counting)
        return calls

    @staticmethod
    def _assert_check_is_the_max(J, grid, calls, expected):
        """continuity_check, making the expected calls, is max|divergence_field| bit for bit."""
        del calls[:]
        with np.errstate(divide="ignore", invalid="ignore"):
            check = continuity_check(J, grid)
            assert calls == expected
            want = float(np.abs(divergence_field(J, grid)).max())
        assert struct.pack("<d", check) == struct.pack("<d", want)
        return check

    @pytest.mark.parametrize("shape, radii", [
        ((100, 32, 32), None), ((200, 64, 64), None), ((400, 128, 128), None),
        # r^2 or the difference weights leave the float range on these
        ((12, 8, 6), (1e-200, 1e-199)), ((12, 8, 6), (1e160, 1e161)),
    ])
    def test_zero_current_skips_the_slabs(self, monkeypatch, shape, radii):
        # an all-zeros J returns zeros before the terms of div J are built
        calls = self._counting_slabs(monkeypatch)
        R = build_radial(P_03, 2, 1)
        grid = current_check_grid(R, *shape)
        if radii is not None:
            grid = SphericalGrid3D(np.geomspace(*radii, shape[0]), grid.theta,
                                   grid.theta_weights, grid.phi)
        J = probability_current(sample_state(P_03, R, 0, grid), grid, P_03,
                                system_mass(P_03, 2, 1))
        assert self._assert_check_is_the_max(J, grid, calls, []) == 0.0
        assert not divergence_field(J, grid).any()

    @pytest.mark.parametrize("shape", [(100, 32, 32), (200, 64, 64), (400, 128, 128)]
                             + [s for s in _SMALL_SHAPES if s[2] > 1])
    def test_stationary_divergence_is_one_outer_product(self, monkeypatch, shape):
        # J_r's angular factor is exact zeros and J_theta, J_phi share their
        # radial factor, so div J has rank 1 and stays factored (on one
        # azimuth, phi = 0, every psi here is real and its current zero)
        calls = self._counting_slabs(monkeypatch)
        R = build_radial(P_03, 2, 1)
        m_sys = system_mass(P_03, 2, 1)
        grid = current_check_grid(R, *shape)
        control = SeparableField(
            R.evaluate(grid.r),
            np.sin(grid.theta)[:, None] * np.exp(1j * np.sin(grid.phi))[None, :])
        for psi in (sample_state(P_03, R, 1, grid), sample_state(P_03, R, -1, grid), control):
            J = probability_current(psi, grid, P_03, m_sys)
            assert not J[0].angular.any() and np.array_equal(J[1].radial, J[2].radial)
            assert isinstance(wavefunction._divergence(J, grid), SeparableField)
            check = self._assert_check_is_the_max(J, grid, calls, ["_divergence_terms"])
            scale = np.abs(J[2]).max()
            if psi is not control and shape[0] >= 100:
                assert 0.0 < check < 1e-12 * scale
            with np.errstate(invalid="ignore"):
                diff = _slab_divergence(J, grid)
            diff -= divergence_field(J, grid)
            assert np.abs(diff, out=diff).max() <= 1e-12 * scale

    def test_degenerate_grids_raise_at_construction(self):
        # A repeated radius would make the radial difference 0/0 and an
        # interior colatitude at a pole the angular ones; the grid refuses
        # both, and every other grid on which a zero current's div J
        # could be NaN, naming the axis.
        base = current_check_grid(build_radial(P_03, 2, 1), n_r=12, n_theta=8, n_phi=6)
        SphericalGrid3D(base.r, base.theta, base.theta_weights, base.phi)
        bad_r, bad_theta = [], []
        for i, value in ((5, "repeat"), (0, 0.0), (0, -1.0), (11, math.inf), (3, math.nan),
                         (11, "reverse")):
            r = base.r.copy()
            if value == "repeat":
                r[i] = r[i - 1]
            elif value == "reverse":
                r = r[::-1].copy()
            else:
                r[i] = value
            bad_r.append(r)
        for changes, message in (
            ({3: 0.0}, "be finite and strictly increasing"),
            ({4: "repeat"}, "be finite and strictly increasing"),
            ({3: math.nan}, "be finite and strictly increasing"),
            ({7: math.inf}, "be finite and strictly increasing"),
            ({0: -0.5, 1: 0.0}, r"lie in \(0, pi\) on its interior rows"),
            ({6: math.pi, 7: 3.5}, r"lie in \(0, pi\) on its interior rows"),
        ):
            theta = base.theta.copy()
            for i, value in changes.items():
                theta[i] = theta[i - 1] if value == "repeat" else value
            bad_theta.append((theta, message))
        for r in bad_r:
            with pytest.raises(ValueError, match="grid r must be finite, positive"):
                SphericalGrid3D(r, base.theta, base.theta_weights, base.phi)
        for theta, message in bad_theta:
            with pytest.raises(ValueError, match="grid theta must " + message):
                SphericalGrid3D(base.r, theta, base.theta_weights, base.phi)
        with pytest.raises(ValueError, match="grid theta_weights has 7 entries, theta has 8"):
            SphericalGrid3D(base.r, base.theta, base.theta_weights[:-1], base.phi)
        # the end colatitudes may sit on the poles, as in a closed grid
        theta = base.theta.copy()
        theta[0], theta[-1] = 0.0, math.pi
        grid = SphericalGrid3D(base.r, theta, base.theta_weights, base.phi)
        zeros = SeparableField(np.zeros(12), np.zeros((8, 6)))
        assert continuity_check((zeros,) * 3, grid) == 0.0
        with np.errstate(invalid="ignore"):  # 0/0 on the dropped polar rows
            assert not divergence_field((zeros,) * 3, grid).any()

    def test_one_zero_term_leaves_rank_two(self, monkeypatch):
        # J_r's radial factor is zeros, so its term is dropped; the other two
        # have different radial columns and are summed densely
        calls = self._counting_slabs(monkeypatch)
        R = build_radial(P_03, 2, 1)
        grid = current_check_grid(R, n_r=30, n_theta=10, n_phi=15)
        s = grid.r / grid.r[-1]
        th, ph = grid.theta[:, None], grid.phi[None, :]
        J = (
            SeparableField(np.zeros(30), np.cos(th) * (1.0 + np.sin(ph))),
            SeparableField(np.exp(-2.0 * s), np.sin(2.0 * th) * np.cos(ph)),
            SeparableField(s ** 2 * np.exp(-s), np.sin(th) * np.sin(2.0 * ph)),
        )
        assert self._assert_check_is_the_max(J, grid, calls, ["_divergence_terms"]) > 0.0
        assert divergence_field(J, grid).tobytes() == _slab_divergence(J, grid).tobytes()


class TestSeparableField:
    def _psi(self, m=1):
        R = build_radial(P_03, 3, 2)
        grid = current_check_grid(R, n_r=12, n_theta=8, n_phi=6)
        return R, grid, sample_state(P_03, R, m, grid)

    def test_samples_are_the_broadcast_product(self):
        for m in (-2, 0, 1):
            R, grid, psi = self._psi(m)
            radial = np.asarray(R.evaluate(grid.r))
            angular = np.asarray(spherical_harmonic(
                2, m, grid.theta[:, None], grid.phi[None, :]))
            old = radial[:, None, None] * angular[None, :, :]
            dense = np.asarray(psi)
            assert psi.dtype == dense.dtype == old.dtype
            assert psi.shape == dense.shape == old.shape
            assert dense.tobytes() == old.tobytes()
            assert np.array_equal(psi.radial, radial)
            assert np.array_equal(psi.angular, angular)
            assert psi.nbytes == radial.nbytes + angular.nbytes

    def test_derived_arrays_carry_no_factors(self):
        _, _, psi = self._psi()
        for derived in (psi[1:], psi[:, 0], psi * 1, np.conj(psi), np.abs(psi),
                        np.asarray(psi)):
            assert type(derived) is np.ndarray
            assert not hasattr(derived, "radial") and not hasattr(derived, "angular")

    def test_read_only(self):
        _, _, psi = self._psi()
        for factor in (psi.radial, psi.angular):
            with pytest.raises(ValueError, match="read-only"):
                factor[0] = 1.0
        with pytest.raises(TypeError, match="item assignment"):
            psi[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            psi *= 2.0
        writable = psi * 1
        writable[0] = 0.0  # a derived field is an ordinary array

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            SeparableField(np.ones(3) + 1j, np.ones((2, 2)))
        with pytest.raises(ValueError):
            SeparableField(np.ones((3, 1)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            SeparableField(np.ones(3), np.ones(2))

    def _fields(self):
        """Sampled and random fields: complex and real angular factors, negative radii."""
        _, grid, psi = self._psi()
        J = probability_current(psi, grid, P_03, system_mass(P_03, 3, 2))
        assert (J[0].radial < 0).any() and (J[0].radial > 0).any()  # J_r = pref R R'
        rng = np.random.default_rng(5)
        return [
            psi, *J,
            SeparableField(rng.standard_normal(7), rng.standard_normal((4, 5))),
            SeparableField(-rng.random(7), rng.standard_normal((4, 5))
                           + 1j * rng.standard_normal((4, 5))),
            SeparableField(-rng.random(7), 1j * rng.standard_normal((4, 5))),
        ]

    def test_reductions_match_dense(self):
        for field in self._fields():
            dense = np.asarray(field)
            assert field.any() == dense.any()
            if field.dtype.kind == "c":
                with pytest.raises(TypeError, match="real field"):
                    field.max()
                assert np.abs(field).tobytes() == np.abs(dense).tobytes()
                continue
            magnitude = np.abs(field)
            assert type(magnitude) is SeparableField
            assert np.asarray(magnitude).tobytes() == np.abs(dense).tobytes()
            assert field.max() == dense.max()
            assert magnitude.max() == np.abs(dense).max() == abs(field).max()

    def test_zero_and_underflowing_fields(self):
        _, grid, psi = self._psi(m=0)
        J = probability_current(psi, grid, P_03, system_mass(P_03, 3, 2))
        tiny = np.full(3, 1e-200)
        fields = [
            *J,
            SeparableField(tiny, np.full((2, 2), 1e-200)),  # every product underflows
            SeparableField(-tiny, np.full((2, 2), 1e-200j)),
            SeparableField(tiny, np.full((2, 2), 1e-200 - 1e-200j)),
        ]
        for field in fields:
            dense = np.asarray(field)
            assert not field.any() and not dense.any()
            if field.dtype.kind == "f":
                assert field.max() == dense.max() == 0.0
        # 1e-200 * 1e-100 is a normal number
        field = SeparableField(tiny, np.full((2, 2), 1e-100j))
        assert field.any() and np.asarray(field).any()

    @pytest.mark.parametrize("n_r", [5, 37, 401])
    def test_continuity_check_is_the_max_of_divergence_field(self, n_r):
        # n_r - 4 interior rows: 1, 33 and 397; 100 interior angle columns
        R = build_radial(P_03, 2, 1)
        m_sys = system_mass(P_03, 2, 1)
        grid = current_check_grid(R, n_r=n_r, n_theta=12, n_phi=10)
        control = SeparableField(
            R.evaluate(grid.r),
            np.sin(grid.theta)[:, None] * np.exp(1j * np.sin(grid.phi))[None, :])
        for psi in (sample_state(P_03, R, 1, grid), control):
            J = probability_current(psi, grid, P_03, m_sys)
            div = divergence_field(J, grid)
            assert div.shape == (n_r - 4, 10, 10)
            assert continuity_check(J, grid) == pytest.approx(
                float(np.abs(div).max()), rel=0)

    def test_current_diagnostics_allocate_no_dense_field(self):
        R = build_radial(P_03, 2, 1)
        grid = current_check_grid(R, n_r=400, n_theta=128, n_phi=128)
        m_sys = system_mass(P_03, 2, 1)
        tracemalloc.start()
        try:
            psi = sample_state(P_03, R, 1, grid)
            J = probability_current(psi, grid, P_03, m_sys)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            continuity_check(J, grid)
            check_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one dense real component of J is 50 MiB, psi 100 MiB, and the
        # rank-1 div J 48.7 MiB
        assert peak < 16 * 2 ** 20
        assert check_peak < 4 * 2 ** 20
        dense = np.asarray(psi)
        assert dense.dtype == complex and dense.shape == (400, 128, 128)
