"""Parameter records, potentials, grids, and bound-state bookkeeping."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgbound.core import (
    ALPHA_FS,
    BoundState,
    CoulombPart,
    HulthenPart,
    PhysicalParams,
    PotentialSpec,
    QuantumNumbers,
    RadialGrid,
    validate_params,
)
from kgbound.errors import InvalidQuantumNumbers, SupercriticalCoupling


def test_fine_structure_constant_value():
    assert ALPHA_FS == 7.2973525693e-3


class TestPhysicalParams:
    def test_defaults_are_natural_units(self):
        p = PhysicalParams()
        assert p.rest_mass == 1.0 and p.c == 1.0 and p.hbar == 1.0
        assert p.alpha == ALPHA_FS

    def test_derived_quantities(self):
        p = PhysicalParams(z_number=2.0, alpha=0.1)
        assert p.z_alpha == pytest.approx(0.2, rel=1e-15)
        assert p.e_squared == pytest.approx(0.1, rel=1e-15)
        assert p.rest_energy == 1.0
        # a0 = hbar^2 / (m e^2), independent of Z
        assert p.bohr_radius() == pytest.approx(10.0, rel=1e-15)
        assert p.bohr_radius(mass=2.0) == pytest.approx(5.0, rel=1e-15)

    def test_nonnatural_scalings(self):
        p = PhysicalParams(alpha=0.5, rest_mass=3.0, c=2.0, hbar=4.0)
        assert p.e_squared == pytest.approx(0.5 * 4.0 * 2.0, rel=1e-15)
        assert p.rest_energy == pytest.approx(12.0, rel=1e-15)
        assert p.bohr_radius() == pytest.approx(16.0 / (3.0 * 4.0), rel=1e-15)

    @pytest.mark.parametrize("field", ["z_number", "alpha", "rest_mass", "c", "hbar"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError):
            PhysicalParams(**{field: 0.0})
        with pytest.raises(ValueError):
            PhysicalParams(**{field: -1.0})
        with pytest.raises(ValueError):
            PhysicalParams(**{field: math.nan})

    def test_frozen(self):
        p = PhysicalParams()
        with pytest.raises(Exception):
            p.alpha = 0.5


class TestQuantumNumbers:
    def test_valid_and_nodes(self):
        qn = QuantumNumbers(3, 1, -1)
        assert qn.radial_nodes == 1
        assert QuantumNumbers(1, 0).m == 0
        assert QuantumNumbers(np.int64(2), np.int32(1)).radial_nodes == 0

    @pytest.mark.parametrize(
        "n,l,m",
        [(0, 0, 0), (1, 1, 0), (2, 2, 0), (2, 1, 2), (2, 1, -2), (-1, 0, 0), (2, -1, 0)],
    )
    def test_invalid(self, n, l, m):
        with pytest.raises(InvalidQuantumNumbers):
            QuantumNumbers(n, l, m)

    def test_rejects_non_integers(self):
        with pytest.raises(InvalidQuantumNumbers):
            QuantumNumbers(1.5, 0, 0)
        with pytest.raises(InvalidQuantumNumbers):
            QuantumNumbers(np.float64(2.0), 0, 0)
    @given(
        n=st.integers(min_value=1, max_value=40),
        l=st.integers(min_value=0, max_value=60),
        m=st.integers(min_value=-60, max_value=60),
    )
    def test_acceptance_matches_selection_rules(self, n, l, m):
        ok = 0 <= l <= n - 1 and abs(m) <= l
        if ok:
            qn = QuantumNumbers(n, l, m)
            assert qn.radial_nodes == n - l - 1 >= 0
        else:
            with pytest.raises(InvalidQuantumNumbers):
                QuantumNumbers(n, l, m)


class TestValidateParams:
    def test_boundary_is_l_plus_half(self):
        # Z*alpha strictly below l + 1/2 is fine; at or above it the l channel
        # has no real solution.
        validate_params(PhysicalParams(alpha=0.499999), QuantumNumbers(1, 0))
        p_bad = PhysicalParams(alpha=0.5)
        with pytest.raises(SupercriticalCoupling):
            validate_params(p_bad, QuantumNumbers(1, 0))
        validate_params(p_bad, QuantumNumbers(2, 1))

    @given(
        za=st.floats(min_value=1e-4, max_value=3.4),
        l=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=200)
    def test_threshold_property(self, za, l):
        p = PhysicalParams(alpha=za)
        qn = QuantumNumbers(l + 1, l)
        if za >= l + 0.5:
            with pytest.raises(SupercriticalCoupling):
                validate_params(p, qn)
        else:
            assert validate_params(p, qn) is None


class TestPotentials:
    def test_coulomb_values(self):
        p = PhysicalParams(z_number=2.0, alpha=0.1)
        part = CoulombPart()
        r = np.array([0.5, 1.0, 4.0])
        np.testing.assert_allclose(
            part.evaluate(r, p), -2.0 * 0.1 / r, rtol=1e-15
        )

    def test_hulthen_reduces_to_coulomb_at_small_lam(self):
        # -Z e^2 lam / (e^{lam r} - 1) -> -Z e^2 / r as lam -> 0
        p = PhysicalParams(alpha=0.3)
        r = np.linspace(0.2, 30.0, 50)
        coulomb = CoulombPart().evaluate(r, p)
        part = HulthenPart(lam=1e-7)
        np.testing.assert_allclose(part.evaluate(r, p), coulomb, rtol=1e-5)
        assert part.lam_absolute(p) == pytest.approx(
            1e-7 / p.bohr_radius(), rel=1e-15)

    def test_hulthen_screens_faster_than_coulomb(self):
        p = PhysicalParams(alpha=0.3)
        part = HulthenPart(lam=0.5)
        lam = part.lam_absolute(p)
        r = np.array([50.0 / lam])
        v_h = part.evaluate(r, p)[0]
        v_c = CoulombPart().evaluate(r, p)[0]
        assert abs(v_h) < 1e-18
        assert abs(v_c) > 1e-4 * abs(v_h + v_c)

    def test_hulthen_rejects_bad_lam(self):
        for bad in (0.0, -0.2, math.nan):
            with pytest.raises(ValueError):
                HulthenPart(lam=bad)

    def test_spec_factories(self):
        assert PotentialSpec.coulomb().vector_part is not None
        assert PotentialSpec.coulomb().scalar_part is None
        eq = PotentialSpec.equal_hulthen(0.2)
        assert eq.vector_part is not None and eq.scalar_part is not None
        assert eq.vector_part.lam == eq.scalar_part.lam == 0.2


class TestRadialGrid:
    def test_uniform_layout(self):
        g = RadialGrid(10.0, 9)
        # interior points only: h, 2h, ..., Nh with (N+1) h = r_max
        assert g.n_points == 9
        assert g.r_max == 10.0
        assert g.step == pytest.approx(1.0, rel=1e-15)
        np.testing.assert_allclose(g.points, np.arange(1, 10) * 1.0, rtol=1e-14)

    @pytest.mark.parametrize("r_max, n", [(100.0, 2000), (77.0, 500), (1e-3, 500)])
    def test_uniform_keeps_its_box(self, r_max, n):
        # the box rebuilt from the points misses r_max by an ulp here
        g = RadialGrid(r_max, n)
        assert g.points[-1] + g.step != r_max
        assert g.r_max == r_max

    @pytest.mark.parametrize("r_max, n", [(0.0, 10), (-1.0, 10), (math.nan, 10), (10.0, 2)])
    def test_rejects_an_empty_box_or_too_few_points(self, r_max, n):
        with pytest.raises(ValueError):
            RadialGrid(r_max, n)

    @pytest.mark.parametrize("r_max, n", [(math.inf, 10), (1e-320, 8000), (5e-324, 3)])
    def test_a_box_outside_the_float_range_overflows(self, r_max, n):
        # inf, or a step r_max/(n+1) that rounds to 0
        with pytest.raises(OverflowError):
            RadialGrid(r_max, n)

    def test_points_are_read_only(self):
        g = RadialGrid(10.0, 9)
        assert g.points is g.points
        with pytest.raises(ValueError, match="read-only"):
            g.points[0] = 0.0


class TestBoundState:
    def test_identities(self):
        p = PhysicalParams(alpha=0.3, rest_mass=2.0, c=3.0)
        qn = QuantumNumbers(2, 1)
        st_ = BoundState(qn, -0.05, p)
        assert st_.e_total == -0.05 + p.rest_energy
        assert st_.system_mass == p.rest_mass + -0.05 / p.c ** 2
        assert st_.node_count == qn.radial_nodes == 0

    def test_sample_shape_check(self):
        p = PhysicalParams()
        grid = RadialGrid(10.0, 5)
        with pytest.raises(ValueError):
            BoundState(QuantumNumbers(1, 0), -0.1, p, radial_samples=(grid.points, np.zeros(4)))
