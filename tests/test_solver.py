"""Discretization, eigensolve, self-consistency, and convergence studies."""
import math
import re
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from kgbound import solver
from kgbound.core import CoulombPart, HulthenPart, PhysicalParams, PotentialSpec, RadialGrid
from kgbound.coulomb import energy_level
from kgbound.errors import (
    InvalidQuantumNumbers,
    NoConvergence,
    StateNotFound,
    UnsupportedCombination,
)
from kgbound.solver import (
    SolveMode,
    SolveRequest,
    _converged,
    _count_sign_changes,
    _refine_eigenpair,
    _sweep,
    convergence_study,
    default_solver_grid,
    discretize_operator,
    effective_radial_equation,
    inner_eigensolve,
    origin_series,
    richardson_extrapolate,
    solve_self_consistent,
)
from hulthen_oracle import hulthen_level

P_03 = PhysicalParams(alpha=0.3)
P_01 = PhysicalParams(alpha=0.1)


class CountingLapack:
    """Stand-in for solver._lapack(): records (routine, args) of each call."""

    def __init__(self, lapack):
        self.lapack, self.calls = lapack, []

    def __getattr__(self, name):
        routine = getattr(self.lapack, name)

        def call(*args, **kwargs):
            self.calls.append((name, args))
            return routine(*args, **kwargs)

        return call


def coulomb_request(p, n, l, n_points=3000, **kw):
    grid = default_solver_grid(
        SolveMode.KG_VECTOR, PotentialSpec.coulomb(), p, n, l, n_points=n_points)
    return SolveRequest(mode=SolveMode.KG_VECTOR, potential=PotentialSpec.coulomb(),
                        n=n, l=l, grid=grid, **kw)


class TestModeChecks:
    def test_scalar_channel_rejected_where_absent(self):
        for mode in (SolveMode.SCHRODINGER, SolveMode.KG_VECTOR):
            with pytest.raises(UnsupportedCombination):
                SolveRequest(mode=mode, potential=PotentialSpec.equal_coulomb(),
                             n=1, l=0) and solve_self_consistent(
                    SolveRequest(mode=mode, potential=PotentialSpec.equal_coulomb(),
                                 n=1, l=0), P_03)

    def test_equal_mode_requires_matching_parts(self):
        for pot in (PotentialSpec.coulomb(), PotentialSpec.hulthen(0.2),
                    PotentialSpec(None, None)):
            with pytest.raises(UnsupportedCombination):
                solve_self_consistent(
                    SolveRequest(mode=SolveMode.KG_EQUAL, potential=pot, n=1, l=0),
                    P_03)


class TestEffectiveEquation:
    def test_schrodinger_coefficients(self):
        A, v_eff = effective_radial_equation(
            SolveMode.SCHRODINGER, PotentialSpec.coulomb(), P_03, P_03.rest_mass, 1)
        assert A == pytest.approx(P_03.hbar ** 2 / (2.0 * P_03.rest_mass), rel=1e-15)
        r = np.array([0.7, 2.0])
        want = (2.0 * P_03.hbar ** 2 / (2.0 * P_03.rest_mass) / r ** 2
                - P_03.e_squared / r)
        np.testing.assert_allclose(v_eff(r), want, rtol=1e-14)

    def test_kg_vector_coefficients(self):
        m_sys = 0.95
        A, v_eff = effective_radial_equation(
            SolveMode.KG_VECTOR, PotentialSpec.coulomb(), P_03, m_sys, 0)
        mp = P_03.rest_mass + m_sys
        assert A == pytest.approx(P_03.hbar ** 2 / mp, rel=1e-15)
        r = np.array([0.5, 1.0, 5.0])
        u = -P_03.e_squared / r
        want = 2.0 * m_sys * u / mp - u ** 2 / (mp * P_03.c ** 2)
        np.testing.assert_allclose(v_eff(r), want, rtol=1e-14)

    def test_kg_equal_doubles_potential(self):
        m_sys = 0.9
        A, v_eff = effective_radial_equation(
            SolveMode.KG_EQUAL, PotentialSpec.equal_coulomb(), P_03, m_sys, 0)
        r = np.array([0.4, 3.0])
        np.testing.assert_allclose(
            v_eff(r), 2.0 * (-P_03.e_squared / r), rtol=1e-14)
        assert A == pytest.approx(P_03.hbar ** 2 / (P_03.rest_mass + m_sys),
                                  rel=1e-15)


def table_exponent(mode, potential, p, l):
    """The origin exponent as a hand-kept table of modes gave it: the
    reference the operators of l >= 1 and of integer s are built from."""
    ll = float(l * (l + 1))
    za2 = (p.z_number * p.alpha) ** 2
    if mode in (SolveMode.KG_VECTOR, SolveMode.KG_SCALAR_VECTOR):
        if potential.vector_part is not None:
            ll -= za2
        if mode is SolveMode.KG_SCALAR_VECTOR and potential.scalar_part is not None:
            ll += za2
    return 0.5 + math.sqrt(0.25 + ll)


def three_power_error(s, n):
    """Error of the unit-step stencil on i^s relative to i^s, three powers per index."""
    i = np.arange(1, n + 1, dtype=float)
    return ((i + 1.0) ** s - 2.0 * i ** s + (i - 1.0) ** s) / i ** s - s * (s - 1.0) / i ** 2


# every mode with each potential it accepts
MODE_POTENTIALS = [
    pytest.param(mode, potential, id=f"{mode.value}-{name}")
    for mode, name, potential in [
        (SolveMode.SCHRODINGER, "coulomb", PotentialSpec.coulomb()),
        (SolveMode.SCHRODINGER, "hulthen", PotentialSpec.hulthen(0.2)),
        (SolveMode.KG_VECTOR, "coulomb", PotentialSpec.coulomb()),
        (SolveMode.KG_VECTOR, "hulthen", PotentialSpec.hulthen(0.2)),
        (SolveMode.KG_VECTOR, "free", PotentialSpec(None, None)),
        (SolveMode.KG_SCALAR_VECTOR, "coulomb", PotentialSpec.coulomb()),
        (SolveMode.KG_SCALAR_VECTOR, "equal-coulomb", PotentialSpec.equal_coulomb()),
        (SolveMode.KG_SCALAR_VECTOR, "equal-hulthen", PotentialSpec.equal_hulthen(0.2)),
        (SolveMode.KG_SCALAR_VECTOR, "scalar-coulomb", PotentialSpec(None, CoulombPart())),
        (SolveMode.KG_SCALAR_VECTOR, "hulthen-coulomb",
         PotentialSpec(HulthenPart(0.2), CoulombPart())),
        (SolveMode.KG_EQUAL, "equal-coulomb", PotentialSpec.equal_coulomb()),
        (SolveMode.KG_EQUAL, "equal-hulthen", PotentialSpec.equal_hulthen(0.2)),
    ]
]


class TestOriginSeries:
    def test_schrodinger_integer(self):
        s, _ = origin_series(SolveMode.SCHRODINGER, PotentialSpec.coulomb(), P_03, 1.0, 2)
        assert s == 3.0

    def test_vector_coupling_lowers_exponent(self):
        # l = 0, Z*alpha = 0.3: s = 1/2 + sqrt(1/4 - 0.09) = 0.9 exactly
        s, _ = origin_series(SolveMode.KG_VECTOR, PotentialSpec.coulomb(), P_03, 1.0, 0)
        assert s == pytest.approx(0.9, abs=2e-16)

    def test_equal_mode_cancels(self):
        s, _ = origin_series(SolveMode.KG_EQUAL, PotentialSpec.equal_coulomb(), P_03, 1.0, 1)
        assert s == 2.0

    @pytest.mark.parametrize("mode, potential", MODE_POTENTIALS)
    def test_exponent_has_the_bits_of_the_mode_table(self, mode, potential):
        for p in (P_01, P_03, PhysicalParams(z_number=2.0, alpha=0.2)):
            for l in range(4):
                for m_sys in (p.rest_mass, 0.9):
                    s, _ = origin_series(mode, potential, p, m_sys, l)
                    assert s == table_exponent(mode, potential, p, l)

    def test_coulomb_first_coefficient(self):
        # u = r^s exp(-m Z alpha r / s) near the origin at system mass m (a
        # rest mass of 2 halves the Bohr radius); the scalar coupling
        # 2 m0 S/msum carries the rest mass whatever m is
        for p in (P_03, replace(P_03, rest_mass=2.0)):
            for m_sys in (p.rest_mass, 0.9 * p.rest_mass):
                s, a1 = origin_series(SolveMode.KG_VECTOR, PotentialSpec.coulomb(), p, m_sys, 0)
                assert a1 == pytest.approx(-m_sys * p.z_alpha / s, rel=1e-15)
                s, a1 = origin_series(SolveMode.KG_SCALAR_VECTOR,
                                      PotentialSpec(None, CoulombPart()), p, m_sys, 0)
                assert a1 == pytest.approx(-p.rest_mass * p.z_alpha / s, rel=1e-15)

    def test_hulthen_first_coefficient_carries_the_squared_term(self):
        # U = -Z e^2/r + Z e^2 lam/2 + O(r): the U^2 term of kg-vector adds
        # -(Z alpha)^2 lam to C/A = 2 m Z alpha, whatever the mass m
        lam, m_sys = 0.3, 0.95
        s, a1 = origin_series(SolveMode.KG_VECTOR, PotentialSpec.hulthen(lam), P_03, m_sys, 0)
        lam_abs = HulthenPart(lam).lam_absolute(P_03)
        c_over_a = 2.0 * m_sys * P_03.z_alpha - P_03.z_alpha ** 2 * lam_abs
        assert a1 == pytest.approx(-c_over_a / (2.0 * s), rel=1e-14)

    def test_part_coefficients_match_the_potential(self):
        r = np.array([1e-6, 2e-6])
        for part in (CoulombPart(), HulthenPart(0.3)):
            c_1, c_0 = part.origin_coefficients(P_03)
            np.testing.assert_allclose(part.evaluate(r, P_03) - c_1 / r, c_0, atol=1e-6)


class TestDiscretizeOperator:
    def test_plain_stencil_when_exponent_integer(self):
        grid = RadialGrid(30.0, 200)
        op = discretize_operator(
            SolveMode.SCHRODINGER, PotentialSpec.coulomb(), P_01, P_01.rest_mass, 1, grid)
        A, v_eff = effective_radial_equation(
            SolveMode.SCHRODINGER, PotentialSpec.coulomb(), P_01, P_01.rest_mass, 1)
        kin = A / grid.step ** 2
        np.testing.assert_array_equal(op.offdiag, np.full(199, -kin))
        # correction term vanishes identically for integer exponents <= 3
        np.testing.assert_array_equal(op.diag, 2.0 * kin + v_eff(grid.points))

    def test_corrected_diagonal_first_entry(self):
        # at i = 1, Q+ = 2^s - 1 - s and Q- = s - 1 (the stencil sees
        # f = r^s exp(a1 r) at 0, h and 2h), with a1 at the operator's mass;
        # the far-field constant and the 1/i tail are left out
        grid = RadialGrid(30.0, 100)
        op = discretize_operator(SolveMode.KG_VECTOR, PotentialSpec.coulomb(), P_03, 0.95, 0, grid)
        A, v_eff = effective_radial_equation(
            SolveMode.KG_VECTOR, PotentialSpec.coulomb(), P_03, 0.95, 0)
        s = 0.9
        x = -0.95 * P_03.z_alpha / s * grid.step  # a1 h at m = 0.95
        assert 0.05 < abs(x) < 0.5
        kin = A / grid.step ** 2
        want_shift = kin * ((2.0 ** s - 1.0 - s) * math.exp(x) + (s - 1.0) * math.exp(-x)
                            - s * (s - 1.0))
        got_shift = op.diag[0] - (2.0 * kin + v_eff(grid.points[:1])[0])
        assert got_shift == pytest.approx(want_shift, rel=1e-12)

    def test_correction_decays_into_the_bulk(self):
        grid = RadialGrid(30.0, 500)
        op = discretize_operator(SolveMode.KG_VECTOR, PotentialSpec.coulomb(), P_03, 0.95, 0, grid)
        A, v_eff = effective_radial_equation(
            SolveMode.KG_VECTOR, PotentialSpec.coulomb(), P_03, 0.95, 0)
        kin = A / grid.step ** 2
        shift = np.abs(op.diag - (2.0 * kin + v_eff(grid.points)))
        assert shift[-1] < 1e-6 * shift[0]

    def test_correction_is_exact_on_the_origin_shape(self):
        # (T f)_i = -A f''(r_i) + V f(r_i) for f = r^s exp(a1 r), with a1 at
        # the operator's mass, up to the far-field constant, which shifts
        # every entry alike, and the 1/i tail 2 s (sinh x - x)/i
        grid = RadialGrid(30.0, 400)
        mode, pot = SolveMode.KG_VECTOR, PotentialSpec.hulthen(0.3)
        s, a1 = origin_series(mode, pot, P_03, 0.95, 0)
        op = discretize_operator(mode, pot, P_03, 0.95, 0, grid)
        A, v_eff = effective_radial_equation(mode, pot, P_03, 0.95, 0)
        r, h = grid.points, grid.step
        f = r ** s * np.exp(a1 * r)
        f_next = (r + h) ** s * np.exp(a1 * (r + h))
        f_prev = np.concatenate(([0.0], f[:-1]))
        f2 = (s * (s - 1.0) / r ** 2 + 2.0 * s * a1 / r + a1 ** 2) * f
        x = a1 * h
        far = A / h ** 2 * (2.0 * math.cosh(x) - 2.0 - x * x)
        tail = A / h ** 2 * 2.0 * s * (math.sinh(x) - x) * h / r
        tf = op.diag * f + op.offdiag[0] * (f_next + f_prev)
        want = -A * f2 + (v_eff(r) - far - tail) * f
        np.testing.assert_allclose(tf, want, rtol=0, atol=1e-10 * np.abs(v_eff(r) * f).max())

    def test_correction_has_the_bits_of_the_three_power_form(self):
        # one power per index, shared by neighbours, must not move the operator
        for s in (0.9, 0.98, 1.0, 2.0, 2.5, 3.7):
            for n in (250, 1000, 8000):
                assert np.array_equal(solver._stencil_error(s, n, 0.0), three_power_error(s, n))

    @pytest.mark.parametrize("mode, potential", MODE_POTENTIALS)
    def test_operators_with_an_exponent_of_1_or_more_keep_their_bits(self, mode, potential):
        # l >= 1 everywhere, every integer-s operator and the fractional
        # s > 1 of a scalar-only 1/r part at l = 0: the r^s-only correction,
        # built from the mode table's exponent, bit for bit
        for p in (P_01, P_03):
            for l in range(4):
                s = table_exponent(mode, potential, p, l)
                if s < 1.0:
                    continue
                for n in (250, 2000):
                    grid = RadialGrid(40.0, n)
                    op = discretize_operator(mode, potential, p, 0.97, l, grid)
                    A, v_eff = effective_radial_equation(mode, potential, p, 0.97, l)
                    kin = A / grid.step ** 2
                    want = 2.0 * kin + v_eff(grid.points) + kin * three_power_error(s, n)
                    assert np.array_equal(op.diag, want), (p, l, n)
                    assert np.array_equal(op.offdiag, np.full(n - 1, -kin))

    def test_correction_is_continuous_and_clipped_in_the_step(self):
        # one formula at every x = a1 h, with no switch at the old |x| = 1/2,
        # and every |x| beyond 2 corrected as |x| = 2
        near = [solver._stencil_error(0.9, 400, x) for x in (-0.499, -0.501)]
        np.testing.assert_allclose(near[0], near[1], rtol=0, atol=1e-3)
        clipped = [solver._stencil_error(0.9, 400, x) for x in (-2.0, -2.5, -9.0)]
        assert np.array_equal(clipped[0], clipped[1]) and np.array_equal(clipped[0], clipped[2])


@pytest.mark.parametrize("za, n", [(za, n) for za in (0.1, 0.3) for n in range(1, 11)])
def test_origin_correction_is_no_worse_than_the_power_form(monkeypatch, za, n):
    # one solve at the default N: the corrected operator must be no further
    # from the closed form than the one corrected for r^s alone (a1 = 0)
    p = PhysicalParams(alpha=za)
    req = SolveRequest(mode=SolveMode.KG_VECTOR, potential=PotentialSpec.coulomb(), n=n, l=0)
    exact = energy_level(p, n, 0).e_prime
    corrected = solve_self_consistent(req, p).e_prime
    series = solver.origin_series
    monkeypatch.setattr(solver, "origin_series", lambda *args: (series(*args)[0], 0.0))
    power_only = solve_self_consistent(req, p).e_prime
    assert abs(corrected - exact) <= abs(power_only - exact)


class TestCountSignChanges:
    # entries with |u| <= 1e-9 * max|u| are dropped before signs are compared
    def test_flips_below_the_cut_are_not_nodes(self):
        u = np.array([0.3, 2.0, 0.5, 1.8e-9, -1.8e-9, 1.8e-9, 0.2, 0.1])
        assert _count_sign_changes(u) == 0

    def test_flips_just_above_the_cut_are_nodes(self):
        u = np.array([0.3, 2.0, 0.5, 2.2e-9, -2.2e-9, 2.2e-9, 0.2, 0.1])
        assert _count_sign_changes(u) == 2
        assert _count_sign_changes(np.array([0.3, 2.0, 0.5, -2.2e-9, 1e-12, 0.1])) == 2

    def test_flips_only_in_the_tail(self):
        # a nodeless bulk whose decayed tail alternates at rounding level
        r = np.linspace(0.01, 40.0, 400)
        u = r * np.exp(-r)
        u[-50:] = 1e-12 * (-1.0) ** np.arange(50)
        assert np.count_nonzero(np.diff(np.sign(u))) == 49
        assert _count_sign_changes(u) == 0


class TestInnerEigensolve:
    def test_schrodinger_hydrogen_levels(self):
        p = P_01
        grid = RadialGrid(15.0 * 4 * p.bohr_radius(), 6000)
        op = discretize_operator(
            SolveMode.SCHRODINGER, PotentialSpec.coulomb(), p, p.rest_mass, 0, grid)
        for n in (1, 2):
            e, u = inner_eigensolve(op, n - 1)
            ref = -p.z_alpha ** 2 * p.rest_energy / (2.0 * n ** 2)
            # single fixed grid: discretization error ~ (h/a0)^2 ~ 1e-4
            assert e == pytest.approx(ref, rel=1e-3)
            assert u.shape == grid.points.shape

    def test_eigenvector_normalized_and_oriented(self):
        p = P_01
        grid = RadialGrid(40.0 * p.bohr_radius(), 2000)
        op = discretize_operator(
            SolveMode.SCHRODINGER, PotentialSpec.coulomb(), p, p.rest_mass, 0, grid)
        _, u = inner_eigensolve(op, 1)
        assert np.sum(u ** 2) == pytest.approx(1.0, rel=1e-12)
        first_big = u[np.flatnonzero(np.abs(u) > 1e-8 * np.abs(u).max())[0]]
        assert first_big > 0

    def test_node_target_beyond_grid(self):
        grid = RadialGrid(10.0, 5)
        op = discretize_operator(
            SolveMode.KG_VECTOR, PotentialSpec.coulomb(), P_03, P_03.rest_mass, 0, grid)
        for node_target in (5, 8):
            with pytest.raises(StateNotFound):
                inner_eigensolve(op, node_target)
        with pytest.raises(StateNotFound):
            solve_self_consistent(
                SolveRequest(mode=SolveMode.KG_VECTOR, potential=PotentialSpec.coulomb(),
                             n=9, l=0, grid=grid), P_03)

    def test_refinement_rejects_the_wrong_state(self, monkeypatch):
        # inverse iteration shifted onto the ground state cannot pass as the
        # one-node state; the caller then solves from scratch
        grid = RadialGrid(40.0 * P_01.bohr_radius(), 2000)
        op = discretize_operator(
            SolveMode.SCHRODINGER, PotentialSpec.coulomb(), P_01, P_01.rest_mass, 0, grid)
        e0, _ = inner_eigensolve(op, 0)
        e1, u1 = inner_eigensolve(op, 1)
        # one sweep at e0 amplifies the rounding-level ground state into a
        # one-node mixture far off e1: only its residual gives it away
        e, u = _sweep(op, 1, u1, e0)
        assert _count_sign_changes(u) == 1 and abs(e / e1 - 1) > 1e-4
        assert not _converged(op, e, u)
        for sweeps in (1, 2):
            monkeypatch.setattr(solver, "_REFINE_SWEEPS", sweeps)
            assert _refine_eigenpair(op, 1, u1, e0) is None
        # later sweeps are shifted by E': given more of them they may steer
        # back onto the one-node state, but never pass off another one
        for sweeps in (3, 6):
            monkeypatch.setattr(solver, "_REFINE_SWEEPS", sweeps)
            pair = _refine_eigenpair(op, 1, u1, e0)
            if pair is not None:
                assert _count_sign_changes(pair[1]) == 1
                assert pair[0] == pytest.approx(e1, rel=1e-12)
        monkeypatch.setattr(solver, "_REFINE_SWEEPS", 2)
        e, u = _refine_eigenpair(op, 1, u1, e1)
        assert e == pytest.approx(e1, rel=1e-12)
        np.testing.assert_allclose(u, u1, atol=1e-10)

    def test_cold_solve_goes_through_the_module_level_eigensolver(self, monkeypatch):
        # outside tooling (perfbench/tracer.py) wraps solver.eigh_tridiagonal
        # by name; every cold eigensolve must look it up there
        calls = []
        original = solver.eigh_tridiagonal

        def counting(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "eigh_tridiagonal", counting)
        grid = RadialGrid(40.0 * P_01.bohr_radius(), 2000)
        op = discretize_operator(
            SolveMode.SCHRODINGER, PotentialSpec.coulomb(), P_01, P_01.rest_mass, 0, grid)
        inner_eigensolve(op, 1)
        assert len(calls) == 1
        assert calls[0][1]["select"] == "i" and calls[0][1]["select_range"] == (1, 1)

        # a solve bisects once, on the coarsest grid of its start: N // 8
        # points, N // 64 from 8000 points; every later eigenpair is refined
        for n_points, coarsest in ((2000, 250), (8000, 125)):
            calls.clear()
            solve_self_consistent(coulomb_request(P_03, 1, 0, n_points), P_03)
            assert [call[0][0].size for call in calls] == [coarsest]

    @pytest.mark.parametrize("field, value", [
        ("diag", np.inf), ("diag", np.nan), ("offdiag", np.nan), ("offdiag", np.inf),
    ], ids=lambda v: v if isinstance(v, str) else repr(v))
    def test_non_finite_operator_raises_no_convergence(self, field, value):
        # no such operator can be made, so neither LAPACK (which would raise
        # a bare ValueError) nor inverse iteration (which took an inf
        # off-diagonal for a finite pair) ever sees one
        grid = RadialGrid(40.0 * P_01.bohr_radius(), 400)
        op = discretize_operator(
            SolveMode.SCHRODINGER, PotentialSpec.coulomb(), P_01, P_01.rest_mass, 0, grid)
        entries = getattr(op, field).copy()
        entries[7] = value
        with pytest.raises(NoConvergence, match="non-finite entries"):
            replace(op, **{field: entries})

    def test_no_bound_state_in_free_potential(self):
        p = P_01
        grid = RadialGrid(50.0, 500)
        op = discretize_operator(
            SolveMode.KG_VECTOR, PotentialSpec(None, None), p, p.rest_mass, 0, grid)
        with pytest.raises(StateNotFound):
            inner_eigensolve(op, 0)


_EIGEN_OPERATORS = [
    (SolveMode.SCHRODINGER, PotentialSpec.coulomb()),
    (SolveMode.KG_VECTOR, PotentialSpec.coulomb()),
    (SolveMode.KG_SCALAR_VECTOR, PotentialSpec(CoulombPart(), HulthenPart(0.2))),
    (SolveMode.KG_EQUAL, PotentialSpec.equal_hulthen(0.2)),
]


# LAPACK routine -> a stand-in that reports failure (info = 1)
_FAILING_LAPACK = {
    "dstebz": lambda d, e, *args: (0, np.zeros(d.size), np.zeros(d.size, np.int32),
                                   np.zeros(d.size, np.int32), 1),
    "dstein": lambda d, e, w, iblock, isplit: (np.zeros((d.size, w.size)), 1),
}


class TestLapack:
    """solver.eigh_tridiagonal and _lapack against scipy.linalg."""

    @pytest.mark.parametrize("mode, potential", _EIGEN_OPERATORS,
                             ids=[mode.value for mode, _ in _EIGEN_OPERATORS])
    @pytest.mark.parametrize("n_points", [3, 250, 4000])
    def test_eigenpairs_are_scipys_bit_for_bit(self, mode, potential, n_points):
        from scipy.linalg import eigh_tridiagonal

        grid = RadialGrid(40.0 * P_03.bohr_radius(), n_points)
        op = discretize_operator(mode, potential, P_03, P_03.rest_mass, 0, grid)
        for k in (0, n_points // 2, n_points - 1):
            w, v = solver.eigh_tridiagonal(op.diag, op.offdiag, select="i", select_range=(k, k))
            ref_w, ref_v = eigh_tridiagonal(
                op.diag, op.offdiag, select="i", select_range=(k, k))
            assert w.shape == (1,) and v.shape == (n_points, 1)
            assert np.array_equal(w, ref_w) and np.array_equal(v, ref_v), k

    def test_routines_are_scipys(self):
        from scipy.linalg import lapack

        for name in ("dstebz", "dstein", "dgtsv"):
            assert getattr(solver._lapack(), name) is getattr(lapack, name), name

    @pytest.mark.parametrize("routine", sorted(_FAILING_LAPACK))
    def test_lapack_failure_is_no_convergence(self, monkeypatch, capsys, routine):
        from kgbound import cli

        real = solver._lapack()
        stub = SimpleNamespace(dstebz=real.dstebz, dstein=real.dstein, dgtsv=real.dgtsv)
        setattr(stub, routine, _FAILING_LAPACK[routine])
        monkeypatch.setattr(solver, "_lapack", lambda: stub)
        grid = RadialGrid(40.0 * P_01.bohr_radius(), 400)
        op = discretize_operator(
            SolveMode.SCHRODINGER, PotentialSpec.coulomb(), P_01, P_01.rest_mass, 0, grid)
        message = f"tridiagonal eigensolve failed: {routine} failed (LAPACK info=1)"
        with pytest.raises(NoConvergence, match=re.escape(message)):
            inner_eigensolve(op, 0)
        # compare exits on the first failure; solve would report it in a row
        assert cli.main(["compare", "--grid-n", "400"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"kgbound: NoConvergence: {message}\n"

    @pytest.mark.parametrize("n_points, sizes", [(2000, [250, 2000]), (8000, [125, 1000])],
                             ids=["N2000", "N8000"])
    @pytest.mark.parametrize("routine", sorted(_FAILING_LAPACK))
    def test_coarse_lapack_failure_falls_back_to_the_fine_grid(self, monkeypatch, routine,
                                                               n_points, sizes):
        # the coarse pair only seeds the next grid: when LAPACK fails on it,
        # the solve bisects its own grid as when the coarse grid binds
        # nothing, to full precision on 2000 points, and an intermediate
        # grid of the start (1000 points for 8000) seeds itself
        req = coulomb_request(P_03, 2, 0, n_points)
        warm = solve_self_consistent(req, P_03)
        real = solver._lapack()

        def failing_on_the_coarse_grid(d, *args):
            if d.size == sizes[0]:
                return _FAILING_LAPACK[routine](d, *args)
            return getattr(real, routine)(d, *args)

        stub = SimpleNamespace(dstebz=real.dstebz, dstein=real.dstein, dgtsv=real.dgtsv)
        setattr(stub, routine, failing_on_the_coarse_grid)
        proxy = CountingLapack(stub)
        monkeypatch.setattr(solver, "_lapack", lambda: proxy)
        state = solve_self_consistent(req, P_03)
        assert [args[0].size for name, args in proxy.calls if name == routine] == sizes
        abstol = [args[7] for name, args in proxy.calls if name == "dstebz"][-1]
        assert abstol == 0.0 if n_points == 2000 else abstol > 0.0
        assert state.e_prime == pytest.approx(warm.e_prime, rel=1e-12)
        assert state.iterations == warm.iterations


class TestSolveSelfConsistent:
    def test_matches_closed_form_after_extrapolation(self):
        ref = energy_level(P_03, 1, 0)
        e = {}
        for n_pts in (2000, 4000):
            state = solve_self_consistent(coulomb_request(P_03, 1, 0, n_pts), P_03)
            e[n_pts] = state.e_total
        extrap = richardson_extrapolate(e[2000], e[4000])
        assert abs(extrap - ref.e_total) / abs(ref.e_total) < 1e-6

    def test_state_bookkeeping(self):
        state = solve_self_consistent(coulomb_request(P_03, 3, 1, 1500), P_03)
        assert state.node_count == 1
        assert state.qn.n == 3 and state.qn.l == 1
        assert state.system_mass == pytest.approx(
            P_03.rest_mass + state.e_prime / P_03.c ** 2, rel=1e-14)
        assert state.iterations >= 2
        assert state.residual < 1e-12
        r, u = state.radial_samples
        assert r.shape == u.shape
        # physical normalization sum u^2 dr = 1
        assert np.sum(u ** 2) * (r[1] - r[0]) == pytest.approx(1.0, rel=1e-10)

    def test_schrodinger_needs_one_pass(self):
        req = SolveRequest(mode=SolveMode.SCHRODINGER,
                           potential=PotentialSpec.coulomb(), n=1, l=0,
                           grid=RadialGrid(15.0 * P_01.bohr_radius(), 2000))
        state, trace = solve_self_consistent(req, P_01, with_trace=True)
        assert state.iterations == 1
        assert state.residual == 0.0
        assert trace == []  # no mass feedback, nothing to record

    @pytest.mark.parametrize("n_points", [2000, 8000])
    @pytest.mark.parametrize("n, l", [(1, 0), (3, 0), (4, 3)])
    def test_schrodinger_returns_a_converged_pair(self, n_points, n, l):
        # the coarse start's one sweep only seeds; the one pair the mode
        # returns must still sit at the residual floor, as bisection's does
        potential = PotentialSpec.coulomb()
        grid = default_solver_grid(SolveMode.SCHRODINGER, potential, P_03, n, l,
                                   n_points=n_points)
        state = solve_self_consistent(
            SolveRequest(mode=SolveMode.SCHRODINGER, potential=potential, n=n, l=l, grid=grid),
            P_03)
        op = discretize_operator(
            SolveMode.SCHRODINGER, potential, P_03, P_03.rest_mass, l, grid)
        assert _converged(op, state.e_prime, state.radial_samples[1] * math.sqrt(grid.step))
        assert state.e_prime == pytest.approx(inner_eigensolve(op, n - l - 1)[0], rel=1e-12)

    @pytest.mark.parametrize("rest_mass, r_max", [(1e150, 5e81), (1e-300, 2e157)])
    def test_coarse_grid_out_of_float_range_leaves_the_status_to_the_fine_grid(
            self, rest_mass, r_max):
        # the coarse step is eight times the fine one, so A/h^2 can underflow
        # (first case) or h^2 overflow (second) on the coarse grid alone
        p = PhysicalParams(rest_mass=rest_mass)
        potential = PotentialSpec.coulomb()
        grid = RadialGrid(r_max, 2000)
        with pytest.raises(OverflowError):
            discretize_operator(SolveMode.SCHRODINGER, potential, p, rest_mass, 0,
                                RadialGrid(r_max, 2000 // 8))
        op = discretize_operator(SolveMode.SCHRODINGER, potential, p, rest_mass, 0, grid)
        req = SolveRequest(mode=SolveMode.SCHRODINGER, potential=potential, n=1, l=0, grid=grid)
        try:
            e_direct = inner_eigensolve(op, 0)[0]
        except StateNotFound:
            with pytest.raises(StateNotFound):
                solve_self_consistent(req, p)
        else:
            assert solve_self_consistent(req, p).e_prime == pytest.approx(e_direct, rel=1e-12)

    def test_trace_monotone_after_second_iteration(self):
        state, trace = solve_self_consistent(
            coulomb_request(P_03, 1, 0, 2000), P_03, with_trace=True)
        assert len(trace) == state.iterations
        assert all(b < a for a, b in zip(trace[1:], trace[2:]))

    def test_secant_update_iteration_count(self):
        # the damped plain fixed point took 11 iterations here
        state = solve_self_consistent(coulomb_request(P_03, 1, 0, 2000), P_03)
        assert state.iterations <= 6

    @pytest.mark.parametrize("mode, potential, za, n, l, n_points", [
        (SolveMode.KG_VECTOR, PotentialSpec.coulomb(), 0.3, 2, 0, 2000),
        # near the supercritical bound Zalpha = l + 1/2
        (SolveMode.KG_VECTOR, PotentialSpec.coulomb(), 0.45, 1, 0, 8000),
        (SolveMode.KG_VECTOR, PotentialSpec.coulomb(), 0.45, 2, 0, 8000),
        # large l, where the origin correction is r^s alone
        (SolveMode.KG_VECTOR, PotentialSpec.coulomb(), 0.3, 4, 3, 8000),
        (SolveMode.KG_SCALAR_VECTOR, PotentialSpec(CoulombPart(), HulthenPart(0.2)),
         0.3, 2, 0, 4000),
        # near unbinding: b = 4/lam puts n = 2 just inside
        (SolveMode.KG_EQUAL, PotentialSpec.equal_hulthen(0.9), 0.1, 2, 0, 8000),
        # bound on the fine grid only (tests/test_solver_reference.py)
        (SolveMode.KG_VECTOR, PotentialSpec.hulthen(1.8), 0.1, 1, 0, 2000),
        # a coarse grid of 25000 points
        (SolveMode.KG_VECTOR, PotentialSpec.coulomb(), 0.3, 2, 1, 200000),
    ], ids=["kg-vector-za0.3-20-2000", "kg-vector-za0.45-10-8000", "kg-vector-za0.45-20-8000",
            "kg-vector-za0.3-43-8000", "kg-scalar-vector-za0.3-20-4000",
            "kg-equal-hulthen-lam0.9-20-8000", "kg-vector-hulthen-lam1.8-10-2000",
            "kg-vector-za0.3-21-200000"])
    def test_cold_solves_give_the_same_state(self, monkeypatch, mode, potential, za, n, l,
                                             n_points):
        # the warm path (coarse start, Rayleigh-shifted refinement) against
        # bisection on the fine grid at every mass step
        p = PhysicalParams(alpha=za)
        grid = default_solver_grid(mode, potential, p, n, l, n_points=n_points)
        req = SolveRequest(mode=mode, potential=potential, n=n, l=l, grid=grid)
        warm = solve_self_consistent(req, p)
        for name in ("_refine_eigenpair", "_sweep"):
            monkeypatch.setattr(solver, name, lambda *args: None)
        cold = solve_self_consistent(req, p)
        assert warm.e_prime == pytest.approx(cold.e_prime, rel=1e-12)
        assert warm.iterations == cold.iterations

    def test_lapack_work_per_solve(self, monkeypatch):
        # criterion 1's states: a solve bisects only the coarsest grid of its
        # start, to a loose tolerance, and takes one tridiagonal solve onto
        # each finer grid of the start; every mass step costs one solve, and
        # the returned pair needs no more.  Without the coarse start the fine
        # grid is bisected to full precision.  The coarse tolerance,
        # A/r_max^2, does not grow with N, so on 200000 points the fine grid
        # is still never bisected
        proxy = CountingLapack(solver._lapack())
        monkeypatch.setattr(solver, "_lapack", lambda: proxy)
        states = [(za, n, l, n_points) for za in (0.05, 0.1, 0.2, 0.3)
                  for n in range(1, 5) for l in range(n) for n_points in (4000, 8000)]
        states += [(za, n, l, 200000) for za in (0.05, 0.3) for n, l in ((1, 0), (2, 1))]
        chains = {4000: [500], 8000: [125, 1000], 200000: [390, 3125, 25000]}
        # the one-sweep pair from 125 points fails the node check on 1000
        # points, so that grid re-seeds itself
        reseeded = {(0.05, 4, 0, 8000)}
        for coarse_start in (True, False):
            if not coarse_start:
                monkeypatch.setattr(solver, "_coarse_start", lambda *args: None)
            for za, n, l, n_points in states:
                p = PhysicalParams(alpha=za)
                proxy.calls.clear()
                state = solve_self_consistent(coulomb_request(p, n, l, n_points), p)
                case = (za, n, l, n_points, coarse_start)
                solves = [args[1].size for name, args in proxy.calls if name == "dgtsv"]
                bisections = [(args[0].size, args[7]) for name, args in proxy.calls
                              if name == "dstebz"]
                if coarse_start:
                    chain = chains[n_points]
                    assert solves == chain[1:] + [n_points] * state.iterations, case
                    seeded = chain[:2] if (za, n, l, n_points) in reseeded else chain[:1]
                    assert [size for size, _ in bisections] == seeded, case
                    assert all(abstol > 0.0 for _, abstol in bisections), case
                else:
                    assert solves == [n_points] * (state.iterations - 1), case
                    assert bisections == [(n_points, 0.0)], case

    @pytest.mark.parametrize("noisy_refinement", [False, True])
    def test_an_unconverged_last_mass_step_is_not_returned(self, monkeypatch, noisy_refinement):
        # a mass step is one sweep, which need not converge; the pair that
        # meets the mass tolerance must.  Noise on every mass step's vector
        # (its E' left exact) keeps that pair off the residual floor, so the
        # solve refines it first, and bisects the fine grid only when the
        # refinement's sweeps carry the noise too
        req = coulomb_request(P_03, 2, 0, 2000)
        warm = solve_self_consistent(req, P_03)
        sweep, refine = solver._sweep, solver._refine_eigenpair
        noise = 1e-7 * np.random.default_rng(1).standard_normal(2000)
        refining = []

        def noisy(*args):
            pair = sweep(*args)
            if pair is None or (refining and not noisy_refinement):
                return pair
            return pair[0], pair[1] + noise

        def recording(*args):
            proxy.calls.append(("refine", args))
            refining.append(True)
            try:
                return refine(*args)
            finally:
                refining.pop()

        proxy = CountingLapack(solver._lapack())
        monkeypatch.setattr(solver, "_lapack", lambda: proxy)
        monkeypatch.setattr(solver, "_sweep", noisy)
        monkeypatch.setattr(solver, "_refine_eigenpair", recording)
        state = solve_self_consistent(req, P_03)
        steps = [args[0].size if name == "dstebz" else name
                 for name, args in proxy.calls if name in ("dstebz", "dgtsv", "refine")]
        # the coarse grid is bisected once, each mass step is one sweep, and
        # only the last one's pair is refined
        last = steps.index("refine")
        assert steps[:last] == [2000 // 8] + ["dgtsv"] * state.iterations
        if noisy_refinement:
            assert steps[last:] == ["refine"] + ["dgtsv"] * solver._REFINE_SWEEPS + [2000]
        else:
            assert steps[last:] == ["refine", "dgtsv"]
        assert state.e_prime == pytest.approx(warm.e_prime, rel=1e-12)
        assert state.iterations == warm.iterations
        h = state.radial_samples[0][0]
        np.testing.assert_allclose(state.radial_samples[1] * math.sqrt(h),
                                   warm.radial_samples[1] * math.sqrt(h), atol=1e-9)

    @pytest.mark.parametrize("mode, potential, p", [
        (SolveMode.KG_VECTOR, PotentialSpec.coulomb(), P_03),
        (SolveMode.KG_SCALAR_VECTOR, PotentialSpec(CoulombPart(), HulthenPart(0.2)), P_03),
        (SolveMode.KG_EQUAL, PotentialSpec.equal_hulthen(0.2), P_01),
        (SolveMode.KG_EQUAL, PotentialSpec.equal_coulomb(), P_01),
    ], ids=["kg-vector-coulomb", "kg-scalar-vector-coulomb-hulthen", "kg-equal-hulthen",
            "kg-equal-coulomb"])
    @pytest.mark.parametrize("n, l", [(2, 1), (3, 2)])
    @pytest.mark.parametrize("mass", [1.0, 0.99])
    def test_energy_slope_is_the_discrete_derivative(self, mode, potential, p, n, l, mass):
        # Hellmann-Feynman on the discrete operator, against a central
        # difference of E'(m) at +-1e-6 m0; with l >= 1 there is no a1(m)
        # term, so the slope is exact
        grid = default_solver_grid(mode, potential, p, n, l, n_points=2000)
        m, dm = mass * p.rest_mass, 1e-6 * p.rest_mass

        def pair(m):
            return inner_eigensolve(discretize_operator(mode, potential, p, m, l, grid), n - l - 1)

        e, u = pair(m)
        slope = solver._energy_slope(potential, p, grid, m, e, u)
        difference = (pair(m + dm)[0] - pair(m - dm)[0]) / (2.0 * dm)
        assert slope == pytest.approx(difference, rel=1e-7)

    @pytest.mark.parametrize("mode, potential, za", [
        pytest.param(mode, pot(lam), 0.1, id=f"{mode.value}-hulthen-lam{lam}")
        for mode, pot in ((SolveMode.SCHRODINGER, PotentialSpec.hulthen),
                          (SolveMode.KG_VECTOR, PotentialSpec.hulthen),
                          (SolveMode.KG_SCALAR_VECTOR, PotentialSpec.equal_hulthen),
                          (SolveMode.KG_EQUAL, PotentialSpec.equal_hulthen))
        for lam in (0.2, 1.0, 1.8, 1.9)
    ] + [pytest.param(SolveMode.KG_VECTOR, PotentialSpec.coulomb(), za, id=f"kg-vector-za{za}")
         for za in (0.1, 0.3, 0.45, 0.499)])
    def test_a_solve_raises_no_numpy_warning(self, mode, potential, za):
        # the box of a shallow Hulthen state can reach lam r > 709, where
        # expm1 overflows in the vector part, in the operator and in the
        # first mass step's slope ((1,0) at lam 1.9 in kg-vector and
        # kg-scalar-vector); neither may warn
        p = PhysicalParams(alpha=za)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n, l in ((1, 0), (2, 0), (2, 1)):
                for n_points in (500, 1000, 2000, 8000):
                    grid = default_solver_grid(mode, potential, p, n, l, n_points=n_points)
                    req = SolveRequest(mode=mode, potential=potential, n=n, l=l, grid=grid)
                    try:
                        solve_self_consistent(req, p)
                    except StateNotFound:
                        pass

    def test_overtight_tolerance_converges_or_raises(self):
        req = coulomb_request(P_03, 1, 0, 2000, sc_tolerance=1e-15)
        try:
            state = solve_self_consistent(req, P_03)
        except NoConvergence:
            return
        assert state.residual <= 1e-15

    @pytest.mark.parametrize("n, n_points", [(5, 250), (6, 250), (4, 32), (6, 64)])
    def test_coarse_grid_states_solve_through_the_clip(self, n, n_points):
        # on the default box these grids put |a1| h at 1.7 and 2.4 (250
        # points) and 8-9 (32 and 64 points); unclipped, exp(+-a1 h) would
        # swamp the first diagonal entries (6x off at (6,0) on 64 points)
        req = coulomb_request(P_03, n, 0, n_points)
        _, a1 = origin_series(req.mode, req.potential, P_03, P_03.rest_mass, 0)
        assert abs(a1) * req.grid.step > 0.5
        state = solve_self_consistent(req, P_03)
        assert math.isfinite(state.e_prime)
        assert state.node_count == n - 1
        assert _count_sign_changes(state.radial_samples[1]) == n - 1
        assert state.residual < req.sc_tolerance

    def test_iteration_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_SC_ITERS", 1)
        with pytest.raises(NoConvergence, match="after 1 iterations"):
            solve_self_consistent(coulomb_request(P_03, 1, 0, 1000), P_03)


@pytest.mark.parametrize("mode, potential, p, n, l, n_points", [
    (SolveMode.KG_VECTOR, PotentialSpec.coulomb(), P_03, 2, 0, 2000),
    (SolveMode.KG_VECTOR, PotentialSpec.coulomb(), P_03, 2, 0, 8000),
    (SolveMode.KG_EQUAL, PotentialSpec.equal_hulthen(0.2), P_01, 2, 0, 2000),
], ids=["kg-vector-coulomb-2000", "kg-vector-coulomb-8000", "kg-equal-hulthen-2000"])
def test_solve_operators_match_discretize_operator(monkeypatch, mode, potential, p, n, l,
                                                   n_points):
    # every operator a solve builds, on the grids of its start and the fine
    # one, is what a fresh discretize_operator call gives, bit for bit: the
    # cached parts of the origin correction are the ones it would compute
    sizes = {2000: {2000, 250}, 8000: {8000, 1000, 125}}[n_points]
    grid = default_solver_grid(mode, potential, p, n, l, n_points=n_points)
    built = []
    original = solver.discretize_operator

    def recording(*args):
        op = original(*args)
        built.append((args, op))
        return op

    monkeypatch.setattr(solver, "discretize_operator", recording)
    solver._stencil_terms.cache_clear()
    state = solve_self_consistent(
        SolveRequest(mode=mode, potential=potential, n=n, l=l, grid=grid), p)
    assert {op.grid.n_points for _, op in built} == sizes
    assert len(built) == state.iterations + len(sizes) - 1
    # the ratio arrays are built once per grid, not once per mass step
    cache = solver._stencil_terms.cache_info()
    assert (cache.misses, cache.hits) == (len(sizes), len(built) - len(sizes))
    s, _ = origin_series(mode, potential, p, p.rest_mass, l)
    for array in solver._stencil_terms(s, n_points):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    for args, op in built:
        solver._stencil_terms.cache_clear()
        ref = original(*args)
        assert np.array_equal(op.diag, ref.diag)
        assert np.array_equal(op.offdiag, ref.offdiag)


def fsum_rayleigh_quotient(op, u):
    """The difference-form quotient summed exactly with math.fsum."""
    kin = -float(op.offdiag[0])
    v = op.diag - 2.0 * kin
    diff = np.diff(u)
    kinetic = kin * (
        float(u[0]) ** 2 + float(u[-1]) ** 2 + math.fsum((diff * diff).tolist()))
    potential = math.fsum((v * u * u).tolist())
    norm = math.fsum((u * u).tolist())
    return (kinetic + potential) / norm


class TestRayleighQuotient:
    @pytest.mark.parametrize("n_points,n,l", [
        (8000, 1, 0), (8000, 2, 0), (8000, 2, 1), (8000, 4, 3),
        (200000, 1, 0), (200000, 2, 1),
    ])
    def test_pairwise_sum_matches_exact_sum(self, n_points, n, l):
        req = coulomb_request(P_03, n, l, n_points)
        state = solve_self_consistent(req, P_03)
        op = discretize_operator(req.mode, req.potential, P_03, state.system_mass, l, req.grid)
        u = state.radial_samples[1] * math.sqrt(req.grid.step)
        exact = fsum_rayleigh_quotient(op, u)
        assert abs(solver._rayleigh_quotient(op, u) - exact) <= 1e-14 * abs(exact)

    def test_tight_tolerance_iteration_count(self):
        # the quotient must stay smooth in the mass down to ~1e-14, or the
        # secant steps stall before the residual reaches the tolerance (6
        # since the origin correction takes in exp(a1 r), 7 with r^s alone)
        state = solve_self_consistent(
            coulomb_request(P_03, 1, 0, 64000, sc_tolerance=1e-14), P_03)
        assert state.iterations == 6


def _hulthen_cases():
    for mode in (SolveMode.SCHRODINGER, SolveMode.KG_EQUAL):
        for za in (0.1, 0.3):
            for lam in (0.1, 0.3, 0.5, 0.9, 1.5):
                for n in (1, 2, 3):
                    marks = ()
                    if mode is SolveMode.KG_EQUAL and lam == 0.9 and n == 2:
                        # b/n^2 = 1.11: 8k/16k Richardson is off by 9.9e-6,
                        # an h^4 remainder of resolution (ROADMAP item 2)
                        marks = pytest.mark.xfail(strict=True, reason="resolution-limited")
                    yield pytest.param(mode, za, lam, n, marks=marks,
                                       id=f"{mode.value}-za{za}-lam{lam}-n{n}")


class TestEqualModeReduction:
    @pytest.mark.parametrize("mode, za, lam, n", _hulthen_cases())
    def test_hulthen_l0_against_the_oracle(self, mode, za, lam, n):
        # bound exactly where the oracle binds, and within 1e-7 there
        p = PhysicalParams(alpha=za)
        equal = mode is SolveMode.KG_EQUAL
        pot = PotentialSpec.equal_hulthen(lam) if equal else PotentialSpec.hulthen(lam)
        want = hulthen_level(p, lam, n, equal)
        try:
            got = convergence_study(SolveRequest(mode, pot, n, 0), p, (8000, 16000))
        except StateNotFound:
            assert want is None
        else:
            assert want is not None
            assert abs(got.best_estimate - want) <= 1e-7 * abs(want)

    def test_screened_ground_state_against_mapped_oracle(self):
        # fixed point of e'(m) with the analytic screened l=0 level at
        # doubled coupling and averaged mass
        lam = 0.2
        p = P_03
        e = {}
        for n_pts in (4000, 8000, 16000):
            grid_ref = default_solver_grid(
                SolveMode.KG_EQUAL, PotentialSpec.equal_hulthen(lam), p, 1, 0,
                n_points=n_pts)
            req = SolveRequest(mode=SolveMode.KG_EQUAL,
                               potential=PotentialSpec.equal_hulthen(lam),
                               n=1, l=0, grid=grid_ref)
            e[n_pts] = solve_self_consistent(req, p).e_prime

        e_new = hulthen_level(p, lam, 1, equal=True)
        lvl1a = richardson_extrapolate(e[4000], e[8000])
        lvl1b = richardson_extrapolate(e[8000], e[16000])
        extrap = richardson_extrapolate(lvl1a, lvl1b, order=4)
        assert abs(extrap - e_new) / abs(e_new) < 1e-8


    @pytest.mark.parametrize("za", [0.1, 0.3, 0.6])
    def test_coulomb_against_closed_form(self, za):
        # kg-equal Coulomb is Schrodinger with mass (m0+m)/2 and coupling
        # 2 Z alpha, so E' = -(m0+m) (Z alpha c / n)^2; with m = m0 + E'/c^2
        # that gives m = m0 (n^2 - Z^2 alpha^2)/(n^2 + Z^2 alpha^2)
        p = PhysicalParams(alpha=za)
        za2 = p.z_alpha ** 2
        for n, l in ((1, 0), (2, 0), (2, 1), (3, 2), (4, 0)):
            m = p.rest_mass * (n * n - za2) / (n * n + za2)
            closed = (m - p.rest_mass) * p.c ** 2
            req = SolveRequest(mode=SolveMode.KG_EQUAL,
                               potential=PotentialSpec.equal_coulomb(), n=n, l=l)
            study = convergence_study(req, p, (2000, 4000, 8000))
            assert abs(study.best_estimate - closed) <= 1e-7 * abs(closed), (n, l)
            assert all(1.95 < o < 2.05 for o in study.observed_orders), (n, l)

class TestGridsAndStudies:
    def test_default_coulomb_box(self):
        grid = default_solver_grid(
            SolveMode.KG_VECTOR, PotentialSpec.coulomb(), P_03, 2, 0)
        r_max = grid.points[-1] + grid.step
        assert r_max == pytest.approx(
            15.0 * 4 * P_03.bohr_radius() / P_03.z_number, rel=1e-12)

    def test_rmax_override(self):
        grid = default_solver_grid(
            SolveMode.KG_VECTOR, PotentialSpec.coulomb(), P_03, 1, 0,
            n_points=500, r_max=77.0)
        assert grid.points[-1] + grid.step == pytest.approx(77.0, rel=1e-12)
        assert grid.n_points == 500

    def test_invalid_state_rejected_before_sizing(self):
        for pot in (PotentialSpec.coulomb(), PotentialSpec.hulthen(0.2)):
            for n, l in ((0, 0), (1, 1), (2, -1)):
                with pytest.raises(InvalidQuantumNumbers):
                    default_solver_grid(SolveMode.KG_VECTOR, pot, P_03, n, l)

    def test_screened_box_scales_inversely_with_lam(self):
        g1 = default_solver_grid(
            SolveMode.KG_VECTOR, PotentialSpec.hulthen(0.1), P_03, 1, 0)
        g2 = default_solver_grid(
            SolveMode.KG_VECTOR, PotentialSpec.hulthen(0.2), P_03, 1, 0)
        assert g1.points[-1] > g2.points[-1]

    def test_richardson_exact_on_model_data(self):
        # data with a pure h^2 error must extrapolate to the exact value
        exact = -0.123456
        def model(h):
            return exact + 0.37 * h ** 2
        got = richardson_extrapolate(model(0.2), model(0.1))
        assert got == pytest.approx(exact, rel=1e-12)
        got4 = richardson_extrapolate(
            exact + 0.1 * 0.2 ** 4, exact + 0.1 * 0.1 ** 4, order=4)
        assert got4 == pytest.approx(exact, rel=1e-12)

    def test_convergence_study_orders(self):
        req = SolveRequest(mode=SolveMode.KG_VECTOR,
                           potential=PotentialSpec.coulomb(), n=1, l=0)
        study = convergence_study(req, P_01, (500, 1000, 2000))
        assert len(study.rows) == 3
        assert 1.7 < study.observed_orders[-1] < 2.3
        ref = energy_level(P_01, 1, 0).e_prime
        assert study.rows[0][2] is None  # nothing to extrapolate yet
        coarse_err = abs(study.rows[0][1] - ref)
        best_err = abs(study.best_estimate - ref)
        assert best_err < 0.05 * coarse_err

    @pytest.mark.parametrize("za, lam, n", [
        (0.2, 0.1, 1), (0.2, 0.1, 2), (0.2, 0.3, 1), (0.2, 0.3, 2), (0.3, 0.1, 2), (0.3, 0.3, 2),
    ])
    def test_hulthen_l0_converges_at_second_order(self, za, lam, n):
        # with r^s alone these read 1.53-1.85
        req = SolveRequest(mode=SolveMode.KG_VECTOR, potential=PotentialSpec.hulthen(lam),
                           n=n, l=0)
        study = convergence_study(req, PhysicalParams(alpha=za), (1000, 2000, 4000, 8000))
        for order in study.observed_orders:
            assert order == pytest.approx(2.0, abs=0.05)

    @pytest.mark.parametrize("lam", [0.1, 0.3])
    def test_hulthen_nodeless_l0_order_at_03(self, lam):
        # an h^(2s) term left at the origin shows first where the h^2 term
        # is small, as in a nodeless state (1.65-1.72 with r^s alone)
        req = SolveRequest(mode=SolveMode.KG_VECTOR, potential=PotentialSpec.hulthen(lam),
                           n=1, l=0)
        study = convergence_study(req, P_03, (1000, 2000, 4000, 8000))
        for order in study.observed_orders:
            assert 1.88 < order < 2.05

    @pytest.mark.parametrize("p, n, grid, sc_tolerance, sizes", [
        (P_03, 1, RadialGrid(100.0, 2000), 1e-9, (500, 1000, 2000)),
        (PhysicalParams(z_number=0.3, alpha=0.3), 3, None, 1e-12, (100, 200, 400)),
        (P_03, 8, None, 1e-12, (2000, 4000, 8000)),
    ], ids=["za0.3-1-rmax100", "z0.3-alpha0.3-3-100", "za0.3-8-2000"])
    def test_convergence_study_keeps_the_box_and_the_request(self, p, n, grid, sc_tolerance,
                                                             sizes):
        # (100, 2000) is a box that points[-1] + step misses by an ulp.  On
        # the default boxes of the other two, |a1| h falls from 1.0 to 0.25
        # and from 0.65 to 0.16 over the study, and each grid is corrected
        # on its own step (1.78 and 1.19 with r^s alone)
        req = SolveRequest(mode=SolveMode.KG_VECTOR, potential=PotentialSpec.coulomb(),
                           n=n, l=0, grid=grid, sc_tolerance=sc_tolerance)
        study = convergence_study(req, p, sizes)
        if grid is not None:
            assert study.r_max == grid.r_max
        for n_pts, e_prime, _ in study.rows:
            grid = RadialGrid(study.r_max, n_pts)
            assert e_prime == solve_self_consistent(replace(req, grid=grid), p).e_prime
        assert 1.8 < study.observed_orders[0] < 2.1

    def test_two_grid_study_is_the_richardson_pair(self):
        # (6,0) at 0.3 on 1000 and 2000 points (|a1| h = 0.60 and 0.30): two
        # independent solves, and the extrapolant is richardson_extrapolate's
        req = SolveRequest(mode=SolveMode.KG_VECTOR, potential=PotentialSpec.coulomb(), n=6, l=0)
        study = convergence_study(req, P_03, (2000, 1000))
        coarse, fine = (RadialGrid(study.r_max, size) for size in (1000, 2000))
        e_coarse, e_fine = (
            solve_self_consistent(replace(req, grid=grid), P_03).e_prime for grid in (coarse, fine)
        )
        assert study.rows[0] == (1000, e_coarse, None)
        assert study.rows[1] == (
            2000, e_fine, richardson_extrapolate(e_coarse, e_fine, coarse.step / fine.step))
        assert study.observed_orders == ()
        assert study.best_estimate == study.rows[1][2]

    @pytest.mark.parametrize("n, sizes", [(5, (500, 1000)), (6, (1000, 2000))])
    def test_independent_solves_extrapolate_as_one_discretization(self, n, sizes):
        # a pair of solves on default grids, extrapolated as a caller that
        # never builds a study does: each grid's operator follows from its
        # own step alone, so the pair cannot mix two corrections (8.4e-2
        # and 4.4e-2 when a step switched r^s exp(a1 r) to r^s alone)
        req = SolveRequest(mode=SolveMode.KG_VECTOR, potential=PotentialSpec.coulomb(), n=n, l=0)
        grids = [default_solver_grid(req.mode, req.potential, P_03, n, 0, n_points=size)
                 for size in sizes]
        e_coarse, e_fine = (
            solve_self_consistent(replace(req, grid=grid), P_03).e_prime for grid in grids)
        exact = energy_level(P_03, n, 0).e_prime
        extrapolated = richardson_extrapolate(e_coarse, e_fine, grids[0].step / grids[1].step)
        assert abs(extrapolated - exact) <= 1e-4 * abs(exact)

    def test_convergence_study_validation(self):
        req = SolveRequest(mode=SolveMode.KG_VECTOR,
                           potential=PotentialSpec.coulomb(), n=1, l=0)
        with pytest.raises(ValueError):
            convergence_study(req, P_01, (500,))
        with pytest.raises(ValueError):
            convergence_study(req, P_01, (500, 500, 1000))
