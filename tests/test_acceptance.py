"""Acceptance suite: one test per numbered criterion.

Each test prints a single "[criterion k] PASS/FAIL - detail" line (run
pytest with -s to see them all) and then enforces the stated tolerance
and runtime budget with plain asserts, so a red test and a FAIL line
always agree.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from kgbound.core import PhysicalParams, PotentialSpec
from kgbound.coulomb import (
    energy_expansion,
    energy_level,
    sigma_closed,
    sigma_series,
    system_mass,
)
from kgbound.errors import NoConvergence
from kgbound.lorentz import (
    BoostSpec,
    CharacterState,
    boost_backward,
    boost_event,
    boost_forward,
    invariant_mass_sq,
)
from kgbound.solver import (
    SolveMode,
    SolveRequest,
    default_solver_grid,
    discretize_operator,
    effective_radial_equation,
    richardson_extrapolate,
    solve_self_consistent,
)
from kgbound.special import laguerre_classical, laguerre_rel
from kgbound.wavefunction import (
    SeparableField,
    build_radial,
    continuity_check,
    count_radial_nodes,
    current_check_grid,
    divergence_field,
    probability_current,
    radial_ode_residual,
    reference_residual_grid,
    sample_state,
)
from hulthen_oracle import hulthen_level

COUPLINGS = (0.05, 0.1, 0.2, 0.3)


def report(k: int, ok: bool, detail: str) -> None:
    print(f"[criterion {k}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def coulomb_sweep():
    """Vector-mode Coulomb sweep on paired grids; criteria 1 and 9 read it."""
    t0 = time.perf_counter()
    cases = []
    for za in COUPLINGS:
        p = PhysicalParams(alpha=za)
        for n in range(1, 5):
            for l in range(n):
                ref = energy_level(p, n, l)
                solved = []
                for n_pts in (4000, 8000):
                    grid = default_solver_grid(
                        SolveMode.KG_VECTOR, PotentialSpec.coulomb(), p, n, l,
                        n_points=n_pts)
                    req = SolveRequest(
                        mode=SolveMode.KG_VECTOR,
                        potential=PotentialSpec.coulomb(),
                        n=n, l=l, grid=grid)
                    state, trace = solve_self_consistent(req, p, with_trace=True)
                    solved.append((state, trace))
                # same box on both grids, so the step ratio is (N+1) based
                e_rich = richardson_extrapolate(
                    solved[0][0].e_prime, solved[1][0].e_prime,
                    step_ratio=8001.0 / 4001.0)
                cases.append({
                    "za": za, "n": n, "l": l, "rest": p.rest_energy,
                    "ref": ref, "e_rich": e_rich, "solved": solved,
                })
    return {"cases": cases, "elapsed": time.perf_counter() - t0}


def test_criterion_1_closed_form_vs_numerical(coulomb_sweep):
    worst, at = 0.0, None
    for c in coulomb_sweep["cases"]:
        e_num = c["rest"] + c["e_rich"]
        rel = abs(e_num - c["ref"].e_total) / abs(c["ref"].e_total)
        if rel > worst:
            worst, at = rel, (c["za"], c["n"], c["l"])
    elapsed = coulomb_sweep["elapsed"]
    ok = worst <= 1e-6 and elapsed < 60.0
    report(1, ok, f"max rel err {worst:.3e} at (Zalpha, n, l) = {at}; "
                  f"sweep {elapsed:.1f}s of 60s")
    assert worst <= 1e-6
    assert elapsed < 60.0


def test_criterion_2_expansion_envelope():
    t0 = time.perf_counter()
    violations = []
    min_margin, at = math.inf, None
    for za in (0.01, 0.02, 0.05, 0.1):
        p = PhysicalParams(alpha=za)
        bound = 10.0 * za ** 6 * p.rest_energy
        for n in range(1, 5):
            for l in range(n):
                gap = abs(energy_level(p, n, l).e_total
                          - energy_expansion(p, n, l))
                if gap > bound:
                    violations.append((za, n, l, gap, bound))
                margin = bound / gap if gap > 0.0 else math.inf
                if margin < min_margin:
                    min_margin, at = margin, (za, n, l)
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 1.0
    report(2, ok, f"min envelope margin {min_margin:.1f}x at "
                  f"(Zalpha, n, l) = {at}; {elapsed:.2f}s of 1s")
    assert not violations
    assert elapsed < 1.0


def test_criterion_3_defect_series_tolerance():
    t0 = time.perf_counter()
    worst, at = 0.0, None
    for za in COUPLINGS:
        p = PhysicalParams(alpha=za)
        for l in range(4):
            gap = abs(sigma_series(p, l, 20).sigma_l
                      - sigma_closed(p, l).sigma_l)
            if gap > worst:
                worst, at = gap, (za, l)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-13 and elapsed < 1.0
    report(3, ok, f"worst |partial sum - closed| = {worst:.4e} at "
                  f"(Zalpha, l) = {at}, tolerance 1e-13; {elapsed:.2f}s of 1s")
    # the k = 20 truncation genuinely leaves ~1.1e-12 on the table at
    # Zalpha = 0.3, l = 0; see README for why this stays red
    assert worst <= 1e-13
    assert elapsed < 1.0


def test_criterion_4_nonrelativistic_limit():
    t0 = time.perf_counter()
    p = PhysicalParams(alpha=1e-3)
    worst_e = 0.0
    for n in range(1, 5):
        for l in range(n):
            schro = -p.z_alpha ** 2 * p.rest_energy / (2.0 * n ** 2)
            worst_e = max(
                worst_e,
                abs(energy_level(p, n, l).e_prime - schro) / abs(schro))
    bound_e = 5.0 * p.z_alpha ** 2

    p6 = PhysicalParams(alpha=1e-6)
    worst_c = 0.0
    for n in range(1, 7):
        for l in range(n):
            rel_c = laguerre_rel(p6, n, l)
            cla = laguerre_classical(n, l)
            worst_c = max(
                worst_c, np.abs(rel_c - cla).max() / np.abs(cla).max())
    elapsed = time.perf_counter() - t0
    ok = worst_e < bound_e and worst_c < 1e-9 and elapsed < 5.0
    report(4, ok, f"energy rel dev {worst_e:.3e} (< {bound_e:.1e}); "
                  f"coefficient dev {worst_c:.3e} (< 1e-9); "
                  f"{elapsed:.2f}s of 5s")
    assert worst_e < bound_e
    assert worst_c < 1e-9
    assert elapsed < 5.0


def test_criterion_5_wavefunction_quality():
    t0 = time.perf_counter()
    p = PhysicalParams(alpha=0.3)
    worst_norm = 0.0
    worst_resid = 0.0
    node_fail = []
    for n in range(1, 7):
        for l in range(n):
            R = build_radial(p, n, l)
            r = np.geomspace(1e-7 / R.rho_scale, R.tail_radius(1e-13), 400_000)
            integ = np.trapezoid((r * R.evaluate(r)) ** 2, r)
            worst_norm = max(worst_norm, abs(integ - 1.0))
            if count_radial_nodes(R) != n - l - 1:
                node_fail.append((n, l))
            worst_resid = max(
                worst_resid,
                radial_ode_residual(R, p, reference_residual_grid(R)))
    elapsed = time.perf_counter() - t0
    ok = (worst_norm <= 1e-8 and not node_fail and worst_resid < 1e-6
          and elapsed < 30.0)
    report(5, ok, f"norm defect {worst_norm:.2e} (<= 1e-8); node counts "
                  f"{'all n-l-1' if not node_fail else node_fail}; "
                  f"radial-equation residual {worst_resid:.2e} (< 1e-6); "
                  f"{elapsed:.1f}s of 30s")
    assert worst_norm <= 1e-8
    assert not node_fail
    assert worst_resid < 1e-6
    assert elapsed < 30.0


def test_criterion_6_probability_current():
    t0 = time.perf_counter()
    p = PhysicalParams(alpha=0.3)

    zero_ok = True
    for n, l in ((1, 0), (2, 1), (3, 2)):
        R = build_radial(p, n, l)
        grid = current_check_grid(R, n_r=60, n_theta=24, n_phi=24)
        J = probability_current(
            sample_state(p, R, 0, grid), grid, p, system_mass(p, n, l))
        if any(comp.any() for comp in J):
            zero_ok = False

    R = build_radial(p, 2, 1)
    m_sys = system_mass(p, 2, 1)
    resolutions = ((100, 32, 32), (200, 64, 64), (400, 128, 128))

    floors = []
    for n_r, n_t, n_p in resolutions:
        grid = current_check_grid(R, n_r=n_r, n_theta=n_t, n_phi=n_p)
        J = probability_current(sample_state(p, R, 1, grid), grid, p, m_sys)
        floors.append(continuity_check(J, grid) / np.abs(J[2]).max())
    floor_ok = all(f < 1e-8 for f in floors)

    # The eigenstate divergence is already at rounding level on the
    # coarsest grid (its exact value is zero and the sampled current is
    # phi-independent), so the second-order property is demonstrated on a
    # control field with a broken phase and a nonzero analytic divergence.
    pref = 2.0 * p.hbar / (p.rest_mass + m_sys)
    residuals = []
    for n_r, n_t, n_p in resolutions:
        grid = current_check_grid(R, n_r=n_r, n_theta=n_t, n_phi=n_p)
        psi = SeparableField(
            R.evaluate(grid.r),
            np.sin(grid.theta)[:, None] * np.exp(1j * np.sin(grid.phi))[None, :])
        J = probability_current(psi, grid, p, m_sys)
        div_num = divergence_field(J, grid)
        div_exact = (-pref
                     * R.evaluate(grid.r)[2:-2, None, None] ** 2
                     * np.sin(grid.phi)[None, None, :]
                     / grid.r[2:-2, None, None] ** 2)
        residuals.append(
            np.abs(div_num - div_exact).max() / np.abs(J[2]).max())
    orders = [math.log2(a / b) for a, b in zip(residuals, residuals[1:])]
    order_ok = (residuals[0] > residuals[1] > residuals[2]
                and all(1.7 < o < 2.3 for o in orders))
    elapsed = time.perf_counter() - t0
    ok = zero_ok and floor_ok and order_ok and elapsed < 30.0
    report(6, ok, f"m=0 currents exactly zero: {zero_ok}; (2,1,1) "
                  f"divergence at most {max(floors):.2e} of the current "
                  f"scale on all grids (< 1e-8); control-field orders "
                  f"{orders[0]:.2f}, {orders[1]:.2f}; {elapsed:.1f}s of 30s")
    assert zero_ok
    assert floor_ok
    assert order_ok
    assert elapsed < 30.0


def test_criterion_7_equal_mode_reduction():
    t0 = time.perf_counter()
    p = PhysicalParams(alpha=0.3)

    pot = PotentialSpec.equal_hulthen(0.2)
    state = solve_self_consistent(
        SolveRequest(mode=SolveMode.KG_EQUAL, potential=pot, n=1, l=0), p)
    m = state.system_mass
    grid = default_solver_grid(SolveMode.KG_EQUAL, pot, p, 1, 0)
    A_eq, _ = effective_radial_equation(SolveMode.KG_EQUAL, pot, p, m, 0)
    op_eq = discretize_operator(SolveMode.KG_EQUAL, pot, p, m, 0, grid)

    class DoubledPart:
        # 2U with U frozen at the original parameter set: the screening
        # range is stated in the original mass's length unit
        def __init__(self, inner, params):
            self.inner = inner
            self.params = params

        def evaluate(self, r, _params):
            return 2.0 * self.inner.evaluate(r, self.params)

        def origin_coefficients(self, _params):
            c_1, c_0 = self.inner.origin_coefficients(self.params)
            return 2.0 * c_1, 2.0 * c_0

    p_half = replace(p, rest_mass=0.5 * (p.rest_mass + m))
    pot_s = PotentialSpec(DoubledPart(pot.vector_part, p), None)
    A_s, _ = effective_radial_equation(
        SolveMode.SCHRODINGER, pot_s, p_half, p_half.rest_mass, 0)
    op_s = discretize_operator(SolveMode.SCHRODINGER, pot_s, p_half, p_half.rest_mass, 0, grid)
    entry_exact = (A_eq == A_s
                   and np.array_equal(op_eq.diag, op_s.diag)
                   and np.array_equal(op_eq.offdiag, op_s.offdiag))

    worst = 0.0
    for lam in (0.1, 0.2, 0.5):
        pot = PotentialSpec.equal_hulthen(lam)
        e = {}
        for n_pts in (8000, 16000, 32000):
            g = default_solver_grid(
                SolveMode.KG_EQUAL, pot, p, 1, 0, n_points=n_pts)
            e[n_pts] = solve_self_consistent(
                SolveRequest(mode=SolveMode.KG_EQUAL, potential=pot,
                             n=1, l=0, grid=g), p).e_prime
        # analytic screened l=0 level at doubled coupling and averaged
        # mass, iterated to its own mass fixed point
        e_new = hulthen_level(p, lam, 1, equal=True)
        lvl1a = richardson_extrapolate(e[8000], e[16000])
        lvl1b = richardson_extrapolate(e[16000], e[32000])
        extrap = richardson_extrapolate(lvl1a, lvl1b, order=4)
        worst = max(worst, abs(extrap - e_new) / abs(e_new))
    elapsed = time.perf_counter() - t0
    ok = entry_exact and worst <= 1e-8 and elapsed < 30.0
    report(7, ok, f"operator entry-exact: {entry_exact}; worst screened "
                  f"oracle rel err {worst:.3e} (<= 1e-8); "
                  f"{elapsed:.1f}s of 30s")
    assert entry_exact
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_8_lorentz_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250821)
    n_states = 10_000
    e = rng.uniform(-10.0, 10.0, n_states)
    mom = rng.uniform(-10.0, 10.0, (n_states, 3))
    u = rng.uniform(-5.0, 5.0, n_states)
    v = rng.uniform(-0.99, 0.99, n_states)
    worst_rt = 0.0
    worst_inv = 0.0
    for i in range(n_states):
        s = CharacterState(e_total=e[i], p=tuple(mom[i]), u_potential=u[i])
        b = BoostSpec(v=v[i])
        out = boost_forward(s, b)
        back = boost_backward(out, b, u=s.u_potential)
        scale = max(1.0, abs(e[i]), float(np.abs(mom[i]).max()), abs(u[i]))
        worst_rt = max(
            worst_rt,
            abs(back.e_total - s.e_total) / scale,
            max(abs(back.p[k] - s.p[k]) for k in range(3)) / scale)
        worst_inv = max(
            worst_inv,
            abs(invariant_mass_sq(out) - invariant_mass_sq(s)) / scale ** 2)

    # free particle: E t - p.r is the same number in both frames
    n_phase = 1000
    m_rest = rng.uniform(0.5, 3.0, n_phase)
    pvec = rng.uniform(-5.0, 5.0, (n_phase, 3))
    tt = rng.uniform(-3.0, 3.0, n_phase)
    xx = rng.uniform(-5.0, 5.0, (n_phase, 3))
    vv = rng.uniform(-0.99, 0.99, n_phase)
    worst_ph = 0.0
    for i in range(n_phase):
        e_on = math.sqrt(m_rest[i] ** 2 + float(pvec[i] @ pvec[i]))
        s = CharacterState(e_total=e_on, p=tuple(pvec[i]))
        b = BoostSpec(v=vv[i])
        out = boost_forward(s, b)
        tp, rp = boost_event(tt[i], tuple(xx[i]), b)
        ph0 = e_on * tt[i] - float(pvec[i] @ xx[i])
        ph1 = out.e_total * tp - sum(out.p[k] * rp[k] for k in range(3))
        scale = max(1.0, abs(e_on * tt[i]), abs(float(pvec[i] @ xx[i])),
                    abs(out.e_total * tp))
        worst_ph = max(worst_ph, abs(ph1 - ph0) / scale)
    elapsed = time.perf_counter() - t0
    ok = (worst_rt <= 1e-12 and worst_inv <= 1e-12 and worst_ph <= 1e-12
          and elapsed < 5.0)
    report(8, ok, f"roundtrip {worst_rt:.2e}, invariant drift "
                  f"{worst_inv:.2e}, phase drift {worst_ph:.2e} over "
                  f"{n_states} states (all <= 1e-12); {elapsed:.1f}s of 5s")
    assert worst_rt <= 1e-12
    assert worst_inv <= 1e-12
    assert worst_ph <= 1e-12
    assert elapsed < 5.0


def test_criterion_9_self_consistency_robustness(coulomb_sweep):
    worst_iters = 0
    monotone_fail = []
    for c in coulomb_sweep["cases"]:
        for state, trace in c["solved"]:
            worst_iters = max(worst_iters, state.iterations)
            if len(trace) != state.iterations or not all(
                    b < a for a, b in zip(trace[1:], trace[2:])):
                monotone_fail.append((c["za"], c["n"], c["l"]))
    p = PhysicalParams(alpha=0.3)
    grid = default_solver_grid(
        SolveMode.KG_VECTOR, PotentialSpec.coulomb(), p, 1, 0, n_points=2000)
    req = SolveRequest(mode=SolveMode.KG_VECTOR,
                       potential=PotentialSpec.coulomb(),
                       n=1, l=0, grid=grid, sc_tolerance=1e-15)
    try:
        state = solve_self_consistent(req, p)
        tight_ok = state.residual <= 1e-15
        tight = f"converged with residual {state.residual:.1e}"
    except NoConvergence:
        tight_ok = True
        tight = "reported NoConvergence"
    ok = worst_iters <= 30 and not monotone_fail and tight_ok
    report(9, ok, f"max iterations {worst_iters} (<= 30); residual "
                  f"monotone after iteration 2 in all "
                  f"{2 * len(coulomb_sweep['cases'])} solves: "
                  f"{not monotone_fail}; 1e-15 tolerance {tight}")
    assert worst_iters <= 30
    assert not monotone_fail
    assert tight_ok
