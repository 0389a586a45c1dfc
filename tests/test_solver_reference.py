"""Differential tests: the solver against reference copies of earlier paths.

The reference below is the solver as it was before the hot-path rewrite:
each iteration scans the lowest node_target + 4 eigenpairs for the one
with the right node count, and the mass follows the plain fixed point
m <- m0 + E'(m)/c^2, halving the step whenever the residual fails to
shrink.  The current solver finds one pair by index, refines it by
inverse iteration and updates the mass by secant steps; both must land on
the same state with the same status, including near the supercritical
bound, near Hulthen unbinding and at large n.

On grids of 1000 points or more the first eigenpair comes from a grid
eight times coarser, itself started that way from 1000 points up, so only
the coarsest grid is bisected, to the box scale, and each finer one takes
one sweep; over the same cases at N = 4000 that start must give what a
direct first eigensolve gives, a state the coarse grid does not bind must
still be found on the fine one, and a state bound on no grid must cost no
more bisections of the fine grids than before.
"""
import collections
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from kgbound import solver
from kgbound.core import PhysicalParams, PotentialSpec, QuantumNumbers, validate_params
from kgbound.errors import NoConvergence, StateNotFound, UnsupportedCombination
from kgbound.solver import (
    SolveMode,
    SolveRequest,
    _check_combination,
    _count_sign_changes,
    _rayleigh_quotient,
    default_solver_grid,
    discretize_operator,
    inner_eigensolve,
    solve_self_consistent,
)

N_POINTS = 1000


def reference_eigensolve(op, node_target):
    n = op.diag.size
    want = min(node_target + 4, n)
    vals, vecs = eigh_tridiagonal(op.diag, op.offdiag, select="i", select_range=(0, want - 1))
    for idx in range(vals.size):
        u = vecs[:, idx]
        if _count_sign_changes(u) != node_target:
            continue
        if vals[idx] >= 0.0:
            raise StateNotFound(f"the state with {node_target} nodes is not bound")
        u = u / math.sqrt(float(np.sum(u ** 2)))
        first = np.flatnonzero(np.abs(u) > 1e-9 * np.abs(u).max())[0]
        if u[first] < 0:
            u = -u
        return _rayleigh_quotient(op, u), u
    raise StateNotFound(f"no eigenvector with {node_target} nodes among the lowest {want}")


def reference_solve(req, p):
    """(E', iterations) by the damped fixed point."""
    qn = QuantumNumbers(n=req.n, l=req.l)
    _check_combination(req.mode, req.potential)
    if req.mode in (SolveMode.KG_VECTOR, SolveMode.KG_SCALAR_VECTOR) and (
        req.potential.vector_part is not None
    ):
        validate_params(p, qn)
    m = p.rest_mass
    prev_resid = math.inf
    max_iters = 1 if req.mode is SolveMode.SCHRODINGER else solver._MAX_SC_ITERS
    for k in range(1, max_iters + 1):
        op = discretize_operator(req.mode, req.potential, p, m, req.l, req.grid)
        e, _ = reference_eigensolve(op, qn.radial_nodes)
        if req.mode is SolveMode.SCHRODINGER:
            return e, k
        m_new = p.rest_mass + e / p.c ** 2
        residual = abs(m_new - m) / p.rest_mass
        if residual < req.sc_tolerance:
            return e, k
        if k >= 2 and residual >= prev_resid:
            m = m + 0.5 * (m_new - m)
        else:
            m = m_new
        prev_resid = residual
    raise NoConvergence("reference fixed point did not converge")


POTENTIALS = {
    "coulomb": PotentialSpec.coulomb,
    "hulthen": PotentialSpec.hulthen,
    "equal-coulomb": PotentialSpec.equal_coulomb,
    "equal-hulthen": PotentialSpec.equal_hulthen,
    "free": PotentialSpec,
}


def build(name, lam):
    return POTENTIALS[name](lam) if name.endswith("hulthen") else POTENTIALS[name]()


def cases():
    # every mode/potential pair the CLI accepts, at a strong coupling
    for mode in SolveMode:
        for pot in POTENTIALS:
            for n, l in ((1, 0), (2, 0), (2, 1), (3, 1)):
                yield mode, pot, 0.2, 0.3, n, l
    # Zalpha close to the l = 0 supercritical bound 1/2
    for za in (0.45, 0.49):
        for n in (1, 2, 3):
            yield SolveMode.KG_VECTOR, "coulomb", 0.2, za, n, 0
    # Hulthen states just bound and just unbound: n = 2 unbinds at lam = 0.5
    # in the single-strength modes and n = 2, 3 at lam = 1, 4/9 in kg-equal
    for lam in (0.45, 0.55, 0.9):
        for mode, pot in (
            (SolveMode.SCHRODINGER, "hulthen"),
            (SolveMode.KG_VECTOR, "hulthen"),
            (SolveMode.KG_SCALAR_VECTOR, "equal-hulthen"),
            (SolveMode.KG_EQUAL, "equal-hulthen"),
        ):
            for n, l in ((1, 0), (2, 0), (2, 1), (3, 0)):
                yield mode, pot, lam, 0.1, n, l
    # large n
    for za in (0.1, 0.3):
        for l in (0, 4, 7):
            yield SolveMode.KG_VECTOR, "coulomb", 0.2, za, 8, l


CASES = list(cases())


def outcome(solve):
    try:
        return "ok", solve()
    except (StateNotFound, UnsupportedCombination) as exc:
        return type(exc).__name__, None


@pytest.mark.parametrize(
    "mode,pot,lam,za,n,l",
    CASES,
    ids=[f"{c[0].value}-{c[1]}-lam{c[2]}-za{c[3]}-{c[4]}{c[5]}" for c in CASES],
)
def test_matches_reference_path(mode, pot, lam, za, n, l):
    p = PhysicalParams(alpha=za)
    potential = build(pot, lam)
    grid = default_solver_grid(mode, potential, p, n, l, n_points=N_POINTS)
    req = SolveRequest(mode=mode, potential=potential, n=n, l=l, grid=grid)
    ref_status, ref = outcome(lambda: reference_solve(req, p))
    status, got = outcome(lambda: solve_self_consistent(req, p, with_trace=True))
    assert status == ref_status
    if status != "ok":
        return
    e_ref, iters_ref = ref
    state, trace = got
    assert abs(state.e_prime - e_ref) <= 1e-10 * abs(e_ref)
    assert len(trace) == (0 if mode is SolveMode.SCHRODINGER else state.iterations)
    assert all(b < a for a, b in zip(trace[1:], trace[2:]))
    assert state.iterations <= iters_ref


COARSE_START_N = 4000
# The coarse start gives one sweep's pair, not a converged one, so the
# Newton first mass step from it may land further from the fixed point:
# these cases take one iteration more than the direct first solve, every
# other case as many.
ONE_MORE_ITERATION = {
    (SolveMode.KG_VECTOR, "coulomb", 0.2, 0.1, 8, 7),
    (SolveMode.KG_SCALAR_VECTOR, "equal-hulthen", 0.2, 0.3, 3, 1),
    (SolveMode.KG_SCALAR_VECTOR, "equal-hulthen", 0.45, 0.1, 2, 1),
    (SolveMode.KG_SCALAR_VECTOR, "equal-hulthen", 0.55, 0.1, 2, 1),
}


@pytest.mark.parametrize(
    "mode,pot,lam,za,n,l",
    CASES,
    ids=[f"{c[0].value}-{c[1]}-lam{c[2]}-za{c[3]}-{c[4]}{c[5]}" for c in CASES],
)
def test_coarse_start_matches_direct_first_solve(monkeypatch, mode, pot, lam, za, n, l):
    p = PhysicalParams(alpha=za)
    potential = build(pot, lam)
    grid = default_solver_grid(mode, potential, p, n, l, n_points=COARSE_START_N)
    req = SolveRequest(mode=mode, potential=potential, n=n, l=l, grid=grid)
    accepted = []
    coarse_start = solver._coarse_start

    def recording(build, op, node_target):
        pair = coarse_start(build, op, node_target)
        if op.grid.n_points == COARSE_START_N:  # not the 500-point level below
            accepted.append(pair is not None)
        return pair

    monkeypatch.setattr(solver, "_coarse_start", recording)
    status, got = outcome(lambda: solve_self_consistent(req, p))
    monkeypatch.setattr(solver, "_coarse_start", lambda *args: None)
    ref_status, ref = outcome(lambda: solve_self_consistent(req, p))
    assert status == ref_status
    if status != "ok":
        return
    extra = (mode, pot, lam, za, n, l) in ONE_MORE_ITERATION
    assert got.iterations == ref.iterations + extra
    assert abs(got.e_prime - ref.e_prime) <= 1e-12 * abs(ref.e_prime)
    if pot.endswith("coulomb"):
        # only shallow Hulthen states may fall back to the direct solve
        assert accepted == [True]


# States that the N // 8 coarse grid does not bind at m = m0 while the
# 2000-point grid does, with the fine solve's E' and iterations.  A scan of
# lam = 0.02..2.0 in steps of 0.01 at Zalpha 0.1 and 0.3, n <= 4, in the
# three Hulthen modes found 152 such cases (52 of them kg-vector, where
# (1,0) at Zalpha 0.1 spans lam 1.70-1.91) and 22 the other way round, so a
# solve must not stop at StateNotFound from the coarse grid alone.
COARSE_UNBOUND = [
    (SolveMode.KG_VECTOR, "hulthen", 1.8, 0.1, 1, 0, -5.1708e-5, 3),
    (SolveMode.SCHRODINGER, "hulthen", 1.8, 0.3, 1, 0, -3.7608e-4, 1),
    (SolveMode.KG_EQUAL, "equal-hulthen", 0.85, 0.1, 2, 0, -1.0701e-4, 3),
]


@pytest.mark.parametrize(
    "mode,pot,lam,za,n,l,e_prime,iterations",
    COARSE_UNBOUND,
    ids=[f"{c[0].value}-{c[1]}-lam{c[2]}-za{c[3]}-{c[4]}{c[5]}" for c in COARSE_UNBOUND],
)
def test_state_bound_only_on_the_fine_grid(monkeypatch, mode, pot, lam, za, n, l,
                                           e_prime, iterations):
    p = PhysicalParams(alpha=za)
    potential = build(pot, lam)
    grid = default_solver_grid(mode, potential, p, n, l, n_points=2000)
    req = SolveRequest(mode=mode, potential=potential, n=n, l=l, grid=grid)
    ops = []
    coarse_start = solver._coarse_start

    def recording(build, op, node_target):
        ops.append(op)
        return coarse_start(build, op, node_target)

    monkeypatch.setattr(solver, "_coarse_start", recording)
    got = solve_self_consistent(req, p)
    # the 2000-point start asks the 250-point level, too small to start itself
    fine_op, coarse_op = ops
    assert (fine_op.grid.n_points, coarse_op.grid.n_points) == (2000, 250)
    ref_op = discretize_operator(mode, potential, p, p.rest_mass, l, coarse_op.grid)
    assert np.array_equal(coarse_op.diag, ref_op.diag)
    assert np.array_equal(coarse_op.offdiag, ref_op.offdiag)
    with pytest.raises(StateNotFound):
        inner_eigensolve(coarse_op, n - l - 1)
    monkeypatch.setattr(solver, "_coarse_start", lambda *args: None)
    ref = solve_self_consistent(req, p)
    assert abs(got.e_prime - ref.e_prime) <= 1e-12 * abs(ref.e_prime)
    assert got.iterations == ref.iterations == iterations
    assert got.e_prime == pytest.approx(e_prime, rel=5e-5)


def test_unbound_states_bisect_the_fine_grids_no_more(monkeypatch):
    # kg-equal equal-Hulthen n = 3 and 4 are bound on no grid at lam = 0.9.
    # Each solve ends in one full-precision bisection of its own grid, which
    # decides the status; on the way the coarsest grid of its start fails
    # its seed, and so does every intermediate grid and a 1000-point grid
    # that seeds itself, so the 125-point seeds are the only extra work
    bisections = collections.Counter()
    original = solver.eigh_tridiagonal

    def counting(d, e, **kwargs):
        bisections[d.size, "full" if kwargs["tol"] == 0.0 else "seed"] += 1
        return original(d, e, **kwargs)

    monkeypatch.setattr(solver, "eigh_tridiagonal", counting)
    p = PhysicalParams(alpha=0.1)
    potential = PotentialSpec.equal_hulthen(0.9)
    for n_points in (1000, 2000, 8000):
        for n in (3, 4):
            for l in range(n):
                grid = default_solver_grid(SolveMode.KG_EQUAL, potential, p, n, l,
                                           n_points=n_points)
                req = SolveRequest(mode=SolveMode.KG_EQUAL, potential=potential, n=n, l=l,
                                   grid=grid)
                with pytest.raises(StateNotFound):
                    solve_self_consistent(req, p)
    assert bisections == {
        (1000, "full"): 7, (2000, "full"): 7, (8000, "full"): 7,
        (1000, "seed"): 14, (250, "seed"): 7, (125, "seed"): 14,
    }


# A solve starts from a seed, bisected only to the box scale (on the
# coarsest grid of its start from 1000 points: 125 points for 1000 and
# 8000, 250 for 2000 and 16000), and converges only the pair it returns.
# The full-precision path starts from the fine grid bisected to full
# precision instead.  Both must give the same status and E' at the edges:
# Zalpha close to the l = 0 bound 1/2, kg-equal Hulthen states near
# unbinding (n = 3 unbinds at lam = 4/9, n = 2 at lam = 1) and large n.
EDGE_SIZES = (500, 1000, 2000, 8000, 16000)
# sc_tolerance bounds the mass residual |g|/m0, not E': a solve that stops
# at residual r leaves E' about 1.5 r |E'| from the fixed point, so two
# solves that stop near 1e-12 on different paths can sit more than 1e-12
# apart.  In these cases the two E' differ by 1.2e-12 to 1.8e-12 relative,
# and the seeded E' must instead be within 1e-12 of a solve converged to
# 1e-14 and nearer to it than the full-precision start's.
OFF_PATH = {
    (SolveMode.KG_VECTOR, "coulomb", 0.2, 0.3, 3, 0, 1000),
    (SolveMode.KG_VECTOR, "coulomb", 0.2, 0.499, 2, 0, 1000),
    (SolveMode.KG_VECTOR, "coulomb", 0.2, 0.4999, 2, 0, 1000),
}


def edge_cases():
    for za in (0.3, 0.45, 0.49, 0.499, 0.4999):
        for n in (1, 2, 3):
            yield SolveMode.KG_VECTOR, "coulomb", 0.2, za, n, 0
    for lam in (0.3, 0.44, 0.45, 0.7, 0.9, 0.99):
        for n, l in ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)):
            yield SolveMode.KG_EQUAL, "equal-hulthen", lam, 0.1, n, l
    for mode in (SolveMode.KG_VECTOR, SolveMode.SCHRODINGER):
        for n in (1, 2, 3, 5, 8, 12, 18, 26, 36):
            yield mode, "coulomb", 0.2, None, n, n - 1


# The origin correction for s = l + 1 = 36 puts 1.2e6 on the first
# diagonal entry of the 16000-point operator, so bisection to full
# precision, whose error scales with ||T||, misses (36, 35)'s E' by 2e-11
# (1e-3 relative; dstemr agrees with the seeded solve), and dstein's vector
# from that E' has 27 spurious sign changes above 1e-9 of its peak: the
# full-precision reference reports StateNotFound for a bound state.
REFERENCE_MISSES = {(mode, 36, 16000) for mode in (SolveMode.KG_VECTOR, SolveMode.SCHRODINGER)}
EDGE_CASES = [
    pytest.param(*case, size, marks=pytest.mark.xfail(
        strict=True, reason="full-precision bisection misses the state"))
    if (case[0], case[4], size) in REFERENCE_MISSES else case + (size,)
    for case in edge_cases() for size in EDGE_SIZES
]


@pytest.mark.parametrize(
    "mode,pot,lam,za,n,l,n_points",
    EDGE_CASES,
    ids=[f"{c[0].value}-{c[1]}-lam{c[2]}-za{c[3]}-{c[4]}{c[5]}-N{c[6]}"
         for c in (getattr(case, "values", case) for case in EDGE_CASES)],
)
def test_seeded_solve_matches_full_precision_at_the_edges(monkeypatch, mode, pot, lam, za,
                                                          n, l, n_points):
    p = PhysicalParams() if za is None else PhysicalParams(alpha=za)
    potential = build(pot, lam)
    grid = default_solver_grid(mode, potential, p, n, l, n_points=n_points)
    req = SolveRequest(mode=mode, potential=potential, n=n, l=l, grid=grid)
    status, got = outcome(lambda: solve_self_consistent(req, p))
    monkeypatch.setattr(solver, "_seed", lambda *args: None)  # full-precision start
    ref_status, ref = outcome(lambda: solve_self_consistent(req, p))
    assert status == ref_status
    if status != "ok":
        return
    if (mode, pot, lam, za, n, l, n_points) in OFF_PATH:
        tight = solve_self_consistent(replace(req, sc_tolerance=1e-14), p).e_prime
        assert abs(got.e_prime - tight) <= min(1e-12 * abs(tight), abs(ref.e_prime - tight))
    else:
        assert abs(got.e_prime - ref.e_prime) <= 1e-12 * abs(ref.e_prime)
