"""Self-consistent radial eigensolver for the system-mass formulation.

Every mode solves an equation of the fixed shape

    -A u''(r) + V_eff(r; m) u(r) = E' u(r),      u = r*R,  u(0) = u(r_max) = 0,

on a uniform grid, where A and V_eff depend on the mode and, for the
relativistic modes, on the system mass m = m0 + E'/c^2.  That circular
dependence is resolved by root finding on g(m) = m0 + E'(m)/c^2 - m: start
from m = m0, take one Newton step, whose slope dE'/dm = (2<U> - E')/msum
is Hellmann-Feynman's on the discrete operator, then secant steps built
from the last two iterates until the mass stops moving.  Each step builds
the operator at the current mass and costs one eigenpair.  The first is
found by index (the state with k nodes is eigenpair k of the tridiagonal
operator), bisected only to the kinetic scale of the box; on grids of
1000 points or more that is done on a grid eight times coarser, itself
started the same way from 1000 points up (8000 -> 1000 -> 125), and each
finer grid's vector takes one sweep of inverse iteration from the one
below (see _coarse_start).  One mass step changes the operator only
slightly, so each later step is one sweep of inverse iteration from the
previous eigenvector, shifted by that vector's Rayleigh quotient on the
new operator: one tridiagonal solve per step.  These pairs seed and steer
the mass and need not converge; the pair a solve returns must, and is
refined, or at last bisected to full precision, when it has not.  Where a
seed fails, full-precision bisection decides the status.
discretize_operator is the one builder: it takes the mode, the potential,
the parameters, the mass, l and the grid, and makes every operator of a
solve, coarse and fine.  Its diagonal carries an origin correction for
r^s exp(a1 r), the first two Frobenius terms of the regular solution,
wherever s < 1 (l = 0 with a squared vector 1/r channel); that keeps the
eigenvalue error O(h^2) there.  The correction depends on that operator
alone: a1 at its own mass, its own step.

Mode dictionary, writing msum = m0 + m, U for the vector part and S for
the scalar part:

    schrodinger        A = hbar^2/(2 m0)     V = U + l(l+1) hbar^2/(2 m0 r^2)
    kg-vector          A = hbar^2/msum      V = 2mU/msum - U^2/(msum c^2) + cent
    kg-scalar-vector   A = hbar^2/msum      V = kg-vector + 2 m0 S/msum + S^2/(msum c^2)
    kg-equal (S = U)   A = hbar^2/msum      V = 2U + cent

with cent = l(l+1) hbar^2/(msum r^2).  In kg-equal the quadratic terms
cancel exactly, leaving a Schrodinger problem with reduced mass msum/2 and
a doubled potential; the code paths are arranged so that this identity
holds entrywise in floating point, not just analytically.  The vector
Coulomb U^2 term merges with the centrifugal barrier into an effective
index l(l+1) - Z^2 alpha^2, which is why those modes inherit the
supercritical-coupling bound Z alpha < l + 1/2.

Importing this module loads numpy only.  The three LAPACK routines the
solver calls (dstebz, dstein, dgtsv) come from scipy's LAPACK extension
module scipy.linalg._flapack, loaded by _lapack on the first eigensolve
without running the scipy.linalg package, whose import was half the start
of a solving command.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import (
    CoulombPart,
    HulthenPart,
    PhysicalParams,
    PotentialSpec,
    QuantumNumbers,
    RadialGrid,
    BoundState,
    SolveMode,
    validate_params,
)
from .errors import NoConvergence, StateNotFound, UnsupportedCombination

__all__ = [
    "SolveRequest",
    "DiscretizedOperator",
    "effective_radial_equation",
    "discretize_operator",
    "inner_eigensolve",
    "solve_self_consistent",
    "default_solver_grid",
    "ConvergenceStudy",
    "convergence_study",
    "richardson_extrapolate",
]


@dataclass(frozen=True)
class SolveRequest:
    """One eigensolve: which equation, which channel content, which state.

    sc_tolerance bounds the mass residual |g|/m0 at which a relativistic
    solve stops, g = m0 + E'/c^2 - m, not the error in E': a solve that
    stops at residual r leaves E' about (dE'/dm)/(1 - dE'/dm/c^2) r m0
    from the fixed point, some 1.5 r |E'| for Coulomb states, so two solves
    of one state that stop on different paths can differ in E' by more
    than sc_tolerance relative.
    """

    mode: SolveMode
    potential: PotentialSpec
    n: int
    l: int
    grid: RadialGrid | None = None
    sc_tolerance: float = 1e-12


@dataclass(frozen=True, eq=False)
class DiscretizedOperator:
    """Symmetric tridiagonal matrix of the radial operator on a uniform grid.

    Raises NoConvergence when an entry is not finite, so neither eigen path
    ever sees such an operator.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    grid: RadialGrid

    def __post_init__(self) -> None:
        if not (np.isfinite(self.diag).all() and np.isfinite(self.offdiag).all()):
            raise NoConvergence(
                "the operator has non-finite entries; the mass or the grid is out of float range"
            )


def _check_combination(mode: SolveMode, potential: PotentialSpec) -> None:
    if mode in (SolveMode.SCHRODINGER, SolveMode.KG_VECTOR):
        if potential.scalar_part is not None:
            raise UnsupportedCombination(
                f"{mode.value} has no scalar channel; use kg-scalar-vector or kg-equal"
            )
    elif mode is SolveMode.KG_EQUAL:
        if potential.vector_part is None or potential.vector_part != potential.scalar_part:
            raise UnsupportedCombination(
                "kg-equal requires identical, non-empty scalar and vector parts"
            )


def effective_radial_equation(
    mode: SolveMode,
    potential: PotentialSpec,
    p: PhysicalParams,
    m_sys: float,
    l: int,
) -> tuple[float, Callable[[np.ndarray], np.ndarray]]:
    """Kinetic coefficient A and effective potential V_eff(r) for u = r*R."""
    _check_combination(mode, potential)
    mass_param = 2.0 * p.rest_mass if mode is SolveMode.SCHRODINGER else p.rest_mass + m_sys
    A = p.hbar ** 2 / mass_param
    cent_coef = l * (l + 1) * p.hbar ** 2 / mass_param

    def v_eff(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        v = cent_coef / r ** 2
        U = potential.vector_part.evaluate(r, p) if potential.vector_part is not None else None
        if mode is SolveMode.SCHRODINGER:
            if U is not None:
                v = v + U
        elif mode is SolveMode.KG_EQUAL:
            v = v + 2.0 * U
        else:
            if U is not None:
                v = v + 2.0 * m_sys * U / mass_param - U ** 2 / (mass_param * p.c ** 2)
            if mode is SolveMode.KG_SCALAR_VECTOR and potential.scalar_part is not None:
                S = potential.scalar_part.evaluate(r, p)
                v = v + 2.0 * p.rest_mass * S / mass_param + S ** 2 / (mass_param * p.c ** 2)
        return v

    return A, v_eff


def origin_series(
    mode: SolveMode, potential: PotentialSpec, p: PhysicalParams, m_sys: float, l: int
) -> tuple[float, float]:
    """Origin behaviour u = r^s (1 + a1 r + ...) of the regular solution at mass m_sys.

    The Schrodinger and kg-equal modes carry no squared 1/r term, so s is
    the integer l + 1 and a1 = 0 is returned (discretize_operator uses a1
    only where s < 1).  In kg-vector and kg-scalar-vector each
    potential part states U = c_-1/r + c_0 + O(r) near the origin
    (origin_coefficients).  Put into effective_radial_equation's V_eff at
    m_sys, they give V_eff = A s(s-1)/r^2 - C/r + O(1).  The 1/r^2 part is
    A times the centrifugal index l(l+1), lowered by (c_-1/hbar c)^2 for
    the vector part and raised by the same for the scalar part (the two
    cancel with equal parts), so s = 1/2 + sqrt(1/4 + index) whatever the
    mass.  The 1/r part fixes the next Frobenius term, a1 = -(C/A)/(2s);
    it includes the c_-1 c_0 cross term of U^2 and S^2, and its vector
    part is proportional to m_sys (2 m U/msum), its scalar part to m0.
    """
    if mode not in (SolveMode.KG_VECTOR, SolveMode.KG_SCALAR_VECTOR):
        return float(l + 1), 0.0
    u_1, u_0 = s_1, s_0 = 0.0, 0.0
    if potential.vector_part is not None:
        u_1, u_0 = potential.vector_part.origin_coefficients(p)
    if potential.scalar_part is not None:
        s_1, s_0 = potential.scalar_part.origin_coefficients(p)
    index = l * (l + 1) + (s_1 ** 2 - u_1 ** 2) / (p.hbar * p.c) ** 2
    s = 0.5 + math.sqrt(0.25 + index)
    m0, c2 = p.rest_mass, p.c ** 2
    c_over_a = -2.0 * (m_sys * u_1 - u_1 * u_0 / c2 + m0 * s_1 + s_1 * s_0 / c2) / p.hbar ** 2
    return s, -c_over_a / (2.0 * s)


def discretize_operator(
    mode: SolveMode,
    potential: PotentialSpec,
    p: PhysicalParams,
    m_sys: float,
    l: int,
    grid: RadialGrid,
) -> DiscretizedOperator:
    """The radial equation at system mass m_sys as a second-order
    central-difference matrix with Dirichlet ends.

    The diagonal carries an origin correction built from origin_series'
    Frobenius data (s, a1) at m_sys.  In the relativistic Coulomb modes at
    l = 0 the solution starts as r^s (1 + a1 r) with s < 1, and the plain
    stencil's truncation error on it (largest where r ~ h) leaves an
    h^(2s) term in the eigenvalue, below second order; there the
    correction is that of r^s exp(a1 r) (see _stencil_error).  Elsewhere
    the h^(2s) term is at least second order and the stencil is made exact
    on r^s alone, identically zero for integer s <= 3.  The operator is a
    function of these arguments alone, so the grids and mass steps of a
    solve or a study cannot differ in how they are discretized.  An entry
    that overflows, the correction included (from l = 79 at N = 8000, where
    N^s passes the float64 range), raises NoConvergence (see
    DiscretizedOperator) without numpy warnings.  An h^2 or an A/h^2 out of
    the float range raises OverflowError (ZeroDivisionError for h^2 = 0).
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        A, v_eff = effective_radial_equation(mode, potential, p, m_sys, l)
        h = grid.step
        s, a1 = origin_series(mode, potential, p, m_sys, l)
        try:
            kin = A / h ** 2
        except (OverflowError, ZeroDivisionError) as exc:  # h^2 overflows, or underflows to 0
            message = f"grid step {h!r} (r_max = {grid.r_max!r}) squared leaves the float range"
            raise type(exc)(message) from None
        if abs(kin) < sys.float_info.min:  # the kinetic term would vanish from the operator
            raise OverflowError(f"kinetic coefficient A/h^2 = {A!r}/{h!r}^2 underflows")
        diag = 2.0 * kin + v_eff(grid.points) + kin * _stencil_error(s, grid.n_points, a1 * h)
    return DiscretizedOperator(diag=diag, offdiag=np.full(grid.n_points - 1, -kin), grid=grid)


# |a1| h is clipped to this in the exp(a1 r) correction: a coarser step no
# longer resolves exp(a1 r), and exp(+-a1 h) would swamp the diagonal.
_MAX_ORIGIN_X = 2.0


def _stencil_error(s: float, n: int, x: float) -> np.ndarray:
    """Error of the unit-step stencil at indices 1..n relative to the
    origin shape, with x = a1 h: on f = i^s for s >= 1, and for s < 1 on
    f = i^s exp(x i) less its far field and its 1/i tail.

    discretize_operator adds kin times this to the diagonal.  Writing
    (1 +- 1/i)^s = 1 +- s/i + Q+-, the error on i^s exp(x i) is
    Q+ e^x + Q- e^-x - s(s-1)/i^2 + 2s(sinh x - x)/i + (2 cosh x - 2 - x^2).
    The last two terms are a Coulomb-like O(h^2) tail over the whole box
    and a far-field constant, not origin effects, so they are left out:
    the correction decays like 1/i^2.  The rest is the error on i^s,
    E0 = Q+ + Q- - s(s-1)/i^2, plus expm1(x) Q+ + expm1(-x) Q-, smooth in
    x, with |x| clipped to _MAX_ORIGIN_X.  At x = 0 it is E0, bit for bit.
    """
    if s >= 1.0:
        return _stencil_terms(s, n)[0]
    power_error, q_plus, q_minus = _stencil_terms(s, n)
    x = min(max(x, -_MAX_ORIGIN_X), _MAX_ORIGIN_X)
    error = math.expm1(x) * q_plus
    error += math.expm1(-x) * q_minus
    error += power_error
    return error


@functools.lru_cache(maxsize=4)
def _stencil_terms(s: float, n: int) -> tuple[np.ndarray, ...]:
    """The x-free parts of _stencil_error on indices 1..n: E0, from one
    power per index shared by its neighbours, and for s < 1 also Q+ and
    Q-, from expm1 and log1p without cancellation.  They depend only on
    (s, n), so they are cached (a solve builds those of its grid and of
    each grid of its start once each) and read-only.
    """
    powers = np.arange(n + 2, dtype=float) ** s  # i^s for i = 0..n+1
    i = np.arange(1, n + 1, dtype=float)
    power_error = powers[2:] - 2.0 * powers[1:-1]
    power_error += powers[:-2]
    power_error /= powers[1:-1]
    power_error -= s * (s - 1.0) / i ** 2
    terms = (power_error,)
    if s < 1.0:
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf gives 0^s at i = 1
            terms += (np.expm1(s * np.log1p(1.0 / i)) - s / i,
                      np.expm1(s * np.log1p(-1.0 / i)) + s / i)
    for array in terms:
        array.flags.writeable = False
    return terms


def _significant_signs(u: np.ndarray) -> np.ndarray:
    """Signs of the entries of u above 1e-9 of its largest magnitude."""
    magnitude = np.abs(u)
    return np.sign(u[magnitude > 1e-9 * magnitude.max()])


def _count_sign_changes(u: np.ndarray) -> int:
    signs = _significant_signs(u)
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def _rayleigh_quotient(op: DiscretizedOperator, u: np.ndarray) -> float:
    """u^T T u / u^T u evaluated in the difference form of the quadratic.

    The raw eigenvalue carries absolute noise ~ eps * ||T||, and ||T|| is
    the kinetic diagonal 2A/h^2, which grows as the grid is refined.  That
    noise puts a floor under the self-consistency residual well above the
    default tolerance on fine grids.  Rewriting the kinetic part of the
    quadratic as kin * (u_1^2 + u_N^2 + sum (u_{i+1}-u_i)^2) makes every
    summand small (the summed magnitudes are of binding-energy scale, not
    kinetic scale), and numpy's pairwise summation adds them with an error
    of O(eps log N) relative to that scale, so the quotient is smooth in
    the operator at the ~1e-14 level.
    """
    kin = -float(op.offdiag[0])
    v = op.diag - 2.0 * kin  # recovers the potential as rounded into diag
    diff = u[1:] - u[:-1]
    kinetic = kin * (float(u[0]) ** 2 + float(u[-1]) ** 2 + float((diff * diff).sum()))
    potential = float((v * u * u).sum())
    norm = float((u * u).sum())
    return (kinetic + potential) / norm


def _checked_pair(
    op: DiscretizedOperator, u: np.ndarray, node_target: int
) -> tuple[float, np.ndarray]:
    """Polish a candidate eigenvector of the node_target-node bound state.

    Raises NoConvergence when u has no significant entry or its norm
    leaves the float range (LAPACK's dstein returns NaNs when its
    arithmetic does, and a sweep's solve can overflow), and
    StateNotFound unless u has node_target interior nodes and a negative
    Rayleigh quotient; otherwise returns (E', u) with u normalized to
    sum(u^2) = 1 and its first significant entry positive.
    """
    signs = _significant_signs(u)
    scale = math.sqrt(float(u @ u))
    if signs.size == 0 or not 0.0 < scale < math.inf:
        raise NoConvergence(f"eigenvector {node_target} has no significant entry")
    nodes = int(np.count_nonzero(signs[1:] != signs[:-1]))
    if nodes != node_target:
        raise StateNotFound(f"eigenpair {node_target} has {nodes} nodes, not {node_target}")
    u = u / (-scale if signs[0] < 0 else scale)
    e = _rayleigh_quotient(op, u)
    if e >= 0.0:
        raise StateNotFound(f"the state with {node_target} nodes is not bound (E' = {e:.6g})")
    return e, u


@functools.cache
def _lapack():
    """scipy's LAPACK extension module scipy.linalg._flapack.

    Only the top-level scipy package is imported; the extension is found
    in its linalg directory and executed through its own spec, so
    scipy/linalg/__init__.py never runs.  It is registered under its full
    name, so a later import of scipy.linalg shares the module and its
    routines.
    """
    import scipy

    name = "scipy.linalg._flapack"
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(os.path.dirname(scipy.__file__), "linalg")]
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sys.modules.setdefault(name, module)


def eigh_tridiagonal(
    d: np.ndarray, e: np.ndarray, *, select: str, select_range: tuple[int, int],
    tol: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs select_range[0]..select_range[1] (from the lowest) of the
    symmetric tridiagonal matrix with diagonal d and off-diagonal e.

    select must be "i": only selection by index is supported.  This is
    scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=..., tol=...)
    with its default driver, call for call: dstebz bisection (to absolute
    tolerance tol, eigenvalues in block order), dstein inverse iteration
    for the vectors, then sorting by eigenvalue.  Raises NoConvergence,
    naming the routine and its info, when LAPACK reports a failure.
    """
    if select != "i":
        raise ValueError(f"only select='i' is supported, got {select!r}")
    lapack = _lapack()
    lo, hi = select_range
    m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, lo + 1, hi + 1, tol, "B")
    if info != 0:
        raise NoConvergence(f"tridiagonal eigensolve failed: dstebz failed (LAPACK info={info})")
    w = w[:m]
    v, info = lapack.dstein(d, e, w, iblock, isplit)
    if info != 0:
        raise NoConvergence(f"tridiagonal eigensolve failed: dstein failed (LAPACK info={info})")
    order = np.argsort(w)
    return w[order], v[:, order]


def inner_eigensolve(
    op: DiscretizedOperator, node_target: int, tol: float = 0.0
) -> tuple[float, np.ndarray]:
    """Eigenpair of the bound state with node_target interior nodes.

    The off-diagonal of the operator is negative, so by Sturm-sequence
    theory eigenpair number node_target (counting from the lowest) is the
    state with node_target nodes; only that pair is computed, by bisection
    to absolute tolerance tol (0, the default, is full precision), and the
    node count is checked rather than searched for.  Returns (E', u) with u
    normalized to sum(u^2) = 1 and its first significant entry positive;
    E' is polished with a difference-form Rayleigh quotient so repeated
    solves at nearby potentials differ smoothly.  Raises StateNotFound when
    the grid has no such pair, its node count is off, or it is not bound
    (E' >= 0), and NoConvergence when LAPACK fails on it.
    """
    n = op.diag.size
    if node_target >= n:
        raise StateNotFound(f"a grid of {n} points holds no state with {node_target} nodes")
    _, vecs = eigh_tridiagonal(
        op.diag, op.offdiag, select="i", select_range=(node_target, node_target), tol=tol
    )
    return _checked_pair(op, vecs[:, 0], node_target)


def _sweep(
    op: DiscretizedOperator, node_target: int, u: np.ndarray, shift: float
) -> tuple[float, np.ndarray] | None:
    """One sweep of inverse iteration: (T - shift) x = u, then x checked and
    normalized by _checked_pair.  Returns None when the tridiagonal solve
    is singular or x fails one of _checked_pair's checks.  u is left as it
    is; dgtsv overwrites only the shifted diagonal built here.
    """
    _, _, _, x, info = _lapack().dgtsv(
        op.offdiag, op.diag - shift, op.offdiag, u[:, None], overwrite_d=1
    )
    if info != 0:
        return None
    try:
        return _checked_pair(op, x[:, 0], node_target)
    except (StateNotFound, NoConvergence):
        return None


def _converged(op: DiscretizedOperator, e: float, u: np.ndarray) -> bool:
    """Whether ||(T - e)u|| is at most eps * sqrt(N) times kin = A/h^2.

    A direct eigensolve leaves at most ~0.1 eps * sqrt(N) kin there
    (measured for N = 2000..200000), so a pair that passes is as converged
    as the one bisection would give.
    """
    r = (op.diag - e) * u
    r[:-1] += op.offdiag * u[1:]
    r[1:] += op.offdiag * u[:-1]
    kin = -float(op.offdiag[0])
    return float(np.linalg.norm(r)) <= np.finfo(float).eps * math.sqrt(u.size) * kin


def _refine_eigenpair(
    op: DiscretizedOperator, node_target: int, u: np.ndarray, shift: float
) -> tuple[float, np.ndarray] | None:
    """At most _REFINE_SWEEPS sweeps of inverse iteration on T from a
    nearby eigenvector u.

    The first sweep is shifted by shift, each later one by the E' (the
    Rayleigh quotient) of the last sweep's vector, so the iteration
    converges cubically once the vector is close.  Returns the first pair
    that is _converged, as inner_eigensolve would give it, or None when a
    sweep fails (see _sweep) or none is converged; the caller then
    bisects to full precision (see _returned_pair).
    """
    for _ in range(_REFINE_SWEEPS):
        pair = _sweep(op, node_target, u, shift)
        if pair is None:
            return None
        shift, u = pair
        if _converged(op, shift, u):
            return pair
    return None


def _returned_pair(
    op: DiscretizedOperator, node_target: int, e: float, u: np.ndarray
) -> tuple[float, np.ndarray]:
    """(e, u) if _converged, else its _refine_eigenpair, else op's full bisection."""
    if _converged(op, e, u):
        return e, u
    return _refine_eigenpair(op, node_target, u, e) or inner_eigensolve(op, node_target)


# Grids of at least _COARSE_START_POINTS start from the pair of a grid
# _COARSE_FACTOR times coarser (see _coarse_start).  When that start fails, a
# solve's own grid of _FULL_BISECTION_POINTS or more falls back to
# full-precision bisection at once, so a state bound on no grid pays no
# loose bisection of a fine grid before the full-precision one that decides
# its status; a smaller grid seeds itself first, which spares bound
# n >= 5, l = 0 states whose one sweep from 125 points fails the
# full-precision bisection.  A pair that misses the residual floor gets at
# most _REFINE_SWEEPS sweeps.  A relativistic solve raises NoConvergence
# after _MAX_SC_ITERS mass steps.
_COARSE_START_POINTS = 1000
_FULL_BISECTION_POINTS = 2000
_COARSE_FACTOR = 8
_REFINE_SWEEPS = 6
_MAX_SC_ITERS = 200


def _seed(op: DiscretizedOperator, node_target: int) -> tuple[float, np.ndarray] | None:
    """inner_eigensolve's pair bisected only to the kinetic scale of the box,
    A/r_max^2, or None when it raises StateNotFound or NoConvergence (the
    caller's full-precision bisection then decides the status).

    The pair only starts the mass loop, whose sweeps converge it; after the
    Rayleigh polish its E' is ~1e-14 relative from full precision.  On the
    Coulomb boxes of default_solver_grid the tolerance is at most 5.9e-3 of
    the level spacing (n <= 6, measured), so no neighbour is picked up.
    """
    box_scale = -float(op.offdiag[0]) / (op.grid.n_points + 1) ** 2
    try:
        return inner_eigensolve(op, node_target, box_scale)
    except (StateNotFound, NoConvergence):
        return None


def _coarse_start(
    build: Callable[[RadialGrid], DiscretizedOperator], op: DiscretizedOperator,
    node_target: int,
) -> tuple[float, np.ndarray] | None:
    """First eigenpair of op, started from the same equation on a grid
    _COARSE_FACTOR times coarser over the same box, built by build.

    The coarse pair comes from a coarse start of its own when the coarse
    grid has _COARSE_START_POINTS or more (8000 -> 1000 -> 125 points,
    16000 -> 2000 -> 250), so only the coarsest grid of the chain is
    bisected, and only by _seed.  A coarse level whose own start fails,
    because its sweep fails or the grid below it holds no such state,
    seeds itself with _seed.  The coarse eigenvector, interpolated onto
    op's grid, takes one _sweep shifted by the coarse E' (a Rayleigh shift
    from the interpolated vector misses the state more often), unconverged:
    the mass moves after the first step and later sweeps converge the
    vector.  Returns None when op's grid is below _COARSE_START_POINTS,
    the coarse operator leaves the float range (a coarser step can where
    op's does not), the coarse grid yields no pair or the sweep fails; the
    caller then seeds op, or bisects it to full precision.
    """
    n_points = op.grid.n_points
    if n_points < _COARSE_START_POINTS:
        return None
    try:
        coarse_op = build(RadialGrid(op.grid.r_max, n_points // _COARSE_FACTOR))
    except OverflowError:
        return None
    pair = _coarse_start(build, coarse_op, node_target) or _seed(coarse_op, node_target)
    if pair is None:
        return None
    e, u = pair
    return _sweep(op, node_target, np.interp(op.grid.points, coarse_op.grid.points, u), e)


def _energy_slope(
    potential: PotentialSpec, p: PhysicalParams, grid: RadialGrid, m: float, e: float,
    u: np.ndarray,
) -> float:
    """dE'/dm at mass m for the eigenpair (E', u), sum(u^2) = 1, by
    Hellmann-Feynman on the discrete operator.

    In kg-vector and kg-scalar-vector T(m) is (1/msum)[kinetic +
    centrifugal + 2mU - U^2/c^2 + terms free of m], in kg-equal
    (1/msum)[kinetic + centrifugal] + 2U; either way dT/dm = (2U - T)/msum,
    so dE'/dm = (2<U> - E')/msum with <U> = sum(U u^2) (0 without a vector
    part).  It leaves out the origin correction's a1(m) h term (l = 0 with
    a vector 1/r part).
    """
    u_mean = 0.0
    if potential.vector_part is not None:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            u_mean = float(potential.vector_part.evaluate(grid.points, p) @ (u * u))
    return (2.0 * u_mean - e) / (p.rest_mass + m)


def default_solver_grid(
    mode: SolveMode,
    potential: PotentialSpec,
    p: PhysicalParams,
    n: int,
    l: int,
    n_points: int = 8000,
    r_max: float | None = None,
) -> RadialGrid:
    """Uniform grid sized to hold the (n, l) state of this potential.

    Coulomb-like channels get r_max = 15 n^2 a0 / Z: the decay constant is
    ~ Z/(n a0), so the boundary sits 15n decay lengths out (exp(-30)
    truncation at worst) while keeping the step small enough that the
    eigenvalue discretization error stays in the Richardson-correctable
    regime.  Screened channels
    are sized from the analytic decay constant of the target level,
    kappa = (lam/2)(b/n - n) with b = 2 m0 (Z e_s^2) s / (hbar^2 lam)
    (s = 2 when both channels act), asking for exp(-34) tail suppression;
    a floor of 10 screening lengths keeps shallow states resolvable.  An
    unbound estimate (kappa <= 0) falls back to a wide probe grid and lets
    the eigensolver report StateNotFound.  Raises InvalidQuantumNumbers for
    an (n, l) that names no state, before n sizes the box, and OverflowError
    when a computed box underflows to 0, or the box is inf or its step
    underflows to 0 (see RadialGrid).
    """
    QuantumNumbers(n=n, l=l)
    if r_max is None:
        screened = [
            part
            for part in (potential.vector_part, potential.scalar_part)
            if isinstance(part, HulthenPart)
        ]
        if screened:
            lam_abs = screened[0].lam_absolute(p)
            strength = 2.0 if mode is SolveMode.KG_EQUAL else 1.0
            b_est = 2.0 * p.rest_mass * strength * p.z_number * p.e_squared / (
                p.hbar ** 2 * lam_abs
            )
            kappa = 0.5 * lam_abs * (b_est / n - n)
            if kappa > 0:
                r_max = max(34.0 / kappa, 10.0 / lam_abs)
            else:
                r_max = 120.0 * n / lam_abs
        else:
            r_max = 15.0 * n ** 2 * p.bohr_radius() / p.z_number
        if not r_max > 0.0:
            raise OverflowError(f"the box for (n={n}, l={l}) underflows to {r_max!r}")
    return RadialGrid(r_max, n_points)


def solve_self_consistent(
    req: SolveRequest, p: PhysicalParams, with_trace: bool = False
) -> BoundState | tuple[BoundState, list[float]]:
    """Solve the requested state, iterating the system mass to a fixed point.

    The Schrodinger mode has no mass feedback and returns after a single
    pass with residual 0.  Relativistic modes look for the root of
    g(m) = m0 + E'(m)/c^2 - m from m = m0.  The first step is Newton's,
    m <- m - g/g' with g' = (dE'/dm)/c^2 - 1 and dE'/dm from _energy_slope;
    it falls back to the plain step m <- m + g when g' >= 0 or the step
    would leave m0 + m <= 0.  Then come secant steps through the last two
    iterates.  A secant step is replaced by the plain step when the
    previous step did not shrink |g| or when it would leave m0 + m <= 0.
    The iteration stops once |g|/m0 < sc_tolerance, or raises
    NoConvergence (reporting the last residuals) after _MAX_SC_ITERS steps.
    discretize_operator makes every operator of the solve.  The first
    eigenpair is a seed, bisected only to the box scale (see _seed), on a
    grid eight times coarser from 1000 points, and 64 times coarser from
    8000 (see _coarse_start).  From the second iteration on it is one
    _sweep from the previous eigenvector, shifted by its Rayleigh quotient
    on the new operator.  When the start fails, a grid below 2000 points
    seeds itself, and then, as a grid of 2000 points or more does at once,
    falls back to full-precision inner_eigensolve, which decides the
    status.  Neither the start nor a sweep need be converged (a strongly
    bound state's first mass step leaves up to ~1e5 times the residual
    floor): only the pair that meets the mass tolerance, or the
    Schrodinger mode's one pair, must be, and is refined or bisected on the
    same operator before the test when it is not (_returned_pair).  With
    with_trace=True the per-iteration residual history |g|/m0 is returned
    alongside the state.
    """
    qn = QuantumNumbers(n=req.n, l=req.l)
    _check_combination(req.mode, req.potential)
    quadratic = req.mode in (SolveMode.KG_VECTOR, SolveMode.KG_SCALAR_VECTOR)
    if quadratic and req.potential.vector_part is not None:
        validate_params(p, qn)  # the U^2 term carries the supercritical bound
    grid = req.grid or default_solver_grid(req.mode, req.potential, p, req.n, req.l)
    node_target = qn.radial_nodes
    m = p.rest_mass
    m_prev = g_prev = None
    trace: list[float] = []
    u = None
    for iterations in range(1, _MAX_SC_ITERS + 1):
        op = discretize_operator(req.mode, req.potential, p, m, req.l, grid)
        if u is not None:
            pair = _sweep(op, node_target, u, _rayleigh_quotient(op, u))
        else:
            build = functools.partial(discretize_operator, req.mode, req.potential, p, m, req.l)
            pair = _coarse_start(build, op, node_target)
            if pair is None and grid.n_points < _FULL_BISECTION_POINTS:
                pair = _seed(op, node_target)
        e, u = pair if pair is not None else inner_eigensolve(op, node_target)
        if req.mode is SolveMode.SCHRODINGER:
            e, u = _returned_pair(op, node_target, e, u)
            residual = 0.0
            break
        g = p.rest_mass + e / p.c ** 2 - m
        residual = abs(g) / p.rest_mass
        if residual < req.sc_tolerance:
            # a seed or a mass step's one sweep need not converge, but the
            # pair a solve returns must be as converged as bisection's
            e, u = _returned_pair(op, node_target, e, u)
            g = p.rest_mass + e / p.c ** 2 - m
            residual = abs(g) / p.rest_mass
        trace.append(residual)
        if residual < req.sc_tolerance:
            break
        step = g
        if g_prev is None:
            # Newton's step; g' leaves out the a1(m) term, so only the first
            g_prime = _energy_slope(req.potential, p, grid, m, e, u) / p.c ** 2 - 1.0
            if g_prime < 0.0 and p.rest_mass + m - g / g_prime > 0.0:
                step = -g / g_prime
        elif abs(g) < abs(g_prev):
            secant = -g * (m - m_prev) / (g - g_prev)
            if p.rest_mass + m + secant > 0.0:
                step = secant
        m_prev, g_prev = m, g
        m = m + step
    else:
        raise NoConvergence(
            f"system mass not stationary after {_MAX_SC_ITERS} iterations; "
            f"last residuals {trace[-2:]}"
        )

    u_phys = u / math.sqrt(grid.step)  # discrete sum(u^2)*h = 1
    state = BoundState(
        qn, e, p, radial_samples=(grid.points, u_phys), iterations=iterations, residual=residual
    )
    return (state, trace) if with_trace else state


@dataclass(frozen=True)
class ConvergenceStudy:
    """Grid-refinement record: (n_points, E', Richardson extrapolant) rows.

    The first row has no extrapolant (None).  observed_orders holds the
    convergence order estimated from each consecutive triple of grids (none
    for a two-grid study); for the second-order stencil used here they
    should sit near 2.
    """

    rows: tuple[tuple[int, float, float | None], ...]
    observed_orders: tuple[float, ...]
    r_max: float

    @property
    def best_estimate(self) -> float:
        return self.rows[-1][2] if self.rows[-1][2] is not None else self.rows[-1][1]


def richardson_extrapolate(
    e_coarse: float, e_fine: float, step_ratio: float = 2.0, order: int = 2
) -> float:
    """Eliminate the leading h^order error term from two-grid eigenvalues."""
    w = step_ratio ** order
    return (w * e_fine - e_coarse) / (w - 1.0)


def convergence_study(
    req: SolveRequest, p: PhysicalParams, grid_sizes: tuple[int, ...]
) -> ConvergenceStudy:
    """Re-solve req on uniform grids of the given sizes over one fixed r_max.

    Each row is the E' an independent solve_self_consistent call gives on
    that grid.  Two sizes make the Richardson pair compare uses; three or
    more also give observed orders.
    """
    if len(grid_sizes) < 2:
        raise ValueError("a convergence study needs at least 2 grid sizes")
    sizes = tuple(sorted(int(s) for s in grid_sizes))
    if len(set(sizes)) != len(sizes):
        raise ValueError("grid sizes must be distinct")
    base = req.grid or default_solver_grid(req.mode, req.potential, p, req.n, req.l)
    grids = [RadialGrid(base.r_max, n_pts) for n_pts in sizes]
    steps = [grid.step for grid in grids]
    energies = [solve_self_consistent(replace(req, grid=grid), p).e_prime for grid in grids]

    rows: list[tuple[int, float, float | None]] = [(sizes[0], energies[0], None)]
    for i in range(1, len(sizes)):
        ratio = steps[i - 1] / steps[i]
        rows.append(
            (sizes[i], energies[i], richardson_extrapolate(energies[i - 1], energies[i], ratio))
        )
    orders = []
    for i in range(len(sizes) - 2):
        d1 = abs(energies[i] - energies[i + 1])
        d2 = abs(energies[i + 1] - energies[i + 2])
        if d1 == 0.0 or d2 == 0.0:
            orders.append(math.nan)
        else:
            orders.append(math.log(d1 / d2) / math.log(steps[i] / steps[i + 1]))
    return ConvergenceStudy(rows=tuple(rows), observed_orders=tuple(orders), r_max=base.r_max)
