"""Stationary wavefunctions psi_nlm = R_nl * Y_lm and their diagnostics.

Radial part
-----------
R_nl(r) = N_nl * exp(-rho/2) * rho^(l - sigma_l) * L(rho) with the
relativistic Laguerre polynomial L and rho = (2Z/((n - sigma_l)*a0)) * r.
The length scale a0 = hbar^2/(m*e_s^2) uses the state's own system mass m,
not the rest mass; the difference is O(alpha^2) and deliberate.

For l = 0 the prefactor rho^(-sigma_0) diverges mildly at the origin; the
combination u = r*R stays finite (u ~ r^(1-sigma_0)), and every integrand
used here carries at least rho^(2-2*sigma_0), so nothing is singular under
an integral sign.

Normalization is closed-form.  Since Z^2 alpha^2 = sigma_l (2l+1-sigma_l),
L is c_top (-1)^k k! L_k^(a)(rho), the generalized Laguerre polynomial of
degree k = n-l-1 and order a = 2l+1-2*sigma_l (see special.py), so the
Schrodinger integral

    int_0^inf exp(-rho) rho^(a+1) [L_k^(a)(rho)]^2 drho = Gamma(k+a+1) (2k+a+1) / k!

fixes the amplitude, and L_k^(a) is evaluated by its three-term
recurrence.  L_k^(a)(0) = binomial(k+a, k) > 0 for a > 0, so R(0+) > 0:
the (-1)^(nu+1) factor of the polynomial's coefficients goes with c_top.

Current diagnostics
-------------------
The probability current of a Klein-Gordon state in this formulation is

    J = i*hbar/(m0 + m) * (Psi grad Psi* - Psi* grad Psi)
      = 2*hbar/(m0 + m) * Im(Psi* grad Psi),

with the system mass m in the prefactor.  For a stationary psi_nlm only the
azimuthal component survives, J_phi = 2*hbar*m_q*|psi|^2/((m0+m) r sin(theta)),
and its divergence vanishes; both facts are checked numerically on a
product grid (log radii, Gauss-Legendre colatitudes, uniform azimuths).

sample_state returns a SeparableField: the read-only factors R(r) and
Y(theta, phi) of the samples R(r) Y(theta, phi), never the n_r x n_theta
x n_phi grid itself; np.asarray(field) is the way to get the dense
samples.  The finite differences are linear, so probability_current
works on the 1-D radial and 2-D angular factors and returns factored
components.  J_r's angular factor is exact zeros and J_theta and J_phi
share their radial factor, so div J of every sampled state is one outer
product a(r) (x) (B_theta + B_phi): continuity_check takes its max from
the two factors and divergence_field builds the product.  For sampled
states the current diagnostics never build the full grid; only a
hand-built current of rank 2 or more has its dense div J built.
They take SeparableFields only: a plain array, or a slice or arithmetic
result of a field (a dense ndarray), raises TypeError, and so does a
current component with a complex angular factor.  A separable
field built by hand goes through SeparableField(radial, angular).  For
the (2,1,+-1) states the continuity floor max|div J|/max|J_phi| is
3.4e-13 on grids up to 400x128x128.  An m = 0 current is exact zeros,
and so is its div J on any grid, without building the terms of div J.
SphericalGrid3D checks its axes when it is built, so no difference step
is zero.  The colatitudes and their weights are computed once per
n_theta, and the tail probe's radii once per n; both are shared,
read-only.  numpy.polynomial, for the Gauss-Legendre nodes,
is imported only when a check grid first needs them.

Everything here is numpy alone: the radial factor by the Laguerre
recurrence, and the angular factor by the upward recurrence for the
associated Legendre functions (_legendre_p).
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .core import PhysicalParams, QuantumNumbers, validate_params
from .coulomb import energy_level, sigma_closed, system_mass
from .errors import InvalidQuantumNumbers
from .solver import _count_sign_changes

__all__ = [
    "RadialWavefunction",
    "build_radial",
    "radial_ode_residual",
    "reference_residual_grid",
    "count_radial_nodes",
    "spherical_harmonic",
    "SphericalGrid3D",
    "current_check_grid",
    "SeparableField",
    "sample_state",
    "probability_current",
    "divergence_field",
    "continuity_check",
]


@dataclass(frozen=True, eq=False)
class RadialWavefunction:
    """Normalized radial factor R_nl = amplitude * exp(-rho/2) rho^exponent L_k^(a)(rho).

    exponent = l - sigma_l, a = 2*exponent + 1 and k = n-l-1.
    `normalization` is the constant in front of the paper's polynomial
    laguerre_rel, amplitude / (|c_top| k!) with |c_top| k! the Gamma ratio
    of special.py.  Both are positive; the normalization is a normal float.
    """

    qn: QuantumNumbers
    rho_scale: float
    normalization: float
    amplitude: float
    exponent: float

    def _shape(self, rho: np.ndarray) -> np.ndarray:
        """R / amplitude at rho."""
        k, a = self.qn.n - self.qn.l - 1, 2.0 * self.exponent + 1.0
        return np.exp(-0.5 * rho) * rho ** self.exponent * _laguerre(k, a, rho)

    @functools.cached_property
    def _probe(self) -> tuple[np.ndarray, np.ndarray, np.floating]:
        """(rho, |u| / amplitude, its max) on the log grid that tail_radius scans.

        Computed once per state (build_radial's range check, then every
        tail_radius call) and read-only; rho is _probe_radii(n).
        """
        rho = _probe_radii(self.qn.n)
        u = rho * self._shape(rho)
        np.abs(u, out=u)
        u.flags.writeable = False
        return rho, u, u.max()

    def evaluate(self, r: np.ndarray | float) -> np.ndarray | float:
        out = self.amplitude * self._shape(self.rho_scale * np.asarray(r, dtype=float))
        return out if np.ndim(out) else float(out)

    def tail_radius(self, threshold: float = 1e-10) -> float:
        """Radius past which |u| stays below threshold * max|u|."""
        rho, u, peak = self._probe
        return 1.1 * rho[np.flatnonzero(u >= threshold * peak)[-1]] / self.rho_scale


@functools.lru_cache(maxsize=32)
def _probe_radii(n: int) -> np.ndarray:
    """The 4096 log-spaced rho in [1e-6, 80 n^2] of the tail probe.

    They depend only on n, so they are cached and read-only; the states
    of one n share them.
    """
    rho = np.geomspace(1e-6, 80.0 * n ** 2, 4096)
    rho.flags.writeable = False
    return rho


def _laguerre(k: int, a: float, x: np.ndarray) -> np.ndarray:
    """L_k^(a)(x) by (j+1) L_{j+1} = (2j+1+a-x) L_j - (j+a) L_{j-1}, from L_0 = 1.

    Each step divides by j+1 before it multiplies, so no intermediate
    outgrows the result.  The step ((2j+1+a - x)/(j+1)) L_j - ((j+a)/(j+1))
    L_{j-1} is evaluated in place, in that order, into the buffer of L_{j-1}.
    """
    prev, cur, step = np.zeros_like(x), np.ones_like(x), np.empty_like(x)
    for j in range(k):
        np.subtract(2 * j + 1 + a, x, out=step)
        step /= j + 1
        step *= cur
        prev *= (j + a) / (j + 1)
        np.subtract(step, prev, out=prev)
        prev, cur = cur, prev
    return cur


def build_radial(p: PhysicalParams, n: int, l: int) -> RadialWavefunction:
    """Assemble the normalized R_nl for the Coulomb closed-form state.

    Raises OverflowError, naming the state, when u, the amplitude or the
    normalization leaves the float range.
    """
    qn = QuantumNumbers(n=n, l=l)
    validate_params(p, qn)
    sigma = sigma_closed(p, l).sigma_l
    m_sys = system_mass(p, n, l)
    a0 = p.bohr_radius(m_sys)
    rho_scale = 2.0 * p.z_number / ((n - sigma) * a0)
    k, a = n - l - 1, 2.0 * (l - sigma) + 1.0
    try:
        amplitude = math.sqrt(
            rho_scale ** 3 * math.factorial(k) / (math.gamma(k + a + 1.0) * (2 * k + a + 1.0))
        )
        log_top = (  # log(|c_top| k!) by the Gamma ratio in special.py
            2.0 * math.lgamma(n + l + 1.0) + math.lgamma(a + 1.0) - math.lgamma(a + k + 1.0)
            - math.lgamma(1.0 - sigma) - math.lgamma(2 * l + 2.0 - sigma)
        )
        normalization = amplitude * math.exp(-log_top)
    except OverflowError:  # math.gamma's bare "math range error", among others
        amplitude = normalization = math.nan
    if not (0.0 < amplitude < math.inf and sys.float_info.min <= normalization < math.inf):
        raise OverflowError(
            f"the amplitude or the normalization leaves the float range at rho_scale = "
            f"{rho_scale:g} for (n={n}, l={l})"
        )
    R = RadialWavefunction(
        qn=qn,
        rho_scale=rho_scale,
        normalization=normalization,
        amplitude=amplitude,
        exponent=l - sigma,
    )
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        rho, _, peak = R._probe
    if not np.isfinite(peak):  # max|u| is NaN or inf when any |u| is
        raise OverflowError(f"u leaves the float range on rho <= {rho[-1]:g} for (n={n}, l={l})")
    return R


def _second_derivative(u: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Three-point second derivative on the interior points r[1:-1]."""
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    return 2.0 * (hm * u[2:] + hp * u[:-2] - (hm + hp) * u[1:-1]) / (hm * hp * (hm + hp))


def radial_ode_residual(R: RadialWavefunction, p: PhysicalParams, r: np.ndarray) -> float:
    """Finite-difference residual of the radial equation for R(r) at the
    increasing radii r (reference_residual_grid gives suitable ones).

    The equation, with lam = l(l+1) and all of E', m taken from the closed
    form, reads

        (1/r^2) d/dr(r^2 dR/dr) + (m0+m)E'/hbar^2 R
            + [2m Z e_s^2/(hbar^2 r) + (Z^2 e_s^4/(hbar^2 c^2) - lam)/r^2] R = 0.

    The Laplacian term is evaluated as (r R)''/r with central second-order
    stencils on the possibly nonuniform radii; three points at each end are
    excluded.  Returns max|residual| / max|term|, the residual relative to
    the largest single term appearing in the equation on the same points.
    """
    n, l = R.qn.n, R.qn.l
    state = energy_level(p, n, l)
    m_sys = state.system_mass
    R_smp = R.evaluate(r)
    upp = _second_derivative(r * R_smp, r)

    # _second_derivative covers r[1:-1]; drop 2 more points per side.
    rc = r[3:-3]
    Rc = R_smp[3:-3]
    za2 = (p.z_number * p.e_squared / (p.hbar * p.c)) ** 2
    t_lap = upp[2:-2] / rc
    t_energy = (p.rest_mass + m_sys) * state.e_prime / p.hbar ** 2 * Rc
    t_coulomb = 2.0 * m_sys * p.z_number * p.e_squared / (p.hbar ** 2 * rc) * Rc
    t_centrifugal = (za2 - l * (l + 1)) / rc ** 2 * Rc

    residual = np.abs(t_lap + t_energy + t_coulomb + t_centrifugal).max()
    scale = max(
        np.abs(t_lap).max(),
        np.abs(t_energy).max(),
        np.abs(t_coulomb).max(),
        np.abs(t_centrifugal).max(),
    )
    return float(residual / scale)


def reference_residual_grid(R: RadialWavefunction, n_points: int = 12000) -> np.ndarray:
    """Log-spaced radii spanning the state, for radial_ode_residual.

    Log spacing keeps the (rR)''/r term second-order accurate near the
    origin, where R goes like a fractional power of r; a uniform grid
    loses an order there because its first interior points sit at r ~ h.
    The low end starts at rho = 0.1, far below the first lobe of every
    state.  The radii are exp of evenly spaced logarithms, with both ends
    set to exactly lo and hi.
    """
    lo, hi = 0.1 / R.rho_scale, R.tail_radius(1e-10)
    r = np.exp(np.linspace(math.log(lo), math.log(hi), n_points))
    r[-1:], r[:1] = hi, lo
    return r


def count_radial_nodes(R: RadialWavefunction) -> int:
    """Sign changes of u = r R on (0, infinity).

    The zeros of L_k^(a) are about evenly spaced in sqrt(rho), about
    pi / (2 sqrt(4n)) apart, so u is sampled on a grid even in sqrt(rho)
    with 100 n points.
    """
    rho_t = R.rho_scale * R.tail_radius(1e-8)
    rho = np.linspace(0.0, math.sqrt(rho_t), 100 * R.qn.n + 1)[1:] ** 2
    return _count_sign_changes(rho * R._shape(rho))


def _legendre_p(l: int, m: int, x: np.ndarray) -> np.ndarray:
    """Associated Legendre function P_l^m(x) for 0 <= m <= l, with the
    Condon-Shortley phase, by the upward recurrence in l

        P_m^m = (-1)^m (2m-1)!! (1-x^2)^(m/2),
        (k-m) P_k^m = (2k-1) x P_(k-1)^m - (k+m-1) P_(k-2)^m,

    started with P_(m-1)^m = 0, so its first step gives
    P_(m+1)^m = x (2m+1) P_m^m.
    """
    root = np.sqrt((1.0 - x) * (1.0 + x))
    p_prev, p = 0.0, (-1) ** m * float(math.prod(range(1, 2 * m, 2))) * root ** m
    for k in range(m + 1, l + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k + m - 1) * p_prev) / (k - m)
    return p


def spherical_harmonic(l: int, m: int, theta, phi):
    """Orthonormal Y_lm(theta, phi), complex: exp(i m phi), Condon-Shortley phase."""
    if l < 0 or abs(m) > l:
        raise InvalidQuantumNumbers(f"need |m| <= l, l >= 0; got l={l}, m={m}")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    mm = abs(m)
    norm = math.sqrt(
        (2 * l + 1) / (4.0 * math.pi) * math.factorial(l - mm) / math.factorial(l + mm)
    )
    val = norm * _legendre_p(l, mm, np.cos(theta)) * np.exp(1j * mm * phi)
    if m < 0:
        val = (-1) ** mm * np.conj(val)
    return val if np.ndim(val) else complex(val)


@dataclass(frozen=True, eq=False)
class SphericalGrid3D:
    """Product grid (r x theta x phi) for vector-field diagnostics.

    Radii are log-spaced, colatitudes are Gauss-Legendre nodes (their
    weights integrate smooth functions of cos(theta) exactly enough for
    norm checks), azimuths are uniform with the endpoint excluded so the
    direction is periodic.

    Construction raises ValueError, naming the axis, unless r is finite,
    positive and strictly increasing, theta is finite and strictly
    increasing with its interior rows in (0, pi), and theta_weights is as
    long as theta: then the differences of div J divide by no zero.
    """

    r: np.ndarray
    theta: np.ndarray
    theta_weights: np.ndarray
    phi: np.ndarray

    def __post_init__(self) -> None:
        r, theta = np.asarray(self.r), np.asarray(self.theta)
        if not (np.isfinite(r).all() and (r > 0.0).all() and (np.diff(r) > 0.0).all()):
            raise ValueError("grid r must be finite, positive and strictly increasing")
        if not (np.isfinite(theta).all() and (np.diff(theta) > 0.0).all()):
            raise ValueError("grid theta must be finite and strictly increasing")
        if not ((theta[1:-1] > 0.0) & (theta[1:-1] < math.pi)).all():
            raise ValueError("grid theta must lie in (0, pi) on its interior rows")
        if np.size(self.theta_weights) != theta.size:
            raise ValueError(
                f"grid theta_weights has {np.size(self.theta_weights)} entries, "
                f"theta has {theta.size}"
            )

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.r.size, self.theta.size, self.phi.size)


@functools.lru_cache(maxsize=8, typed=True)
def _colatitudes(n_theta: int) -> tuple[np.ndarray, np.ndarray]:
    """(theta, weights): the n_theta Gauss-Legendre colatitudes in
    increasing order and their weights.  They depend only on n_theta, so
    they are cached and read-only; grids with the same n_theta share them.
    typed=True keeps n_theta = 2.0 from hitting the entry of np.int64(2),
    so it still raises leggauss's TypeError.  numpy.polynomial is imported
    here, so building radial states never loads it.
    """
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(n_theta)
    order = np.argsort(-x)  # theta increasing means cos(theta) decreasing
    theta, weights = np.arccos(x[order]), w[order]
    theta.flags.writeable = weights.flags.writeable = False
    return theta, weights


def current_check_grid(
    R: RadialWavefunction,
    n_r: int = 200,
    n_theta: int = 64,
    n_phi: int = 64,
) -> SphericalGrid3D:
    """The product grid of n_r log radii up to R's 1e-8 tail radius,
    n_theta Gauss-Legendre colatitudes and n_phi uniform azimuths.

    theta and theta_weights are read-only and shared by every grid with
    the same n_theta.  A count below 1 raises ValueError naming it; a
    count that is not an integer raises TypeError.
    """
    for name, count in (("n_r", n_r), ("n_theta", n_theta), ("n_phi", n_phi)):
        if operator.index(count) < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    theta, weights = _colatitudes(n_theta)
    r_hi = R.tail_radius(1e-8)
    return SphericalGrid3D(
        r=np.geomspace(1e-3 * r_hi, r_hi, n_r),
        theta=theta,
        theta_weights=weights,
        phi=2.0 * math.pi * np.arange(n_phi) / n_phi,
    )


class SeparableField(np.lib.mixins.NDArrayOperatorsMixin):
    """The field radial[:, None, None] * angular[None, :, :], kept as its factors.

    `radial` is real, shape (n_r,); `angular` has shape (n_theta, n_phi).
    Both are read-only, so they never go stale, and the field allocates
    nothing of its own size: np.asarray(field) is the one way to get the
    dense samples, with the bytes of the broadcast product.  Operators,
    ufuncs and indexing work on those dense samples and return plain
    ndarrays without factors; the exception is np.abs of a real field,
    which is the field |radial| (x) |angular| because |fl(x)| = fl(|x|).
    shape, dtype, nbytes (the factors' bytes), any() and, for a real
    field, max() come from the factors and equal their dense values.
    """

    def __init__(self, radial, angular) -> None:
        radial, angular = np.array(radial), np.array(angular)
        if radial.ndim != 1 or angular.ndim != 2 or np.iscomplexobj(radial):
            raise ValueError("need a real 1-D radial factor and a 2-D angular factor")
        radial.flags.writeable = angular.flags.writeable = False
        self.radial, self.angular = radial, angular

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.radial.size, *self.angular.shape)

    @property
    def dtype(self) -> np.dtype:
        return np.result_type(self.radial, self.angular)

    @property
    def nbytes(self) -> int:
        return self.radial.nbytes + self.angular.nbytes

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a SeparableField has no dense samples to share")
        dense = self.radial[:, None, None] * self.angular[None, :, :]
        return dense if dtype is None else dense.astype(dtype, copy=False)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if any(isinstance(x, SeparableField) for x in kwargs.get("out", ())):
            raise ValueError("a SeparableField is read-only")
        if ufunc is np.absolute and method == "__call__" and not kwargs and self.dtype.kind == "f":
            return SeparableField(np.abs(self.radial), np.abs(self.angular))
        inputs = [np.asarray(x) if isinstance(x, SeparableField) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)

    def __getitem__(self, key) -> np.ndarray:
        return np.asarray(self)[key]

    def any(self) -> bool:
        """Whether a sample is nonzero: the largest product of magnitudes, per part of angular."""
        peak = np.abs(self.radial).max(initial=0.0)
        return any(
            peak * np.abs(part).max(initial=0.0) != 0.0
            for part in (self.angular.real, self.angular.imag)
        )

    def max(self) -> np.floating:
        """Largest sample of a real field: rounding is monotone, so one of the corner products."""
        if self.dtype.kind != "f":
            raise TypeError("max needs a real field")
        a, b = self.radial, self.angular
        return np.multiply.outer([a.min(), a.max()], [b.min(), b.max()]).max()


def sample_state(
    p: PhysicalParams, R: RadialWavefunction, m: int, grid: SphericalGrid3D
) -> SeparableField:
    """Complex psi_nlm samples, shape (n_r, n_theta, n_phi), with factors R and Y_lm."""
    qn = QuantumNumbers(n=R.qn.n, l=R.qn.l, m=m)
    radial = R.evaluate(grid.r)
    angular = spherical_harmonic(qn.l, qn.m, grid.theta[:, None], grid.phi[None, :])
    return SeparableField(radial, angular)


def _factors_on(grid: SphericalGrid3D, field) -> tuple[np.ndarray, np.ndarray]:
    """(radial, angular) of a SeparableField sampled on grid."""
    if not isinstance(field, SeparableField):
        raise TypeError(
            f"need a SeparableField, got {type(field).__name__}: build it with "
            "sample_state or SeparableField(radial, angular); slices and arithmetic "
            "results of a field are plain arrays"
        )
    if field.shape != grid.shape:
        raise ValueError(f"field shape {field.shape} does not match the grid {grid.shape}")
    return field.radial, field.angular


def _phi_spectral_derivative(f: np.ndarray) -> np.ndarray:
    """d/dphi along the last axis, which is periodic and uniform."""
    n_phi = f.shape[-1]
    k = np.fft.fftfreq(n_phi, d=1.0 / n_phi)
    if n_phi % 2 == 0:
        k[n_phi // 2] = 0.0  # derivative of the unpaired Nyquist mode is ill-defined
    return np.fft.ifft(1j * k * np.fft.fft(f, axis=-1), axis=-1)


def probability_current(
    psi: SeparableField, grid: SphericalGrid3D, p: PhysicalParams, m_sys: float
) -> tuple[SeparableField, SeparableField, SeparableField]:
    """(J_r, J_theta, J_phi) of the sampled state psi = R (x) Y.

    J = 2*hbar/(m0 + m) * Im(psi* grad psi).  The differences are linear,
    so the r and theta gradients of R (x) Y are R' (x) Y and
    R (x) dY/dtheta, and the phi derivative acts on Y alone; each
    component comes back as a SeparableField.  The r and theta gradients
    are second-order differences; the phi one is spectral (the grid is
    periodic and uniform), so single-mode phases e^(i m phi) are
    differentiated to machine accuracy.  R is real, so J_r's angular
    factor Im(conj(Y) Y) = Im|Y|^2 is exact zeros (its radial factor is
    pref R R'), and J_theta and J_phi share the radial factor
    pref R^2/r.  A real Y has identically zero current and is
    short-circuited to exact zeros, which covers every m = 0 eigenstate.

    psi must be a SeparableField; anything else raises TypeError.
    """
    R, Y = _factors_on(grid, psi)
    if not Y.imag.any():
        zeros = SeparableField(np.zeros(grid.r.size), np.zeros(Y.shape))
        return zeros, zeros, zeros  # read-only, so sharing one is safe
    pref = 2.0 * p.hbar / (p.rest_mass + m_sys)
    conj = np.conj(Y)
    tangential = pref * R ** 2 / grid.r
    return (
        SeparableField(pref * R * np.gradient(R, grid.r), np.zeros(Y.shape)),
        SeparableField(tangential, np.imag(conj * np.gradient(Y, grid.theta, axis=0))),
        SeparableField(
            tangential,
            np.imag(conj * _phi_spectral_derivative(Y)) / np.sin(grid.theta)[:, None],
        ),
    )


def _divergence_terms(
    factors: list[tuple[np.ndarray, np.ndarray]], grid: SphericalGrid3D
) -> tuple[np.ndarray, np.ndarray]:
    """(radial, angular): the factors of the three terms of div J on the grid interior.

    Term k of div J is the outer product of radial[:, k], shape
    (n_r - 4,), and angular[k], shape (n_theta - 2, n_phi).
    """
    (a_r, b_r), (a_theta, b_theta), (a_phi, b_phi) = factors
    d_phi = 2.0 * math.pi / grid.phi.size
    r = grid.r
    sin_t = np.sin(grid.theta)[:, None]
    radial = np.stack(
        [np.gradient(r ** 2 * a_r, r) / r ** 2, a_theta / r, a_phi / r], axis=1
    )[2:-2]
    angular = np.stack([
        b_r,
        np.gradient(sin_t * b_theta, grid.theta, axis=0) / sin_t,
        (np.roll(b_phi, -1, axis=1) - np.roll(b_phi, 1, axis=1)) / (2.0 * d_phi * sin_t),
    ])[:, 1:-1, :]
    return radial, angular


def _divergence(
    J: tuple[SeparableField, SeparableField, SeparableField], grid: SphericalGrid3D
) -> SeparableField | np.ndarray:
    """div J on the grid interior: a SeparableField when its rank is 0 or 1,
    else the dense samples.

    A term of div J whose factor of J is all zeros is zero and dropped,
    and terms with equal radial columns are merged into one.  That leaves
    rank 1 for every stationary state (J_r's angular factor is zeros, and
    J_theta and J_phi share their radial factor), returned as the field
    radial (x) summed angular, and rank 0 for every m = 0 current, whose
    zeros come back before the terms are built.  Only a hand-built current
    of rank 2 or more comes back dense, all three terms summed by one
    product of the _divergence_terms factors.
    """
    n_r, n_theta, n_phi = grid.shape
    if n_r < 5 or n_theta < 3 or n_phi < 1:
        raise ValueError(
            f"div J needs n_r >= 5, n_theta >= 3 and n_phi >= 1; the grid is {grid.shape}"
        )
    factors = [_factors_on(grid, c) for c in J]
    if any(np.iscomplexobj(b) for _, b in factors):
        raise TypeError("a current component must be real")
    live = [k for k, (a, b) in enumerate(factors) if a.any() and b.any()]
    if not live:
        return SeparableField(np.zeros(n_r - 4), np.zeros((n_theta - 2, n_phi)))
    radial, angular = _divergence_terms(factors, grid)
    column = radial[:, live[0]]
    if all(np.array_equal(radial[:, k], column) for k in live[1:]):
        return SeparableField(column, angular[live].sum(axis=0))
    return np.tensordot(radial, angular, 1)


def divergence_field(
    J: tuple[SeparableField, SeparableField, SeparableField], grid: SphericalGrid3D
) -> np.ndarray:
    """div J on the grid interior, by second-order differences.

    Returns the (n_r - 4, n_theta - 2, n_phi) interior block: the outermost
    two radial rows and the polar rows are dropped because the one-sided
    stencils there are much noisier than the bulk.  The phi direction is
    periodic, so every phi sample survives.  Grids smaller than
    5 x 3 x 1 have no interior and raise ValueError.

    Each component must be a real SeparableField, as probability_current
    returns; anything else raises TypeError.  A div J of rank 0 or 1
    (every current of probability_current) is the outer product of its
    two factors, zeros for an all-zeros current.
    """
    return np.asarray(_divergence(J, grid))


def continuity_check(
    J: tuple[SeparableField, SeparableField, SeparableField], grid: SphericalGrid3D
) -> float:
    """max |div J| over the grid interior: np.abs(divergence_field(J, grid)).max().

    For a stationary state the probability density is time-independent, so
    conservation demands div J = 0; the returned number is the numerical
    residual of that statement.  A div J of rank 0 or 1 (every current of
    probability_current) takes it from the corner products of its two
    factors, since rounding is monotone, without building div J, and
    gives 0.0 for an all-zeros current.  Only a hand-built current of rank
    2 or more builds the dense div J.
    """
    return float(np.abs(_divergence(J, grid)).max())
