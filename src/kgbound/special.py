"""Gamma function, the eta correction product, and the relativistic
associated Laguerre polynomials.

gamma_fn is math.gamma behind a pole check.  The polynomials are plain
coefficient arrays, lowest power first.

The polynomial family generalizes the classical associated Laguerre
polynomials L^{2l+1}_{n+l} (in the older quantum-mechanics convention with
squared-factorial prefactor) to non-integer order 2l+1-2*sigma_l: the
coefficient of rho^nu is

    (-1)^(nu+1) [(n+l)!]^2
    ---------------------------------------------------------------
    (n-l-1-nu)! Gamma(2l+nu+2-sigma_l) Gamma(nu+1-sigma_l) eta(l,nu)

for nu = 0 .. n-l-1, where eta(l,nu) is a finite product of factors
1 + Z^2 alpha^2 / ((j-sigma_l)(2l+1+j-sigma_l)).  At Z*alpha -> 0 every
factor collapses and the classical coefficients reappear.

Since Z^2 alpha^2 = sigma_l (2l+1-sigma_l), each factor is
j(a+j) / ((j-sigma_l)(2l+1+j-sigma_l)) with a = 2l+1-2*sigma_l, so eta is
a Gamma ratio,

    eta(l,nu) = nu! Gamma(a+nu+1) Gamma(1-sigma_l) Gamma(2l+2-sigma_l)
                / (Gamma(a+1) Gamma(nu+1-sigma_l) Gamma(2l+2+nu-sigma_l)),

and the polynomial is c_top (-1)^k k! L_k^(a)(rho), with k = n-l-1, c_top
its rho^k coefficient and L_k^(a) the classical generalized Laguerre
polynomial of non-integer order a.  wavefunction.py evaluates L_k^(a) and
normalizes with the classical integral; the tests check the identity
against scipy.special.genlaguerre.
"""

from __future__ import annotations

import math

import numpy as np

from .core import PhysicalParams, QuantumNumbers
from .coulomb import sigma_closed
from .errors import PoleError

__all__ = [
    "gamma_fn",
    "eta_product",
    "laguerre_rel",
    "laguerre_classical",
]


def gamma_fn(x: float) -> float:
    """Gamma(x) for real x that is not a nonpositive integer.

    math.gamma does the work; this wrapper rejects NaN with ValueError and
    reports the poles as PoleError, which the CLI maps to a numerical failure.
    """
    if math.isnan(x):
        raise ValueError("gamma_fn called with NaN")
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"Gamma has a pole at {x:g}")
    return math.gamma(x)


def eta_product(l: int, nu: int, z_alpha: float, sigma_l: float) -> float:
    """eta(l, nu) = prod_{k=1}^{nu} (1 + Z^2 alpha^2/((k-sigma_l)(2l+1+k-sigma_l))).

    Empty product for nu = 0.  Under 0 <= sigma_l < 1/2 every denominator is
    positive, so the product is >= 1.
    """
    if nu < 0:
        raise ValueError(f"nu must be >= 0, got {nu}")
    za2 = z_alpha ** 2
    out = 1.0
    for k in range(1, nu + 1):
        out *= 1.0 + za2 / ((k - sigma_l) * (2 * l + 1 + k - sigma_l))
    return out


def laguerre_rel(p: PhysicalParams, n: int, l: int) -> np.ndarray:
    """Coefficients of L^{2l+1-sigma_l}_{n+l}(rho) per the defining formula.

    Entry nu multiplies rho^nu, nu = 0 .. n-l-1.  The leading (-1)^(nu+1)
    sign is kept verbatim, which makes the nu=0 coefficient negative;
    wavefunction assembly uses only |c_top|.  Raises OverflowError when
    [(n+l)!]^2 leaves the float range, from n + l = 99 on.
    """
    QuantumNumbers(n=n, l=l)  # raises InvalidQuantumNumbers
    return np.array([_laguerre_coefficient(p, n, l, nu) for nu in range(n - l)])


def _laguerre_coefficient(p: PhysicalParams, n: int, l: int, nu: int) -> float:
    """Entry nu of laguerre_rel(p, n, l), computed alone (same errors, same bits)."""
    QuantumNumbers(n=n, l=l)  # raises InvalidQuantumNumbers
    sigma = sigma_closed(p, l).sigma_l
    try:
        fac_nl_sq = gamma_fn(n + l + 1.0) ** 2
    except OverflowError:
        raise OverflowError(f"[(n+l)!]^2 leaves the float range for (n={n}, l={l})") from None
    sign = -1.0 if nu % 2 == 0 else 1.0  # (-1)^(nu+1)
    denom = (
        gamma_fn(n - l - nu)  # (n-l-1-nu)!
        * gamma_fn(2 * l + nu + 2.0 - sigma)
        * gamma_fn(nu + 1.0 - sigma)
        * eta_product(l, nu, p.z_alpha, sigma)
    )
    return sign * fac_nl_sq / denom


def laguerre_classical(n: int, l: int) -> np.ndarray:
    """Zero-coupling limit: sigma_l = 0, eta = 1, exact integer factorials.

    Deliberately a separate code path (math.factorial, no gamma calls) so it
    can serve as an independent cross-check of laguerre_rel.
    """
    QuantumNumbers(n=n, l=l)  # raises InvalidQuantumNumbers
    fac_nl_sq = math.factorial(n + l) ** 2
    out = np.empty(n - l)
    for nu in range(n - l):
        sign = -1 if nu % 2 == 0 else 1
        out[nu] = sign * fac_nl_sq / (
            math.factorial(n - l - 1 - nu) * math.factorial(2 * l + 1 + nu) * math.factorial(nu)
        )
    return out
