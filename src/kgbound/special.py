"""The eta correction product and the relativistic associated Laguerre
polynomials, as plain coefficient arrays, lowest power first.

This is the paper's coefficient table.  No runtime path runs it; the
tests use it as the oracle for wavefunction.py's closed form.

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
polynomial of non-integer order a.  At nu = k the ratio leaves |c_top| k!
= [(n+l)!]^2 Gamma(a+1) / (Gamma(a+k+1) Gamma(1-sigma_l) Gamma(2l+2-sigma_l)),
which wavefunction.py takes by math.lgamma; the tests check both identities,
against scipy.special.genlaguerre and against laguerre_rel.
"""

from __future__ import annotations

import math

import numpy as np

from .core import PhysicalParams, QuantumNumbers
from .coulomb import sigma_closed

__all__ = ["eta_product", "laguerre_rel", "laguerre_classical"]


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
    sign is kept verbatim, which makes the nu=0 coefficient negative.
    Raises OverflowError when [(n+l)!]^2 leaves the float range, from
    n + l = 99 on.
    """
    QuantumNumbers(n=n, l=l)  # raises InvalidQuantumNumbers
    sigma = sigma_closed(p, l).sigma_l
    try:
        fac_nl_sq = math.gamma(n + l + 1.0) ** 2
    except OverflowError:
        raise OverflowError(f"[(n+l)!]^2 leaves the float range for (n={n}, l={l})") from None
    out = np.empty(n - l)
    for nu in range(n - l):
        denom = (
            math.gamma(n - l - nu)  # (n-l-1-nu)!
            * math.gamma(2 * l + nu + 2.0 - sigma)
            * math.gamma(nu + 1.0 - sigma)
            * eta_product(l, nu, p.z_alpha, sigma)
        )
        out[nu] = (-1.0 if nu % 2 == 0 else 1.0) * fac_nl_sq / denom  # (-1)^(nu+1)
    return out


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
