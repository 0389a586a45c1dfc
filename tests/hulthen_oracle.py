"""Closed-form l = 0 Hulthen levels: the oracle of the equal-potential tests.

A Hulthen channel U = -g lam exp(-lam r)/(1 - exp(-lam r)) binds the l = 0
Schrodinger level n of a particle of mass mu at

    E'_n = -(hbar^2 lam^2 / (8 mu)) (b/n - n)^2,   b = 2 mu g / (hbar^2 lam),

bound iff b > n^2.  The schrodinger mode takes mu = m0 and g = Z e_s^2.
With equal scalar and vector parts (S = U) the Klein-Gordon radial
equation is that Schrodinger equation with g doubled and mu = (m0 + m)/2
at the system mass m = m0 + E'/c^2, so a kg-equal level is the fixed point
of that map in E'.  lam is given in units of 1/a0 at the rest mass, as
HulthenPart stores it.
"""
from kgbound.core import PhysicalParams


def _level(mu: float, g: float, lam_abs: float, n: int, hbar: float) -> float:
    """E'_n at mass mu and coupling g; 0 (the threshold) when not bound."""
    b = 2.0 * mu * g / (hbar ** 2 * lam_abs)
    if b <= n * n:
        return 0.0
    return -(hbar ** 2 * lam_abs ** 2 / (8.0 * mu)) * (b / n - n) ** 2


def hulthen_level(p: PhysicalParams, lam: float, n: int, equal: bool) -> float | None:
    """E' of the l = 0 Hulthen level n, or None if the channel does not bind it.

    equal=False is the schrodinger mode, equal=True the kg-equal mode.
    """
    lam_abs = lam / p.bohr_radius()
    g = p.z_number * p.e_squared
    if not equal:
        e = _level(p.rest_mass, g, lam_abs, n, p.hbar)
        return e if e < 0.0 else None
    # E' falls as mu rises and mu rises with E', so from E' = 0 the iterates
    # close in on the fixed point from alternate sides; it is bound iff
    # the level at mu = m0 is
    e = 0.0
    for _ in range(200):
        e_new = _level(0.5 * (2.0 * p.rest_mass + e / p.c ** 2), 2.0 * g, lam_abs, n, p.hbar)
        if abs(e_new - e) <= 1e-15 * abs(e_new):
            return e_new if e_new < 0.0 else None
        e = e_new
    raise RuntimeError(f"kg-equal Hulthen fixed point not reached for lam = {lam}, n = {n}")
