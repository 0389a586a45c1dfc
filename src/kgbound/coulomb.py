"""Closed-form Klein-Gordon spectrum for a pure Coulomb (vector) potential.

The pionic-hydrogen problem admits a closed form: the centrifugal barrier
picks up a -Z^2*alpha^2/r^2 shift, which moves the effective angular index
by the quantum defect

    sigma_l = l + 1/2 - sqrt((l + 1/2)^2 - Z^2*alpha^2),

and the energy levels follow by replacing n -> n - sigma_l in a
hydrogen-like formula:

    E_n = m0*c^2 * [1 + Z^2*alpha^2/(n - sigma_l)^2]^(-1/2).

The system mass m = m0 + E'/c^2 = E_n/c^2 is itself quantized.  A
low-coupling expansion of E_n through the alpha^4 term,

    m0*c^2 * [1 - (Z*alpha)^2/(2n^2)
                - (Z*alpha)^4/(2n^4) * (n/(l + 1/2) - 3/4) - ...],

differs from the Dirac fine-structure formula in its l-dependence (l + 1/2
here versus j + 1/2), as expected for a spin-0 constituent.

All evaluations are compensated against cancellation: sigma_l is O(alpha^2)
while the naive subtraction operands are O(1), and E' = E_n - m0*c^2 is
O(alpha^2) likewise, so both go through expm1/log1p-style forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import BoundState, PhysicalParams, QuantumNumbers, validate_params

__all__ = [
    "DefectValue",
    "sigma_closed",
    "sigma_series",
    "energy_level",
    "energy_expansion",
    "system_mass",
]


@dataclass(frozen=True)
class DefectValue:
    """Quantum defect sigma_l with its angular index."""

    sigma_l: float
    l: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.sigma_l < self.l + 0.5:
            raise ValueError(f"sigma_l = {self.sigma_l} outside [0, l + 1/2)")


def sigma_closed(p: PhysicalParams, l: int) -> DefectValue:
    """Closed-form quantum defect.

    Evaluated as (l + 1/2)*x / (1 + sqrt(1 - x)) with x = (Z*alpha/(l+1/2))^2,
    which is algebraically identical to l + 1/2 - sqrt((l+1/2)^2 - (Z*alpha)^2)
    but free of the O(alpha^2)-vs-O(1) cancellation.
    """
    validate_params(p, QuantumNumbers(n=l + 1, l=l))
    half = l + 0.5
    x = (p.z_alpha / half) ** 2
    return DefectValue(sigma_l=half * x / (1.0 + math.sqrt(1.0 - x)), l=l)


def sigma_series(p: PhysicalParams, l: int, k_max: int) -> DefectValue:
    """Partial sum of the defect power series in (Z*alpha)^2.

    sigma_l = sum_{k>=1} 2^(k-1) (2k-3)!! / (k! (2l+1)^(2k-1)) * (Z*alpha)^(2k),
    with the convention (-1)!! = 1 so that the k=1 term is (Z*alpha)^2/(2l+1).
    The terms are generated by the exact ratio

        t_{k+1}/t_k = 2*(2k-1)/(k+1) * (Z*alpha/(2l+1))^2,

    which avoids overflowing double factorials at large k.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    validate_params(p, QuantumNumbers(n=l + 1, l=l))
    za2 = p.z_alpha ** 2
    ratio_base = za2 / (2 * l + 1) ** 2
    term = za2 / (2 * l + 1)
    total = term
    for k in range(1, k_max):
        term *= 2.0 * (2 * k - 1) / (k + 1) * ratio_base
        total += term
    return DefectValue(sigma_l=total, l=l)


def energy_level(p: PhysicalParams, n: int, l: int) -> BoundState:
    """Closed-form level as a BoundState (no radial samples).

    The quadratic for the energy has two roots, +E_n and -E_n; this is the
    positive one, the physical spectrum, with E' = E_n - m0 c^2.
    """
    validate_params(p, QuantumNumbers(n=n, l=l))
    sigma = sigma_closed(p, l).sigma_l
    t = (p.z_alpha / (n - sigma)) ** 2
    # E' = m0 c^2 [(1+t)^(-1/2) - 1], kept exact for small t.
    e_prime = p.rest_energy * math.expm1(-0.5 * math.log1p(t))
    return BoundState(QuantumNumbers(n=n, l=l), e_prime, p)


def energy_expansion(p: PhysicalParams, n: int, l: int) -> float:
    """Low-coupling expansion of E_n through the alpha^4 term, verbatim."""
    QuantumNumbers(n=n, l=l)  # raises InvalidQuantumNumbers
    za2 = p.z_alpha ** 2
    nn = float(n)
    return p.rest_energy * (
        1.0 - za2 / (2.0 * nn ** 2) - za2 ** 2 / (2.0 * nn ** 4) * (nn / (l + 0.5) - 0.75)
    )


def system_mass(p: PhysicalParams, n: int, l: int) -> float:
    """Quantized system mass m = m0 * [1 + Z^2 alpha^2/(n - sigma_l)^2]^(-1/2)."""
    validate_params(p, QuantumNumbers(n=n, l=l))
    sigma = sigma_closed(p, l).sigma_l
    t = (p.z_alpha / (n - sigma)) ** 2
    return p.rest_mass * math.exp(-0.5 * math.log1p(t))
