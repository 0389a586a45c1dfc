"""Frame transformation of the characteristic pair (E - U, p).

In a frame where the particle sits in an external potential U, the
quantities that transform like a free four-momentum are not (E, p) but
(E - U, p): the boost along +x acts as

    p_x' = gamma*p_x - gamma*(v/c^2)*(E - U)
    E' - U' = gamma*(E - U) - gamma*v*p_x

with p_y, p_z untouched, and the combination (E - U)^2 - c^2 |p|^2 is the
frame invariant (equal to m0^2 c^4 on shell).  The potential value U' in
the target frame is an input, not something this module derives: no
transformation law for the potential field itself is assumed, so the
caller supplies the value seen at the particle's location in the new
frame.  Boosts are restricted to the x-axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SuperluminalBoost

__all__ = [
    "CharacterState",
    "BoostSpec",
    "boost_forward",
    "boost_backward",
    "invariant_mass_sq",
    "boost_event",
    "compose_boosts",
]


@dataclass(frozen=True)
class CharacterState:
    """Energy, momentum, and local potential value in one inertial frame.

    States may be off-shell; nothing here enforces the mass-shell relation.
    """

    e_total: float
    p: tuple[float, float, float]
    u_potential: float = 0.0

    def __post_init__(self) -> None:
        if len(self.p) != 3:
            raise ValueError("momentum must have three components")
        values = (self.e_total, *self.p, self.u_potential)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("character state entries must be finite")

    @property
    def shifted_energy(self) -> float:
        """E - U, the quantity that actually transforms."""
        return self.e_total - self.u_potential


@dataclass(frozen=True)
class BoostSpec:
    """Boost with speed v along +x; beta and gamma are derived views."""

    v: float
    c: float = 1.0

    def __post_init__(self) -> None:
        if self.c <= 0:
            raise ValueError("c must be positive")
        if not math.isfinite(self.v) or abs(self.v) >= self.c:
            raise SuperluminalBoost(f"|v| = {abs(self.v):g} must stay below c = {self.c:g}")

    @property
    def beta(self) -> float:
        return self.v / self.c

    @property
    def gamma(self) -> float:
        b = self.beta
        return 1.0 / math.sqrt((1.0 - b) * (1.0 + b))


def boost_forward(s: CharacterState, b: BoostSpec, u_prime: float = 0.0) -> CharacterState:
    """Transform s from frame K to the frame K' moving at +v along x.

    u_prime is the potential value at the particle's location as seen in
    K'; it is adopted verbatim and only shifts E' = (E' - U') + u_prime.
    Raises OverflowError when finite inputs boost past the float range.
    """
    g = b.gamma
    w = s.shifted_energy
    px, py, pz = s.p
    px_new = g * px - g * (b.v / b.c ** 2) * w
    e_new = g * w - g * b.v * px + u_prime
    if math.isfinite(u_prime) and not (math.isfinite(px_new) and math.isfinite(e_new)):
        raise OverflowError(f"boost by gamma = {g:g} leaves the float range")
    return CharacterState(e_total=e_new, p=(px_new, py, pz), u_potential=u_prime)


def boost_backward(s: CharacterState, b: BoostSpec, u: float = 0.0) -> CharacterState:
    """Inverse of boost_forward: back from K' to K, with K's potential value u.

    The same boost with -v; negating v only flips the sign of each term,
    so this is exact.
    """
    return boost_forward(s, BoostSpec(v=-b.v, c=b.c), u_prime=u)


def invariant_mass_sq(s: CharacterState, c: float = 1.0) -> float:
    """(E - U)^2 - c^2 |p|^2; equals (m0 c^2)^2 for on-shell states."""
    px, py, pz = s.p
    return s.shifted_energy ** 2 - c ** 2 * (px * px + py * py + pz * pz)


def boost_event(
    t: float, r: tuple[float, float, float], b: BoostSpec
) -> tuple[float, tuple[float, float, float]]:
    """Coordinate boost of an event: t' = gamma(t - v x/c^2), x' = gamma(x - v t).

    Companion to boost_forward for phase-invariance checks: for a free
    plane wave, E t - p.r evaluates to the same number in both frames.
    """
    g = b.gamma
    x, y, z = r
    return g * (t - b.v * x / b.c ** 2), (g * (x - b.v * t), y, z)


def compose_boosts(b1: BoostSpec, b2: BoostSpec) -> BoostSpec:
    """Single boost equivalent to applying b1 then b2 (velocity addition)."""
    if b1.c != b2.c:
        raise ValueError("boosts must share the same c")
    v = (b1.v + b2.v) / (1.0 + b1.v * b2.v / b1.c ** 2)
    return BoostSpec(v=v, c=b1.c)
