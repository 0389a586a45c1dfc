"""Exception taxonomy for kgbound.

Every error derives from KGBoundError through one of three bases, and the
base fixes the CLI exit code:

- ConfigError: malformed or unknown CLI/config input, exit 2;
- PhysicsError: the request has no answer in the physics (invalid regime,
  no such state), exit 3;
- NumericalError: the computation broke down (an iteration or eigensolve
  failure), exit 4.

Float overflow is not wrapped: the CLI maps OverflowError to exit 4 as
well, and build_radial raises it when a radial state leaves the float
range.
"""

from __future__ import annotations

__all__ = [
    "KGBoundError",
    "PhysicsError",
    "NumericalError",
    "SupercriticalCoupling",
    "InvalidQuantumNumbers",
    "StateNotFound",
    "NoConvergence",
    "SuperluminalBoost",
    "UnsupportedCombination",
    "ConfigError",
]


class KGBoundError(Exception):
    """Base class for all kgbound errors."""


class PhysicsError(KGBoundError):
    """The requested state or regime does not exist (CLI exit 3)."""


class NumericalError(KGBoundError):
    """A numerical method failed on a valid request (CLI exit 4)."""


class SupercriticalCoupling(PhysicsError):
    """Z*alpha >= l + 1/2: the quantum defect turns complex, no real bound level."""


class InvalidQuantumNumbers(PhysicsError):
    """(n, l, m) outside 0 <= l <= n-1, |m| <= l."""


class StateNotFound(PhysicsError):
    """No bound eigenvalue with the requested node count on this grid."""


class NoConvergence(NumericalError):
    """Self-consistency iteration exhausted its budget, or the eigensolve failed."""


class SuperluminalBoost(PhysicsError):
    """|v| >= c requested for a frame boost."""


class UnsupportedCombination(PhysicsError):
    """Potential parts incompatible with the requested equation mode."""


class ConfigError(KGBoundError):
    """Malformed or unknown CLI/config input (CLI exit 2)."""
