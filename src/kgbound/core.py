"""Domain types and unit conventions shared by every kgbound module.

Conventions
-----------
Natural units by default: hbar = c = 1 and the rest mass m0 = 1, so all
energies come out in units of m0*c^2 and lengths in units of hbar/(m0*c).
The squared Gaussian charge e_s^2 = alpha*hbar*c, so the Coulomb energy is
-Z*e_s^2/r and the Bohr-like length for a mass M is a0 = hbar^2/(M*e_s^2).

The central quantity throughout is the system mass

    m = m0 + E'/c^2,

the actual mass of the bound system once the (negative) energy E' excluding
rest energy is accounted for.  Bound states therefore have 0 < m < m0.

Importing this module loads no numpy: the array code (the potential
parts' evaluate, RadialGrid and the pairing check of BoundState's radial
samples) imports it where it runs, so the closed-form Coulomb levels and
the frame transforms run without it.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

from .errors import InvalidQuantumNumbers, SupercriticalCoupling

__all__ = [
    "ALPHA_FS",
    "PhysicalParams",
    "SolveMode",
    "QuantumNumbers",
    "CoulombPart",
    "HulthenPart",
    "PotentialSpec",
    "BoundState",
    "RadialGrid",
    "validate_params",
]

# CODATA 2018 fine-structure constant.
ALPHA_FS = 7.2973525693e-3


@dataclass(frozen=True)
class PhysicalParams:
    """Physical dial for every computation.

    Parameters
    ----------
    z_number : float
        Atomic number Z.  Real-valued on purpose: nothing in the math
        requires integrality and sweeps over Z*alpha are routine.
    alpha : float
        Fine-structure constant.
    rest_mass, c, hbar : float
        Rest mass m0, speed of light, reduced Planck constant.  Leave at 1
        for natural units.
    """

    z_number: float = 1.0
    alpha: float = ALPHA_FS
    rest_mass: float = 1.0
    c: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        for name in ("z_number", "alpha", "rest_mass", "c", "hbar"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")

    @property
    def e_squared(self) -> float:
        """Squared Gaussian charge e_s^2 = alpha*hbar*c."""
        return self.alpha * self.hbar * self.c

    @property
    def z_alpha(self) -> float:
        return self.z_number * self.alpha

    @property
    def rest_energy(self) -> float:
        return self.rest_mass * self.c ** 2

    def bohr_radius(self, mass: float | None = None) -> float:
        """a0 = hbar^2/(mass*e_s^2); defaults to the rest mass."""
        m = self.rest_mass if mass is None else mass
        return self.hbar ** 2 / (m * self.e_squared)


class SolveMode(enum.Enum):
    """Which radial equation a solve discretizes (see kgbound.solver)."""

    SCHRODINGER = "schrodinger"
    KG_VECTOR = "kg-vector"
    KG_SCALAR_VECTOR = "kg-scalar-vector"
    KG_EQUAL = "kg-equal"


@dataclass(frozen=True)
class QuantumNumbers:
    """(n, l, m) triple indexing a bound state."""

    n: int
    l: int
    m: int = 0

    def __post_init__(self) -> None:
        if not all(isinstance(v, numbers.Integral) for v in (self.n, self.l, self.m)):
            raise InvalidQuantumNumbers(f"quantum numbers must be integers, got {self!r}")
        if self.n < 1 or not (0 <= self.l <= self.n - 1) or abs(self.m) > self.l:
            raise InvalidQuantumNumbers(
                f"need n >= 1, 0 <= l <= n-1, |m| <= l; got (n={self.n}, l={self.l}, m={self.m})"
            )

    @property
    def radial_nodes(self) -> int:
        return self.n - self.l - 1


@dataclass(frozen=True)
class CoulombPart:
    """Attractive Coulomb channel -Z*e_s^2/r (Z and e_s^2 from PhysicalParams)."""

    def evaluate(self, r: np.ndarray, p: PhysicalParams) -> np.ndarray:
        import numpy as np

        return -p.z_number * p.e_squared / np.asarray(r, dtype=float)

    def origin_coefficients(self, p: PhysicalParams) -> tuple[float, float]:
        """(c_-1, c_0) of U = c_-1/r + c_0 + O(r) near the origin."""
        return -p.z_number * p.e_squared, 0.0


@dataclass(frozen=True)
class HulthenPart:
    """Screened Coulomb channel -Z*e_s^2*lam*exp(-lam*r)/(1 - exp(-lam*r)).

    The screening parameter is stored in units of 1/a0 with a0 evaluated at
    the rest mass, so defaults stay dimensionless in natural units.  As
    lam -> 0 the channel goes over to the plain Coulomb one.
    """

    lam: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"Hulthen screening parameter must be > 0, got {self.lam!r}")

    def lam_absolute(self, p: PhysicalParams) -> float:
        return self.lam / p.bohr_radius()

    def evaluate(self, r: np.ndarray, p: PhysicalParams) -> np.ndarray:
        import numpy as np

        lam = self.lam_absolute(p)
        # exp(-lam r)/(1-exp(-lam r)) = 1/expm1(lam r), stable for small lam*r.
        return -p.z_number * p.e_squared * lam / np.expm1(lam * np.asarray(r, dtype=float))

    def origin_coefficients(self, p: PhysicalParams) -> tuple[float, float]:
        """(c_-1, c_0) of U = c_-1/r + c_0 + O(r): lam/expm1(lam r) = 1/r - lam/2 + O(r)."""
        coupling = p.z_number * p.e_squared
        return -coupling, 0.5 * coupling * self.lam_absolute(p)


@dataclass(frozen=True)
class PotentialSpec:
    """Declarative scalar/vector potential content of a solve.

    Either part may be None (absent).  A fully empty spec is a free
    particle; solvers will report StateNotFound rather than reject it.
    """

    vector_part: CoulombPart | HulthenPart | None = None
    scalar_part: CoulombPart | HulthenPart | None = None

    @staticmethod
    def coulomb() -> "PotentialSpec":
        return PotentialSpec(vector_part=CoulombPart())

    @staticmethod
    def hulthen(lam: float) -> "PotentialSpec":
        return PotentialSpec(vector_part=HulthenPart(lam))

    @staticmethod
    def equal_coulomb() -> "PotentialSpec":
        return PotentialSpec(vector_part=CoulombPart(), scalar_part=CoulombPart())

    @staticmethod
    def equal_hulthen(lam: float) -> "PotentialSpec":
        return PotentialSpec(vector_part=HulthenPart(lam), scalar_part=HulthenPart(lam))


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Uniform Dirichlet grid of r in (0, r_max): the n_points interior
    points r_i = i*h with step h = r_max/(n_points + 1), read-only and
    computed on first use.

    r_max is kept as given: rebuilding it from the points can be off by an
    ulp.  Raises ValueError unless r_max > 0 and n_points >= 3, and
    OverflowError when r_max is inf or the step underflows to 0.
    """

    r_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not (self.r_max > 0 and self.n_points >= 3):
            raise ValueError(
                f"grid needs r_max > 0 and n_points >= 3, not {self.r_max!r}, {self.n_points!r}"
            )
        if not (math.isfinite(self.r_max) and self.step > 0):
            raise OverflowError(
                f"grid step {self.r_max!r}/{self.n_points + 1} leaves the float range"
            )

    @property
    def step(self) -> float:
        return self.r_max / (self.n_points + 1)

    @functools.cached_property
    def points(self) -> np.ndarray:
        import numpy as np

        points = self.step * np.arange(1, self.n_points + 1)
        points.flags.writeable = False
        return points


@dataclass(frozen=True, eq=False)
class BoundState:
    """Converged eigenvalue record: the state, its E' and the parameters it
    was solved at.

    Everything else follows from those: e_total = e_prime + m0*c^2,
    system_mass = m0 + e_prime/c^2 and node_count = n-l-1.  radial_samples
    is a (r, u) pair with u = r*R, empty for closed-form states.
    """

    qn: QuantumNumbers
    e_prime: float
    p: PhysicalParams
    radial_samples: tuple[np.ndarray, np.ndarray] | tuple[()] = ()
    iterations: int = 0
    residual: float = 0.0

    def __post_init__(self) -> None:
        if self.radial_samples:
            import numpy as np

            r, u = self.radial_samples
            if np.shape(r) != np.shape(u):
                raise ValueError("radial_samples arrays must be paired")

    @property
    def e_total(self) -> float:
        return self.e_prime + self.p.rest_energy

    @property
    def system_mass(self) -> float:
        return self.p.rest_mass + self.e_prime / self.p.c ** 2

    @property
    def node_count(self) -> int:
        return self.qn.radial_nodes


def validate_params(p: PhysicalParams, qn: QuantumNumbers) -> None:
    """Enforce the reality condition Z*alpha < l + 1/2 of the quantum defect.

    Beyond it the defect turns complex and no real bound level exists in
    this formalism, so every Coulomb entry point funnels through here.
    """
    if p.z_alpha >= qn.l + 0.5:
        raise SupercriticalCoupling(
            f"Z*alpha = {p.z_alpha:.6g} >= l + 1/2 = {qn.l + 0.5}: "
            "no real bound level for this (Z, l)"
        )
