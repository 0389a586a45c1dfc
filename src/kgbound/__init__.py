"""Relativistic bound states of a single charge in an external potential.

The package works in the system-mass picture: a bound particle of rest
mass m0 with (negative) binding-sector energy E' behaves as a system of
mass m = m0 + E'/c^2, which turns the stationary Klein-Gordon problem into
a Schrodinger-shaped eigenvalue problem that must be solved
self-consistently in m.  Closed-form Coulomb spectra and wavefunctions,
a numerical radial solver for Coulomb and Hulthen channels, probability
current diagnostics, and the frame transforms of (E - U, p) are exposed
here; the `kgbound` console script serves the same functionality as
tables and data files.
"""

from . import core, coulomb, errors, lorentz, solver, special, wavefunction
from .core import *  # noqa: F403
from .coulomb import *  # noqa: F403
from .errors import *  # noqa: F403
from .lorentz import *  # noqa: F403
from .solver import *  # noqa: F403
from .special import *  # noqa: F403
from .wavefunction import *  # noqa: F403

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = [
    *core.__all__,
    *coulomb.__all__,
    *errors.__all__,
    *lorentz.__all__,
    *solver.__all__,
    *special.__all__,
    *wavefunction.__all__,
    "__version__",
]
