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

Importing the package loads no numpy.  `core`, `coulomb`, `errors` and
`lorentz` are plain arithmetic and run at import.  The array modules
`solver`, `special` and `wavefunction` are registered in sys.modules and
on the package at import, but their code, and with it numpy, runs on the
first attribute lookup of any of them, or of a package name they define.
So `spectrum`, `lorentz` and the error exits of the CLI never load numpy.
"""

import importlib.machinery
import importlib.util
import sys
import threading
import types

from . import core, coulomb, errors, lorentz
from .core import *  # noqa: F403
from .coulomb import *  # noqa: F403
from .errors import *  # noqa: F403
from .lorentz import *  # noqa: F403

__version__ = "0.1.0"

# One re-entrant lock for every deferred module: the thread that runs one
# may reach the others (wavefunction imports solver and special) and its own
# attributes (the loader reads __name__ and __dict__); other threads wait.
_run_lock = threading.RLock()
_running = set()


class _DeferredModule(types.ModuleType):
    """A submodule whose code runs on the first attribute lookup.

    Unlike importlib.util.LazyLoader, the class switches to a plain module
    only after the code has run, so a thread that looks up an attribute
    meanwhile waits for the whole module instead of finding it empty.
    """

    def __getattribute__(self, attr):
        with _run_lock:
            if type(self) is _DeferredModule and self not in _running:
                _running.add(self)
                try:
                    types.ModuleType.__getattribute__(self, "__spec__").loader.exec_module(self)
                    self.__class__ = types.ModuleType
                finally:
                    _running.discard(self)
        return types.ModuleType.__getattribute__(self, attr)


def _defer(name: str) -> types.ModuleType:
    spec = importlib.machinery.PathFinder.find_spec(f"{__name__}.{name}", __path__)
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _DeferredModule
    sys.modules[spec.name] = module
    return module


solver = _defer("solver")
special = _defer("special")
wavefunction = _defer("wavefunction")
_MODULES = (core, coulomb, errors, lorentz, solver, special, wavefunction)


def __getattr__(name: str):
    """`__all__` and the public names of the deferred modules (PEP 562)."""
    if name == "__all__":
        # Each module's __all__ is the one list of its public names.
        return [*(n for module in _MODULES for n in module.__all__), "__version__"]
    # `from kgbound import cli` looks cli up here before importing it, and
    # must not run the array modules on the way
    if not name.startswith("_") and name != "cli":
        for module in (solver, special, wavefunction):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
