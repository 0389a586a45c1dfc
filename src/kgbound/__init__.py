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

The package is its seven modules; import each name from the module that
defines it (`from kgbound.solver import solve_self_consistent`).
Importing the package loads no numpy.  `core`, `coulomb`, `errors` and
`lorentz` are plain arithmetic and run at import.  The array modules
`solver`, `special` and `wavefunction` are registered in sys.modules and
on the package at import, but their code, and with it numpy, runs on the
first attribute lookup of any of them.  So `spectrum`, `lorentz` and the
error exits of the CLI never load numpy.
"""

import importlib.machinery
import importlib.util
import sys
import threading
import types

from . import core, coulomb, errors, lorentz

__version__ = "0.1.0"
__all__ = ["core", "coulomb", "errors", "lorentz", "solver", "special", "wavefunction",
           "__version__"]

# One re-entrant lock for every deferred module: the thread that runs one
# may reach the others (wavefunction imports solver) and its own
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
