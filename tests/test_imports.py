"""Imports: the package namespace, and a cold start in which scipy loads
only when a command reaches the eigensolver, and then only its top-level
package and its LAPACK extension module.

Each cold-start test runs the CLI or the library in a fresh interpreter,
since scipy modules loaded by other tests in this process would hide what
a real invocation loads.
"""
import json
import os
import subprocess
import sys

import kgbound

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# run main() on each argv given as JSON, then report exit codes and scipy modules
_PROBE = """
import contextlib, io, json, sys
import kgbound, kgbound.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(kgbound.cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""

# the 3D current diagnostics on a small grid, then the scipy modules loaded
_CURRENT_PROBE = """
import json, sys
from kgbound.core import PhysicalParams
from kgbound.coulomb import system_mass
from kgbound.wavefunction import (
    build_radial, continuity_check, current_check_grid, probability_current, sample_state)
p = PhysicalParams(alpha=0.3)
R = build_radial(p, 2, 1)
grid = current_check_grid(R, n_r=20, n_theta=8, n_phi=8)
J = probability_current(sample_state(p, R, 1, grid), grid, p, system_mass(p, 2, 1))
continuity_check(J, grid)
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"scipy": scipy}))
"""


def _run_probe(probe, *args):
    proc = subprocess.run(
        [sys.executable, "-c", probe, *args],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def run_fresh(*argvs):
    report = _run_probe(_PROBE, json.dumps(argvs))
    return report["codes"], set(report["scipy"])


def _loaded(scipy, name):
    return any(m == name or m.startswith(name + ".") for m in scipy)


def test_import_loads_no_scipy():
    codes, scipy = run_fresh()
    assert codes == [] and scipy == set()


def test_closed_form_commands_and_error_exits_load_no_scipy():
    codes, scipy = run_fresh(
        ["spectrum"],
        ["lorentz"],
        ["wavefunction", "--samples", "50"],
        ["spectrum", "--alpha", "0.9"],
        ["solve", "--mode", "bogus"],
    )
    assert codes == [0, 0, 0, 3, 2]
    assert scipy == set()


def test_solve_loads_lapack_only():
    codes, scipy = run_fresh(
        ["solve", "--grid-n", "400"],
        ["compare", "--grid-n", "400"],
        ["convergence", "--sizes", "200,400,800"],
    )
    assert codes == [0, 0, 0]
    assert "scipy.linalg._flapack" in scipy
    for name in ("scipy.integrate", "scipy.special", "scipy._lib._array_api"):
        assert not _loaded(scipy, name), name
    assert "scipy.linalg" not in scipy


def test_current_diagnostics_load_no_scipy():
    assert _run_probe(_CURRENT_PROBE)["scipy"] == []


def test_package_namespace_is_the_module_lists():
    modules = ("core", "coulomb", "errors", "lorentz", "solver", "special", "wavefunction")
    expected = [n for m in modules for n in getattr(kgbound, m).__all__] + ["__version__"]
    assert kgbound.__all__ == expected
    assert len(set(kgbound.__all__)) == len(kgbound.__all__)
    for name in kgbound.__all__:
        assert hasattr(kgbound, name), name
