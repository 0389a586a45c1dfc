"""Imports: the package namespace, and a cold start in which numpy loads
only when a command reaches arrays, and scipy only when it reaches the
eigensolver, and then only its top-level package and its LAPACK extension
module.

Each cold-start test runs the CLI or the library in a fresh interpreter,
since modules loaded by other tests in this process would hide what a real
invocation loads.
"""
import json
import os
import subprocess
import sys
import types

import kgbound

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# look up an unknown package name, run main() on each argv given as JSON,
# then report whether the name was found, exit codes, whether numpy is
# loaded, which array modules have not run yet (looked up in sys.modules
# only: any attribute lookup would run them) and the scipy modules loaded
_PROBE = """
import contextlib, io, json, sys, types
import kgbound
from kgbound import cli
foo = hasattr(kgbound, "foo")
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
deferred = [m for m in ("solver", "special", "wavefunction")
            if type(sys.modules["kgbound." + m]) is not types.ModuleType]
print(json.dumps({"foo": foo, "codes": codes, "numpy": "numpy" in sys.modules,
                  "deferred": deferred, "scipy": scipy}))
"""

# four threads meet at a barrier, then each makes its first call into the
# solver, which runs the module's code (and imports numpy) in one of them
_THREAD_PROBE = """
import json, sys, threading, types
import kgbound
from kgbound.core import PhysicalParams, PotentialSpec, SolveMode
assert "numpy" not in sys.modules
solver = sys.modules["kgbound.solver"]
p = PhysicalParams(alpha=0.1)
barrier = threading.Barrier(4)
results = [None] * 4

def work(i):
    barrier.wait()
    try:
        results[i] = solver.solve_self_consistent(
            solver.SolveRequest(SolveMode.KG_VECTOR, PotentialSpec.coulomb(), 1, 0,
                                solver.RadialGrid(30.0, 400)), p).e_prime
    except Exception as exc:
        results[i] = repr(exc)

threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(json.dumps({"results": results, "plain": type(solver) is types.ModuleType}))
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

# the wavefunction command and the radial checks, then a check grid;
# whether numpy.polynomial (Gauss-Legendre nodes only) is loaded after each
_RADIAL_PROBE = """
import contextlib, io, json, sys
from kgbound import cli
from kgbound.core import PhysicalParams
from kgbound.wavefunction import (
    build_radial, count_radial_nodes, current_check_grid, radial_ode_residual,
    reference_residual_grid)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["wavefunction", "--n", "3", "--l", "1", "--samples", "50"])
p = PhysicalParams(alpha=0.3)
R = build_radial(p, 2, 1)
radial_ode_residual(R, p, reference_residual_grid(R))
count_radial_nodes(R)
radial = "numpy.polynomial" in sys.modules
current_check_grid(R, n_r=20, n_theta=8, n_phi=8)
print(json.dumps({"code": code, "radial": radial, "grid": "numpy.polynomial" in sys.modules}))
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


def fresh_report(*argvs):
    return _run_probe(_PROBE, json.dumps(argvs))


def _loaded(scipy, name):
    return any(m == name or m.startswith(name + ".") for m in scipy)


def test_import_loads_no_numpy_and_registers_the_array_modules_unrun():
    # perfbench's tracer looks the array modules up in sys.modules right
    # after `import kgbound.cli`, so they must be there before they run;
    # the probe imports the CLI as `from kgbound import cli`, which also
    # looks cli up on the package first; an unknown name is just absent
    report = fresh_report()
    assert report["foo"] is False
    assert report["codes"] == [] and not report["numpy"] and report["scipy"] == []
    assert report["deferred"] == ["solver", "special", "wavefunction"]


def test_closed_form_commands_and_error_exits_load_no_numpy():
    report = fresh_report(
        ["--help"],
        ["--version"],
        ["spectrum"],
        ["lorentz"],
        ["spectrum", "--alpha", "0.9"],
        ["solve", "--mode", "bogus"],
        ["spectrum", "--alpha", "nan"],
    )
    assert report["codes"] == [0, 0, 0, 0, 3, 2, 2]
    assert not report["numpy"]
    assert report["deferred"] == ["solver", "special", "wavefunction"]


def test_wavefunction_loads_numpy_but_no_scipy():
    report = fresh_report(["wavefunction", "--samples", "50"])
    # wavefunction needs nothing from special, so special never runs
    assert report["codes"] == [0] and report["numpy"] and report["deferred"] == ["special"]
    assert report["scipy"] == []


def test_first_calls_from_four_threads_all_succeed():
    report = _run_probe(_THREAD_PROBE)
    results = report["results"]
    assert all(isinstance(e, float) for e in results), results
    assert len(set(results)) == 1
    assert report["plain"]


def test_solve_loads_lapack_only():
    report = fresh_report(
        ["solve", "--grid-n", "400"],
        ["compare", "--grid-n", "400"],
        ["convergence", "--sizes", "200,400,800"],
    )
    assert report["codes"] == [0, 0, 0] and report["numpy"]
    scipy = set(report["scipy"])
    assert "scipy.linalg._flapack" in scipy
    for name in ("scipy.integrate", "scipy.special", "scipy._lib._array_api"):
        assert not _loaded(scipy, name), name
    assert "scipy.linalg" not in scipy


def test_current_diagnostics_load_no_scipy():
    assert _run_probe(_CURRENT_PROBE)["scipy"] == []


def test_radial_states_load_no_numpy_polynomial():
    assert _run_probe(_RADIAL_PROBE) == {"code": 0, "radial": False, "grid": True}


def test_package_namespace_is_the_module_lists():
    modules = ["core", "coulomb", "errors", "lorentz", "solver", "special", "wavefunction"]
    assert kgbound.__all__ == [*modules, "__version__"]
    star = {}
    exec("from kgbound import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(kgbound.__all__)
    assert not hasattr(kgbound, "solve_self_consistent")
    for name in modules:
        module = getattr(kgbound, name)
        assert sys.modules[f"kgbound.{name}"] is module
        assert module.__name__ == f"kgbound.{name}"  # the lookup runs a deferred module
        assert type(module) is types.ModuleType, name

