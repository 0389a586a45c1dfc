"""Fresh-interpreter side of the benchmark.

    python3 perfbench/child.py setup            import kgbound + kgbound.cli, warm up
    python3 perfbench/child.py import WHAT      time one import: numpy | scipy | kgbound
    python3 perfbench/child.py cli [--trace] -- ARGV...
                                                run kgbound.cli:main(ARGV) as the
                                                console script would

kgbound is imported from this checkout's src/, never from site-packages.
The `cli` mode ends stderr with one MARKER line holding the process's peak
RSS and, with --trace, its spans; an exception escaping main() still
propagates afterwards, so tracebacks look exactly as a user would see them.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
MARKER = "@@perfbench "

# what each `import` probe imports; for scipy, the submodules kgbound uses
_IMPORTS = {
    "numpy": ("numpy",),
    "scipy": ("scipy.linalg", "scipy.integrate", "scipy.special"),
    "kgbound": ("kgbound", "kgbound.cli"),
}


def import_kgbound():
    """Import kgbound.cli from SRC and check that it is the copy that was found."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import kgbound.cli

    origin = os.path.dirname(os.path.abspath(kgbound.__file__))
    if origin != os.path.join(SRC, "kgbound"):
        raise ImportError(f"kgbound was imported from {origin}, not from {SRC}")
    return kgbound


def warm_up() -> None:
    """One small call into each layer, so lazy set-up is done before timing."""
    from kgbound.core import PhysicalParams, PotentialSpec
    from kgbound.coulomb import energy_level, system_mass
    from kgbound.lorentz import BoostSpec, CharacterState, boost_forward
    from kgbound.solver import SolveMode, SolveRequest, default_solver_grid, solve_self_consistent
    from kgbound.wavefunction import (
        build_radial,
        continuity_check,
        current_check_grid,
        probability_current,
        sample_state,
    )

    p = PhysicalParams(alpha=0.1)
    pot = PotentialSpec.coulomb()
    grid = default_solver_grid(SolveMode.KG_VECTOR, pot, p, 1, 0, n_points=1000)
    solve_self_consistent(SolveRequest(mode=SolveMode.KG_VECTOR, potential=pot, n=1, l=0, grid=grid), p)
    energy_level(p, 2, 1)
    R = build_radial(p, 2, 1)
    g = current_check_grid(R, n_r=20, n_theta=8, n_phi=8)
    continuity_check(probability_current(sample_state(p, R, 1, g), g, p, system_mass(p, 2, 1)), g)
    boost_forward(CharacterState(e_total=1.3, p=(0.3, 0.0, 0.0), u_potential=0.2), BoostSpec(v=0.6))


def _run_cli(argv: list[str], trace: bool) -> int:
    t0 = time.perf_counter()
    kgbound = import_kgbound()
    t1 = time.perf_counter()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.span("import.kgbound", t0, t1)
        tracer.install()
    try:
        return kgbound.cli.main(argv)  # looked up after install, so main is traced too
    finally:
        record = {"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if tracer is not None:
            spans, counts = tracer.take()
            record.update(spans=spans, counts=counts, main_thread=tracer.main_thread)
        sys.stderr.write(MARKER + json.dumps(record) + "\n")
        sys.stderr.flush()


def main(args: list[str]) -> int:
    if args and args[0] == "setup":
        import_kgbound()
        warm_up()
        return 0
    if len(args) == 2 and args[0] == "import" and args[1] in _IMPORTS:
        if args[1] == "kgbound":
            sys.path.insert(0, SRC)
        t0 = time.perf_counter()
        for name in _IMPORTS[args[1]]:
            __import__(name)
        print(f"{time.perf_counter() - t0:.9f}")
        return 0
    if args and args[0] == "cli" and "--" in args:
        split = args.index("--")
        return _run_cli(args[split + 1:], trace="--trace" in args[1:split])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
