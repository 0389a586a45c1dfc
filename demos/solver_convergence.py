"""Self-consistent eigensolve, step by step.

The relativistic modes feed the eigenvalue back into the mass
(m = m0 + E'/c^2) and iterate to a fixed point.  This demo shows the
iteration trace, then a grid-refinement study with Richardson
extrapolation closing the gap to the closed form.
"""
from kgbound.core import PhysicalParams, PotentialSpec
from kgbound.coulomb import energy_level
from kgbound.solver import (
    SolveMode,
    SolveRequest,
    convergence_study,
    solve_self_consistent,
)


def main() -> None:
    p = PhysicalParams(alpha=0.3)
    pot = PotentialSpec.coulomb()
    req = SolveRequest(mode=SolveMode.KG_VECTOR, potential=pot, n=2, l=0)

    state, trace = solve_self_consistent(req, p, with_trace=True)
    ref = energy_level(p, 2, 0)

    print("Fixed-point iteration for (n, l) = (2, 0) at Z*alpha = 0.3:")
    for i, resid in enumerate(trace, start=1):
        print(f"  iteration {i:2d}: |dm|/m0 = {resid:.3e}")
    print(f"  converged in {state.iterations} iterations, "
          f"final residual {state.residual:.1e}")
    print(f"  E'(numeric, single grid) = {state.e_prime:.12e}")
    print(f"  E'(closed form)          = {ref.e_prime:.12e}")
    print("  the single-grid value carries the discretization error;")
    print("  refinement below reduces it\n")

    study = convergence_study(req, p, grid_sizes=(1000, 2000, 4000, 8000))
    print(f"Grid study over one fixed box (r_max = {study.r_max:.1f}):")
    print(f"{'points':>8} {'E_prime':>22} {'extrapolated':>22} {'order':>7}")
    for i, (n_pts, e_prime, rich) in enumerate(study.rows):
        rich_s = f"{rich:.15e}" if rich is not None else ""
        order_s = (f"{study.observed_orders[i - 2]:.3f}"
                   if i >= 2 else "")
        print(f"{n_pts:>8} {e_prime:>22.15e} {rich_s:>22} {order_s:>7}")

    best = study.best_estimate
    print(f"\n  best estimate     {best:.15e}")
    print(f"  closed form       {ref.e_prime:.15e}")
    print(f"  relative mismatch {abs(best - ref.e_prime) / abs(ref.e_prime):.2e}")
    orders = ", ".join(f"{order:.3f}" for order in study.observed_orders)
    print(f"  observed orders   {orders} (the stencil's order is 2)")


if __name__ == "__main__":
    main()
