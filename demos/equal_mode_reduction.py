"""Equal scalar and vector potentials collapse to a Schrodinger problem.

When the scalar and vector channels carry the same potential U, the
quadratic terms cancel and the radial equation is exactly a Schrodinger
equation with averaged mass (m0 + m)/2 and doubled potential 2U.  For a
screened potential this Schrodinger problem has its own closed-form
l = 0 spectrum, which gives an independent oracle for the solver.
"""
import numpy as np

from kgbound.core import PhysicalParams, PotentialSpec
from kgbound.solver import SolveMode, SolveRequest, convergence_study, solve_self_consistent


def mapped_level(p: PhysicalParams, lam: float, m_sys: float, n: int = 1) -> float:
    """Screened l=0 level at doubled coupling and averaged mass."""
    lam_abs = lam / p.bohr_radius()
    m_eff = 0.5 * (p.rest_mass + m_sys)
    b = 4.0 * m_eff * p.z_number * p.e_squared / (p.hbar ** 2 * lam_abs)
    return -(p.hbar ** 2 * lam_abs ** 2 / (8.0 * m_eff)) * (b / n - n) ** 2


def mapped_fixed_point(p: PhysicalParams, lam: float, n: int = 1) -> float:
    """The mapped level at its own system mass m = m0 + E'/c^2, by iteration."""
    e = 0.0
    for _ in range(200):
        e_new = mapped_level(p, lam, p.rest_mass + e / p.c ** 2, n)
        if abs(e_new - e) < 1e-16:
            break
        e = e_new
    return e_new


def main() -> None:
    p = PhysicalParams(alpha=0.3)

    print("Screened ground state in the equal-potential mode, checked")
    print("against the mapped Schrodinger closed form.\n")
    print(f"{'lambda':>8} {'E_prime (solver)':>22} {'mapped oracle':>22} {'rel err':>10}")
    for lam in (0.1, 0.2, 0.5):
        req = SolveRequest(mode=SolveMode.KG_EQUAL,
                           potential=PotentialSpec.equal_hulthen(lam), n=1, l=0)
        # Richardson on 4000 and 8000 points over one box
        e_num = convergence_study(req, p, (4000, 8000)).best_estimate
        e_ref = mapped_fixed_point(p, lam)
        print(f"{lam:>8.2f} {e_num:>22.15e} {e_ref:>22.15e} "
              f"{abs(e_num - e_ref) / abs(e_ref):>10.1e}")

    print("\nScreening weakens binding, so |E'| shrinks as lambda grows;")
    print("at lambda = 0.5 only n = 1 and n = 2 remain bound at all.")

    lam = 0.2
    pot = PotentialSpec.equal_hulthen(lam)
    st = solve_self_consistent(
        SolveRequest(mode=SolveMode.KG_EQUAL, potential=pot, n=1, l=0), p)
    coul = solve_self_consistent(
        SolveRequest(mode=SolveMode.KG_EQUAL,
                     potential=PotentialSpec.equal_coulomb(), n=1, l=0), p)
    print(f"\nFor scale: equal-mode Coulomb E' = {coul.e_prime:.10e},")
    print(f"screened (lambda = {lam}) E'     = {st.e_prime:.10e}")


if __name__ == "__main__":
    main()
