"""Law machinery without any simulation: closed forms, the fixed-point
solver, and Stieltjes-Perron inversion.

Run:  python3 demos/06_laws_and_solver.py
"""

import numpy as np

from rmtlab import laws


def main():
    # closed-form sanity: MP and semicircle densities integrate to one
    mp = laws.MPLaw(c=0.4, scale=1.0)
    a, b = mp.support
    x = np.linspace(a, b, 2001)
    mass = np.trapezoid(mp.density(x), x)
    print(f"MP(0.4, 1) support [{a:.3f}, {b:.3f}], grid mass {mass:.5f}")

    sc = laws.SCLaw(variance=1.0)
    print(f"SC(1) density at 0: {sc.density(0.0):.5f} "
          f"(1/pi = {1 / np.pi:.5f})")

    # solver consistency: a point mass at 1 reproduces the closed-form MP
    # Stieltjes transform
    zeta = laws.ZetaDistribution.point_mass(1.0)
    z = np.linspace(a, b, 50) + 1e-2j
    sol = laws.solve_stieltjes_grid(z, 0.4, 1.0, zeta)
    gap = np.max(np.abs(sol.values - laws.mp_stieltjes(mp, z)))
    print(f"solver vs closed form on {len(z)} points: max gap {gap:.2e}, "
          f"residual {sol.max_residual:.2e}")

    # nontrivial limit distribution of the conditional kernel mean
    zeta_ind = laws.zeta_indicator(z_alpha=0.5)
    print(f"indicator-kernel zeta (z_alpha=0.5): mean {zeta_ind.mean():.4f}, "
          f"second moment {zeta_ind.moment(2):.4f}")

    # full pipeline: solve on a grid, invert to a density, assemble a CDF
    x_grid = np.linspace(0.0, 1.15 * b, 400)
    genmp = laws.GenMPLaw(0.4, 1.0, zeta_ind, x_grid)
    print(f"generalized MP: atom at 0 = {genmp.atom_at_zero:.4f} (rank deficit), "
          f"mass correction {genmp.mass_correction:.4f}, "
          f"median ~ {x_grid[np.searchsorted(genmp.cdf(x_grid), 0.5)]:.4f}")

    # the same pipeline is available from the command line:
    #   rmt law --type genmp --c 0.4 --z-alpha 0.5 --out genmp.csv
    print("done; see 'rmt law --help' for the CLI equivalent")


if __name__ == "__main__":
    main()
