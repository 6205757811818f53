"""Watch marginal penalties drop outliers as rho shrinks.

A two-moons sample with a far-away outlier cluster is matched against a clean
sample. With a large rho the solver must transport everything, outliers
included. As rho decreases, keeping the marginals becomes negotiable and the
plan simply abandons the outlier rows: their transported mass collapses by
orders of magnitude while the inlier mass stays put.
"""

import numpy as np

from ugwkit import UgwConfig, gen_shape, solve_ugw, space_from_points


def main():
    n, n_out = 24, 4
    noisy = gen_shape("two_moons_outliers", n, seed=3, n_outliers=n_out)
    clean = gen_shape("two_moons_outliers", n, seed=11, n_outliers=0)

    X = space_from_points(noisy, label="moons + outliers")
    Y = space_from_points(clean, label="clean moons")
    out_rows = noisy.tags == -1
    share = n_out / X.n  # what the outliers would carry under uniform transport

    print(f"source: {n} moon points + {n_out} outliers, target: {n} clean points")
    print(f"uniform reference share for the outlier rows: {share:.3f}\n")
    print(f"{'rho':>8} {'plan mass':>10} {'outlier mass':>13} {'fraction':>10}")

    for rho in (10.0, 1.0, 0.1, 0.01):
        cfg = UgwConfig(eps=1e-2, rho1=rho, rho2=rho, max_outer=200)
        sol = solve_ugw(X, Y, cfg)
        mass = sol.pi.mass
        out_mass = float(sol.pi.row_marginal[out_rows].sum())
        frac = out_mass / mass if mass > 0 else 0.0
        print(f"{rho:>8g} {mass:>10.4f} {out_mass:>13.3e} {frac:>10.3e}")

    print("\nthe fraction falls from near the uniform share to essentially zero")


if __name__ == "__main__":
    main()
