"""Each benchmark check accepts a correct output and rejects a corrupted one.

Run with:  python3 -m pytest -q perfbench/test_checks.py
The outputs are built by hand here, so these tests need numpy only.
"""

import itertools
import math

import numpy as np

import checks


def _permuted_plan(n=6, seed=0):
    rng = np.random.default_rng(seed)
    expected = rng.permutation(n)
    plan = rng.uniform(0.0, 0.01, size=(n, n)) / n
    plan[np.arange(n), expected] = 1.0 / n
    return plan, expected


def test_permutation_accepts_the_known_matching():
    plan, expected = _permuted_plan()
    assert checks.permutation_problems(plan, expected) == []


def test_permutation_rejects_a_shuffled_plan_row():
    plan, expected = _permuted_plan()
    plan[2] = np.roll(plan[2], 1)
    assert checks.permutation_problems(plan, expected)


def test_permutation_rejects_a_wrong_permutation():
    plan, expected = _permuted_plan()
    wrong = expected.copy()
    wrong[[0, 1]] = wrong[[1, 0]]
    assert checks.permutation_problems(plan, wrong)


def _summary(plan, value=1e-16):
    mass = float(plan.sum())
    return {
        "mass_pi": mass,
        "tightness": {"mass_gamma": mass, "F_pi_gamma": 0.25, "F_pi_pi": 0.25 + 1e-9},
        "debiased": {"value": value, "cross": 0.09},
    }


def test_cli_summary_accepts_and_rejects():
    plan, _ = _permuted_plan()
    assert checks.cli_summary_problems(_summary(plan), plan) == []
    assert checks.cli_summary_problems(_summary(plan, value=1e-3), plan)
    bad_mass = _summary(plan)
    bad_mass["mass_pi"] *= 1 + 1e-9
    assert checks.cli_summary_problems(bad_mass, plan)
    loose = _summary(plan)
    loose["tightness"]["F_pi_pi"] = 0.26
    assert checks.cli_summary_problems(loose, plan)


def test_cli_rejects_a_nonzero_exit_code():
    plan, expected = _permuted_plan()
    assert checks.cli_problems(0, plan, _summary(plan), expected) == []
    assert checks.cli_problems(1, plan, _summary(plan), expected)


def test_cli_checks_the_files_whatever_the_exit_code():
    plan, expected = _permuted_plan()
    shuffled = plan.copy()
    shuffled[2] = np.roll(shuffled[2], 1)
    problems = checks.cli_problems(1, shuffled, _summary(shuffled), expected)
    assert any("permutation" in p for p in problems)
    assert checks.cli_problems(0, None, None, expected)


def _feasible_grid(mu, nu, K=4, L=4):
    """Each mu_i at radius R paired with the apex, each nu_j likewise."""
    R2 = mu.sum() ** 2 + nu.sum() ** 2
    grid = np.zeros((mu.size, nu.size, K + 1, L + 1))
    grid[np.arange(mu.size), 0, K, 0] = mu / R2
    grid[0, np.arange(nu.size), 0, L] = nu / R2
    return grid


def test_grid_moments_accept_a_feasible_plan():
    mu, nu = np.array([0.4, 1.1]), np.array([0.3, 0.5, 0.9])
    assert checks.grid_moment_problems(_feasible_grid(mu, nu), mu, nu) == []


def test_grid_moments_reject_one_broken_equation():
    mu, nu = np.array([0.4, 1.1]), np.array([0.3, 0.5, 0.9])
    grid = _feasible_grid(mu, nu)
    grid[1, 0, -1, 0] *= 1 + 1e-6  # breaks the equation for mu_1 only
    problems = checks.grid_moment_problems(grid, mu, nu)
    assert len(problems) == 1 and "mu" in problems[0]


def test_grid_energy_matches_the_cone_cost_by_hand():
    mu, nu = np.array([0.4, 1.1]), np.array([0.3, 0.5, 0.9])
    rng = np.random.default_rng(1)
    DX = np.array([[0.0, 1.3], [1.3, 0.0]])
    DY = np.abs(rng.normal(size=(3, 3)))
    DY = DY + DY.T
    np.fill_diagonal(DY, 0.0)
    grid = rng.uniform(0.0, 1.0, size=(2, 3, 3, 3)) * (rng.uniform(size=(2, 3, 3, 3)) < 0.3)
    r, s = checks.grid_radii(2, 2, mu.sum(), nu.sum())
    rho = 0.7
    want = 0.0
    for (i, j, k, l), (a, b, c, d) in itertools.product(np.ndindex(grid.shape), repeat=2):
        rr, ss = r[k] * r[c], s[l] * s[d]
        base = abs(DX[i, a] - DY[j, b])
        cone = rho * (rr**2 + ss**2 - 2 * rr * ss * math.exp(-base**2 / (2 * rho)))
        want += grid[i, j, k, l] * grid[a, b, c, d] * cone
    got = checks.gh_grid_energy(grid, DX, DY, rho, mu.sum(), nu.sum())
    assert math.isclose(got, want, rel_tol=1e-12)


def test_energy_rejects_a_cost_off_by_1e_6():
    assert checks.energy_problems(2.5, 2.5 * (1 + 1e-12)) == []
    assert checks.energy_problems(2.5 * (1 + 1e-6), 2.5)


def test_quadratic_energy_matches_a_loop():
    rng = np.random.default_rng(2)
    n, m, rho = 3, 4, 0.8
    DX = rng.uniform(0.1, 2.0, size=(n, n))
    DY = rng.uniform(0.1, 2.0, size=(m, m))
    pi = rng.uniform(0.0, 0.5, size=(n, m))
    pi[0, 1] = 0.0
    mu, nu = rng.uniform(0.2, 1.5, n), rng.uniform(0.2, 1.5, m)
    dist = sum((DX[i, j] - DY[k, l]) ** 2 * pi[i, k] * pi[j, l]
               for i, j, k, l in itertools.product(range(n), range(n), range(m), range(m)))

    def kl_sq(a, b):
        return sum(a[x] * a[y] * math.log(a[x] * a[y] / (b[x] * b[y])) - a[x] * a[y] + b[x] * b[y]
                   for x in range(a.size) for y in range(a.size))

    want = dist + rho * (kl_sq(pi.sum(axis=1), mu) + kl_sq(pi.sum(axis=0), nu))
    got = checks.quadratic_energy(pi, DX, DY, mu, nu, rho)
    assert math.isclose(got, want, rel_tol=1e-12)


def test_lift_rejects_an_energy_above_the_quadratic_cost():
    assert checks.lift_problems(1.0, 1.0) == []
    assert checks.lift_problems(1.0 + 1e-6, 1.0)


def _moons_rows(masses_by_seed, low_share=0.0):
    rows = []
    for seed, masses in masses_by_seed.items():
        for rho, mass in zip((10.0, 1.0, 0.1, 0.01), masses):
            share = low_share if rho == 0.01 else 1.0
            rows.append({"seed": seed, "rho": rho, "outlier_mass": mass,
                         "mass_over_share": share, "error": ""})
    return rows


def test_moons_accepts_falling_mass_and_one_inversion():
    rows = _moons_rows({1: (0.12, 0.01, 0.0, 0.0), 2: (0.11, 0.001, 0.002, 0.0)})
    assert checks.moons_problems(rows) == []


def test_moons_rejects_two_inversions_and_a_large_share():
    rows = _moons_rows({1: (0.12, 0.13, 0.0, 0.0), 2: (0.11, 0.001, 0.002, 0.0)})
    assert checks.moons_problems(rows)
    rows = _moons_rows({1: (0.12, 0.01, 0.0, 0.0)}, low_share=0.2)
    assert checks.moons_problems(rows)
