"""Independent output checks for the benchmark workloads.

Every function here uses numpy alone and never imports ugwkit: the answers
come from how the inputs were built (a known permutation, an isometric copy)
or from the definitions in the paper, summed directly. Each ``*_problems``
function returns a list of human-readable problems, empty when the output
passes.
"""

from __future__ import annotations

import math

import numpy as np

# |debiased value| / |cross term| allowed for an isometric pair
DEBIAS_RTOL = 1e-6
# mass_pi against the plan CSV sum and mass_gamma, relative
MASS_RTOL = 1e-12
# F(pi, gamma) against F(pi, pi), relative to 1 + |F|
TIGHTNESS_RTOL = 1e-5
# grid moment equations, absolute
MOMENT_ATOL = 1e-9
# reported grid cost against the recomputed energy, relative
ENERGY_RTOL = 1e-9
# H(lift pi) may exceed L(pi) by at most this much
LIFT_ATOL = 1e-8
# moons: outlier share bound at the smallest rho, and inversions allowed
MOONS_SHARE_BOUND = 0.1
MOONS_MAX_INVERSIONS = 1


def moons_problems(rows, low_rho=0.01):
    """Outlier mass must not grow as rho falls; tiny at the smallest rho.

    ``rows`` are run_moons rows (seed, rho, outlier_mass, mass_over_share),
    grouped by seed in falling-rho order. Rows that carry an error are
    skipped; they are counted as failed operations elsewhere.
    """
    problems = []
    by_seed = {}
    for row in rows:
        if row["error"] == "":
            by_seed.setdefault(row["seed"], []).append(row)
    inversions = 0
    for seed, seq in by_seed.items():
        rhos = [row["rho"] for row in seq]
        if rhos != sorted(rhos, reverse=True):
            problems.append(f"moons seed {seed}: rows not in falling-rho order {rhos}")
            continue
        masses = [row["outlier_mass"] for row in seq]
        inversions += sum(1 for a, b in zip(masses, masses[1:]) if b > a * (1 + 1e-9) + 1e-15)
        for row in seq:
            if row["rho"] == low_rho and not row["mass_over_share"] <= MOONS_SHARE_BOUND:
                problems.append(
                    f"moons seed {seed}: outlier share {row['mass_over_share']:.3g} at "
                    f"rho={low_rho} above {MOONS_SHARE_BOUND}"
                )
    if inversions > MOONS_MAX_INVERSIONS:
        problems.append(f"moons: {inversions} outlier-mass inversions (at most "
                        f"{MOONS_MAX_INVERSIONS} allowed)")
    return problems


def permutation_problems(plan, expected_col):
    """The row argmax of ``plan`` must be ``expected_col[i]`` for every row i."""
    plan = np.asarray(plan, dtype=float)
    expected_col = np.asarray(expected_col)
    if plan.shape != (expected_col.size, expected_col.size):
        return [f"plan shape {plan.shape} does not match {expected_col.size} points"]
    wrong = np.flatnonzero(plan.argmax(axis=1) != expected_col)
    if wrong.size:
        return [f"row argmax misses the known permutation on {wrong.size} rows "
                f"(first: row {int(wrong[0])})"]
    return []


def cli_problems(code, plan, summary, expected_col):
    """One ``ugwkit ugw --debias`` invocation: exit code 0, and the plan and
    summary it wrote (None when missing) pass the checks below.

    The CLI writes both files before it returns 1 for an unconverged solve,
    so the files are checked whatever the exit code.
    """
    problems = [] if code == 0 else [f"ugw --debias exited with code {code}"]
    if plan is None or summary is None:
        return problems + ["ugw --debias wrote no plan CSV or no summary"]
    return (problems + permutation_problems(plan, expected_col)
            + cli_summary_problems(summary, plan))


def cli_summary_problems(summary, plan):
    """Debiased value, masses and tightness of a ``ugwkit ugw --debias`` run
    on a pair of isometric spaces."""
    problems = []
    deb = summary.get("debiased")
    if deb is None:
        return ["summary has no debiased block"]
    if not abs(deb["value"]) <= DEBIAS_RTOL * abs(deb["cross"]):
        problems.append(f"debiased value {deb['value']:.3g} is not zero relative to "
                        f"the cross term {deb['cross']:.6g}")
    mass_pi = summary["mass_pi"]
    plan_mass = float(np.sum(plan))
    tight = summary["tightness"]
    for name, other in (("plan CSV sum", plan_mass), ("mass_gamma", tight["mass_gamma"])):
        if not abs(mass_pi - other) <= MASS_RTOL * abs(mass_pi):
            problems.append(f"mass_pi {mass_pi!r} differs from {name} {other!r}")
    f_pg, f_pp = tight["F_pi_gamma"], tight["F_pi_pi"]
    if not abs(f_pg - f_pp) <= TIGHTNESS_RTOL * (1.0 + abs(f_pg)):
        problems.append(f"F_pi_gamma {f_pg!r} and F_pi_pi {f_pp!r} disagree")
    return problems


def grid_radii(K, L, mass_x, mass_y):
    """Radii r_k = k R / K, s_l = l R / L with R^2 = m(mu)^2 + m(nu)^2."""
    R = math.hypot(mass_x, mass_y)
    return np.arange(K + 1) * (R / K), np.arange(L + 1) * (R / L)


def grid_moment_problems(grid, mu, nu):
    """alpha >= 0, sum_jkl r_k^2 alpha = mu_i and sum_ikl s_l^2 alpha = nu_j."""
    grid = np.asarray(grid, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    problems = []
    if np.any(grid < 0):
        problems.append(f"grid plan has negative entries (min {grid.min():.3g})")
    r, s = grid_radii(grid.shape[2] - 1, grid.shape[3] - 1, mu.sum(), nu.sum())
    h1 = np.einsum("ijkl,k->i", grid, r * r)
    h2 = np.einsum("ijkl,l->j", grid, s * s)
    for name, h, w in (("mu", h1, mu), ("nu", h2, nu)):
        err = float(np.max(np.abs(h - w)))
        if not err <= MOMENT_ATOL:
            problems.append(f"moment equation for {name} off by {err:.3g}")
    return problems


def gh_grid_energy(grid, DX, DY, rho, mass_x, mass_y):
    """H(alpha) for a grid plan in the Gaussian-Hellinger setting.

    Double sum over charged cells (i, j, k, l) of
    w w' rho [(r r')^2 + (s s')^2 - 2 r r' s s' exp(-|DX_ii' - DY_jj'|^2 / (2 rho))].
    """
    grid = np.asarray(grid, dtype=float)
    r, s = grid_radii(grid.shape[2] - 1, grid.shape[3] - 1, mass_x, mass_y)
    i, j, k, l = np.nonzero(grid)
    w = grid[i, j, k, l]
    rr = np.outer(r[k], r[k])
    ss = np.outer(s[l], s[l])
    d = np.abs(np.asarray(DX)[np.ix_(i, i)] - np.asarray(DY)[np.ix_(j, j)])
    cost = rho * (rr * rr + ss * ss - 2.0 * rr * ss * np.exp(-d * d / (2.0 * rho)))
    return float(w @ cost @ w)


def energy_problems(reported, recomputed):
    if not abs(reported - recomputed) <= ENERGY_RTOL * abs(recomputed):
        return [f"reported cost {reported!r} differs from the recomputed energy {recomputed!r}"]
    return []


def _kl(p, q):
    """Generalized KL sum p log(p/q) - p + q over arrays, 0 log 0 = 0."""
    p = np.ravel(p)
    q = np.ravel(q)
    pos = p > 0
    return float(np.sum(p[pos] * np.log(p[pos] / q[pos])) - p.sum() + q.sum())


def quadratic_energy(pi, DX, DY, mu, nu, rho):
    """L(pi) = sum_ijkl (DX_ij - DY_kl)^2 pi_ik pi_jl
    + rho KL(pi_1 (x) pi_1 | mu (x) mu) + rho KL(pi_2 (x) pi_2 | nu (x) nu),
    summed over the full index tensors."""
    pi = np.asarray(pi, dtype=float)
    DX = np.asarray(DX, dtype=float)
    DY = np.asarray(DY, dtype=float)
    diff = DX[:, None, :, None] - DY[None, :, None, :]  # (i, k, j, l)
    distortion = float(np.einsum("ikjl,ik,jl->", diff * diff, pi, pi))
    p1, p2 = pi.sum(axis=1), pi.sum(axis=0)
    pen = _kl(np.outer(p1, p1), np.outer(mu, mu)) + _kl(np.outer(p2, p2), np.outer(nu, nu))
    return distortion + rho * pen


def lift_problems(H, L):
    if not H <= L + LIFT_ATOL:
        return [f"lifted conic energy {H!r} exceeds the quadratic energy {L!r}"]
    return []
