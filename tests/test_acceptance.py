"""End-to-end gate: thirteen numbered checks over the public API.

Each check funnels into the shared criterion registry (see conftest), so a
plain `pytest` run ends with one PASS/FAIL line per criterion. Every
criterion is pre-registered as failed at import time; a test that dies
half-way therefore still produces its line.
"""

import math
import time

import numpy as np

import conftest
import oracles
from conftest import random_plan, random_space
from test_scaling import quad_profile_value

from ugwkit.app import run_moons, run_perturb, run_ratio_hist
from ugwkit.conic import ConeMetricSpec, ConicPlan, conic_energy, conic_lift, dilate, solve_cgw, up_residual
from ugwkit.geometry import space_from_points
from ugwkit.lp import LpProblem, solve_lp
from ugwkit.measures import MmSpace, quad_kl
from ugwkit.scaling import lambert_w, optimal_scale_linear, optimal_scale_quadratic, scaling_bias_report
from ugwkit.sinkhorn import uot_sinkhorn
from ugwkit.ugw import (
    UgwConfig,
    biconvex_functional,
    debiased_ugw,
    distortion_cost,
    local_cost,
    solve_ugw,
    ugw_functional,
)

for _num in range(1, 14):
    conftest.register_criterion(_num, False, "test did not complete")


def test_criterion_01_quad_kl_decomposition(criterion):
    t0 = time.monotonic()
    worst = 0.0
    for k in range(1000):
        rng = np.random.default_rng([1, k])
        n = int(rng.integers(2, 51))
        a = rng.uniform(0.1, 2.0, size=n)
        a[rng.random(n) < 0.1] = 0.0
        b = rng.uniform(0.1, 2.0, size=n)
        P = np.outer(a, a)
        Q = np.outer(b, b)
        direct = float(
            np.sum(np.where(P > 0, P * np.log(np.where(P > 0, P, 1.0) / Q), 0.0))
            - P.sum()
            + Q.sum()
        )
        err = abs(quad_kl(a, b) - direct) / (1.0 + abs(direct))
        worst = max(worst, err)
    dt = time.monotonic() - t0
    ok = worst <= 1e-10 and dt < 5.0
    criterion(1, ok, f"max normalized error {worst:.2e} over 1000 pairs in {dt:.2f}s")


def test_criterion_02_two_homogeneity(criterion):
    cfg = UgwConfig(eps=1e-300, rho1=0.8, rho2=1.3)
    worst = 0.0
    for k in range(100):
        rng = np.random.default_rng([2, k])
        X = random_space(rng, int(rng.integers(2, 7)), weights="mass")
        Y = random_space(rng, int(rng.integers(2, 7)), weights="mass")
        P = random_plan(rng, X.n, Y.n)
        base = ugw_functional(X, Y, P, cfg)
        for kappa in (0.5, 2.0, 10.0):
            Xk = MmSpace(X.dist, kappa * X.weights)
            Yk = MmSpace(Y.dist, kappa * Y.weights)
            scaled = ugw_functional(Xk, Yk, kappa * P, cfg)
            worst = max(worst, abs(scaled / base - kappa**2) / kappa**2)
    criterion(2, worst <= 1e-12, f"max relative deviation from kappa^2: {worst:.2e}")


def test_criterion_03_cost_assembly_vs_loops(criterion):
    worst = 0.0
    for k in range(50):
        rng = np.random.default_rng([3, k])
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        X = random_space(rng, n, weights="mass")
        Y = random_space(rng, m, weights="mass")
        P = random_plan(rng, n, m)
        G = random_plan(rng, n, m)
        rho2 = math.inf if k % 5 == 0 else float(rng.uniform(0.3, 2.0))
        cfg = UgwConfig(
            eps=float(rng.uniform(1e-3, 0.5)), rho1=float(rng.uniform(0.3, 2.0)), rho2=rho2
        )
        for val, ref in (
            (distortion_cost(X.dist, Y.dist, P), oracles.distortion_loop(X.dist, Y.dist, P)),
            (distortion_cost(X.dist, Y.dist, P, G), oracles.distortion_loop(X.dist, Y.dist, P, G)),
        ):
            worst = max(worst, abs(val - ref) / (1.0 + abs(ref)))
        lc = local_cost(X, Y, G, cfg)
        lc_ref = oracles.local_cost_loop(X, Y, G, cfg.eps, cfg.rho1, cfg.rho2)
        worst = max(worst, float(np.max(np.abs(lc - lc_ref) / (1.0 + np.abs(lc_ref)))))
    criterion(3, worst <= 1e-10, f"max normalized error {worst:.2e} over 50 instances")


def test_criterion_04_sinkhorn_fixed_point(criterion):
    rng = np.random.default_rng(4)
    cost = rng.uniform(0.0, 2.0, size=(6, 7))
    mu = rng.uniform(0.3, 1.2, size=6)
    nu = rng.uniform(0.3, 1.2, size=7)
    res = uot_sinkhorn(cost, mu, nu, 0.7, 1.3, eps=5e-2, tol_pot=1e-9, max_inner=50000)
    again = uot_sinkhorn(cost, mu, nu, 0.7, 1.3, eps=5e-2, init=res.potentials, max_inner=1)
    drift = max(
        float(np.max(np.abs(again.potentials.f - res.potentials.f))),
        float(np.max(np.abs(again.potentials.g - res.potentials.g))),
    )
    prob_mu = np.full(5, 0.2)
    prob_nu = np.full(4, 0.25)
    bal = uot_sinkhorn(
        cost[:5, :4], prob_mu, prob_nu, math.inf, math.inf, eps=5e-2, tol_pot=1e-9,
        max_inner=50000,
    )
    defect = max(
        float(np.max(np.abs(bal.plan.values.sum(axis=1) - prob_mu))),
        float(np.max(np.abs(bal.plan.values.sum(axis=0) - prob_nu))),
    )
    big = uot_sinkhorn(1e3 * cost, mu, nu, 1.0, 1.0, eps=1e-3, max_inner=500)
    finite = (
        np.all(np.isfinite(big.plan.values))
        and np.all(np.isfinite(big.potentials.f))
        and np.all(np.isfinite(big.potentials.g))
    )
    ok = res.converged and drift <= 1e-8 and defect <= 1e-6 and finite
    criterion(
        4,
        ok,
        f"reapplication drift {drift:.2e}, balanced defect {defect:.2e}, "
        f"1e3-cost run finite: {finite}",
    )


def test_criterion_05_biconvex_tightness(criterion):
    t0 = time.monotonic()
    cfg = UgwConfig(eps=1e-2, rho1=1.0, rho2=1.0, tol_pot=1e-10)
    worst_gap = 0.0
    worst_mass = 0.0
    all_converged = True
    for k in range(20):
        rng = np.random.default_rng([77, k])
        n, m = (int(v) for v in rng.integers(5, 31, size=2))
        X = random_space(rng, n)
        Y = random_space(rng, m)
        sol = solve_ugw(X, Y, cfg)
        all_converged = all_converged and sol.converged
        f_cross = biconvex_functional(X, Y, sol.pi, sol.gamma, cfg)
        scale = 1.0 + abs(f_cross)
        gap = max(
            abs(f_cross - ugw_functional(X, Y, sol.pi, cfg)),
            abs(f_cross - ugw_functional(X, Y, sol.gamma, cfg)),
        )
        worst_gap = max(worst_gap, gap / scale)
        worst_mass = max(
            worst_mass,
            abs(sol.pi.mass - sol.gamma.mass) / max(1.0, sol.pi.mass),
        )
    dt = time.monotonic() - t0
    ok = all_converged and worst_gap <= 1e-5 and worst_mass <= 1e-12 and dt < 120.0
    criterion(
        5,
        ok,
        f"max tightness gap {worst_gap:.2e}, max mass gap {worst_mass:.2e}, "
        f"converged {all_converged}, {dt:.1f}s",
    )


def test_criterion_06_isometry_near_invariance(criterion):
    rng = np.random.default_rng(2024)
    pts = rng.uniform(0.0, 8.0, size=(50, 2))
    ang = 1.1
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    perm = rng.permutation(50)
    X = space_from_points(pts)
    Y = space_from_points((pts @ rot.T + np.array([0.3, -0.7]))[perm])
    cfg = UgwConfig(eps=1e-2, rho1=1.0, rho2=1.0, tol_pot=1e-10)
    sol = solve_ugw(X, Y, cfg)
    distortion = distortion_cost(X.dist, Y.dist, sol.pi.values)
    deb = debiased_ugw(X, X, cfg)
    ok = sol.converged and distortion <= 1e-3 and abs(deb.value) <= 1e-6
    criterion(
        6,
        ok,
        f"isometric-pair distortion {distortion:.2e}, self-comparison debiased "
        f"value {deb.value:.2e}",
    )


def test_criterion_07_conic_value_dominated(criterion):
    worst_lift = -math.inf
    cfg = UgwConfig(eps=1e-2, rho1=1.0, rho2=1.0, tol_pot=1e-8)
    spec = ConeMetricSpec("gh", rho=1.0)
    for k in range(50):
        rng = np.random.default_rng([70, k])
        n, m = (int(v) for v in rng.integers(3, 7, size=2))
        X = random_space(rng, n, weights="mass")
        Y = random_space(rng, m, weights="mass")
        sol = solve_ugw(X, Y, cfg)
        lifted = conic_lift(sol.pi, X, Y)
        H = conic_energy(lifted, X.dist, Y.dist, spec)
        worst_lift = max(worst_lift, H - sol.primal_unregularized)
    worst_solver = -math.inf
    cfg_small = UgwConfig(eps=1e-3, rho1=0.1, rho2=0.1, tol_pot=1e-11)
    spec_small = ConeMetricSpec("gh", rho=0.1)
    for k in range(6):
        rng = np.random.default_rng([71, k])
        n = 2 if k < 3 else 3
        X = space_from_points(rng.normal(size=(n, 2)))
        Y = space_from_points(rng.normal(size=(n, 2)))
        sol = solve_ugw(X, Y, cfg_small)
        res = solve_cgw(X, Y, spec_small, K=10, L=10, restarts=20, seed=k)
        worst_solver = max(worst_solver, res.cost - sol.primal_unregularized)
    ok = worst_lift <= 1e-8 and worst_solver <= 1e-6
    criterion(
        7,
        ok,
        f"max lift excess {worst_lift:.2e} (50 plans), max grid-solver excess "
        f"{worst_solver:.2e} (6 instances)",
    )


def test_criterion_08_grid_to_quadratic_ratio_regime(criterion, tmp_path):
    t0 = time.monotonic()
    pert = run_perturb(out_dir=str(tmp_path), seed=0, n=3, ts=(0.0, 1e-3))
    r0 = pert["rows"][0]["ratio"]
    r1 = pert["rows"][1]["ratio"]
    hist = run_ratio_hist(out_dir=str(tmp_path), seed=0, ns=(2, 3), trials=25)
    ratios = hist["ratios"][2] + hist["ratios"][3]
    frac = float(np.mean([r <= 1.05 for r in ratios]))
    dt = time.monotonic() - t0
    ok = (
        abs(r0 - 1.0) <= 1e-6
        and r1 >= 0.99
        and len(ratios) == 50
        and frac >= 0.9
        and dt < 600.0
    )
    criterion(
        8,
        ok,
        f"ratio(t=0)={r0:.6f}, ratio(t=1e-3)={r1:.4f}, {frac:.0%} of 50 trials "
        f"<= 1.05, {dt:.1f}s",
    )


def test_criterion_09_dilation_invariance(criterion):
    settings = [
        (ConeMetricSpec("gh", rho=0.9), 2.0),
        (ConeMetricSpec("hk", rho=1.1), 2.0),
        (ConeMetricSpec("ptv", rho=0.8), 1.0),
    ]
    worst = 0.0
    for k in range(100):
        rng = np.random.default_rng([90, k])
        spec, p = settings[k % 3]
        X = random_space(rng, 3, weights="mass")
        Y = random_space(rng, 3, weights="mass")
        rows = [
            [int(rng.integers(0, 3)), rng.uniform(0.1, 1.5),
             int(rng.integers(0, 3)), rng.uniform(0.1, 1.5), rng.uniform(0.1, 1.0)]
            for _ in range(6)
        ]
        if k % 3 == 0:
            rows.append([-1.0, 0.0, int(rng.integers(0, 3)), rng.uniform(0.1, 1.5), 0.3])
        plan = ConicPlan.from_atoms(np.array(rows))
        v = rng.uniform(0.3, 3.0, size=len(rows))
        out = dilate(plan, v, p)
        e0 = conic_energy(plan, X.dist, Y.dist, spec)
        e1 = conic_energy(out, X.dist, Y.dist, spec)
        worst = max(worst, abs(e1 - e0) / (1.0 + abs(e0)))
        for a, b in zip(up_residual(plan, X, Y, p), up_residual(out, X, Y, p)):
            worst = max(worst, abs(a - b))
    criterion(9, worst <= 1e-10, f"max invariance defect {worst:.2e} over 100 plans")


def test_criterion_10_optimal_scale_formulas(criterion):
    worst_quad = 0.0
    worst_foc = 0.0
    for k in range(100):
        rng = np.random.default_rng([100, k])
        eps = 0.0 if k % 2 == 0 else 0.3
        X = random_space(rng, int(rng.integers(3, 6)), weights="mass")
        Y = random_space(rng, int(rng.integers(3, 6)), weights="mass")
        P = random_plan(rng, X.n, Y.n)
        theta = optimal_scale_quadratic(X, Y, P, rho=0.8, eps=eps)
        t_star = oracles.ternary_min(
            lambda t: quad_profile_value(X, Y, P, 0.8, eps, math.exp(t)), -14.0, 14.0
        )
        worst_quad = max(worst_quad, abs(theta - math.exp(t_star)) / theta)
        _, info = optimal_scale_linear(X, Y, P, rho=0.8, details=True)
        worst_foc = max(worst_foc, abs(info["foc_residual"]))
    worst_lambert = 0.0
    for z in np.logspace(-10, 10, 200):
        w = lambert_w(float(z))
        worst_lambert = max(worst_lambert, abs(w * math.exp(w) - z) / max(1.0, z))
    violations = 0
    for k in range(20):
        rng = np.random.default_rng([10, k])
        X = random_space(rng, int(rng.integers(3, 7)))
        Y = random_space(rng, int(rng.integers(3, 7)))
        pi = np.outer(X.weights, Y.weights)
        b0 = distortion_cost(X.dist, Y.dist, pi)
        c = (0.55 / b0) ** 0.5
        Xn = MmSpace(c * X.dist, X.weights)
        Yn = MmSpace(c * Y.dist, Y.weights)
        for rep in scaling_bias_report(Xn, Yn, pi, 0.1, (0.25, 0.5, 2.0, 4.0)):
            if rep.kappa < 1 and not rep.theta_quadratic < rep.theta_linear:
                violations += 1
            if rep.kappa > 1 and not rep.theta_quadratic > rep.theta_linear:
                violations += 1
    ok = (
        worst_quad <= 1e-6
        and worst_foc <= 1e-10
        and worst_lambert <= 1e-13
        and violations == 0
    )
    criterion(
        10,
        ok,
        f"quad vs search {worst_quad:.2e}, linear FOC {worst_foc:.2e}, lambert "
        f"{worst_lambert:.2e}, regime violations {violations}",
    )


def test_criterion_11_outlier_mass_regime(criterion, tmp_path):
    t0 = time.monotonic()
    out = run_moons(out_dir=str(tmp_path), seed=0, seeds=list(range(20)), n=16,
                    max_outer=200)
    dt = time.monotonic() - t0
    rows = out["rows"]
    clean = all(row["error"] == "" for row in rows)
    share_ok = True
    inversions = 0
    worst_share = 0.0
    if clean:
        for start in range(0, len(rows), 4):
            seq = [row["outlier_mass"] for row in rows[start : start + 4]]
            inversions += sum(
                1 for a, b in zip(seq, seq[1:]) if b > a * (1 + 1e-9) + 1e-15
            )
            low = rows[start + 3]
            assert low["rho"] == 0.01
            worst_share = max(worst_share, low["mass_over_share"])
        share_ok = worst_share <= 0.1
    n_converged = sum(1 for row in rows if row["converged"])
    capped = sum(row["inner_capped"] for row in rows if row["error"] == "")
    ok = (clean and share_ok and inversions <= 1 and n_converged >= 78 and capped == 0
          and dt < 120.0)
    criterion(
        11,
        ok,
        f"max outlier share at rho=0.01: {worst_share:.2e} (bound 0.1), "
        f"{inversions} inversions over 20 seeds, {n_converged}/{len(rows)} solves converged, "
        f"{capped} capped inner calls, {dt:.1f}s",
    )


def test_criterion_12_balanced_limit(criterion):
    worst = 0.0
    converged = {"big": 0, "bal": 0}
    capped = {"big": 0, "bal": 0}
    for k in range(20):
        rng = np.random.default_rng([55, k])
        n, m = (int(v) for v in rng.integers(4, 9, size=2))
        X = random_space(rng, n)
        Y = random_space(rng, m)
        big = UgwConfig(eps=1e-2, rho1=1e6, rho2=1e6, tol_pot=1e-9,
                        max_inner=1000, max_outer=50)
        bal = UgwConfig(eps=1e-2, rho1=math.inf, rho2=math.inf, tol_pot=1e-9,
                        max_inner=1000, max_outer=50)
        sols = {"big": solve_ugw(X, Y, big), "bal": solve_ugw(X, Y, bal)}
        for leg, sol in sols.items():
            converged[leg] += sol.converged
            capped[leg] += sol.diagnostics["inner_capped"]
        c_big, c_bal = sols["big"].cost_primal, sols["bal"].cost_primal
        worst = max(worst, abs(c_big - c_bal) / abs(c_bal))
    criterion(
        12,
        worst <= 1e-3 and converged == {"big": 20, "bal": 20} and capped == {"big": 0, "bal": 0},
        f"max relative cost gap {worst:.2e} over 20 instances; converged "
        f"{converged['big']}/20 rho=1e6, {converged['bal']}/20 balanced; capped inner calls "
        f"{capped['big']} rho=1e6, {capped['bal']} balanced",
    )


def test_criterion_13_lp_against_enumeration(criterion):
    worst_obj = 0.0
    worst_gap = 0.0
    for k in range(200):
        rng = np.random.default_rng([130, k])
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m + 1, 9))
        while True:
            A = rng.normal(size=(m, n))
            if np.linalg.matrix_rank(A) == m:
                break
        b = A @ rng.uniform(0.0, 2.0, size=n)
        c = rng.uniform(0.0, 3.0, size=n)
        prob = LpProblem(A, b, c)
        sol = solve_lp(prob)
        best, _ = oracles.enumerate_vertices(A, b, c)
        if sol.status != "optimal" or best is None:
            criterion(13, False, f"instance {k}: solver status {sol.status}")
        worst_obj = max(worst_obj, abs(sol.objective - best) / (1.0 + abs(best)))
        worst_gap = max(worst_gap, abs(sol.objective - float(b @ sol.y)))
    ok = worst_obj <= 1e-9 and worst_gap <= 1e-8
    criterion(
        13,
        ok,
        f"max objective error {worst_obj:.2e}, max duality gap {worst_gap:.2e} "
        f"over 200 LPs",
    )
