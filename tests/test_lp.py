import math

import numpy as np
import pytest

from ugwkit import conic, lp
from ugwkit.lp import LpProblem, LpSolution, solve_lp

import oracles
from conftest import random_space


def random_bounded_lp(rng, max_m=4, max_n=8):
    """Feasible LP with c >= 0, so the optimum sits at a vertex."""
    m = int(rng.integers(1, max_m + 1))
    n = int(rng.integers(m + 1, max_n + 1))
    while True:
        A = rng.normal(size=(m, n))
        if np.linalg.matrix_rank(A) == m:
            break
    x0 = rng.uniform(0.0, 2.0, size=n)
    b = A @ x0
    c = rng.uniform(0.0, 3.0, size=n)
    return LpProblem(A, b, c)


class TestAgainstEnumeration:
    def test_fifty_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            prob = random_bounded_lp(rng)
            sol = solve_lp(prob)
            assert sol.status == "optimal"
            best, _ = oracles.enumerate_vertices(prob.A, prob.b, prob.c)
            assert best is not None
            np.testing.assert_allclose(sol.objective, best, rtol=1e-9, atol=1e-9)
            # primal feasibility
            assert np.all(sol.x >= 0)
            np.testing.assert_allclose(prob.A @ sol.x, prob.b, atol=1e-8)

    def test_duality(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            prob = random_bounded_lp(rng)
            sol = solve_lp(prob)
            assert sol.status == "optimal"
            # strong duality and dual feasibility of the reduced costs
            np.testing.assert_allclose(sol.objective, float(prob.b @ sol.y), atol=1e-8)
            assert np.min(prob.c - prob.A.T @ sol.y) >= -1e-8


class TestStatuses:
    def test_infeasible(self):
        prob = LpProblem([[1.0, 1.0]], [-1.0], [1.0, 1.0])
        assert solve_lp(prob).status == "infeasible"

    def test_unbounded(self):
        prob = LpProblem([[1.0, -1.0]], [0.0], [-1.0, 0.0])
        assert solve_lp(prob).status == "unbounded"

    def test_zero_rhs_optimal(self):
        prob = LpProblem([[1.0, 1.0]], [0.0], [2.0, 3.0])
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0, abs=1e-12)


def test_beale_cycling_example():
    # the classic degenerate instance that cycles under naive most-negative
    # pivoting; the Bland switchover has to rescue it
    A = np.array(
        [
            [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
            [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    sol = solve_lp(LpProblem(A, b, c))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-0.05, abs=1e-10)
    best, _ = oracles.enumerate_vertices(A, b, c)
    np.testing.assert_allclose(sol.objective, best, atol=1e-10)


def test_blands_rule_alone_reaches_the_optimum():
    # switch_after=0 prices by Bland's rule from the first pivot on
    rng = np.random.default_rng(3)
    pivots = 0
    for _ in range(20):
        m, n = 3, 5
        A = np.hstack([rng.uniform(0.1, 1.0, size=(m, n)), np.eye(m)])
        b = rng.uniform(0.5, 2.0, size=m)
        c = rng.uniform(0.0, 3.0, size=n + m)
        basis = np.arange(n, n + m)  # the slack basis: feasible as b > 0
        status, it = lp._simplex(A, b, c, basis, np.eye(m), switch_after=0)
        assert status == "optimal"
        x = np.zeros(n + m)
        x[basis] = np.linalg.solve(A[:, basis], b)
        best, _ = oracles.enumerate_vertices(A, b, c)
        np.testing.assert_allclose(c @ x, best, rtol=1e-9, atol=1e-12)
        pivots += it
    assert pivots > 0


def test_redundant_rows_are_handled():
    rng = np.random.default_rng(2)
    prob = random_bounded_lp(rng, max_m=3, max_n=6)
    A2 = np.vstack([prob.A, prob.A[0]])  # duplicate first constraint
    b2 = np.append(prob.b, prob.b[0])
    sol = solve_lp(LpProblem(A2, b2, prob.c))
    ref = solve_lp(prob)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.objective, ref.objective, rtol=1e-9)
    assert sol.y.shape == (A2.shape[0],)
    np.testing.assert_allclose(sol.objective, float(b2 @ sol.y), atol=1e-8)


def test_warm_start_reuses_basis():
    rng = np.random.default_rng(3)
    prob = random_bounded_lp(rng)
    first = solve_lp(prob)
    again = solve_lp(prob, init_basis=first.basis)
    assert again.status == "optimal"
    assert again.iterations <= 1
    np.testing.assert_allclose(again.objective, first.objective, rtol=1e-12)
    # warm start stays valid after a mild objective change
    tweaked = LpProblem(prob.A, prob.b, prob.c + 0.01)
    warm = solve_lp(tweaked, init_basis=first.basis)
    cold = solve_lp(tweaked)
    assert warm.status == cold.status == "optimal"
    np.testing.assert_allclose(warm.objective, cold.objective, rtol=1e-9)


def test_warm_start_with_stale_basis_falls_back():
    rng = np.random.default_rng(4)
    prob = random_bounded_lp(rng, max_m=2, max_n=5)
    n = prob.c.size
    bogus = np.array([0, 1] if prob.A.shape[0] == 2 else [0], dtype=int)
    sol = solve_lp(prob, init_basis=bogus[: prob.A.shape[0]])
    assert sol.status == "optimal"
    best, _ = oracles.enumerate_vertices(prob.A, prob.b, prob.c)
    np.testing.assert_allclose(sol.objective, best, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("c,status", [([1.0, 2.0, 3.0], "optimal"), ([1.0, -2.0, 3.0], "unbounded")])
def test_every_row_dropped(c, status):
    # phase 1 drops both all-zero rows as redundant; x = 0 is then the only
    # vertex, and a negative cost makes the LP unbounded
    sol = solve_lp(LpProblem(np.zeros((2, 3)), np.zeros(2), c))
    assert sol.status == status
    assert sol.basis.size == 0
    if status == "optimal":
        np.testing.assert_array_equal(sol.x, np.zeros(3))
        np.testing.assert_array_equal(sol.y, np.zeros(2))
        assert sol.objective == 0.0


def test_duals_are_the_solve_on_the_final_basis():
    # row 1 is flipped to b >= 0 and row 2, a copy of row 0, is dropped in
    # phase 1; y is solved for on first read exactly as the eager solve did
    A = np.array([[1.0, 1.0, 0.0, 2.0], [0.0, -1.0, -1.0, -1.0], [1.0, 1.0, 0.0, 2.0]])
    b = np.array([2.0, -1.5, 2.0])
    c = np.array([1.0, 2.0, 1.5, 1.0])
    sol = solve_lp(LpProblem(A, b, c))
    assert sol.status == "optimal" and sol.basis.size == 2
    flip = b < 0
    kept = [0, 1]
    B = np.where(flip[:, None], -A, A)[kept][:, sol.basis]
    y_act = np.linalg.solve(B.T, c[sol.basis])
    want = np.zeros(3)
    want[kept] = np.where(flip[kept], -y_act, y_act)
    np.testing.assert_array_equal(sol.y, want)
    assert sol.y is sol.y  # solved once
    assert sol.y[1] < 0 and sol.y[2] == 0.0
    np.testing.assert_allclose(sol.objective, float(b @ sol.y), rtol=1e-14)


def test_problem_validation():
    with pytest.raises(ValueError):
        LpProblem(np.zeros((2, 3)), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        LpProblem([[np.inf, 0.0]], [0.0], [1.0, 1.0])


def test_with_cost_checks_only_the_cost():
    prob = LpProblem(np.array([[1.0, 1.0, 0.0]]), [1.0], [0.0, 0.0, 0.0])
    new = prob.with_cost([1.0, 2.0, 0.5])
    assert new.A is prob.A and new.b is prob.b
    np.testing.assert_array_equal(new.c, [1.0, 2.0, 0.5])
    np.testing.assert_array_equal(prob.c, [0.0, 0.0, 0.0])
    assert solve_lp(new).objective == solve_lp(LpProblem(prob.A, prob.b, new.c)).objective == 1.0
    with pytest.raises(ValueError):
        prob.with_cost([1.0, 2.0])
    with pytest.raises(ValueError):
        prob.with_cost([1.0, np.nan, 0.0])


def test_solution_type():
    prob = LpProblem([[1.0, 1.0]], [1.0], [1.0, 2.0])
    sol = solve_lp(prob)
    assert isinstance(sol, LpSolution)
    assert sol.objective == pytest.approx(1.0)
    np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-12)


def grid_spaces(n, m, seed):
    rng = np.random.default_rng(seed)
    return random_space(rng, n, weights="mass"), random_space(rng, m, weights="mass")


def grid_lp(n, m, K, L, seed):
    """The first LP solve_cgw builds for a random pair, which it solves cold."""
    X, Y = grid_spaces(n, m, seed)
    seen = []

    def record(problem, init_basis=None):
        seen.append((problem, init_basis))
        return solve_lp(problem, init_basis=init_basis)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conic, "solve_lp", record)
        conic.solve_cgw(X, Y, K=K, L=L, restarts=1, seed=seed, max_rounds=1)
    problem, init_basis = seen[0]
    assert init_basis is None
    return problem


def test_warm_start_from_a_solution_matches_one_from_its_basis():
    # every warm LP of a solve_cgw call starts from an earlier LpSolution and
    # takes over its basis inverse; from the bare basis indices it inverts
    # again and must reach the same basis, point and pivot count, bit for bit
    X, Y = grid_spaces(4, 5, seed=9)
    calls = []

    def record(problem, init_basis=None):
        sol = solve_lp(problem, init_basis=init_basis)
        calls.append((problem, init_basis, sol))
        return sol

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conic, "solve_lp", record)
        conic.solve_cgw(X, Y, K=10, L=10, restarts=6, seed=3)
    warm = [(p, start, sol) for p, start, sol in calls if isinstance(start, LpSolution)]
    assert len(warm) == len(calls) - 1 and sum(sol.iterations for _, _, sol in warm) > 0
    for problem, start, sol in warm:
        again = solve_lp(problem, init_basis=start.basis)
        np.testing.assert_array_equal(again.basis, sol.basis)
        np.testing.assert_array_equal(again.x, sol.x)
        assert again.iterations == sol.iterations
        assert again.objective == sol.objective


@pytest.mark.parametrize("n,m,K,L,seed", [(3, 4, 4, 4, 1), (5, 2, 10, 7, 2), (1, 3, 3, 5, 3)])
def test_factored_grid_problem_matches_the_dense_one(n, m, K, L, seed):
    # solve_cgw's problem holds r_k^2 in row i and s_l^2 in row n + j for the
    # cells of pair (i, j); its dense A is the Kronecker construction, and
    # pricing through the factors reaches the dense problem's optimum
    prob = grid_lp(n, m, K, L, seed)
    rows, (rk2, sl2) = prob.pairs
    want = np.vstack([np.kron(np.eye(n), np.kron(np.ones(m), rk2)),
                      np.kron(np.ones(n), np.kron(np.eye(m), sl2))])
    np.testing.assert_array_equal(prob.A, want)
    dense = LpProblem(prob.A, prob.b, prob.c)
    assert dense.pairs is None
    rng = np.random.default_rng(seed)
    for _ in range(10):
        c = rng.uniform(0.5, 2.0, size=prob.c.size)
        got, ref = solve_lp(prob.with_cost(c)), solve_lp(dense.with_cost(c))
        assert got.status == ref.status == "optimal"
        np.testing.assert_allclose(got.objective, ref.objective, rtol=1e-12, atol=0)
        assert np.max(np.abs(prob.A @ got.x - prob.b)) <= 1e-9


def full_grid_lp(X, Y, K, L, c):
    """The grid LP of solve_cgw with a column for every cell (i, j, k, l), priced by c."""
    R = math.sqrt(X.mass**2 + Y.mass**2)
    r = np.arange(K + 1) * (R / K)
    s = np.arange(L + 1) * (R / L)
    A = oracles.grid_moment_rows(X.weights, Y.weights, r, s)
    return LpProblem(A, np.concatenate([X.weights, Y.weights]), c)


@pytest.fixture
def solve_lp_oracle(monkeypatch):
    """solve_lp with its phase kernel replaced by the solve-per-pivot loop."""

    def kernel(A, b, c, basis, Binv, switch_after, pairs=None):
        status, it = oracles.simplex_solve_loop(A, b, c, basis, switch_after)
        Binv[...] = np.linalg.inv(A[:, basis])
        return status, it

    def solve(problem, init_basis=None):
        with monkeypatch.context() as patch:
            patch.setattr(lp, "_simplex", kernel)
            return solve_lp(problem, init_basis=init_basis)

    return solve


class TestBasisInverseKernel:
    def test_matches_oracle_on_random_lps(self, solve_lp_oracle):
        rng = np.random.default_rng(0)
        for _ in range(50):
            prob = random_bounded_lp(rng)
            sol = solve_lp(prob)
            ref = solve_lp_oracle(prob)
            assert sol.status == ref.status
            assert sol.iterations == ref.iterations
            np.testing.assert_allclose(sol.objective, ref.objective, rtol=1e-12, atol=0)

    def test_matches_oracle_on_cold_grid_lp(self, solve_lp_oracle):
        prob = grid_lp(5, 5, 6, 6, seed=5)
        sol = solve_lp(prob)
        ref = solve_lp_oracle(prob)
        assert sol.status == ref.status == "optimal"
        assert sol.iterations == ref.iterations
        np.testing.assert_array_equal(sol.basis, ref.basis)
        np.testing.assert_allclose(sol.objective, ref.objective, rtol=1e-12, atol=0)

    def test_degenerate_lps_that_drive_artificials_out(self, solve_lp_oracle, monkeypatch):
        pivots = []
        kernel_pivot = lp._pivot

        def counted(Binv, d, r):
            pivots.append(r)
            kernel_pivot(Binv, d, r)

        monkeypatch.setattr(lp, "_pivot", counted)
        rng = np.random.default_rng(0)
        driven_out = 0
        for _ in range(100):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(m + 1, 6))
            A = rng.integers(-2, 3, size=(m, n)).astype(float)
            if np.linalg.matrix_rank(A) < m:
                continue
            b = A @ rng.integers(0, 2, size=n).astype(float)
            prob = LpProblem(A, b, rng.uniform(0.0, 3.0, size=n))
            pivots.clear()
            sol = solve_lp(prob)
            driven_out += len(pivots) - sol.iterations  # pivots outside the kernel
            ref = solve_lp_oracle(prob)
            assert sol.status == ref.status == "optimal"
            assert sol.iterations == ref.iterations
            best, _ = oracles.enumerate_vertices(A, b, prob.c)
            np.testing.assert_allclose(sol.objective, best, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(A @ sol.x, b, atol=1e-9)
        assert driven_out >= 10

    def test_long_phase_one_stays_accurate(self):
        prob = grid_lp(8, 8, 10, 10, seed=8)
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.iterations > 50
        assert np.all(sol.x >= 0)
        assert np.max(np.abs(prob.A @ sol.x - prob.b)) <= 1e-9
        assert np.min(prob.c - prob.A.T @ sol.y) >= -1e-8
        np.testing.assert_allclose(sol.objective, float(prob.b @ sol.y), rtol=1e-10)

    @pytest.mark.parametrize("kind", ["singular", "infeasible"])
    def test_bad_init_basis_takes_the_cold_path(self, kind):
        prob = grid_lp(3, 4, 4, 4, seed=7)
        m, n = prob.A.shape
        if kind == "singular":
            bad = np.zeros(m, dtype=int)  # one column repeated
        else:
            rng = np.random.default_rng(7)
            while True:
                bad = np.sort(rng.choice(n, size=m, replace=False))
                B = prob.A[:, bad]
                if np.linalg.matrix_rank(B) == m and np.min(np.linalg.solve(B, prob.b)) < -1e-3:
                    break
        sol = solve_lp(prob, init_basis=bad)
        cold = solve_lp(prob)
        assert sol.status == cold.status == "optimal"
        assert sol.iterations == cold.iterations
        np.testing.assert_array_equal(sol.basis, cold.basis)
        assert sol.objective == cold.objective

    @pytest.mark.parametrize("plan_seed", [0, 1, 2])
    def test_large_costs_do_not_cycle(self, solve_lp_oracle, plan_seed):
        # the grid LP priced by an unnormalized uniform plan has costs up to
        # 2e7; roundoff in its reduced costs is far above the absolute
        # PIVOT_TOL, and an absolute pricing test alternated two columns
        # until the pivot limit
        X, Y = grid_spaces(8, 8, seed=8)
        R = math.sqrt(X.mass**2 + Y.mass**2)
        grid = np.random.default_rng(plan_seed).uniform(size=(8, 8, 11, 11))
        C = oracles.conic_local_cost(
            conic.ConicPlan.from_grid(grid, R), X.dist, Y.dist, conic.ConeMetricSpec("gh", 1.0)
        )
        prob = full_grid_lp(X, Y, 10, 10, C.ravel())
        assert prob.A.shape == (16, 7744)
        assert np.abs(prob.c).max() > 1e7
        sol = solve_lp(prob)
        ref = solve_lp_oracle(prob)
        assert sol.status == ref.status == "optimal"
        np.testing.assert_allclose(sol.objective, ref.objective, rtol=1e-12, atol=0)
        assert np.max(np.abs(prob.A @ sol.x - prob.b)) <= 1e-9
        assert np.min(prob.c - prob.A.T @ sol.y) >= -1e-8 * np.abs(prob.c).max()
        np.testing.assert_allclose(sol.objective, float(prob.b @ sol.y), rtol=1e-12)

    def test_refresh_repairs_a_drifting_inverse(self, monkeypatch):
        # every update adds an error of 1e-7; recomputing the inverse every m
        # pivots and before optimality is declared keeps the answer exact
        prob = grid_lp(8, 8, 10, 10, seed=8)
        clean = solve_lp(prob)
        rng = np.random.default_rng(0)
        kernel_pivot = lp._pivot

        def noisy(Binv, d, r):
            kernel_pivot(Binv, d, r)
            Binv += 1e-7 * rng.standard_normal(Binv.shape)

        monkeypatch.setattr(lp, "_pivot", noisy)
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.objective, clean.objective, rtol=1e-12)
        assert np.all(sol.x >= 0)
        assert np.max(np.abs(prob.A @ sol.x - prob.b)) <= 1e-9
        assert np.min(prob.c - prob.A.T @ sol.y) >= -1e-8

    def test_infeasible_final_basis_raises(self, monkeypatch):
        # a kernel that reports optimal on a basis with negative values must
        # not come back as a solution
        prob = grid_lp(3, 4, 4, 4, seed=7)
        m, n = prob.A.shape
        rng = np.random.default_rng(7)
        while True:
            bad = np.sort(rng.choice(n, size=m, replace=False))
            B = prob.A[:, bad]
            if np.linalg.matrix_rank(B) == m and np.min(np.linalg.solve(B, prob.b)) < -1e-3:
                break

        def kernel(A, b, c, basis, Binv, switch_after, pairs=None):
            basis[:] = bad
            return "optimal", 0

        monkeypatch.setattr(lp, "_simplex", kernel)
        with pytest.raises(RuntimeError, match="lost feasibility"):
            solve_lp(prob)
