import math

import numpy as np
import pytest

from ugwkit import ugw
from ugwkit.flb import solve_flb
from ugwkit.geometry import gen_shape, space_from_points
from ugwkit.measures import MmSpace, TransportPlan, quad_kl
from ugwkit.sinkhorn import uot_sinkhorn
from ugwkit.ugw import (
    UgwConfig,
    UgwSolution,
    biconvex_functional,
    debiased_ugw,
    distortion_cost,
    local_cost,
    solve_ugw,
    tightness_diagnostics,
    ugw_functional,
)

import oracles
from conftest import random_plan, random_space


class TestUgwConfig:
    def test_defaults_and_rho2(self):
        cfg = UgwConfig(rho1=2.0)
        assert cfg.rho2 == 2.0
        assert not cfg.balanced1
        assert UgwConfig(rho1=math.inf).balanced1

    def test_validation(self):
        with pytest.raises(ValueError):
            UgwConfig(eps=0.0)
        with pytest.raises(ValueError):
            UgwConfig(rho1=-1.0)
        with pytest.raises(ValueError):
            UgwConfig(tol_plan=0.0)
        with pytest.raises(ValueError):
            UgwConfig(rho1=math.nan)
        with pytest.raises(ValueError):
            UgwConfig(rho2=math.nan)
        with pytest.raises(ValueError):
            UgwConfig(max_outer=0)
        with pytest.raises(ValueError):
            UgwConfig(max_inner=0)


class TestDistortionCost:
    def test_matches_quadruple_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(8):
            n, m = rng.integers(2, 6, size=2)
            X = random_space(rng, int(n), weights="mass")
            Y = random_space(rng, int(m), weights="mass")
            P = random_plan(rng, X.n, Y.n)
            G = random_plan(rng, X.n, Y.n)
            np.testing.assert_allclose(
                distortion_cost(X.dist, Y.dist, P),
                oracles.distortion_loop(X.dist, Y.dist, P),
                rtol=1e-11,
            )
            np.testing.assert_allclose(
                distortion_cost(X.dist, Y.dist, P, G),
                oracles.distortion_loop(X.dist, Y.dist, P, G),
                rtol=1e-11,
            )

    def test_zero_on_matching_spaces(self):
        # identical spaces, identity-supported plan: every summand vanishes
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        P = np.diag([0.5, 0.5])
        assert distortion_cost(d, d, P) == pytest.approx(0.0, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            distortion_cost(np.zeros((2, 2)), np.zeros((3, 3)), np.zeros((2, 2)))

    def test_accepts_transport_plan(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        P = TransportPlan(np.full((2, 2), 0.25))
        assert distortion_cost(d, d, P) == pytest.approx(
            distortion_cost(d, d, P.values), abs=0
        )


class TestLocalCost:
    def test_matches_entrywise_loop(self):
        rng = np.random.default_rng(1)
        for rho2 in (0.7, math.inf):
            X = random_space(rng, 4, weights="mass")
            Y = random_space(rng, 5, weights="mass")
            G = random_plan(rng, X.n, Y.n)
            cfg = UgwConfig(eps=0.05, rho1=1.3, rho2=rho2)
            got = local_cost(X, Y, G, cfg)
            want = oracles.local_cost_loop(X, Y, G, 0.05, 1.3, rho2)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_shape_guard(self):
        rng = np.random.default_rng(2)
        X = random_space(rng, 3)
        Y = random_space(rng, 4)
        with pytest.raises(ValueError):
            local_cost(X, Y, np.zeros((4, 3)), UgwConfig())


class TestFunctionals:
    def test_zero_plan_value(self):
        rng = np.random.default_rng(3)
        X = random_space(rng, 3, weights="mass")
        Y = random_space(rng, 4, weights="mass")
        cfg = UgwConfig(eps=0.3, rho1=1.5, rho2=0.5)
        want = (
            1.5 * X.mass**2
            + 0.5 * Y.mass**2
            + 0.3 * X.mass**2 * Y.mass**2
        )
        got = ugw_functional(X, Y, np.zeros((X.n, Y.n)), cfg)
        assert got == pytest.approx(want, rel=1e-13)

    def test_biconvex_diagonal_equals_functional(self):
        rng = np.random.default_rng(4)
        X = random_space(rng, 4, weights="mass")
        Y = random_space(rng, 3, weights="mass")
        cfg = UgwConfig(eps=0.1, rho1=0.8, rho2=1.2)
        ref = np.outer(X.weights, Y.weights).ravel()
        for _ in range(5):
            P = random_plan(rng, X.n, Y.n)
            value = ugw_functional(X, Y, P, cfg)
            assert biconvex_functional(X, Y, P, P, cfg) == value
            want = (
                oracles.distortion_loop(X.dist, Y.dist, P)
                + cfg.rho1 * oracles.quad_kl_tensor(P.sum(axis=1), X.weights)
                + cfg.rho2 * oracles.quad_kl_tensor(P.sum(axis=0), Y.weights)
                + cfg.eps * oracles.quad_kl_tensor(P.ravel(), ref)
            )
            np.testing.assert_allclose(value, want, rtol=1e-12)

    def test_biconvex_symmetric_in_the_two_plans(self):
        rng = np.random.default_rng(5)
        X = random_space(rng, 3, weights="mass")
        Y = random_space(rng, 4, weights="mass")
        cfg = UgwConfig(eps=0.2, rho1=1.0)
        P = random_plan(rng, X.n, Y.n)
        G = random_plan(rng, X.n, Y.n)
        np.testing.assert_allclose(
            biconvex_functional(X, Y, P, G, cfg),
            biconvex_functional(X, Y, G, P, cfg),
            rtol=1e-12,
        )

    def test_balanced_indicator_modes(self):
        rng = np.random.default_rng(6)
        X = random_space(rng, 3)
        Y = random_space(rng, 3)
        cfg = UgwConfig(eps=0.1, rho1=math.inf, rho2=math.inf)
        P = random_plan(rng, 3, 3)  # marginals off the constraint
        assert math.isinf(ugw_functional(X, Y, P, cfg))
        finite = ugw_functional(X, Y, P, cfg, strict_balanced=False)
        assert math.isfinite(finite)
        ent = quad_kl(P.ravel(), (X.weights[:, None] * Y.weights[None, :]).ravel())
        np.testing.assert_allclose(
            finite, distortion_cost(X.dist, Y.dist, P) + cfg.eps * ent, rtol=1e-12
        )


class TestSolveUgw:
    def make_pair(self, seed, n=5, m=6):
        rng = np.random.default_rng(seed)
        return random_space(rng, n, weights="random"), random_space(rng, m, weights="random")

    def test_solution_fields_are_consistent(self):
        X, Y = self.make_pair(7)
        cfg = UgwConfig(eps=1e-2, rho1=1.0, tol_pot=1e-11)
        sol = solve_ugw(X, Y, cfg)
        assert isinstance(sol, UgwSolution)
        assert sol.converged
        assert sol.outer_iterations >= 1
        tight = sol.diagnostics["tightness"]
        assert sol.cost_biconvex == tight["F_pi_gamma"]
        assert sol.cost_primal == tight["F_pi_pi"]
        np.testing.assert_allclose(
            sol.cost_primal, ugw_functional(X, Y, sol.pi, cfg, strict_balanced=False), rtol=1e-12
        )
        np.testing.assert_allclose(
            sol.cost_biconvex,
            biconvex_functional(X, Y, sol.pi, sol.gamma, cfg, strict_balanced=False),
            rtol=1e-12,
        )
        ref = (X.weights[:, None] * Y.weights[None, :]).ravel()
        np.testing.assert_allclose(
            sol.primal_unregularized,
            sol.cost_primal - cfg.eps * quad_kl(sol.pi.values.ravel(), ref),
            rtol=1e-10,
            atol=1e-14,
        )
        assert abs(sol.pi.mass - sol.gamma.mass) <= 1e-12 * max(1.0, sol.pi.mass)
        assert sol.diagnostics["aborted"] is None
        assert sol.diagnostics["inner_capped"] == 0

    def test_inner_capped_counts_every_capped_call(self):
        X, Y = self.make_pair(7)
        capped = solve_ugw(X, Y, UgwConfig(eps=1e-2, rho1=1.0, tol_pot=1e-11, max_inner=2,
                                           max_outer=5))
        assert capped.diagnostics["inner_capped"] == capped.outer_iterations == 5
        assert not capped.converged
        free = solve_ugw(X, Y, UgwConfig(eps=1e-2, rho1=1.0, tol_pot=1e-11))
        assert free.converged and free.diagnostics["inner_capped"] == 0

    @pytest.mark.parametrize("rho", [1e6, math.inf])
    def test_capped_inner_call_is_not_converged(self, rho):
        # criterion 12's instance 1 with a cap of 100 sweeps (at criterion 12's
        # 1000 every inner call converges): the plan test passes after inner
        # calls that hit max_inner
        rng = np.random.default_rng([55, 1])
        n, m = (int(v) for v in rng.integers(4, 9, size=2))
        X, Y = random_space(rng, n), random_space(rng, m)
        cfg = UgwConfig(eps=1e-2, rho1=rho, rho2=rho, tol_pot=1e-9, max_inner=100,
                        max_outer=50)
        sol = solve_ugw(X, Y, cfg)
        assert sol.outer_iterations < cfg.max_outer and sol.diagnostics["aborted"] is None
        assert sol.diagnostics["inner_capped"] > 0
        assert not sol.converged

    def test_tightness_at_convergence(self):
        for seed in (8, 9):
            X, Y = self.make_pair(seed)
            cfg = UgwConfig(eps=1e-2, rho1=1.0, tol_pot=1e-11)
            sol = solve_ugw(X, Y, cfg)
            assert sol.converged
            d = sol.diagnostics["tightness"]
            F = d["F_pi_gamma"]
            gap = max(abs(F - d["F_pi_pi"]), abs(F - d["F_gamma_gamma"]))
            assert gap <= 1e-5 * (1.0 + abs(F))

    def test_transposition_symmetry(self):
        X, Y = self.make_pair(10)
        cfg = UgwConfig(eps=1e-2, rho1=1.0, tol_pot=1e-12)
        a = solve_ugw(X, Y, cfg)
        b = solve_ugw(Y, X, cfg)
        assert np.max(np.abs(a.pi.values - b.pi.values.T)) <= 1e-8
        np.testing.assert_allclose(a.cost_primal, b.cost_primal, rtol=1e-10)

    def test_init_plan_override(self):
        X, Y = self.make_pair(11)
        cfg = UgwConfig(eps=1e-2, rho1=1.0, tol_pot=1e-11)
        flb = solve_flb(X, Y, 1.0, eps=1e-2, tol_pot=1e-11)
        sol = solve_ugw(X, Y, cfg, init_plan=flb.plan)
        assert sol.converged
        with pytest.raises(ValueError):
            solve_ugw(X, Y, cfg, init_plan=np.zeros((X.n + 1, Y.n)))

    def test_balanced_mode_pins_marginals(self):
        rng = np.random.default_rng(12)
        X = random_space(rng, 4)
        Y = random_space(rng, 5)
        cfg = UgwConfig(eps=5e-2, rho1=math.inf, rho2=math.inf, tol_pot=1e-12)
        sol = solve_ugw(X, Y, cfg)
        np.testing.assert_allclose(sol.pi.row_marginal, X.weights, atol=1e-6)
        np.testing.assert_allclose(sol.pi.col_marginal, Y.weights, atol=1e-6)

    def test_mass_shrinks_with_small_rho(self):
        X, Y = self.make_pair(13)
        loose = solve_ugw(X, Y, UgwConfig(eps=1e-2, rho1=10.0, tol_pot=1e-11))
        tight = solve_ugw(X, Y, UgwConfig(eps=1e-2, rho1=1e-3, tol_pot=1e-11))
        assert tight.pi.mass <= loose.pi.mass + 1e-9

    def test_sweeps_sum_the_inner_iterations(self, monkeypatch):
        counted = []

        def counting_sinkhorn(*args, **kwargs):
            res = uot_sinkhorn(*args, **kwargs)
            counted.append(res.iterations)
            return res

        monkeypatch.setattr(ugw, "uot_sinkhorn", counting_sinkhorn)
        X, Y = self.make_pair(7)
        sol = solve_ugw(X, Y, UgwConfig(eps=1e-2, rho1=1.0, tol_pot=1e-11))
        assert len(counted) == sol.outer_iterations
        assert sol.diagnostics["sweeps"] == sum(counted)

    def test_newton_steps_sum_the_inner_ones(self, monkeypatch):
        counted = []

        def counting_sinkhorn(*args, **kwargs):
            res = uot_sinkhorn(*args, **kwargs)
            counted.append(res.newton_steps)
            return res

        monkeypatch.setattr(ugw, "uot_sinkhorn", counting_sinkhorn)
        # criterion 12's instance 1 at rho = 1e6, whose inner calls contract slowly
        rng = np.random.default_rng([55, 1])
        n, m = (int(v) for v in rng.integers(4, 9, size=2))
        X, Y = random_space(rng, n), random_space(rng, m)
        sol = solve_ugw(X, Y, UgwConfig(eps=1e-2, rho1=1e6, tol_pot=1e-9, max_inner=1000,
                                        max_outer=50))
        assert sol.converged
        assert sol.diagnostics["newton_steps"] == sum(counted) > 0

    def test_inner_calls_carry_newton_mode(self):
        # moons-outliers' cloud 1 at n = 16 and rho = 10: the inner calls take
        # 445 sweeps when each one estimates its rate afresh
        cloud = gen_shape("two_moons_outliers", 16, 1, n_outliers=3)
        clean = gen_shape("two_moons_outliers", 16, 10_001, n_outliers=0)
        X, Y = space_from_points(cloud), space_from_points(clean)
        sol = solve_ugw(X, Y, UgwConfig(eps=1e-2, rho1=10.0, tol_pot=1e-11))
        assert sol.converged and sol.outer_iterations == 36
        assert sol.diagnostics["sweeps"] == 164
        # F(pi, pi) as the calls that start without Newton mode reach it
        assert sol.cost_primal == pytest.approx(1.3365074653642741, rel=1e-12, abs=0)

    def test_log_gap_is_the_last_one_the_outer_test_read(self):
        X, Y = self.make_pair(7)
        cfg = UgwConfig(eps=1e-2, rho1=1.0, tol_pot=1e-11)
        done = solve_ugw(X, Y, cfg)
        assert done.converged and 0.0 <= done.diagnostics["log_gap"] < cfg.tol_plan
        short = solve_ugw(X, Y, UgwConfig(eps=1e-2, rho1=1.0, tol_pot=1e-11, max_outer=2))
        assert short.diagnostics["log_gap"] >= cfg.tol_plan
        # the first inner plan has mass 0, so no gap was read
        far = MmSpace(X.dist * 100.0, X.weights)
        lost = solve_ugw(far, Y, UgwConfig(eps=1e-2, rho1=1e-3, max_outer=50))
        assert lost.outer_iterations == 1 and math.isnan(lost.diagnostics["log_gap"])

    def test_stop_reason_names_each_way_out(self):
        X, Y = self.make_pair(7)
        done = solve_ugw(X, Y, UgwConfig(eps=1e-2, rho1=1.0, tol_pot=1e-11))
        assert done.converged and done.diagnostics["stop_reason"] == "tol_plan"
        assert done.diagnostics["damped_from"] is None
        short = solve_ugw(X, Y, UgwConfig(eps=1e-2, rho1=1.0, tol_pot=1e-11, max_outer=2))
        assert not short.converged and short.diagnostics["stop_reason"] == "max_outer"
        # distances of 100s at rho = 1e-3: the first inner plan has mass 0
        far = MmSpace(X.dist * 100.0, X.weights)
        lost = solve_ugw(far, Y, UgwConfig(eps=1e-2, rho1=1e-3, max_outer=50))
        assert lost.diagnostics["aborted"] == lost.diagnostics["stop_reason"]
        assert lost.diagnostics["stop_reason"] == "plan mass underflow"

    def test_tightness_diagnostics_function(self):
        X, Y = self.make_pair(14)
        cfg = UgwConfig(eps=1e-2, rho1=1.0, tol_pot=1e-11)
        sol = solve_ugw(X, Y, cfg)
        d = tightness_diagnostics(X, Y, sol.pi, sol.gamma, cfg)
        keys = {"F_pi_gamma", "F_pi_pi", "F_gamma_gamma", "plan_gap", "mass_pi", "mass_gamma"}
        assert set(d) == keys
        assert d == sol.diagnostics["tightness"]
        assert d == tightness_diagnostics(X, Y, sol.pi.values, sol.gamma.values, cfg)
        assert d["plan_gap"] >= 0.0


def _criterion_12_instance(k, rho):
    rng = np.random.default_rng([55, k])
    n, m = (int(v) for v in rng.integers(4, 9, size=2))
    X, Y = random_space(rng, n), random_space(rng, m)
    cfg = UgwConfig(eps=1e-2, rho1=rho, rho2=rho, tol_pot=1e-9, max_inner=1000, max_outer=50)
    return X, Y, cfg


class TestTwoCycle:
    """A detected outer 2-cycle is damped to a fixed point of the plain map."""

    @pytest.mark.parametrize("k, rho, outer", [(1, math.inf, 9)])
    def test_converging_solves_are_not_damped(self, k, rho, outer, monkeypatch):
        # criterion 12's balanced instance 1 converges at step 9 with gaps near
        # 3e-5: gap(k, k-2) < tol_plan <= gap(k, k-1) holds on the way, so only
        # the CYCLE_GAP guard keeps it on the plain path
        X, Y, cfg = _criterion_12_instance(k, rho)
        sol = solve_ugw(X, Y, cfg)
        assert sol.converged and sol.diagnostics["damped_from"] is None
        assert sol.outer_iterations == outer
        monkeypatch.setattr(ugw, "CYCLE_GAP", 0.0)
        assert solve_ugw(X, Y, cfg).diagnostics["damped_from"] is not None

    def test_large_rho_solve_stops_on_its_plan_test(self):
        # criterion 12's instance 10 at rho = 1e6: the inner stop derived from
        # tol_plan leaves no noise floor for the outer test to wait out
        X, Y, cfg = _criterion_12_instance(10, 1e6)
        sol = solve_ugw(X, Y, cfg)
        assert sol.converged and sol.diagnostics["damped_from"] is None
        assert sol.outer_iterations == 5

    def test_damped_solve_beats_both_plans_of_the_cycle(self, monkeypatch):
        # criterion 11's cloud 1 at rho = 0.01, whose plain outer loop sits in
        # a 2-cycle from about step 10 on
        cloud = gen_shape("two_moons_outliers", 16, 1, n_outliers=3)
        clean = gen_shape("two_moons_outliers", 16, 10_001, n_outliers=0)
        X, Y = space_from_points(cloud), space_from_points(clean)
        cfg = UgwConfig(eps=1e-2, rho1=0.01, tol_pot=1e-11, max_outer=200)
        damped = solve_ugw(X, Y, cfg)
        assert damped.converged and damped.diagnostics["stop_reason"] == "tol_plan"
        assert 1 < damped.diagnostics["damped_from"] < damped.outer_iterations
        monkeypatch.setattr(ugw, "CYCLE_GAP", math.inf)
        cycle = solve_ugw(X, Y, cfg)
        assert not cycle.converged and cycle.diagnostics["damped_from"] is None
        tight = cycle.diagnostics["tightness"]
        assert damped.cost_primal < min(tight["F_pi_pi"], tight["F_gamma_gamma"])
        # the damped stop is a fixed point of the plain map: started there, the
        # plain outer loop passes its plan test at once
        again = solve_ugw(X, Y, cfg, init_plan=damped.pi)
        assert again.converged and again.outer_iterations == 1


class TestSelfComparison:
    """solve_ugw(X, X) runs every inner solve on an exactly symmetric problem."""

    def make_space(self, seed, n=7):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 2))
        weights = rng.uniform(0.5, 1.5, size=n)
        perm = rng.permutation(n)
        return (space_from_points(pts, weights=weights),
                space_from_points(pts[perm], weights=weights[perm]), perm)

    # at rho = 10 both solves stop at a log gap of 5e-6, half tol_plan, and
    # their plans agree to 1.2e-12 only
    @pytest.mark.parametrize("rho, atol", [(0.5, 1e-12), (1.0, 1e-12), (10.0, 2e-12)],
                             ids=["0.5", "1.0", "10.0"])
    def test_matches_the_solve_against_a_permuted_copy(self, rho, atol):
        X, Xp, perm = self.make_space(17)
        cfg = UgwConfig(eps=1e-2, rho1=rho, tol_pot=1e-11)
        own = solve_ugw(X, X, cfg)
        other = solve_ugw(X, Xp, cfg)
        assert own.diagnostics["symmetric"] is True
        assert other.diagnostics["symmetric"] is False
        assert own.converged and other.converged
        assert own.diagnostics["inner_capped"] == other.diagnostics["inner_capped"] == 0
        # every inner problem of the self solve took the single-potential path:
        # its half-sweeps take one kernel product each, a full sweep two
        assert own.diagnostics["sweeps"] < 2 * other.diagnostics["sweeps"]
        np.testing.assert_allclose(own.cost_biconvex, other.cost_biconvex, rtol=1e-9)
        # column k of the permuted solve couples point perm[k] of X
        undone = np.empty_like(other.pi.values)
        undone[:, perm] = other.pi.values
        np.testing.assert_allclose(own.pi.values, undone, rtol=0, atol=atol)

    def test_equal_copy_is_a_self_comparison(self):
        X, _, _ = self.make_space(18)
        cfg = UgwConfig(eps=1e-2, rho1=1.0, tol_pot=1e-11)
        copy = MmSpace(X.dist.copy(), X.weights.copy())
        own = solve_ugw(X, X, cfg)
        twin = solve_ugw(X, copy, cfg)
        assert twin.diagnostics["symmetric"] is True
        np.testing.assert_array_equal(own.pi.values, twin.pi.values)
        assert own.cost_biconvex == twin.cost_biconvex

    def test_asymmetric_setups_keep_the_alternating_sweeps(self):
        X, _, _ = self.make_space(19)
        cfg = UgwConfig(eps=1e-2, rho1=1.0, tol_pot=1e-11)
        tilted = np.outer(X.weights, X.weights)
        tilted[0, 1] *= 1.5
        assert not solve_ugw(X, X, cfg, init_plan=tilted).diagnostics["symmetric"]
        uneven = UgwConfig(eps=1e-2, rho1=1.0, rho2=2.0, tol_pot=1e-11)
        assert not solve_ugw(X, X, uneven).diagnostics["symmetric"]


class TestDebiased:
    def test_self_comparison_is_exactly_zero(self):
        rng = np.random.default_rng(15)
        X = random_space(rng, 5, weights="random")
        res = debiased_ugw(X, X, UgwConfig(eps=1e-2, rho1=1.0, tol_pot=1e-11))
        assert res.value == 0.0
        assert res.self_x == res.self_y == res.cross

    def test_mass_correction_term(self):
        rng = np.random.default_rng(16)
        X = random_space(rng, 4, weights="mass")
        Y = random_space(rng, 5, weights="mass")
        cfg = UgwConfig(eps=1e-2, rho1=1.0, tol_pot=1e-11)
        res = debiased_ugw(X, Y, cfg)
        corr = 0.5 * cfg.eps * (X.mass**2 - Y.mass**2) ** 2
        np.testing.assert_allclose(
            res.value,
            res.cross - 0.5 * res.self_x - 0.5 * res.self_y + corr,
            rtol=1e-12,
            atol=1e-15,
        )

    def test_reused_cross_solve_gives_the_same_result(self):
        rng = np.random.default_rng(16)
        X = random_space(rng, 4, weights="mass")
        Y = random_space(rng, 5, weights="mass")
        cfg = UgwConfig(eps=1e-2, rho1=1.0, tol_pot=1e-11)
        assert debiased_ugw(X, Y, cfg, cross=solve_ugw(X, Y, cfg)) == debiased_ugw(X, Y, cfg)
