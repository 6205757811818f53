import dataclasses
import math

import numpy as np
import pytest

from ugwkit import conic
from ugwkit.conic import (
    CgwResult,
    ConeMetricSpec,
    ConicPlan,
    cone_cost,
    conic_energy,
    conic_lift,
    dilate,
    perspective_H,
    solve_cgw,
    up_residual,
)
from ugwkit.lp import LpProblem, solve_lp
from ugwkit.measures import KL, TV, BALANCED, MmSpace, TransportPlan

import oracles
from conftest import random_space


class TestConeMetricSpec:
    def test_q_pinned_for_quadratic_settings(self):
        assert ConeMetricSpec("gh", q=7.0).q == 2.0
        assert ConeMetricSpec("hk", q=7.0).q == 2.0
        assert ConeMetricSpec("ptv", q=1.5).q == 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            ConeMetricSpec("euclid")
        with pytest.raises(ValueError):
            ConeMetricSpec("gh", rho=0.0)
        with pytest.raises(ValueError, match="rho must be positive and finite"):
            ConeMetricSpec("gh", rho=math.inf)
        with pytest.raises(ValueError):
            ConeMetricSpec("ptv", q=0.5)

    def test_p_and_entropy(self):
        assert ConeMetricSpec("gh").p == 2.0
        assert ConeMetricSpec("hk").p == 2.0
        assert ConeMetricSpec("ptv").p == 1.0
        assert ConeMetricSpec("gh", rho=0.3).entropy.kind == "kl"
        assert ConeMetricSpec("ptv").entropy.kind == "tv"


class TestPerspectiveH:
    def test_kl_closed_form_frozen(self):
        # c = 0 collapses to the squared Hellinger-type distance
        assert perspective_H(0.0, 4.0, 1.0, KL(2.0)) == pytest.approx(2.0 * (2.0 - 1.0) ** 2)

    def test_tv_closed_form_frozen(self):
        assert perspective_H(0.0, 1.0, 1.0, TV(1.0)) == pytest.approx(0.0, abs=1e-15)
        # hinge dead once c >= 2 rho: total mass is the price
        assert perspective_H(5.0, 1.0, 2.0, TV(1.0)) == pytest.approx(3.0)

    def test_balanced_branch(self):
        assert perspective_H(3.0, 2.0, 2.0, BALANCED()) == 6.0
        assert math.isinf(perspective_H(3.0, 2.0, 1.0, BALANCED()))

    @pytest.mark.parametrize("entropy", [KL(0.7), TV(0.7)])
    def test_grid_matches_closed(self, entropy):
        rng = np.random.default_rng(0)
        for _ in range(12):
            c = float(rng.uniform(0.0, 3.0))
            r = float(rng.uniform(0.0, 2.0))
            s = float(rng.uniform(0.1, 2.0))
            closed = perspective_H(c, r, s, entropy)
            grid = oracles.perspective_H_grid(c, r, s, entropy)
            np.testing.assert_allclose(grid, closed, rtol=1e-7, atol=1e-12)

    @pytest.mark.parametrize("entropy", [KL(0.7), TV(0.7), BALANCED()])
    def test_arrays_match_scalar_calls(self, entropy):
        rng = np.random.default_rng(3)
        c = rng.uniform(0.0, 3.0, size=(4, 5))
        r = rng.uniform(0.0, 2.0, size=(4, 1))
        s = rng.uniform(0.0, 2.0, size=5)
        s[2] = r[1, 0]  # one r = s pair, where the balanced cost is finite
        got = perspective_H(c, r, s, entropy)
        assert got.shape == (4, 5)
        for i in range(4):
            for j in range(5):
                assert got[i, j] == perspective_H(float(c[i, j]), float(r[i, 0]), float(s[j]),
                                                  entropy)
        if entropy.kind == "balanced":
            finite = np.isfinite(got)
            assert finite[1, 2] and finite.sum() == 1
            assert got[1, 2] == r[1, 0] * c[1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            perspective_H(-1.0, 1.0, 1.0, KL())
        with pytest.raises(ValueError):
            perspective_H(1.0, -1.0, 1.0, KL())
        with pytest.raises(ValueError):
            perspective_H(np.array([0.5, -1.0]), 1.0, 1.0, TV())


class TestConeCost:
    @staticmethod
    def _arrays(seed, base_hi):
        rng = np.random.default_rng(seed)
        return (rng.uniform(0.0, base_hi, size=(6, 1)), rng.uniform(0.0, 2.0, size=(6, 1)),
                rng.uniform(0.0, 2.0, size=7))

    def test_gh_is_perspective_of_squared_inputs(self):
        spec = ConeMetricSpec("gh", rho=0.8)
        d, r, s = self._arrays(1, 3.0)
        got = cone_cost(spec, d, r, s)
        assert got.shape == (6, 7)
        for (i, j), value in np.ndenumerate(got):
            args = float(d[i, 0]), float(r[i, 0]), float(s[j])
            want = max(oracles.gh_cone_cost(*args, 0.8), 0.0)
            np.testing.assert_allclose(value, want, rtol=1e-12, atol=1e-15)
            searched = oracles.perspective_H_grid(args[0] ** 2, args[1] ** 2, args[2] ** 2, KL(0.8))
            np.testing.assert_allclose(value, searched, rtol=1e-7, atol=1e-12)

    def test_ptv_is_perspective_of_power_cost(self):
        spec = ConeMetricSpec("ptv", rho=0.6, q=1.5)
        d, r, s = self._arrays(2, 2.0)
        got = cone_cost(spec, d, r, s)
        assert got.shape == (6, 7)
        for (i, j), value in np.ndenumerate(got):
            args = float(d[i, 0]), float(r[i, 0]), float(s[j])
            want = max(oracles.ptv_cone_cost(*args, 0.6, 1.5), 0.0)
            np.testing.assert_allclose(value, want, rtol=1e-12, atol=1e-15)
            searched = oracles.perspective_H_grid(args[0] ** 1.5, args[1], args[2], TV(0.6))
            np.testing.assert_allclose(value, searched, rtol=1e-7, atol=1e-12)

    def test_hk_matches_oracle_past_the_cap(self):
        spec = ConeMetricSpec("hk", rho=0.7)
        d, r, s = self._arrays(4, 3.0)  # base distances on both sides of pi/2
        assert (d > math.pi / 2).any() and (d < math.pi / 2).any()
        got = cone_cost(spec, d, r, s)
        for (i, j), value in np.ndenumerate(got):
            want = max(oracles.hk_cone_cost(float(d[i, 0]), float(r[i, 0]), float(s[j]), 0.7), 0.0)
            np.testing.assert_allclose(value, want, rtol=1e-12, atol=1e-15)

    def test_gh_base_zero_frozen(self):
        spec = ConeMetricSpec("gh", rho=2.0)
        assert cone_cost(spec, 0.0, 1.5, 0.5) == pytest.approx(2.0)

    def test_hk_caps_base_distance(self):
        spec = ConeMetricSpec("hk", rho=1.0)
        far = cone_cost(spec, math.pi / 2.0, 1.0, 1.0)
        farther = cone_cost(spec, 3.0, 1.0, 1.0)
        assert far == pytest.approx(2.0)
        assert farther == pytest.approx(2.0)


class TestConicPlan:
    def test_grid_radii(self):
        plan = ConicPlan.from_grid(np.zeros((2, 2, 4, 3)), R=6.0)
        r, s = plan.radii()
        np.testing.assert_allclose(r, [0.0, 2.0, 4.0, 6.0])
        np.testing.assert_allclose(s, [0.0, 3.0, 6.0])

    def test_grid_to_atoms_round_trip(self):
        grid = np.zeros((2, 2, 3, 3))
        grid[0, 1, 2, 1] = 0.7
        grid[1, 0, 0, 2] = 0.2
        plan = ConicPlan.from_grid(grid, R=4.0)
        atoms = plan.to_atoms()
        assert atoms.shape == (2, 5)
        assert atoms[:, 4].sum() == pytest.approx(0.9)
        row = atoms[atoms[:, 4] == 0.7][0]
        assert (row[0], row[2]) == (0.0, 1.0)
        assert row[1] == pytest.approx(4.0)  # radius index 2 of grid step 2
        assert row[3] == pytest.approx(2.0)

    def test_atoms_validation(self):
        with pytest.raises(ValueError):
            ConicPlan.from_atoms(np.zeros((1, 4)))
        with pytest.raises(ValueError):
            ConicPlan.from_atoms([[0.0, 1.0, 0.0, 1.0, -0.5]])
        with pytest.raises(ValueError):
            ConicPlan.from_atoms([[0.0, -1.0, 0.0, 1.0, 0.5]])
        with pytest.raises(ValueError):
            ConicPlan.from_atoms([[-1.0, 1.0, 0.0, 1.0, 0.5]])  # apex with radius

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ConicPlan.from_grid(np.zeros((2, 2, 2)), R=1.0)
        with pytest.raises(ValueError):
            ConicPlan.from_grid(-np.ones((1, 1, 2, 2)), R=1.0)

    def test_default_R_from_atoms(self):
        plan = ConicPlan.from_atoms([[0.0, 1.5, 0.0, 0.8, 1.0]])
        assert plan.R == 1.5

    def test_radii_read_the_grid_shape(self):
        # the radius counts come from the grid itself, so a plan built without
        # from_grid has radii, and a replaced grid brings its own
        plan = ConicPlan(R=6.0, grid=np.zeros((2, 2, 4, 3)))
        r, s = plan.radii()
        np.testing.assert_allclose(r, [0.0, 2.0, 4.0, 6.0])
        np.testing.assert_allclose(s, [0.0, 3.0, 6.0])
        wider = dataclasses.replace(plan, grid=np.zeros((2, 2, 3, 7)))
        r, s = wider.radii()
        np.testing.assert_allclose(r, [0.0, 3.0, 6.0])
        np.testing.assert_allclose(s, np.arange(7.0))

    @pytest.mark.parametrize("shape", [(2, 2, 1, 3), (2, 2, 3, 1), (1, 1, 1, 1)])
    def test_single_point_radius_axis_rejected(self, shape):
        # a radius axis of one point has no grid step
        with pytest.raises(ValueError, match="at least 2 points"):
            ConicPlan.from_grid(np.ones(shape), R=1.0)


class TestConicEnergy:
    def random_atoms(self, rng, n, m, k=6, with_apex=True):
        rows = []
        for _ in range(k):
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, m))
            rows.append([i, rng.uniform(0.1, 1.5), j, rng.uniform(0.1, 1.5), rng.uniform(0.1, 1.0)])
        if with_apex:
            rows.append([-1.0, 0.0, int(rng.integers(0, m)), rng.uniform(0.1, 1.5), 0.3])
            rows.append([int(rng.integers(0, n)), rng.uniform(0.1, 1.5), -1.0, 0.0, 0.2])
        return np.array(rows)

    @pytest.mark.parametrize(
        "spec",
        [
            ConeMetricSpec("gh", rho=0.9),
            ConeMetricSpec("hk", rho=1.1),
            ConeMetricSpec("ptv", rho=0.8, q=2.0),
        ],
    )
    def test_matches_pair_loop(self, spec):
        rng = np.random.default_rng(3)
        X = random_space(rng, 3, weights="mass")
        Y = random_space(rng, 4, weights="mass")
        atoms = self.random_atoms(rng, 3, 4)
        plan = ConicPlan.from_atoms(atoms)
        got = conic_energy(plan, X.dist, Y.dist, spec)
        want = oracles.conic_energy_loop(atoms, X.dist, Y.dist, spec.setting, spec.rho, spec.q)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_empty_plan(self):
        plan = ConicPlan.from_atoms(np.zeros((0, 5)))
        assert conic_energy(plan, np.zeros((1, 1)), np.zeros((1, 1)), ConeMetricSpec("gh")) == 0.0

    def test_blocking_invariant(self):
        rng = np.random.default_rng(4)
        X = random_space(rng, 2, weights="mass")
        Y = random_space(rng, 2, weights="mass")
        atoms = self.random_atoms(rng, 2, 2, k=9, with_apex=False)
        plan = ConicPlan.from_atoms(atoms)
        spec = ConeMetricSpec("gh", rho=1.0)
        full = conic_energy(plan, X.dist, Y.dist, spec, block=1024)
        tiny = conic_energy(plan, X.dist, Y.dist, spec, block=2)
        np.testing.assert_allclose(full, tiny, rtol=1e-12)


class TestDilate:
    @pytest.mark.parametrize(
        "spec,p",
        [
            (ConeMetricSpec("gh", rho=0.9), 2.0),
            (ConeMetricSpec("hk", rho=1.1), 2.0),
            (ConeMetricSpec("ptv", rho=0.8), 1.0),
        ],
    )
    def test_energy_and_residuals_invariant(self, spec, p):
        rng = np.random.default_rng(5)
        X = random_space(rng, 3, weights="mass")
        Y = random_space(rng, 3, weights="mass")
        atoms = TestConicEnergy().random_atoms(rng, 3, 3, with_apex=False)
        plan = ConicPlan.from_atoms(atoms)
        v = rng.uniform(0.3, 3.0, size=atoms.shape[0])
        out = dilate(plan, v, p)
        np.testing.assert_allclose(
            conic_energy(out, X.dist, Y.dist, spec),
            conic_energy(plan, X.dist, Y.dist, spec),
            rtol=1e-10,
        )
        np.testing.assert_allclose(up_residual(out, X, Y, p), up_residual(plan, X, Y, p), atol=1e-10)

    def test_scalar_factor_and_mass_rule(self):
        plan = ConicPlan.from_atoms([[0.0, 1.0, 0.0, 2.0, 0.5]])
        out = dilate(plan, 2.0, 2.0)
        row = out.to_atoms()[0]
        assert row[1] == pytest.approx(0.5)
        assert row[3] == pytest.approx(1.0)
        assert row[4] == pytest.approx(2.0)

    def test_zero_mass_atoms_dropped(self):
        plan = ConicPlan.from_atoms([[0.0, 1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0, 0.4]])
        out = dilate(plan, 1.0, 2.0)
        assert out.to_atoms().shape[0] == 1

    def test_nonpositive_factor_rejected(self):
        plan = ConicPlan.from_atoms([[0.0, 1.0, 0.0, 1.0, 0.4]])
        with pytest.raises(ValueError):
            dilate(plan, 0.0, 2.0)


class TestConicLift:
    def test_moment_constraints_exact(self):
        rng = np.random.default_rng(6)
        X = random_space(rng, 4, weights="random")
        Y = random_space(rng, 3, weights="random")
        P = rng.uniform(0.01, 1.0, size=(4, 3))
        lifted = conic_lift(P, X, Y, p=2.0)
        res = up_residual(lifted, X, Y, p=2.0)
        assert max(res) <= 1e-14

    def test_radius_formula_on_support(self):
        rng = np.random.default_rng(7)
        X = random_space(rng, 2, weights="random")
        Y = random_space(rng, 2, weights="random")
        P = rng.uniform(0.1, 1.0, size=(2, 2))
        atoms = conic_lift(P, X, Y, p=2.0).to_atoms()
        p1, p2 = P.sum(axis=1), P.sum(axis=0)
        for i, r, j, s, w in atoms:
            assert r == pytest.approx(math.sqrt(X.weights[int(i)] / p1[int(i)]))
            assert s == pytest.approx(math.sqrt(Y.weights[int(j)] / p2[int(j)]))

    def test_dead_rows_go_to_apex_pairs(self):
        rng = np.random.default_rng(8)
        X = random_space(rng, 3, weights="random")
        Y = random_space(rng, 2, weights="random")
        P = rng.uniform(0.1, 1.0, size=(3, 2))
        P[1, :] = 0.0  # row 1 unmatched
        lifted = conic_lift(P, X, Y, p=2.0)
        atoms = lifted.to_atoms()
        apex_rows = atoms[atoms[:, 2] < 0]
        assert apex_rows.shape == (1, 5)
        assert apex_rows[0, 0] == 1.0
        assert apex_rows[0, 1] == 1.0  # unit radius carries the lost weight
        assert apex_rows[0, 4] == pytest.approx(X.weights[1])
        assert max(up_residual(lifted, X, Y, p=2.0)) <= 1e-14

    def test_accepts_transport_plan_and_checks_shape(self):
        rng = np.random.default_rng(9)
        X = random_space(rng, 2)
        Y = random_space(rng, 2)
        P = TransportPlan(rng.uniform(0.1, 1.0, size=(2, 2)))
        conic_lift(P, X, Y)
        with pytest.raises(ValueError):
            conic_lift(np.zeros((3, 2)), X, Y)

    def test_up_residual_detects_violations(self):
        rng = np.random.default_rng(10)
        X = random_space(rng, 2)
        Y = random_space(rng, 2)
        bad = ConicPlan.from_atoms([[0.0, 1.0, 0.0, 1.0, 0.25]])
        r1, r2 = up_residual(bad, X, Y, p=2.0)
        assert r1 > 0.1 and r2 > 0.1


class TestConicLocalCost:
    @pytest.mark.parametrize("setting,rho", [("gh", 0.7), ("hk", 1.3)])
    def test_contraction_equals_energy(self, setting, rho):
        rng = np.random.default_rng(11)
        spec = ConeMetricSpec(setting, rho=rho)
        X = random_space(rng, 3, weights="mass")
        Y = random_space(rng, 2, weights="mass")
        grid = rng.uniform(0.0, 0.4, size=(3, 2, 4, 5))
        beta = ConicPlan.from_grid(grid, R=2.0)
        C = oracles.conic_local_cost(beta, X.dist, Y.dist, spec)
        np.testing.assert_allclose(
            float(np.vdot(C, beta.grid)),
            conic_energy(beta, X.dist, Y.dist, spec),
            rtol=1e-10,
        )

    def test_guards(self):
        rng = np.random.default_rng(12)
        X = random_space(rng, 2)
        Y = random_space(rng, 2)
        beta = ConicPlan.from_grid(np.zeros((2, 2, 2, 2)), R=1.0)
        with pytest.raises(ValueError):
            oracles.conic_local_cost(beta, X.dist, Y.dist, ConeMetricSpec("ptv"))
        atom_form = ConicPlan.from_atoms([[0.0, 1.0, 0.0, 1.0, 0.5]])
        with pytest.raises(ValueError):
            oracles.conic_local_cost(atom_form, X.dist, Y.dist, ConeMetricSpec("gh"))
        with pytest.raises(ValueError):
            oracles.conic_local_cost(
                ConicPlan.from_grid(np.zeros((3, 2, 2, 2)), R=1.0),
                X.dist,
                Y.dist,
                ConeMetricSpec("gh"),
            )


class TestSolveCgw:
    def test_identical_spaces_cost_zero(self):
        rng = np.random.default_rng(13)
        X = random_space(rng, 3, weights="random")
        res = solve_cgw(X, X, K=6, L=6, restarts=4, seed=0, max_rounds=40)
        assert isinstance(res, CgwResult)
        assert res.cost == pytest.approx(0.0, abs=1e-12)

    def test_result_coherent(self, monkeypatch):
        rng = np.random.default_rng(14)
        X = random_space(rng, 2, weights="random")
        Y = random_space(rng, 3, weights="random")
        spec = ConeMetricSpec("gh", rho=0.5)
        pivots = []

        def counted(problem, init_basis=None):
            sol = solve_lp(problem, init_basis=init_basis)
            pivots.append(sol.iterations)
            return sol

        monkeypatch.setattr(conic, "solve_lp", counted)
        res = solve_cgw(X, Y, spec=spec, K=5, L=5, restarts=4, seed=1, max_rounds=40)
        assert len(res.restart_log) == 4
        assert res.cost >= -1e-12
        np.testing.assert_allclose(
            res.cost, conic_energy(res.alpha, X.dist, Y.dist, spec), rtol=1e-8, atol=1e-12
        )
        r1, r2 = up_residual(res.alpha, X, Y, p=2.0)
        assert max(r1, r2) <= 1e-6
        assert res.cost == min(e["cost"] for e in res.restart_log)
        for entry in res.restart_log:
            assert entry["init"] in ("product", "permutation")
            trace = entry["trace"]
            assert entry["cost"] == trace[-1]
            # every non-final round must clear the decrease threshold; the
            # final one only has to trip the stopping rule
            assert all(b < a for a, b in zip(trace[:-2], trace[1:-1]))
            assert isinstance(entry["pivots"], int) and entry["pivots"] >= 0
            assert entry["seconds"] > 0
            assert entry["converged"] == (trace[-2] - trace[-1] <= 1e-9 * (1.0 + abs(trace[-1])))
            assert entry["converged"] or entry["rounds"] == 40
        assert sum(entry["pivots"] for entry in res.restart_log) == sum(pivots)
        assert len(pivots) == sum(entry["rounds"] - entry["reused_rounds"]
                                  for entry in res.restart_log)

    def test_restarts_start_from_the_last_first_round_basis(self):
        # each restart's first LP starts where the previous restart's first LP
        # ended; from the basis the previous restart finished at, this
        # instance takes 314 pivots, with the same cost
        rng = np.random.default_rng(20)
        X = random_space(rng, 3, weights="mass")
        Y = random_space(rng, 4, weights="mass")
        res = solve_cgw(X, Y, spec=ConeMetricSpec("gh", rho=1.0), K=10, L=10, restarts=8)
        assert res.cost == pytest.approx(1.7703998110289418, rel=1e-12, abs=0)
        assert sum(entry["pivots"] for entry in res.restart_log) < 314

    def test_restarts_take_over_a_path_already_solved(self, monkeypatch):
        # the product restarts of this instance end their first LP at the basis
        # restart 0's first LP ended at; they take over restart 0's later
        # rounds, with the traces and cost they would have solved for
        rng = np.random.default_rng(20)
        X = random_space(rng, 3, weights="mass")
        Y = random_space(rng, 4, weights="mass")
        calls = []

        def counted(problem, init_basis=None):
            calls.append(init_basis)
            return solve_lp(problem, init_basis=init_basis)

        monkeypatch.setattr(conic, "solve_lp", counted)
        res = solve_cgw(X, Y, spec=ConeMetricSpec("gh", rho=1.0), K=10, L=10, restarts=8)
        log = res.restart_log
        assert res.cost == pytest.approx(1.7703998110289418, rel=1e-12, abs=0)
        assert len(calls) == sum(entry["rounds"] - entry["reused_rounds"] for entry in log)
        assert any(entry["reused_from"] is not None for entry in log)
        for idx, entry in enumerate(log):
            k = entry["reused_rounds"]
            if entry["reused_from"] is None:
                assert k == 0
                continue
            src = log[entry["reused_from"]]
            assert entry["reused_from"] < idx and 0 < k < src["rounds"]
            assert src["converged"] and entry["converged"] and entry["cost"] == src["cost"]
            # from the round that ended at the shared basis on, the traces agree
            assert entry["trace"][-k - 1:] == src["trace"][-k - 1:]

    def test_unconverged_rounds_are_not_taken_over(self, monkeypatch):
        # at max_rounds=3 restart 0 of the instance above stops unconverged, so
        # the product restarts that pass through its bases solve their own
        # rounds, as the full-grid oracle does
        rng = np.random.default_rng(20)
        X = random_space(rng, 3, weights="mass")
        Y = random_space(rng, 4, weights="mass")
        res, ref = self._with_oracle(monkeypatch, X, Y, ConeMetricSpec("gh", rho=1.0), K=10,
                                     L=10, restarts=8, seed=0, max_rounds=3)
        log = res.restart_log
        assert not log[0]["converged"]
        for entry in log[1:4]:
            assert entry["trace"][1:] == log[0]["trace"][1:]
        for entry, (trace, _) in zip(log, ref, strict=True):
            assert entry["reused_from"] is None and entry["reused_rounds"] == 0
            np.testing.assert_allclose(entry["trace"], trace, rtol=1e-12, atol=0)

    @staticmethod
    def _recorded_inits(monkeypatch, X):
        """The initial plan of each restart of the next solve_cgw call, in the
        caller's units, appended to the returned list as they are drawn."""
        inits = []

        def recorded(make):
            def init(rng, mu, nu, r, s):
                plan = make(rng, mu, nu, r, s)
                # solve_cgw draws it for the weights mu = X.weights / unit, a power
                # of two, and the plan / unit meets X's and Y's moments
                inits.append(plan * (mu[0] / X.weights[0]))
                return plan
            return init

        monkeypatch.setattr(conic, "_product_init", recorded(conic._product_init))
        monkeypatch.setattr(conic, "_permutation_init", recorded(conic._permutation_init))
        return inits

    @classmethod
    def _with_oracle(cls, monkeypatch, X, Y, spec, max_rounds, **grid):
        """solve_cgw's result, and the full-grid oracle's (trace, grid) per
        restart from the same initial plans, replayed in the caller's units."""
        inits = cls._recorded_inits(monkeypatch, X)
        res = solve_cgw(X, Y, spec=spec, max_rounds=max_rounds, **grid)

        def lp_solve(A, b, c, basis):
            sol = solve_lp(LpProblem(A, b, c), init_basis=basis)
            assert sol.status == "optimal"
            return sol.x, sol.basis

        def local_cost(grid):
            return oracles.conic_local_cost(ConicPlan.from_grid(grid, res.alpha.R), X.dist, Y.dist,
                                            spec)

        r, s = res.alpha.radii()
        return res, oracles.cgw_full_grid_loop(X.weights, Y.weights, r, s, inits, local_cost,
                                               lp_solve, max_rounds=max_rounds, tol=1e-9)

    @pytest.mark.parametrize("n,m", [
        (3, 6), (4, 4), (6, 3), (1, 5), (5, 1),
        # a weight of 0.3 is past 0.98 R^2 = 0.142, so the permutation init
        # puts its excess on the one-sided cell of its row, or of its column
        pytest.param((0.3, 0.05), (0.05, 0.05, 0.05), id="row-past-the-top-radius"),
        pytest.param((0.05, 0.05, 0.05), (0.3, 0.05), id="column-past-the-top-radius"),
    ])
    def test_initial_plans_meet_the_moments(self, n, m):
        # every restart starts from a feasible plan of the grid LP: row i of
        # its radial second moments is mu_i, column j is nu_j
        if isinstance(n, int):
            rng = np.random.default_rng([17, n, m])
            mu, nu = rng.uniform(0.2, 1.5, n), rng.uniform(0.2, 1.5, m)
        else:
            rng = np.random.default_rng(17)
            mu, nu = np.array(n), np.array(m)
            n, m = mu.size, nu.size
        R = math.sqrt(mu.sum() ** 2 + nu.sum() ** 2)
        r, s = np.linspace(0.0, R, 8), np.linspace(0.0, R, 6)
        for make in (conic._product_init, conic._permutation_init):
            for _ in range(5):
                alpha = make(rng, mu, nu, r, s)
                assert alpha.shape == (n, m, 8, 6) and alpha.min() >= 0
                np.testing.assert_allclose(np.einsum("ijkl,k->i", alpha, r * r), mu, rtol=1e-12)
                np.testing.assert_allclose(np.einsum("ijkl,l->j", alpha, s * s), nu, rtol=1e-12)

    @pytest.mark.parametrize("n,m,K,L,seed", [(2, 3, 5, 5, 1), (3, 3, 6, 6, 2), (3, 4, 10, 7, 3)])
    def test_matches_full_grid_oracle(self, monkeypatch, n, m, K, L, seed):
        # the solver's LP keeps one cell per radial direction and assembles
        # its costs from the basic cells; the oracle keeps every cell and
        # prices the LP with the dense oracles.conic_local_cost tensor
        rng = np.random.default_rng([16, seed])
        X = random_space(rng, n, weights="mass")
        Y = random_space(rng, m, weights="mass")
        res, ref = self._with_oracle(monkeypatch, X, Y, ConeMetricSpec("gh", rho=0.5), K=K,
                                     L=L, restarts=6, seed=seed, max_rounds=40)
        r, s = res.alpha.radii()
        assert len(ref) == len(res.restart_log) == 6
        for entry, (trace, _) in zip(res.restart_log, ref):
            assert entry["rounds"] == len(trace) - 1
            assert min(trace) > 1e-3
            np.testing.assert_allclose(entry["trace"], trace, rtol=1e-12, atol=0)
        best = min(trace[-1] for trace, _ in ref)
        np.testing.assert_allclose(res.cost, best, rtol=1e-12, atol=0)
        A = oracles.grid_moment_rows(X.weights, Y.weights, r, s)
        b = np.concatenate([X.weights, Y.weights])
        for grid in [res.alpha.grid] + [grid for _, grid in ref]:
            assert np.max(np.abs(A @ grid.ravel() - b)) <= 1e-9

    def test_start_costs_from_moments_match_the_dense_tensor(self, monkeypatch):
        # a start plan's cost comes from its moments; it equals the contraction
        # of the plan with its dense oracles.conic_local_cost tensor. The largest
        # weight, 0.44, makes the solver's unit 1/4, so the plans are rescaled
        rng = np.random.default_rng(22)
        X = random_space(rng, 3, weights="random")
        Y = random_space(rng, 4, weights="random")
        spec = ConeMetricSpec("gh", rho=0.7)
        inits = self._recorded_inits(monkeypatch, X)
        res = solve_cgw(X, Y, spec=spec, K=8, L=6, restarts=6, seed=4, max_rounds=1)
        assert [entry["init"] for entry in res.restart_log] == ["product"] * 3 + ["permutation"] * 3
        for entry, plan in zip(res.restart_log, inits, strict=True):
            C = oracles.conic_local_cost(ConicPlan.from_grid(plan, res.alpha.R), X.dist, Y.dist,
                                         spec)
            assert entry["trace"][0] > 1e-3
            np.testing.assert_allclose(entry["trace"][0], float(np.vdot(C, plan)), rtol=1e-12,
                                       atol=0)

    def test_first_moments_price_the_plan_as_the_dense_tensor(self, monkeypatch):
        # every plan the solver prices meets the moment rows, so its first moments
        # alone give its cost and its LP cost vector; the cost vector misses C at
        # the kept cells by rho (r_p^2 m(mu) + s_p^2 m(nu)), which is constant on
        # the feasible set
        rng = np.random.default_rng(23)
        X = random_space(rng, 4, weights="mass")
        Y = random_space(rng, 5, weights="mass")
        spec = ConeMetricSpec("gh", rho=0.8)
        starts, solutions = [], []

        def recorded(make):
            def init(rng, mu, nu, r, s):
                starts.append((make(rng, mu, nu, r, s), mu, nu, r, s))
                return starts[-1][0]
            return init

        def lp(problem, init_basis=None):
            solutions.append(solve_lp(problem, init_basis=init_basis))
            return solutions[-1]

        monkeypatch.setattr(conic, "_product_init", recorded(conic._product_init))
        monkeypatch.setattr(conic, "_permutation_init", recorded(conic._permutation_init))
        monkeypatch.setattr(conic, "solve_lp", lp)
        solve_cgw(X, Y, spec=spec, K=10, L=10, restarts=2, seed=3)
        (product, mu, nu, r, s), (permutation, *_) = starts
        n, m = mu.size, nu.size
        kk, ll = conic._directions(10, 10)
        rk, sl = r[kk], s[ll]
        solution = np.zeros((n, m, 11, 11))
        solution[:, :, kk, ll] = solutions[-1].x.reshape(n, m, kk.size)
        W = conic._pair_kernel(spec, X.dist, Y.dist)
        mass_sq = mu.sum() ** 2 + nu.sum() ** 2
        shift = spec.rho * (rk * rk * mu.sum() + sl * sl * nu.sum())
        for plan in (product, permutation, solution):
            T = conic._first_moments(plan, r, s)
            cost, c = conic.conic_local_cost(T, W, spec.rho, mass_sq, rk * sl)
            C = oracles.conic_local_cost(ConicPlan.from_grid(plan, math.sqrt(mass_sq)), X.dist,
                                         Y.dist, spec)
            np.testing.assert_allclose(c.reshape(n * m, -1) + shift,
                                       C[:, :, kk, ll].reshape(n * m, -1), rtol=1e-12, atol=0)
            assert cost > 1e-3
            np.testing.assert_allclose(cost, float(np.vdot(C, plan)), rtol=1e-12, atol=0)

    def test_product_starts_price_one_lp_up_to_scale(self, monkeypatch):
        # a product start mu_i nu_j u_k v_l has first moments kappa (mu x nu) with
        # kappa = (u . r)(v . s) > 0, so the first LPs of all product restarts
        # have one cost vector up to a positive factor: each after the first
        # starts at the optimum of the one before and takes no pivot
        rng = np.random.default_rng(24)
        X = random_space(rng, 4, weights="mass")
        Y = random_space(rng, 5, weights="mass")
        first = []
        pending = []

        def marked(rng, mu, nu, r, s):
            pending.append(True)
            return product_init(rng, mu, nu, r, s)

        def lp(problem, init_basis=None):
            sol = solve_lp(problem, init_basis=init_basis)
            if pending:
                first.append((problem.c, sol.iterations))
                pending.clear()
            return sol

        product_init = conic._product_init
        monkeypatch.setattr(conic, "_product_init", marked)
        monkeypatch.setattr(conic, "solve_lp", lp)
        solve_cgw(X, Y, K=10, L=10, restarts=8, seed=5)
        assert len(first) == 4
        c0 = first[0][0]
        for c, pivots in first[1:]:
            scale = float(c @ c0) / float(c0 @ c0)
            assert scale > 0 and pivots == 0
            np.testing.assert_allclose(c, scale * c0, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("k", [-40, -20, 20, 40])
    def test_power_of_two_masses_scale_the_solve_exactly(self, k):
        # the solver works in units where the largest weight is in [1, 2), so
        # weights times 2^k give the same solve: cost and traces times 4^k
        rng = np.random.default_rng(21)
        X = random_space(rng, 4, weights="mass")
        Y = random_space(rng, 5, weights="mass")
        ref = solve_cgw(X, Y, K=10, L=10, restarts=6)
        f = 2.0**k
        res = solve_cgw(MmSpace(X.dist, X.weights * f), MmSpace(Y.dist, Y.weights * f), K=10,
                        L=10, restarts=6)
        assert res.cost == ref.cost * f * f
        assert res.alpha.R == ref.alpha.R * f
        np.testing.assert_array_equal(res.alpha.grid, ref.alpha.grid / f)
        for entry, want in zip(res.restart_log, ref.restart_log, strict=True):
            assert entry["trace"] == [value * f * f for value in want["trace"]]

    @pytest.mark.parametrize("scale", [1e-6, 1e-4, 1e9])
    def test_tiny_and_huge_masses_keep_the_cost(self, scale):
        # unscaled, the LP's absolute tolerances and the decrease test broke
        # on this pair: at 1e-6 the LP came out infeasible, and the cost read
        # 2.2 times too high at 1e-4 and 227 times at 1e9
        rng = np.random.default_rng(21)
        X = random_space(rng, 4, weights="mass")
        Y = random_space(rng, 5, weights="mass")
        ref = solve_cgw(X, Y, K=10, L=10, restarts=6)
        res = solve_cgw(MmSpace(X.dist, X.weights * scale), MmSpace(Y.dist, Y.weights * scale),
                        K=10, L=10, restarts=6)
        np.testing.assert_allclose(res.cost / scale**2, ref.cost, rtol=1e-9)

    @pytest.mark.parametrize("K,L", [(10, 10), (10, 7), (3, 8), (1, 1)])
    def test_directions_keep_the_last_cell_of_each_ray(self, K, L):
        k, l = conic._directions(K, L)
        assert list(zip(k, l)) == sorted(zip(k, l))
        last = {}
        for a in range(K + 1):
            for b in range(L + 1):
                if (a, b) != (0, 0):
                    g = math.gcd(a, b)
                    last[(a // g, b // g)] = max(last.get((a // g, b // g), (0, 0)), (a, b))
        assert sorted(zip(k.tolist(), l.tolist())) == sorted(last.values())

    def test_guards(self):
        rng = np.random.default_rng(15)
        X = random_space(rng, 2)
        with pytest.raises(ValueError):
            solve_cgw(X, X, spec=ConeMetricSpec("hk"))
        with pytest.raises(ValueError):
            solve_cgw(X, X, K=0)
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            solve_cgw(X, X, restarts=0)
        # max_rounds = 0 returned an unsolved start plan, and a NaN or negative
        # tol ran every restart to max_rounds
        with pytest.raises(ValueError, match="max_rounds must be at least 1"):
            solve_cgw(X, X, max_rounds=0)
        for tol in (math.nan, -1.0):
            with pytest.raises(ValueError, match="tol must be nonnegative"):
                solve_cgw(X, X, tol=tol)
