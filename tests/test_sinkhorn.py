import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ugwkit import sinkhorn
from ugwkit.app import run_moons
from ugwkit.measures import kl_div
from ugwkit.sinkhorn import Potentials, _lse_rows, uot_sinkhorn

import oracles


def logsumexp_rows(kernel, shift):
    """The kernel's row log-sum-exp, log sum_j exp(kernel_ij + shift_j)."""
    kernel = np.asarray(kernel, dtype=float)
    return _lse_rows(kernel, np.asarray(shift, dtype=float), np.empty_like(kernel))


class TestLogsumexp:
    """The max-shifted row reduction each half-sweep of the kernel runs."""

    def test_matches_naive_on_moderate_values(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 6))
        shift = rng.normal(size=6)
        np.testing.assert_allclose(logsumexp_rows(a, shift),
                                   np.log(np.exp(a + shift).sum(axis=1)), rtol=1e-13)
        np.testing.assert_allclose(logsumexp_rows(a.T, np.zeros(4)),
                                   np.log(np.exp(a).sum(axis=0)), rtol=1e-13)

    def test_large_values_do_not_overflow(self):
        out = logsumexp_rows([[1000.0, 999.0]], [0.0, 0.0])
        assert np.isfinite(out[0])
        assert out[0] == pytest.approx(1000.0 + math.log(1.0 + math.exp(-1.0)), rel=1e-12)

    def test_very_negative_entries(self):
        out = logsumexp_rows([[-1e9, -1e9 + 1.0]], [0.0, 0.0])
        assert np.isfinite(out[0])


def uot_objective(P, cost, mu, nu, rho1, rho2, eps):
    ref = (mu[:, None] * nu[None, :]).ravel()
    val = float(np.sum(P * cost))
    val += rho1 * kl_div(P.sum(axis=1), mu)
    val += rho2 * kl_div(P.sum(axis=0), nu)
    val += eps * kl_div(P.ravel(), ref)
    return val


class TestUotSinkhorn:
    @given(
        st.floats(-2.0, 2.0),
        st.floats(0.1, 3.0),
        st.floats(0.1, 3.0),
        st.floats(0.05, 3.0),
        st.floats(0.05, 3.0),
        st.floats(0.05, 1.0),
    )
    def test_1x1_closed_form(self, c, a, b, rho1, rho2, eps):
        res = uot_sinkhorn(
            np.array([[c]]),
            np.array([a]),
            np.array([b]),
            rho1,
            rho2,
            eps=eps,
            tol_pot=1e-14,
            max_inner=20000,
        )
        want = oracles.sinkhorn_1x1(c, a, b, rho1, rho2, eps)
        assert res.converged
        np.testing.assert_allclose(res.plan.values[0, 0], want, rtol=1e-8)

    def test_result_fields(self):
        rng = np.random.default_rng(1)
        cost = rng.uniform(size=(3, 4))
        mu = np.full(3, 1.0 / 3.0)
        nu = np.full(4, 0.25)
        res = uot_sinkhorn(cost, mu, nu, 1.0, eps=0.1, tol_pot=1e-10)
        assert res.converged
        assert res.iterations >= 1
        assert res.residual <= 1e-10
        assert res.plan.shape == (3, 4)
        assert np.all(np.isfinite(res.potentials.f))
        assert np.all(np.isfinite(res.potentials.g))

    def test_fixed_point_reapplication(self):
        rng = np.random.default_rng(2)
        cost = rng.uniform(size=(5, 5))
        mu = rng.uniform(0.1, 1.0, size=5)
        nu = rng.uniform(0.1, 1.0, size=5)
        res = uot_sinkhorn(cost, mu, nu, 0.7, 1.3, eps=0.05, tol_pot=1e-13)
        again = uot_sinkhorn(
            cost, mu, nu, 0.7, 1.3, eps=0.05, init=res.potentials, max_inner=1, tol_pot=1e-30
        )
        assert np.max(np.abs(again.potentials.f - res.potentials.f)) <= 1e-11
        assert np.max(np.abs(again.potentials.g - res.potentials.g)) <= 1e-11

    def test_balanced_mode_matches_marginals(self):
        rng = np.random.default_rng(3)
        cost = rng.uniform(size=(4, 6))
        mu = np.full(4, 0.25)
        nu = np.full(6, 1.0 / 6.0)
        res = uot_sinkhorn(cost, mu, nu, math.inf, math.inf, eps=0.05, tol_pot=1e-12)
        np.testing.assert_allclose(res.plan.col_marginal, nu, atol=1e-12)
        np.testing.assert_allclose(res.plan.row_marginal, mu, atol=1e-8)

    def test_beats_random_perturbations(self):
        rng = np.random.default_rng(4)
        cost = rng.uniform(size=(3, 3))
        mu = rng.uniform(0.2, 1.0, size=3)
        nu = rng.uniform(0.2, 1.0, size=3)
        rho1, rho2, eps = 0.8, 1.1, 0.3
        res = uot_sinkhorn(cost, mu, nu, rho1, rho2, eps=eps, tol_pot=1e-13)
        P = res.plan.values
        base = uot_objective(P, cost, mu, nu, rho1, rho2, eps)
        for _ in range(200):
            Q = P * np.exp(rng.normal(scale=0.05, size=P.shape))
            assert uot_objective(Q, cost, mu, nu, rho1, rho2, eps) >= base - 1e-10

    def test_unbalanced_mass_shrinks_under_expensive_cost(self):
        mu = np.array([1.0])
        nu = np.array([1.0])
        cheap = uot_sinkhorn(np.array([[0.0]]), mu, nu, 1.0, eps=1e-2, tol_pot=1e-12)
        dear = uot_sinkhorn(np.array([[5.0]]), mu, nu, 1.0, eps=1e-2, tol_pot=1e-12)
        assert dear.plan.mass < cheap.plan.mass

    def test_validation(self):
        c = np.zeros((2, 2))
        mu = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            uot_sinkhorn(c, mu, mu, 1.0, eps=0.0)
        with pytest.raises(ValueError):
            uot_sinkhorn(c, mu, mu, -1.0, eps=0.1)
        with pytest.raises(ValueError):
            uot_sinkhorn(c, np.array([0.5, 0.0]), mu, 1.0, eps=0.1)
        with pytest.raises(ValueError):
            uot_sinkhorn(np.array([[np.inf, 0.0], [0.0, 0.0]]), mu, mu, 1.0, eps=0.1)
        with pytest.raises(ValueError, match="marginal sizes do not match the cost matrix"):
            uot_sinkhorn(np.zeros((2, 3)), mu, mu, 1.0, eps=0.1)
        # such a stop passed only through the float-resolution clause
        for tol_pot in (-1.0, math.nan):
            with pytest.raises(ValueError, match="tol_pot must be nonnegative"):
                uot_sinkhorn(c, mu, mu, 1.0, eps=0.1, tol_pot=tol_pot)

    def test_zero_tol_pot_is_legal(self):
        # solve_ugw's derived inner stop can underflow to 0
        rng = np.random.default_rng(6)
        res = uot_sinkhorn(rng.uniform(size=(3, 4)), np.full(3, 0.3), np.full(4, 0.2), 1.0,
                           eps=0.1, tol_pot=0.0)
        assert res.converged

    def test_rho2_defaults_to_rho1(self):
        rng = np.random.default_rng(5)
        cost = rng.uniform(size=(3, 3))
        mu = np.full(3, 1.0 / 3.0)
        a = uot_sinkhorn(cost, mu, mu, 0.5, eps=0.1, tol_pot=1e-12)
        b = uot_sinkhorn(cost, mu, mu, 0.5, 0.5, eps=0.1, tol_pot=1e-12)
        np.testing.assert_array_equal(a.plan.values, b.plan.values)

    def test_tol_pot_below_the_float_spacing_stops_at_float_resolution(self):
        # at rho = 1e6 the potentials lie near 1e5, 1.5e-11 apart: no residual
        # can reach tol_pot = 1e-12, so the call stops within 4 spacings of max|f|
        cost, mu, nu, rho1, rho2, eps = _oracle_case(0, 5, 7, 1e6, 1e6, 0.05)
        res = uot_sinkhorn(cost, mu, nu, rho1, rho2, eps=eps, tol_pot=1e-12, max_inner=50000)
        top = np.max(np.abs(res.potentials.f))
        assert top > 1e4
        assert res.converged and res.iterations < 1000
        assert 1e-12 < res.residual <= 4 * np.spacing(top)

    def test_log_domain_survives_large_costs(self):
        rng = np.random.default_rng(6)
        cost = rng.uniform(0.0, 1e3, size=(5, 5))
        mu = np.full(5, 0.2)
        res = uot_sinkhorn(cost, mu, mu, 1.0, eps=1e-3, tol_pot=1e-9)
        assert np.all(np.isfinite(res.potentials.f))
        assert np.all(np.isfinite(res.plan.values))


def _oracle_case(seed, n, m, rho1, rho2, eps):
    rng = np.random.default_rng(seed)
    cost = rng.uniform(0.0, 2.0, size=(n, m))
    mu = rng.uniform(0.3, 1.2, size=n)
    nu = rng.uniform(0.3, 1.2, size=m)
    if math.isinf(rho1) and math.isinf(rho2):
        mu, nu = mu / mu.sum(), nu / nu.sum()
    return cost, mu, nu, rho1, rho2, eps


ORACLE_CASES = [
    (0, 5, 7, 0.7, 1.3, 0.05),
    (1, 6, 4, math.inf, 0.5, 0.05),
    (2, 4, 6, math.inf, math.inf, 0.05),
    (3, 8, 5, 10.0, 10.0, 0.01),
]


class TestFusedKernel:
    @pytest.mark.parametrize("case", ORACLE_CASES)
    @pytest.mark.parametrize("warm", [False, True])
    def test_plain_kernel_matches_oracle(self, case, warm, monkeypatch):
        # no rate estimate ever completes, so no call enters Newton mode
        monkeypatch.setattr(sinkhorn, "WARMUP", 10**9)
        cost, mu, nu, rho1, rho2, eps = _oracle_case(*case)
        rng = np.random.default_rng(9)
        f0 = rng.normal(size=mu.size) if warm else np.zeros(mu.size)
        g0 = rng.normal(size=nu.size) if warm else np.zeros(nu.size)
        f, g, sweeps = oracles.sinkhorn_log_loop(cost, mu, nu, rho1, rho2, eps, f0, g0, 1e-9, 50000)
        res = uot_sinkhorn(cost, mu, nu, rho1, rho2, eps=eps, init=Potentials(f0, g0),
                           tol_pot=1e-9, max_inner=50000)
        assert res.iterations == sweeps
        np.testing.assert_allclose(res.potentials.f, f, rtol=0, atol=1e-13)
        np.testing.assert_allclose(res.potentials.g, g, rtol=0, atol=1e-13)

    def test_kernel_absorbed_many_times_matches_oracle(self, monkeypatch):
        # a cold start at cost/eps up to 1e6: the scaled potentials drift far
        # past DRIFT, so the kernels are absorbed again and again; no rate
        # estimate ever completes, so no call enters Newton mode
        monkeypatch.setattr(sinkhorn, "WARMUP", 10**9)
        absorbed = []

        def counting_lse_rows(*args):
            absorbed.append(1)
            return _lse_rows(*args)

        monkeypatch.setattr(sinkhorn, "_lse_rows", counting_lse_rows)
        rng = np.random.default_rng(6)
        cost = rng.uniform(0.0, 1e3, size=(5, 5))
        mu = np.full(5, 0.2)
        zero = np.zeros(5)
        f, g, sweeps = oracles.sinkhorn_log_loop(cost, mu, mu, 1.0, 1.0, 1e-3, zero, zero,
                                                 1e-9, 50000)
        res = uot_sinkhorn(cost, mu, mu, 1.0, eps=1e-3, tol_pot=1e-9, max_inner=50000)
        assert len(absorbed) > 10
        assert res.iterations == sweeps
        np.testing.assert_allclose(res.potentials.f, f, rtol=0, atol=1e-12 * 1e3)
        np.testing.assert_allclose(res.potentials.g, g, rtol=0, atol=1e-12 * 1e3)

    def test_tiny_eps_raises_without_warnings(self):
        # at eps = 1e-300 the scaled potentials are near 1e300, so their drift
        # cannot be squared; that must absorb quietly and end as before
        rng = np.random.default_rng(10)
        cost = rng.uniform(size=(16, 16))
        mu = np.full(16, 1.0 / 16.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="plan overflow"):
                uot_sinkhorn(cost, mu, mu, 1.0, eps=1e-300)

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_sweeps_without_newton_steps_are_the_plain_iteration(self, case, monkeypatch):
        # every rate estimate completes, but none enters Newton mode
        monkeypatch.setattr(sinkhorn, "NEWTON_RATE", math.inf)
        cost, mu, nu, rho1, rho2, eps = _oracle_case(*case)
        zero = np.zeros(mu.size), np.zeros(nu.size)
        f, g, sweeps = oracles.sinkhorn_log_loop(cost, mu, nu, rho1, rho2, eps, *zero, 1e-9, 50000)
        res = uot_sinkhorn(cost, mu, nu, rho1, rho2, eps=eps, tol_pot=1e-9, max_inner=50000)
        assert res.newton_steps == 0
        assert res.iterations == sweeps
        np.testing.assert_allclose(res.potentials.f, f, rtol=0, atol=1e-13)
        np.testing.assert_allclose(res.potentials.g, g, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_plain_and_newton_kernel_reaches_the_same_fixed_point(self, case):
        cost, mu, nu, rho1, rho2, eps = _oracle_case(*case)
        tol = 1e-9
        zero = (np.zeros(mu.size), np.zeros(nu.size))
        f, g, _ = oracles.sinkhorn_log_loop(cost, mu, nu, rho1, rho2, eps, *zero, 1e-14, 500000)
        exact = oracles.plan_from_potentials(f, g, cost, eps, mu, nu)
        pf, pg, plain_sweeps = oracles.sinkhorn_log_loop(cost, mu, nu, rho1, rho2, eps, *zero,
                                                         tol, 50000)
        res = uot_sinkhorn(cost, mu, nu, rho1, rho2, eps=eps, tol_pot=tol, max_inner=50000)
        assert res.converged and res.residual <= tol
        assert res.iterations <= plain_sweeps
        # the stop point is a fixed point to tol_pot: one plain sweep barely moves it
        again = uot_sinkhorn(cost, mu, nu, rho1, rho2, eps=eps, init=res.potentials,
                             max_inner=1)
        assert again.residual <= tol
        # and it is no farther from the exact plan than the plain iteration's stop point
        plain_err = np.max(np.abs(oracles.plan_from_potentials(pf, pg, cost, eps, mu, nu) - exact))
        assert np.max(np.abs(res.plan.values - exact)) <= plain_err + tol

    def test_moons_cloud_10_low_rho_has_no_overflow(self, tmp_path):
        # criterion 11's n=16 setting at rho = 0.01: the plan stays finite, and
        # the damped outer loop settles its 2-cycle (whose two plans differ by
        # e^602 on the outlier rows) at one fixed point, whatever max_outer is;
        # that point's outlier mass is 8.3e-96
        masses = []
        for max_outer in (199, 200, 201):
            out = run_moons(out_dir=str(tmp_path), seeds=[10], n=16, rhos=(0.01,),
                            max_outer=max_outer)
            row = out["rows"][0]
            assert row["error"] == ""
            assert row["converged"] and row["damped_from"] is not None
            masses.append(row["outlier_mass"])
        assert masses[0] == masses[1] == masses[2] < 1e-90


def _oracle_fixed_point(cost, mu, nu, rho1, rho2, eps):
    """sinkhorn_log_loop's 1e-14 fixed point. At finite rho1 and rho2 its runs
    alternate with the dual-optimal translation (f + lam, g - lam) (Sejourne,
    Vialard & Peyre, arXiv 2201.00730): the plain sweeps contract that mode
    only by (rho/(rho + eps))^2 each, so they alone would take ~1e8 sweeps."""
    f, g = np.zeros(mu.size), np.zeros(nu.size)
    for _ in range(1000):
        f, g, sweeps = oracles.sinkhorn_log_loop(cost, mu, nu, rho1, rho2, eps, f, g, 1e-14, 100)
        lam = 0.0
        if not (math.isinf(rho1) or math.isinf(rho2)):
            lam = rho1 * rho2 / (rho1 + rho2) * math.log(
                mu.dot(np.exp(-f / rho1)) / nu.dot(np.exp(-g / rho2)))
        if sweeps == 1 and abs(lam) <= 1e-9:
            return f, g
        f, g = f + lam, g - lam
    raise AssertionError("the oracle did not settle")


def _newton_case(rho1, rho2, eps=0.02, seed=31, n=5, m=7):
    """Probability marginals, so the rho = 1e6 potentials stay of order 1."""
    rng = np.random.default_rng(seed)
    cost = rng.uniform(0.0, 2.0, size=(n, m))
    mu = rng.uniform(0.3, 1.2, size=n)
    nu = rng.uniform(0.3, 1.2, size=m)
    return cost, mu / mu.sum(), nu / nu.sum(), rho1, rho2, eps


class TestNewtonMode:
    """A slowly contracting call follows its sweeps with Newton steps."""

    @pytest.mark.parametrize("rho1, rho2", [(1e6, 1e6), (math.inf, math.inf), (math.inf, 1.0)])
    def test_reaches_the_oracle_fixed_point(self, rho1, rho2):
        cost, mu, nu, rho1, rho2, eps = _newton_case(rho1, rho2)
        f, g = _oracle_fixed_point(cost, mu, nu, rho1, rho2, eps)
        res = uot_sinkhorn(cost, mu, nu, rho1, rho2, eps=eps, tol_pot=1e-13, max_inner=50000)
        assert res.converged and res.newton_steps > 0
        # balanced potentials are fixed only up to (f + c, g - c); at rho = 1e6
        # that translation is pinned only by terms eps/rho times smaller than
        # the others, so roundoff leaves it known to about 1e-10
        shift = 0.5 * ((f - res.potentials.f).mean() - (g - res.potentials.g).mean())
        if not math.isinf(rho1):
            assert abs(shift) <= 1e-9
        elif not math.isinf(rho2):
            assert abs(shift) <= 1e-12
        np.testing.assert_allclose(res.potentials.f, f - shift, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.potentials.g, g + shift, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rho1, rho2", [(1e6, 1e6), (math.inf, math.inf), (math.inf, 1.0)])
    def test_takes_fewer_sweeps_than_the_relaxed_ones(self, rho1, rho2, monkeypatch):
        cost, mu, nu, rho1, rho2, eps = _newton_case(rho1, rho2)
        newton = uot_sinkhorn(cost, mu, nu, rho1, rho2, eps=eps, tol_pot=1e-9, max_inner=5000)
        monkeypatch.setattr(sinkhorn, "NEWTON_RATE", math.inf)
        plain = uot_sinkhorn(cost, mu, nu, rho1, rho2, eps=eps, tol_pot=1e-9, max_inner=5000)
        assert plain.newton_steps == 0
        assert newton.converged and newton.iterations < plain.iterations

    def test_underflowing_plan_column_steps_without_warnings(self):
        # column 0 costs 60 = 6000 eps everywhere: its plan entries and its
        # e^{-g/rho2} both underflow to 0, so that column takes no step
        cost, mu, nu, rho1, rho2, eps = _newton_case(math.inf, 0.05, eps=0.01, seed=0, m=6)
        cost[:, 0] = 60.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = uot_sinkhorn(cost, mu, nu, rho1, rho2, eps=eps, tol_pot=1e-13,
                               max_inner=50000)
        assert res.converged and res.newton_steps > 0
        assert res.plan.col_marginal[0] == 0.0
        f, g = _oracle_fixed_point(cost, mu, nu, rho1, rho2, eps)
        np.testing.assert_allclose(res.potentials.f, f, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.potentials.g, g, rtol=0, atol=1e-12)

    def test_last_sweep_stays_plain(self):
        # the returned pair is a plain sweep's: one more moves f by at most tol_pot
        cost, mu, nu, rho1, rho2, eps = _newton_case(1e6, 1e6)
        res = uot_sinkhorn(cost, mu, nu, rho1, rho2, eps=eps, tol_pot=1e-9, max_inner=50000)
        assert res.newton_steps > 0
        again = uot_sinkhorn(cost, mu, nu, rho1, rho2, eps=eps, init=res.potentials,
                             max_inner=1)
        assert again.residual <= 1e-9


class TestNewtonCarry:
    """A warm start from a call that ended in Newton mode starts in it, unless
    a side is balanced."""

    @pytest.mark.parametrize("rho", [1.0, 10.0])
    def test_carried_mode_saves_sweeps_and_keeps_the_fixed_point(self, rho):
        cost, mu, nu, rho1, rho2, eps = _newton_case(rho, rho)
        first = uot_sinkhorn(cost, mu, nu, rho1, rho2, eps=eps, tol_pot=1e-9, max_inner=50000)
        assert first.newton_steps > 0 and first.potentials.newton is True
        # the next call of an outer loop: a slightly moved cost
        nearby = cost + 0.01 * np.random.default_rng(3).uniform(size=cost.shape)
        f, g = first.potentials.f, first.potentials.g
        carried = uot_sinkhorn(nearby, mu, nu, rho1, rho2, eps=eps, init=first.potentials,
                               tol_pot=1e-9, max_inner=50000)
        fresh = uot_sinkhorn(nearby, mu, nu, rho1, rho2, eps=eps, init=Potentials(f, g),
                             tol_pot=1e-9, max_inner=50000)
        assert carried.converged and fresh.converged
        assert carried.iterations < fresh.iterations
        np.testing.assert_allclose(carried.potentials.f, fresh.potentials.f, rtol=0, atol=1e-9)
        np.testing.assert_allclose(carried.potentials.g, fresh.potentials.g, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("rho1, rho2", [(math.inf, math.inf), (math.inf, 1.0)])
    def test_balanced_result_does_not_carry_the_mode(self, rho1, rho2):
        cost, mu, nu, rho1, rho2, eps = _newton_case(rho1, rho2)
        res = uot_sinkhorn(cost, mu, nu, rho1, rho2, eps=eps, tol_pot=1e-9, max_inner=50000)
        assert res.newton_steps > 0 and res.potentials.newton is False

    def test_symmetric_result_does_not_carry_the_mode(self):
        cost, mu, eps = _symmetric_case(1e6)
        res = uot_sinkhorn(cost, mu, mu, 1e6, eps=eps, tol_pot=1e-9, max_inner=50000)
        assert res.converged and res.potentials.newton is False

    @pytest.mark.parametrize("rho1, rho2", [(math.inf, math.inf), (math.inf, 1.0)])
    def test_balanced_call_ignores_a_carried_mode(self, rho1, rho2):
        cost, mu, nu, rho1, rho2, eps = _newton_case(rho1, rho2)
        rng = np.random.default_rng(4)
        f0, g0 = 0.1 * rng.normal(size=mu.size), 0.1 * rng.normal(size=nu.size)
        plain, carried = (
            uot_sinkhorn(cost, mu, nu, rho1, rho2, eps=eps, init=Potentials(f0, g0, newton),
                         tol_pot=1e-9, max_inner=50000) for newton in (False, True))
        assert (carried.iterations, carried.newton_steps) == (plain.iterations, plain.newton_steps)
        np.testing.assert_array_equal(carried.potentials.f, plain.potentials.f)
        np.testing.assert_array_equal(carried.potentials.g, plain.potentials.g)
        assert carried.potentials.newton is plain.potentials.newton is False


def _symmetric_case(rho, n=7, eps=0.05):
    """Squared distances between points of the unit square, one weight vector
    for both sides (a probability vector in the balanced mode)."""
    rng = np.random.default_rng(21)
    x = rng.uniform(size=(n, 2))
    cost = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1)
    mu = rng.uniform(0.3, 1.2, size=n)
    if math.isinf(rho):
        mu = mu / mu.sum()
    return cost, mu, eps


class TestSymmetricKernel:
    """A symmetric problem runs the averaged single-potential iteration."""

    @pytest.mark.parametrize("rho", [0.5, 10.0, math.inf])
    def test_reaches_the_oracle_fixed_point_in_fewer_iterations(self, rho):
        cost, mu, eps = _symmetric_case(rho)
        zero = np.zeros(mu.size)
        f, g, sweeps = oracles.sinkhorn_log_loop(cost, mu, mu, rho, rho, eps, zero, zero,
                                                 1e-14, 50000)
        assert sweeps < 50000
        # balanced potentials are fixed only up to (f + c, g - c); the
        # symmetric iteration returns the pair with f = g
        shift = 0.5 * (f.mean() - g.mean()) if math.isinf(rho) else 0.0
        res = uot_sinkhorn(cost, mu, mu, rho, eps=eps, tol_pot=1e-12, max_inner=50000)
        assert res.converged and res.residual <= 1e-12
        # half-sweeps against the oracle's full sweeps
        assert res.iterations < sweeps
        np.testing.assert_allclose(res.potentials.f, f - shift, rtol=0, atol=1e-10)
        np.testing.assert_allclose(res.potentials.g, g + shift, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("rho", [0.5, 10.0, math.inf])
    def test_stop_point_is_a_fixed_point_to_tol_pot(self, rho):
        cost, mu, eps = _symmetric_case(rho)
        tol = 1e-9
        res = uot_sinkhorn(cost, mu, mu, rho, eps=eps, tol_pot=tol, max_inner=50000)
        again = uot_sinkhorn(cost, mu, mu, rho, eps=eps, init=res.potentials, max_inner=1)
        assert np.max(np.abs(again.potentials.f - res.potentials.f)) <= tol
        # the returned g is the block optimum for the returned f
        tg = uot_sinkhorn(cost, mu, mu, rho, eps=eps, init=Potentials(res.potentials.f,
                                                                      res.potentials.f),
                          max_inner=1)
        np.testing.assert_allclose(res.potentials.g, tg.potentials.f, rtol=0, atol=1e-13)

    def test_warm_start_is_the_mean_of_the_two_potentials(self):
        cost, mu, eps = _symmetric_case(1.0)
        rng = np.random.default_rng(22)
        f0, g0 = rng.normal(size=mu.size), rng.normal(size=mu.size)
        mean = 0.5 * (f0 + g0)
        a = uot_sinkhorn(cost, mu, mu, 1.0, eps=eps, init=Potentials(f0, g0), tol_pot=1e-6)
        b = uot_sinkhorn(cost, mu, mu, 1.0, eps=eps, init=Potentials(mean, mean), tol_pot=1e-6)
        assert a.iterations == b.iterations
        np.testing.assert_array_equal(a.potentials.f, b.potentials.f)

    @pytest.mark.parametrize("eps", [0.05, 1.0])
    @pytest.mark.parametrize("rho", [0.5, math.inf])
    def test_needs_no_more_kernel_products_than_the_sweeps(self, rho, eps):
        # at eps = 1 the kernel is nearly of rank one and plain steps are best
        cost, mu, _ = _symmetric_case(rho, n=30, eps=eps)
        zero = np.zeros(mu.size)
        _, _, sweeps = oracles.sinkhorn_log_loop(cost, mu, mu, rho, rho, eps, zero, zero,
                                                 1e-10, 50000)
        assert sweeps < 50000
        res = uot_sinkhorn(cost, mu, mu, rho, eps=eps, tol_pot=1e-10, max_inner=50000)
        assert res.converged
        assert res.iterations <= 2 * sweeps

    @pytest.mark.parametrize("max_inner", [1, 2, 5])
    def test_cap_is_the_products_of_max_inner_sweeps(self, max_inner):
        cost, mu, eps = _symmetric_case(10.0)
        res = uot_sinkhorn(cost, mu, mu, 10.0, eps=eps, tol_pot=1e-30, max_inner=max_inner)
        assert not res.converged
        assert res.iterations == 2 * max_inner

    @pytest.mark.parametrize("variant", ["cost-one-ulp-off", "nu-one-ulp-off", "rho2-one-ulp-off"])
    def test_nearly_symmetric_problems_run_the_alternating_sweeps(self, variant, monkeypatch):
        # no rate estimate ever completes, so no call enters Newton mode
        monkeypatch.setattr(sinkhorn, "WARMUP", 10**9)
        cost, mu, eps = _symmetric_case(1.0)
        nu = mu.copy()
        rho2 = 1.0
        if variant == "cost-one-ulp-off":
            cost[0, 1] = np.nextafter(cost[0, 1], np.inf)
        elif variant == "nu-one-ulp-off":
            nu[0] = np.nextafter(nu[0], np.inf)
        else:
            rho2 = np.nextafter(1.0, np.inf)
        zero = np.zeros(mu.size)
        f, g, sweeps = oracles.sinkhorn_log_loop(cost, mu, nu, 1.0, rho2, eps, zero, zero,
                                                 1e-9, 50000)
        res = uot_sinkhorn(cost, mu, nu, 1.0, rho2, eps=eps, tol_pot=1e-9, max_inner=50000)
        assert res.iterations == sweeps
        np.testing.assert_allclose(res.potentials.f, f, rtol=0, atol=1e-13)
        np.testing.assert_allclose(res.potentials.g, g, rtol=0, atol=1e-13)


class TestPlanFromPotentials:
    """The plan uot_sinkhorn forms from the potentials it returns."""

    def test_matches_formula(self):
        rng = np.random.default_rng(7)
        cost = rng.uniform(size=(3, 4))
        mu = rng.uniform(0.1, 1.0, size=3)
        nu = rng.uniform(0.1, 1.0, size=4)
        eps = 0.2
        init = Potentials(rng.normal(size=3), rng.normal(size=4))
        res = uot_sinkhorn(cost, mu, nu, 0.7, 1.3, eps=eps, init=init, max_inner=2)
        f, g = res.potentials.f, res.potentials.g
        want = oracles.plan_from_potentials(f, g, cost, eps, mu, nu)
        np.testing.assert_allclose(res.plan.values, want, rtol=1e-13)

    def test_overflow_raises(self):
        # one sweep from g = -3000 leaves f near 1500 and g near -750; the
        # cost is not symmetric, so the call runs the alternating sweeps
        init = Potentials(np.zeros(2), np.full(2, -3000.0))
        with pytest.raises(FloatingPointError, match="plan overflow"):
            uot_sinkhorn([[0.0, 1.0], [2.0, 0.0]], np.ones(2), np.ones(2), 1.0, eps=1.0,
                         init=init, max_inner=1)
