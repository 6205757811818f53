import math
import warnings

import numpy as np
import pytest

from ugwkit.measures import MmSpace
from ugwkit.scaling import (
    ScalingReport,
    lambert_w,
    optimal_scale_linear,
    optimal_scale_quadratic,
    scaling_bias_report,
)
from ugwkit.ugw import distortion_cost

import oracles
from conftest import random_plan, random_space


class TestLambertW:
    def test_inverse_identity_on_log_grid(self):
        for z in np.logspace(-8, 8, 60):
            w = lambert_w(float(z))
            assert abs(w * math.exp(w) - z) <= 1e-13 * max(1.0, z)

    def test_special_values(self):
        assert lambert_w(0.0) == 0.0
        assert lambert_w(math.e) == pytest.approx(1.0, rel=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            lambert_w(-0.1)

    def test_matches_halley_reference_on_wide_log_grid(self):
        # the log-form Newton loses |log z| ulps to the rounding of log z,
        # about 5.7e-14 relative at z = 1e-271
        for z in np.logspace(-300, 300, 4001):
            want = oracles.lambert_w_halley(float(z))
            assert abs(lambert_w(float(z)) - want) <= 1e-13 * want


def quad_profile_value(X, Y, P, rho, eps, theta):
    from ugwkit.measures import quad_kl

    tP = theta * P
    val = theta * theta * distortion_cost(X.dist, Y.dist, P)
    val += rho * quad_kl(tP.sum(axis=1), X.weights)
    val += rho * quad_kl(tP.sum(axis=0), Y.weights)
    if eps > 0:
        ref = (X.weights[:, None] * Y.weights[None, :]).ravel()
        val += eps * quad_kl(tP.ravel(), ref)
    return val


def linear_profile_value(X, Y, P, rho, theta):
    val = theta * theta * distortion_cost(X.dist, Y.dist, P)
    val += rho * oracles.kl_loop(theta * P.sum(axis=1), X.weights)
    val += rho * oracles.kl_loop(theta * P.sum(axis=0), Y.weights)
    return val


class TestQuadraticScale:
    def test_matches_interval_search(self):
        rng = np.random.default_rng(0)
        for eps in (0.0, 0.3):
            for _ in range(6):
                X = random_space(rng, 4, weights="mass")
                Y = random_space(rng, 3, weights="mass")
                P = random_plan(rng, X.n, Y.n)
                theta = optimal_scale_quadratic(X, Y, P, rho=0.8, eps=eps)
                t_star = oracles.ternary_min(
                    lambda t: quad_profile_value(X, Y, P, 0.8, eps, math.exp(t)), -14.0, 14.0
                )
                np.testing.assert_allclose(theta, math.exp(t_star), rtol=1e-6)

    def test_details_and_foc(self):
        rng = np.random.default_rng(1)
        X = random_space(rng, 3, weights="mass")
        Y = random_space(rng, 4, weights="mass")
        P = random_plan(rng, 3, 4)
        theta, info = optimal_scale_quadratic(X, Y, P, rho=1.0, details=True)
        assert set(info) == {"foc_residual"}
        assert abs(info["foc_residual"]) <= 1e-8
        assert theta > 0

    def test_flat_profile_closed_form(self):
        # small rho and no entropy: the profile is flat to about 12 digits
        # near its minimum, so a search over theta lands anywhere in a wide
        # valley; the closed form still zeroes the first-order condition and
        # reaches the searched value
        for k in range(60):
            rng = np.random.default_rng([110, k])
            n, m = (int(v) for v in rng.integers(3, 6, size=2))
            X = random_space(rng, n, weights="mass")
            Y = random_space(rng, m, weights="mass")
            P = random_plan(rng, n, m)
            theta, info = optimal_scale_quadratic(X, Y, P, rho=0.1, eps=0.0, details=True)
            assert abs(info["foc_residual"]) <= 1e-10
            # 120 thirds shrink the bracket by (2/3)^120, below float spacing
            t_star = oracles.ternary_min(
                lambda t: quad_profile_value(X, Y, P, 0.1, 0.0, math.exp(t)), -14.0, 14.0, 120
            )
            g_search = quad_profile_value(X, Y, P, 0.1, 0.0, math.exp(t_star))
            g_closed = quad_profile_value(X, Y, P, 0.1, 0.0, theta)
            assert g_closed <= g_search + 1e-14 * (1.0 + abs(g_search))

    def test_validation(self):
        rng = np.random.default_rng(2)
        X = random_space(rng, 3)
        Y = random_space(rng, 3)
        P = random_plan(rng, 3, 3)
        with pytest.raises(ValueError):
            optimal_scale_quadratic(X, Y, P, rho=0.0)
        with pytest.raises(ValueError):
            optimal_scale_quadratic(X, Y, P, rho=1.0, eps=-0.1)
        with pytest.raises(ValueError):
            optimal_scale_quadratic(X, Y, np.zeros((3, 3)), rho=1.0)


class TestLinearScale:
    def test_foc_residual_and_interval_search(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            X = random_space(rng, 4, weights="mass")
            Y = random_space(rng, 4, weights="mass")
            P = random_plan(rng, 4, 4)
            theta, info = optimal_scale_linear(X, Y, P, rho=0.6, details=True)
            assert abs(info["foc_residual"]) <= 1e-10
            t_star = oracles.ternary_min(
                lambda t: linear_profile_value(X, Y, P, 0.6, math.exp(t)), -14.0, 14.0
            )
            np.testing.assert_allclose(theta, math.exp(t_star), rtol=1e-6)

    def test_zero_distortion_closed_form(self):
        # identical spaces and a diagonal plan: b = 0, the FOC is linear in
        # log theta, and the optimum exp(-c/a) should come back exactly
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        X = MmSpace(d, [0.4, 0.6])
        P = 0.25 * np.diag(X.weights)
        theta, info = optimal_scale_linear(X, X, P, rho=1.0, details=True)
        assert info["b"] == 0.0
        a, c = info["a"], info["c"]
        np.testing.assert_allclose(theta, math.exp(-c / a), rtol=1e-12)
        assert abs(info["foc_residual"]) <= 1e-10

    @pytest.mark.parametrize("weight", [1.0, 1e100, 1e200, 1e300])
    @pytest.mark.parametrize("plan", [
        [[0.3, 0.2], [0.1, 0.4]],  # b > 0
        [[0.5, 1e-300], [1e-300, 0.5]],  # b = 0: the distortion rounds to 0
    ])
    def test_matches_reference_root_across_weight_scales(self, weight, plan):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        X = MmSpace(d, [weight, weight])
        theta, info = optimal_scale_linear(X, X, np.array(plan), rho=1.0, details=True)
        assert (info["b"] > 0) == (plan[0][1] == 0.2)
        want = oracles.linear_scale_root(info["a"], info["b"], info["c"])
        np.testing.assert_allclose(theta, want, rtol=1e-12)
        assert abs(info["foc_residual"]) <= 1e-10

    def test_root_near_the_float_limit(self):
        # theta = exp(-c/a) = 1.6e308 is finite, so it comes back exactly;
        # at weights 1e308 it is 2e308, which overflows
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        P = np.array([[0.5, 1e-300], [1e-300, 0.5]])
        X = MmSpace(d, [8e307, 8e307])
        theta, info = optimal_scale_linear(X, X, P, rho=1.0, details=True)
        np.testing.assert_allclose(theta, 1.6e308, rtol=1e-12)
        assert abs(info["foc_residual"]) <= 1e-10
        X = MmSpace(d, [1e308, 1e308])
        with pytest.raises(ValueError, match="overflows"):
            optimal_scale_linear(X, X, P, rho=1.0)

    def test_large_log_scale_stays_finite(self):
        # a plan around 1e-295 drives -c/a near 680; theta is huge but finite
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        X = MmSpace(d, [1.0, 1.0])
        P = np.full((2, 2), 1e-295)
        theta, info = optimal_scale_linear(X, X, P, rho=1.0, details=True)
        assert math.isfinite(theta) and theta > 1e250
        assert abs(info["foc_residual"]) <= 1e-10


@pytest.mark.parametrize(
    "solve,value", [(optimal_scale_quadratic, 0.44125), (optimal_scale_linear, 0.28357)]
)
def test_scale_follows_the_plan_mass(solve, value):
    # theta * pi depends on pi only through its shape, so theta times the
    # entry must not move from plans of entries 1 down to 1e-295; solved on
    # the plan itself, the quadratic profile underflows at 1e-295 and the
    # linear root hits its cap on log theta below about 1e-26
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    X = MmSpace(d, [1.0, 1.0])
    scaled = [solve(X, X, np.full((2, 2), scale), rho=1.0) * scale
              for scale in (1.0, 1e-20, 1e-30, 1e-100, 1e-295)]
    np.testing.assert_allclose(scaled, scaled[0], rtol=1e-12, atol=0)
    assert scaled[0] == pytest.approx(value, abs=5e-6)


@pytest.mark.parametrize("solve", [optimal_scale_quadratic, optimal_scale_linear])
def test_plan_mass_must_be_finite(solve):
    # a product plan of weights 1e300 overflows to entries of inf
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    X = MmSpace(d, [1e300, 1e300])
    with np.errstate(over="ignore"):
        product = np.outer(X.weights, X.weights)
    for P in (product, np.full((2, 2), 1e308), np.full((2, 2), np.nan)):
        # refused with no overflow warning on the way
        with warnings.catch_warnings(), pytest.raises(ValueError, match="positive, finite mass"):
            warnings.simplefilter("error")
            solve(X, X, P, rho=1.0)


@pytest.mark.parametrize("weight", [1.0, 1e100, 1e150])
def test_residuals_stay_finite_on_heavy_plans(weight):
    # the product plan of weights 1e150 has mass 2e301: its own distortion
    # overflows, so the residuals are rescaled from the unit plan's terms,
    # and each must sit at roundoff of m(pi) times the largest of them
    rng = np.random.default_rng(7)
    X, Y = (MmSpace(random_space(rng, n).dist, np.full(n, weight)) for n in (4, 5))
    pi = np.outer(X.weights, Y.weights)
    m = float(pi.sum())
    P = pi / m
    rho = 1.0

    def log_sums(P):
        return sum(float(np.sum(p * np.log(p / w)))
                   for p, w in ((P.sum(axis=1), X.weights), (P.sum(axis=0), Y.weights)))

    b = distortion_cost(X.dist, Y.dist, P)
    s = log_sums(P)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta_q, info_q = optimal_scale_quadratic(X, Y, pi, rho, details=True)
        theta_l, info_l = optimal_scale_linear(X, Y, pi, rho, details=True)
    B = 4.0 * rho
    A = b + 2.0 * rho * s - 0.5 * B
    t = theta_q * m
    quad_terms = (abs(2.0 * A * t), B * t, abs(2.0 * B * t * math.log(t)))
    t = theta_l * m
    linear_terms = (abs(2.0 * rho * math.log(t)), 2.0 * b * t, abs(rho * s))
    for residual, terms in ((info_q["foc_residual"], quad_terms),
                            (info_l["foc_residual"], linear_terms)):
        assert math.isfinite(residual)
        assert abs(residual) <= 1e-12 * m * max(terms)
    if weight == 1.0:  # the coefficients of pi itself are finite: compare them
        direct = [2.0 * rho * m, distortion_cost(X.dist, Y.dist, pi), rho * log_sums(pi)]
        np.testing.assert_allclose([info_l[k] for k in "abc"], direct, rtol=1e-12)


class TestBiasReport:
    def test_quadratic_scale_is_linear_in_kappa(self):
        rng = np.random.default_rng(4)
        X = random_space(rng, 4, weights="random")
        Y = random_space(rng, 5, weights="random")
        P = random_plan(rng, 4, 5)
        kappas = (0.25, 0.5, 1.0, 2.0, 4.0)
        reports = scaling_bias_report(X, Y, P, rho=0.5, kappa_grid=kappas)
        assert all(isinstance(r, ScalingReport) for r in reports)
        ratios_q = [r.theta_quadratic / r.kappa for r in reports]
        np.testing.assert_allclose(ratios_q, ratios_q[0], rtol=1e-9)
        ratios_l = np.array([r.theta_linear / r.kappa for r in reports])
        assert ratios_l.max() / ratios_l.min() > 1.001

    def test_foc_residuals_reported(self):
        rng = np.random.default_rng(5)
        X = random_space(rng, 3)
        Y = random_space(rng, 3)
        P = random_plan(rng, 3, 3)
        (rep,) = scaling_bias_report(X, Y, P, rho=1.0, kappa_grid=[1.0])
        assert abs(rep.foc_residual_linear) <= 1e-10
        assert abs(rep.foc_residual_quadratic) <= 1e-6

    def test_kappa_validation(self):
        rng = np.random.default_rng(6)
        X = random_space(rng, 3)
        P = random_plan(rng, 3, 3)
        with pytest.raises(ValueError):
            scaling_bias_report(X, X, P, rho=1.0, kappa_grid=[0.0])
