"""Optimal rescaling of a fixed plan and the concentration-bias comparison.

For a frozen plan pi, the map theta -> value(theta * pi) is smooth and
strictly unimodal in log theta for both functionals handled here:

* the quadratic one (distortion plus quadratic divergences, optionally an
  entropic quadratic term), where the profile collapses to
  G(theta) = theta^2 (A + B log theta) + const with B > 0, so its one
  stationary point log theta = -(2A + B) / (2B) is the minimum and is
  returned as is;
* the one with plain (non-quadratic) KL penalties, whose stationarity
  condition a log(theta) + 2 b theta + c = 0 is solved through the Lambert
  W function and polished by a safeguarded Newton iteration on the
  stationarity residual.

Both report that first-order residual with details=True.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .measures import MmSpace, plan_values, xlogy_sum
from .ugw import distortion_cost

__all__ = [
    "ScalingReport",
    "lambert_w",
    "optimal_scale_quadratic",
    "optimal_scale_linear",
    "scaling_bias_report",
]


@dataclass
class ScalingReport:
    theta_quadratic: float
    theta_linear: float
    foc_residual_quadratic: float
    foc_residual_linear: float
    kappa: float


def lambert_w(z, tol=1e-15, max_iter=64):
    """Principal-branch W(z) for z >= 0, via Halley steps from log1p(z)."""
    if z < 0:
        raise ValueError("principal branch evaluated for z >= 0 only")
    if z == 0.0:
        return 0.0
    w = math.log1p(z)
    for _ in range(max_iter):
        e = math.exp(w)
        f = w * e - z
        step = f / (e * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= tol * (1.0 + abs(w)):
            break
    return w


def _unit_plan(pi):
    """pi / m(pi) and m(pi); theta pi = (theta m) (pi / m), so scales are found on pi / m."""
    P = plan_values(pi)
    m = float(P.sum())
    if not m > 0:
        raise ValueError("the plan must carry positive mass")
    return P / m, m


def _plan_terms(X, Y, P):
    """Mass m, distortion b and the two marginal log sums of the plan matrix P."""
    b = distortion_cost(X.dist, Y.dist, P)
    s1 = xlogy_sum(P.sum(axis=1), X.weights)
    s2 = xlogy_sum(P.sum(axis=0), Y.weights)
    return float(P.sum()), b, s1, s2


def _quad_profile(X, Y, P, rho, eps):
    """Coefficients of G(theta) = theta^2 (A + B log theta) + const.

    Expanding the quadratic divergences of theta*pi shows every term is
    either theta^2, theta^2 log theta, or constant (the linear pieces
    cancel), with the data entering through the distortion b and the
    relative-entropy sums of the marginals and the plan.
    """
    m, b, s1, s2 = _plan_terms(X, Y, P)
    se = xlogy_sum(P, X.weights[:, None] * Y.weights[None, :]) if eps > 0 else 0.0
    B = 2.0 * m * m * (2.0 * rho + eps)
    A = b + 2.0 * m * (rho * s1 + rho * s2 + eps * se) - 0.5 * B
    return A, B


def optimal_scale_quadratic(X, Y, pi, rho, eps=0.0, details=False):
    """argmin_theta of the quadratic functional at theta * pi.

    The profile is G(theta) = theta^2 (A + B log theta) + const with B > 0,
    whose derivative theta (2A + B + 2B log theta) changes sign once, so
    theta = exp(-(2A + B) / (2B)) is the global minimum. details=True adds
    that derivative at the returned theta as "foc_residual".
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    P, m = _unit_plan(pi)
    A, B = _quad_profile(X, Y, P, rho, eps)
    theta = math.exp(-(2.0 * A + B) / (2.0 * B)) / m
    if not details:
        return theta
    A, B = _quad_profile(X, Y, plan_values(pi), rho, eps)
    return theta, {"foc_residual": theta * (2.0 * A + B + 2.0 * B * math.log(theta))}


def _linear_foc_terms(X, Y, P, rho):
    m, b, s1, s2 = _plan_terms(X, Y, P)
    # the quadratic distortion is nonnegative; clip away roundoff so the
    # root finder keeps a monotone objective
    return 2.0 * rho * m, max(b, 0.0), rho * (s1 + s2)


def _newton_log_root(a, b, c, t0):
    """Root of h(t) = a t + 2 b e^t + c, increasing and convex in t."""
    lo, hi = -745.0, 60.0
    t = min(max(t0, lo), hi)
    for _ in range(200):
        e = 2.0 * b * math.exp(t)
        h = a * t + e + c
        if h > 0:
            hi = min(hi, t)
        else:
            lo = max(lo, t)
        step = h / (a + e)
        t_new = t - step
        if not (lo <= t_new <= hi):
            t_new = 0.5 * (lo + hi)
        if abs(t_new - t) <= 1e-16 * (1.0 + abs(t)):
            t = t_new
            break
        t = t_new
    return t


def optimal_scale_linear(X, Y, pi, rho, details=False):
    """theta solving a log(theta) + 2 b theta + c = 0 for the plain-KL profile.

    a = 2 rho m(pi), b the distortion at pi, c = rho (S1 + S2). The root is
    theta = exp(-W((2b/a) e^{-c/a}) - c/a), refined by a bracketed Newton
    iteration so the returned residual is at most 1e-10.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    P, m = _unit_plan(pi)
    a, b, c = _linear_foc_terms(X, Y, P, rho)
    u = -c / a
    if b == 0:
        # h(t) = a t + c is linear, so the root is exact; skip the Newton
        # polish, whose bracket is sized for the exponential branch and
        # would truncate large |t|. Cap at 709 to keep exp representable.
        t = min(u, 709.0)
    elif u > 650.0:
        # exp(u) would overflow; for huge z, W(z) ~ log z - log log z
        lz = math.log(2.0 * b / a) + u
        w = lz - math.log(max(lz, 1e-300))
        w = _halley_polish(w, lz)
        t = _newton_log_root(a, b, c, u - w)
    else:
        t = _newton_log_root(a, b, c, u - lambert_w((2.0 * b / a) * math.exp(u)))
    theta = math.exp(t) / m
    if not details:
        return theta
    a, b, c = _linear_foc_terms(X, Y, plan_values(pi), rho)
    residual = a * math.log(theta) + 2.0 * b * theta + c
    return theta, {"a": a, "b": b, "c": c, "foc_residual": residual}


def _halley_polish(w, log_z):
    """Halley steps on w + log w = log z (log form, safe for huge z)."""
    for _ in range(64):
        f = w + math.log(w) - log_z
        step = f * w / (w + 1.0)
        w -= step
        if abs(step) <= 1e-15 * (1.0 + abs(w)):
            break
    return w


def scaling_bias_report(X, Y, pi, rho, kappa_grid):
    """Compare the two optimal scales on kappa-rescaled measures, pi fixed.

    For each kappa the measures become (kappa mu, kappa nu) while the plan
    stays put; theta_quadratic uses the quadratic functional with eps = 0,
    theta_linear the plain-KL one. The quadratic scale is exactly linear in
    kappa; the other is not, which is the bias being surfaced.
    """
    reports = []
    for kappa in kappa_grid:
        if not kappa > 0:
            raise ValueError("kappa values must be positive")
        Xk = MmSpace(X.dist, kappa * X.weights, label=X.label)
        Yk = MmSpace(Y.dist, kappa * Y.weights, label=Y.label)
        tq, dq = optimal_scale_quadratic(Xk, Yk, pi, rho, eps=0.0, details=True)
        tl, dl = optimal_scale_linear(Xk, Yk, pi, rho, details=True)
        reports.append(
            ScalingReport(
                theta_quadratic=tq,
                theta_linear=tl,
                foc_residual_quadratic=dq["foc_residual"],
                foc_residual_linear=dl["foc_residual"],
                kappa=float(kappa),
            )
        )
    return reports
