"""Optimal rescaling of a fixed plan and the concentration-bias comparison.

For a frozen plan pi, the map theta -> value(theta * pi) is smooth and
strictly unimodal in log theta for both functionals handled here:

* the quadratic one (distortion plus quadratic divergences, optionally an
  entropic quadratic term), where the profile collapses to
  G(theta) = theta^2 (A + B log theta) + const with B > 0, so its one
  stationary point log theta = -(2A + B) / (2B) is the minimum and is
  returned as is;
* the one with plain (non-quadratic) KL penalties, whose stationarity
  condition a log(theta) + 2 b theta + c = 0 has the root
  log theta = u - W(z), u = -c/a, z = (2b/a) e^u. W is found from log z by
  Newton steps on w + log w = log z, so z itself is never formed, and a few
  Newton steps on the stationarity condition polish the root.

Both solve on the unit-mass plan pi / m(pi). With details=True they report
the first-order residual of pi itself, rescaled from the unit plan's terms,
so a plan whose own distortion would overflow still gets a finite residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _w_of_log(log_z):
    """W(z) from log z, by Newton steps on w + log w = log z; safe for any z > 0.

    The start, z / (1 + z) below z = e and log z - log log z above, lies left
    of the root; w + log w is concave, so from there each step moves right and
    stays left of the root. W(z) rounds to 0 where z underflows.
    """
    if log_z > 1.0:
        w = log_z - math.log(log_z)
    else:
        z = math.exp(log_z)
        if z == 0.0:
            return 0.0
        w = z / (1.0 + z)
    for _ in range(64):
        step = w * (w + math.log(w) - log_z) / (w + 1.0)
        w -= step
        if abs(step) <= 1e-15 * w:
            break
    return w


def lambert_w(z):
    """Principal-branch W(z) for z >= 0."""
    if z < 0:
        raise ValueError("principal branch evaluated for z >= 0 only")
    if z == 0.0:
        return 0.0
    return _w_of_log(math.log(z))


def _unit_plan(pi):
    """pi / m(pi) and m(pi); theta pi = (theta m) (pi / m), so scales are found on pi / m."""
    P = plan_values(pi)
    with np.errstate(over="ignore"):  # an infinite mass is refused below
        m = float(P.sum())
    if not 0 < m < math.inf:
        raise ValueError("the plan must carry positive, finite mass")
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
    if not 0 < rho < math.inf:
        raise ValueError("rho must be positive and finite")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    P, m = _unit_plan(pi)
    A, B = _quad_profile(X, Y, P, rho, eps)
    theta = math.exp(-(2.0 * A + B) / (2.0 * B)) / m
    if not details:
        return theta
    # G(theta) of pi is the unit plan's profile at t = theta m, so its
    # derivative in theta is m times the unit plan's derivative at t
    t = theta * m
    return theta, {"foc_residual": m * (t * (2.0 * A + B + 2.0 * B * math.log(t)))}


def _linear_foc_terms(X, Y, P, rho):
    m, b, s1, s2 = _plan_terms(X, Y, P)
    # the quadratic distortion is nonnegative; clip away roundoff so the
    # root finder keeps a monotone objective
    return 2.0 * rho * m, max(b, 0.0), rho * (s1 + s2)


def optimal_scale_linear(X, Y, pi, rho, details=False):
    """theta solving a log(theta) + 2 b theta + c = 0 for the plain-KL profile.

    a = 2 rho m(pi), b the distortion at pi, c = rho (S1 + S2). The root is
    theta = exp(u - W(z)), u = -c/a, z = (2b/a) e^u (theta = e^u when b = 0),
    with W taken from log z. A few Newton steps on h(t) = a t + 2b e^t + c,
    convex and increasing in t = log theta, then bring the returned residual
    to roundoff: after the first step each iterate lies right of the root and
    moves left. A root past the float range, in theta or in the rescaled mass
    theta m(pi), is a ValueError.
    """
    if not 0 < rho < math.inf:
        raise ValueError("rho must be positive and finite")
    P, m = _unit_plan(pi)
    a, b, c = _linear_foc_terms(X, Y, P, rho)
    u = -c / a
    t = u - _w_of_log(math.log(2.0 * b / a) + u) if b > 0 else u
    try:
        for _ in range(4):
            e = 2.0 * b * math.exp(t)
            step = (a * t + e + c) / (a + e)
            t -= step
            if abs(step) <= 1e-15 * (1.0 + abs(t)):
                break
        theta = math.exp(t) / m
    except OverflowError:
        theta = math.inf
    if theta == math.inf:
        raise ValueError("the optimal scale overflows")
    if not details:
        return theta
    # the condition of pi at theta is m times the unit plan's at s = theta m,
    # with a = m a_u, b = m^2 b_u and c = m (c_u + a_u log m)
    s = theta * m
    residual = m * (a * math.log(s) + 2.0 * b * s + c)
    return theta, {"a": m * a, "b": m * m * b, "c": m * (c + a * math.log(m)),
                   "foc_residual": residual}


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
