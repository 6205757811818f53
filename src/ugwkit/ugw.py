"""Unbalanced Gromov-Wasserstein: functional, local cost, and solver.

The divergence compares two mm-spaces through

    L(pi) = sum_{ijkl} (DX_ij - DY_kl)^2 pi_ik pi_jl
            + rho1 KLq(pi_1|mu) + rho2 KLq(pi_2|nu)

where KLq(a|b) = KL(a (x) a | b (x) b) is the quadratic divergence; the
entropic version adds eps KLq(pi|mu (x) nu). rho = inf switches a marginal to
the balanced (hard constraint) mode.

The solver alternates on the biconvex relaxation F(pi, gamma): for a frozen
plan it assembles the O(n^3) local cost

    c_il = A_i + B_l - 2 C_il + E,
    A = (DX)^{.2} gamma_1,  B = (DY)^{.2} gamma_2,  C = DX gamma DY,
    E = rho1 sum log(gamma_1/mu) gamma_1 + rho2 sum log(gamma_2/nu) gamma_2
        + eps sum log(gamma/(mu (x) nu)) gamma,

hands it to the unbalanced Sinkhorn loop with mass-scaled parameters
(rho_k m(pi), eps m(pi)), and rescales the new plan so the pair keeps a common
mass. Iterations stop when the log-plan stops moving in sup-norm.

On some inputs (criterion 11's low-rho moons clouds) this map settles into an
exact 2-cycle: plan k equals plan k-2 while plans k and k-1 stay far apart, a
non-diagonal stationary pair of F. The solver detects that and from then on
damps each step in log space, gamma <- pi^(1-t) new^t (damped fixed-point
steps as in Peyre, Cuturi & Solomon, ICML 2016). The damped steps stop only
where the plain map stands still, pi = gamma; on those clouds that point has
a lower F(pi, pi) than either plan of the cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import TransportPlan, balanced_indicator, plan_values, quad_kl, tensor_kl, xlogy_sum
from .sinkhorn import Potentials, uot_sinkhorn

__all__ = [
    "UgwConfig",
    "UgwSolution",
    "DebiasedResult",
    "distortion_cost",
    "local_cost",
    "ugw_functional",
    "biconvex_functional",
    "solve_ugw",
    "debiased_ugw",
    "tightness_diagnostics",
]

# plan entries below this are left out of the log-convergence comparison
LOG_CLAMP = 1e-300
# a new plan within tol_plan of the plan two steps back, but at least this far
# (in log) from the last one, is a 2-cycle of the alternate minimization
CYCLE_GAP = 1.0
# once a cycle is seen, each next plan is pi^(1 - CYCLE_STEP) new^CYCLE_STEP;
# on criterion 11's cycling clouds 0.85-0.95 settle them in the fewest steps
CYCLE_STEP = 0.9


@dataclass(frozen=True)
class UgwConfig:
    """Solver parameters. rho = inf means the balanced (constrained) mode."""

    eps: float = 1e-2
    rho1: float = 1.0
    rho2: float = None
    max_outer: int = 3000
    max_inner: int = 3000
    tol_plan: float = 1e-5
    tol_pot: float = 1e-9

    def __post_init__(self):
        if self.rho2 is None:
            object.__setattr__(self, "rho2", self.rho1)
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not (self.rho1 >= 0 and self.rho2 >= 0):
            raise ValueError("rho must be nonnegative")
        if not (self.tol_plan > 0 and self.tol_pot > 0):
            raise ValueError("tolerances must be positive")
        if not (self.max_outer >= 1 and self.max_inner >= 1):
            raise ValueError("max_outer and max_inner must be at least 1")

    @property
    def balanced1(self):
        return math.isinf(self.rho1)

    @property
    def balanced2(self):
        return math.isinf(self.rho2)


@dataclass
class UgwSolution:
    pi: TransportPlan
    gamma: TransportPlan
    cost_biconvex: float
    cost_primal: float
    primal_unregularized: float
    outer_iterations: int
    converged: bool
    diagnostics: dict = field(default_factory=dict)


@dataclass
class DebiasedResult:
    value: float
    converged: bool
    cross: float
    self_x: float
    self_y: float


def distortion_cost(DX, DY, pi, gamma=None):
    """sum_{ijkl} (DX_ij - DY_kl)^2 pi_ik gamma_jl via the 3-term expansion.

    gamma defaults to pi. Equals the O(n^4) contraction exactly (same algebra,
    factored): the square expands into two marginal terms plus a cross term
    DX gamma DY contracted against pi.
    """
    DX = np.asarray(DX, dtype=float)
    DY = np.asarray(DY, dtype=float)
    p = plan_values(pi)
    g = p if gamma is None else plan_values(gamma)
    if p.shape != g.shape or DX.shape[0] != p.shape[0] or DY.shape[0] != p.shape[1]:
        raise ValueError("dimension mismatch between distances and plans")
    p1, p2 = p.sum(axis=1), p.sum(axis=0)
    g1, g2 = g.sum(axis=1), g.sum(axis=0)
    term_x = p1 @ (DX * DX) @ g1
    term_y = p2 @ (DY * DY) @ g2
    cross = float(np.sum(p * (DX @ g @ DY)))
    return float(term_x + term_y - 2.0 * cross)


def local_cost(X, Y, gamma, cfg):
    """The n x m cost matrix c = A (+) B - 2C + E for a frozen plan gamma.

    Balanced marginals (rho = inf) contribute no rho-term to E: their value is
    pinned by the constraint and would only shift the cost by a constant the
    potentials absorb.
    """
    g = plan_values(gamma)
    mu, nu = X.weights, Y.weights
    if g.shape != (X.n, Y.n):
        raise ValueError("plan shape does not match the spaces")
    g1, g2 = g.sum(axis=1), g.sum(axis=0)
    A = (X.dist * X.dist) @ g1
    B = (Y.dist * Y.dist) @ g2
    C = X.dist @ g @ Y.dist
    E = cfg.eps * xlogy_sum(g, mu[:, None] * nu[None, :])
    if not cfg.balanced1:
        E += cfg.rho1 * xlogy_sum(g1, mu)
    if not cfg.balanced2:
        E += cfg.rho2 * xlogy_sum(g2, nu)
    return A[:, None] + B[None, :] - 2.0 * C + E


def ugw_functional(X, Y, pi, cfg, *, strict_balanced=True):
    """L(pi) + eps KLq(pi|mu (x) nu), +inf on KL-singular or off-constraint plans.

    This is the diagonal F(pi, pi) of biconvex_functional. With
    strict_balanced=False the indicator terms of balanced marginals are
    treated as 0; the solver uses this to report finite costs for plans that
    satisfy the constraint only to iteration tolerance.
    """
    return biconvex_functional(X, Y, pi, pi, cfg, strict_balanced=strict_balanced)


def _pair_penalty(a, b, ref, rho, *, strict_balanced=True):
    """rho * KL(a (x) b | ref (x) ref); indicator semantics in the balanced limit rho = inf."""
    if math.isinf(rho):
        return balanced_indicator(a, ref) + balanced_indicator(b, ref) if strict_balanced else 0.0
    t = tensor_kl(a, b, ref, ref)
    return rho * t if not math.isinf(t) else math.inf


def biconvex_functional(X, Y, pi, gamma, cfg, *, strict_balanced=True):
    """F_eps(pi, gamma): the two-plan relaxation; F(pi, pi) is ugw_functional."""
    p = plan_values(pi)
    g = plan_values(gamma)
    mu, nu = X.weights, Y.weights
    val = distortion_cost(X.dist, Y.dist, p, g)
    pen = _pair_penalty(p.sum(axis=1), g.sum(axis=1), mu, cfg.rho1, strict_balanced=strict_balanced)
    pen += _pair_penalty(p.sum(axis=0), g.sum(axis=0), nu, cfg.rho2, strict_balanced=strict_balanced)
    ref = (mu[:, None] * nu[None, :]).ravel()
    ent = tensor_kl(p.ravel(), g.ravel(), ref, ref)
    if math.isinf(pen) or math.isinf(ent):
        return math.inf
    return val + pen + cfg.eps * ent


def _log_plan(a):
    """(log a, a >= LOG_CLAMP): a plan's log and the entries the gap reads."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(a), a >= LOG_CLAMP


def _log_gap(a, b):
    """Sup-norm distance between two _log_plan results over their common entries
    (0.0 when there are none)."""
    with np.errstate(invalid="ignore"):
        diff = np.abs(a[0] - b[0])
    return float(np.max(diff, where=a[1] & b[1], initial=0.0))


def _same_space(X, Y):
    # Y is X, or a space with equal distances and weights
    return Y is X or (np.array_equal(X.weights, Y.weights) and np.array_equal(X.dist, Y.dist))


def solve_ugw(X, Y, cfg, init_plan=None):
    """Alternate minimization of the biconvex relaxation (outer/inner loops).

    init_plan overrides the default product initialization
    mu (x) nu / sqrt(m(mu) m(nu)). The returned (pi, gamma) pair carries the
    joint mass rescale, so m(pi) = m(gamma) exactly; gamma is the plan the
    next iteration would start from.

    The inner tolerance bounds the potential step, not the distance to the
    inner fixed point, so the log-plan gap the outer test sees has a noise
    floor of roughly tol (rho + eps) / (eps^2 m) at plan mass m, rho =
    max(rho1, rho2). So each inner call stops at the tol that puts this floor
    at tol_plan, tol_plan eps^2 m / (rho + eps) (tol_plan eps m when rho is
    inf), capped at tol_pot: m can span many orders of magnitude in one solve.
    Each inner call is warm-started from the last call's potentials, and with
    them from its Newton mode (see the sinkhorn module docstring), since
    consecutive local costs differ little.

    A self-comparison, where Y is X or has equal distances and weights,
    rho1 == rho2 and the start plan equals its transpose (the default start
    always does), averages each local cost with its transpose. Every inner
    problem is then exactly symmetric, and uot_sinkhorn solves it with one
    potential and averaged steps, in a handful of half-sweeps.

    diagnostics["inner_capped"] counts the inner calls that hit max_inner and
    diagnostics["sweeps"] sums their iterations: full sweeps (two kernel
    products each), or half-sweeps (one product each) when
    diagnostics["symmetric"] is true; diagnostics["newton_steps"] sums the
    Newton steps that slowly contracting inner calls took between their
    sweeps. diagnostics["log_gap"] is the last sup-norm log-plan change the
    outer test read (NaN when no inner call finished). ``converged`` requires
    the plan test to pass with no capped inner call along the way.
    diagnostics["stop_reason"] is "tol_plan", "max_outer" or, as
    diagnostics["aborted"] then says too, "plan mass underflow";
    diagnostics["symmetric"] says whether the self-comparison mode ran.
    diagnostics["tightness"] holds tightness_diagnostics at the returned pair.

    A 2-cycle is detected at the first step whose new plan is within tol_plan
    of the plan two steps back in log-plan while at least CYCLE_GAP (1.0) from
    the last one. The guard keeps converging solves out: near their stop, at
    gaps of a few tol_plan, the inner noise floor alone can put a plan closer
    to the one two steps back than to the last. From the detecting step on,
    each next start plan is pi^(1-CYCLE_STEP) new^CYCLE_STEP (CYCLE_STEP =
    0.9), formed in log space from the stored log-plans. The plan test
    still reads the undamped new plan against pi, so a damped solve stops
    only at a fixed point of the plain map, and returns that undamped plan as
    gamma. diagnostics["damped_from"] is the detecting step, or None when
    every step was plain.
    """
    mu, nu = X.weights, Y.weights
    if init_plan is None:
        gamma = mu[:, None] * nu[None, :] / math.sqrt(X.mass * Y.mass)
    else:
        gamma = np.array(plan_values(init_plan), dtype=float)
        if gamma.shape != (X.n, Y.n):
            raise ValueError("init_plan shape does not match the spaces")
    # a self-comparison with a symmetric start keeps every local cost exactly
    # symmetric, so each inner solve runs the single-potential iteration
    symmetric = (cfg.rho1 == cfg.rho2 and _same_space(X, Y)
                 and np.array_equal(gamma, gamma.T))
    init = Potentials(np.zeros(X.n), np.zeros(Y.n))
    # each inner call stops at min(tol_pot, stop_per_mass m(pi)): the noise floor above
    rho = max(cfg.rho1, cfg.rho2)
    stop_per_mass = cfg.tol_plan * cfg.eps * (1.0 if math.isinf(rho) else cfg.eps / (rho + cfg.eps))

    converged = False
    inner_capped = 0
    sweeps = newton_steps = 0
    log_gap = math.nan
    aborted = None
    damped_from = None
    pi = gamma
    # log-plans of the next start plan and of the two plans before it
    log_ga = _log_plan(gamma)
    log_pi = log_back = None
    it = 0
    for it in range(1, cfg.max_outer + 1):
        pi = gamma
        log_back, log_pi = log_pi, log_ga
        m_pi = float(pi.sum())
        if not (m_pi > 0 and np.isfinite(m_pi)):
            aborted = "plan mass underflow"
            break
        cost = local_cost(X, Y, pi, cfg)
        if symmetric:
            np.add(cost, cost.T, out=cost)
            cost *= 0.5
        res = uot_sinkhorn(
            cost,
            mu,
            nu,
            cfg.rho1 * m_pi,
            cfg.rho2 * m_pi,
            eps=cfg.eps * m_pi,
            init=init,
            tol_pot=min(cfg.tol_pot, stop_per_mass * m_pi),
            max_inner=cfg.max_inner,
        )
        inner_capped += not res.converged
        sweeps += res.iterations
        newton_steps += res.newton_steps
        init = res.potentials
        raw, m_raw = res.plan.values, res.plan.mass
        if not (m_raw > 0 and np.isfinite(m_raw)):
            aborted = "plan mass underflow"
            break
        gamma = math.sqrt(m_pi / m_raw) * raw
        log_ga = _log_plan(gamma)
        log_gap = _log_gap(log_ga, log_pi)
        if log_gap < cfg.tol_plan:
            converged = True
            break
        if (damped_from is None and log_gap >= CYCLE_GAP and log_back is not None
                and _log_gap(log_ga, log_back) < cfg.tol_plan):
            damped_from = it
        if damped_from is not None:
            log_damped = (1.0 - CYCLE_STEP) * log_pi[0] + CYCLE_STEP * log_ga[0]
            gamma = np.exp(log_damped)
            log_ga = (log_damped, gamma >= LOG_CLAMP)

    # the temporaries of the final evaluations set the solve's peak memory;
    # the log-plans are not needed for them
    del log_ga, log_pi, log_back

    # joint rescale to the geometric-mean mass: pi (x) gamma is unchanged
    # (the factors cancel), and m(pi) = m(gamma) down to roundoff
    m_pi = float(pi.sum())
    m_ga = float(gamma.sum())
    if m_pi > 0 and m_ga > 0 and np.isfinite(m_pi) and np.isfinite(m_ga):
        m_geo = math.sqrt(m_pi * m_ga)
        pi = (m_geo / m_pi) * pi
        gamma = (m_geo / m_ga) * gamma

    pi_t = TransportPlan(pi)
    ga_t = TransportPlan(gamma)
    tightness = tightness_diagnostics(X, Y, pi_t, ga_t, cfg)
    cost_primal = tightness["F_pi_pi"]
    primal_unreg = cost_primal - cfg.eps * quad_kl(
        pi_t.values.ravel(), (mu[:, None] * nu[None, :]).ravel()
    )
    return UgwSolution(
        pi=pi_t,
        gamma=ga_t,
        cost_biconvex=tightness["F_pi_gamma"],
        cost_primal=cost_primal,
        primal_unregularized=primal_unreg,
        outer_iterations=it,
        converged=converged and inner_capped == 0 and aborted is None,
        diagnostics={"aborted": aborted, "inner_capped": inner_capped, "sweeps": sweeps,
                     "newton_steps": newton_steps, "log_gap": log_gap,
                     "stop_reason": aborted or ("tol_plan" if converged else "max_outer"),
                     "damped_from": damped_from, "symmetric": symmetric,
                     "tightness": tightness},
    )


def tightness_diagnostics(X, Y, pi, gamma, cfg):
    """F values at (pi,gamma), (pi,pi), (gamma,gamma) and the plan gap."""
    p, g = plan_values(pi), plan_values(gamma)
    return {
        "F_pi_gamma": biconvex_functional(X, Y, p, g, cfg, strict_balanced=False),
        "F_pi_pi": biconvex_functional(X, Y, p, p, cfg, strict_balanced=False),
        "F_gamma_gamma": biconvex_functional(X, Y, g, g, cfg, strict_balanced=False),
        "plan_gap": float(np.max(np.abs(p - g), initial=0.0)),
        "mass_pi": float(p.sum()),
        "mass_gamma": float(g.sum()),
    }


def debiased_ugw(X, Y, cfg, cross=None):
    """Debiased cost: cross - self_x/2 - self_y/2 + (eps/2)(m(mu)^2 - m(nu)^2)^2.

    All three runs share cfg (the self runs use the default initialization,
    so they run solve_ugw's symmetric self-comparison mode).
    ``cross`` is a finished solve_ugw(X, Y, cfg, ...) to reuse, with any
    init_plan; when None it is solved here from the default initialization.
    When Y is X, or has equal distances and weights, the three terms are one
    problem: the cross solve stands for both self terms, and the value is
    exactly 0. ``converged`` is False if any sub-run failed to converge.
    """
    if cross is None:
        cross = solve_ugw(X, Y, cfg)
    if _same_space(X, Y):
        sx = sy = cross
    else:
        sx = solve_ugw(X, X, cfg)
        sy = solve_ugw(Y, Y, cfg)
    corr = 0.5 * cfg.eps * (X.mass**2 - Y.mass**2) ** 2
    value = cross.cost_biconvex - 0.5 * sx.cost_biconvex - 0.5 * sy.cost_biconvex + corr
    return DebiasedResult(
        value=value,
        converged=cross.converged and sx.converged and sy.converged,
        cross=cross.cost_biconvex,
        self_x=sx.cost_biconvex,
        self_y=sy.cost_biconvex,
    )
