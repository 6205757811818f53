"""Log-stabilized unbalanced Sinkhorn iterations.

Solves the entropic unbalanced OT problem

    min_pi  <cost, pi> + rho1 KL(pi_1|mu) + rho2 KL(pi_2|nu) + eps KL(pi|mu (x) nu)

by alternating the potential updates

    T(f)_i = -(eps rho1 / (eps + rho1)) LSE_j[ (g_j - c_ij)/eps + log nu_j ]
    T(g)_j = -(eps rho2 / (eps + rho2)) LSE_i[ (f_i - c_ij)/eps + log mu_i ]

where LSE is the max-shifted log-sum-exp. rho = inf is the balanced mode: the
damping factor rho/(eps + rho) becomes 1. The plan is recovered as
pi_ij = exp((f_i + g_j - c_ij)/eps) mu_i nu_j.

Each half-sweep is one kernel matrix-vector product, log-stabilized with
absorption (Chizat, Peyre, Schmitzer & Vialard, arXiv 1607.05816, Alg. 2;
Schmitzer, arXiv 1610.06519, Sec. 3). The log kernels k_ij = log nu_j - c_ij/eps
and log mu_i - c_ij/eps (the latter stored transposed, so both products run
along contiguous rows) are built once per call. For the f update, the kernel
is absorbed at a reference point r = g/eps:

    K_ij = exp(k_ij + r_j - top_i),   top_i = max_j (k_ij + r_j),

so every entry is at most 1 and each row holds a 1. With h = g/eps,

    LSE_j[k_ij + h_j] = top_i + log (K exp(h - r))_i,

which costs one exp and one log of a vector and one product with K. The
product stays accurate while h is near r, so K, top and r are rebuilt at h
(one max-shifted exp over all n m cells, the cost of a plain log-domain
half-sweep) at the first half-sweep of every call and whenever the drift
||h - r||_2 passes DRIFT. An entry of K below e^-745 is stored as 0, and one
below e^-708 with less than full precision; after a drift of at most
DRIFT = 100 such an entry's term is at most e^(200 - 708) times the largest
term of its row, so what the product loses is far below roundoff. A drift
too large to square overflows to inf and so absorbs, without a warning. The
g update is the same with the roles of f and g swapped.

The stop test is the fixed-point residual max|T(f) - f|, read before f
moves. It passes at tol_pot, and also where tol_pot is finer than floats of
the potentials' size resolve: at rho = 1e6 they can lie near 1e5, 1.5e-11
apart, where no residual reaches tol_pot = 1e-12. There the residual stops
falling; a residual no smaller than the last one passes once it is within 4
float spacings of max|T(f)|. The returned f is T(f) and the returned g is the
exact block optimum for it.

Newton mode. Plain sweeps contract slowly at large rho, where the translation
(f + c, g - c) is damped only by eps/rho, and in the balanced mode at small
eps. The residual ratio over each WARMUP sweeps estimates the contraction
rate; once it passes NEWTON_RATE, each further sweep but the last is followed
by a Newton step on the concave dual (Brauer, Clason, Lorenz & Wirth, arXiv
1710.06635; Tang et al., ICLR 2024)

    D(f, g) = -rho1 <mu, e^{-f/rho1}> - rho2 <nu, e^{-g/rho2}> - eps m(pi),

whose rho = inf terms are <mu, f> and <nu, g>. Its gradient in f is
a - pi_1 with a = mu e^{-f/rho1} (a = mu at rho1 = inf), and the plain
g half-sweep before the step leaves the g gradient b - pi_2 at zero
(b = nu e^{-g/rho2}). So g is eliminated through its block of the Hessian,
and the f step solves (np.linalg.solve) the n x n Schur complement

    S = diag(a/rho1 + pi_1/eps) - (pi/eps) diag(1/(b/rho2 + pi_2/eps)) (pi/eps)^T

against the f gradient; the g step is -diag(1/(b/rho2 + pi_2/eps)) (pi/eps)^T
times it. The diagonal term d = a/rho1 + pi_1/eps is taken as
(1 + RIDGE) d, a Levenberg-Marquardt term that keeps S invertible where the
plan splits into blocks that barely exchange mass (at small eps) and leaves
the other directions as they are. With both sides balanced, S is singular
along the gauge (f + c, g - c), which moves neither the plan nor D: the
gradient is projected to mean zero and mean(d)/n times the all-ones matrix
is added. The step is backtracked, halving its length at most NEWTON_HALVINGS
times, until D gains at least ARMIJO times the first-order gain, with the
gain summed from expm1 terms so that it stays exact to roundoff near the
fixed point. So the dual never decreases, as under the sweeps, which
maximise it block by block. A column whose plan mass and b both underflow
has neither gradient nor curvature and takes no step. A zero entry of d, a
singular or non-finite solve, or no accepted length refuses the step; the
call then leaves Newton mode and its next window estimates the rate afresh.
The stop test and the count of sweeps are those above, the returned pair is
a plain sweep's, and nothing warns (np.errstate).

A warm start keeps the mode. A call that ends in Newton mode on a problem
with no balanced side marks its potentials (Potentials.newton), and a call
started from them, again with no balanced side, is in Newton mode from its
first sweep: it skips the rate windows that would find it slow again. The
outer loop of solve_ugw hands each call's potentials to the next, whose
problem is close to the last one. A balanced side never carries the mode:
in criterion 12's balanced solves a Newton step forced after the first sweep
of every call stalls the outer loop near its fixed point (231 outer steps in
place of 203).

A symmetric problem (a square cost equal to its transpose, mu = nu and
rho1 = rho2) has the same map T for f and g, and its fixed point has f = g.
The alternating sweeps converge slowly there: near the fixed point T acts as
-kappa P with P a stochastic matrix and kappa = rho/(eps + rho), so one sweep
T(T(.)) contracts the mode of an eigenvalue p of P only by kappa^2 p^2, which
is close to 1 on the smooth modes (p near 1). Such a problem keeps one
potential and takes averaged steps f <- f + theta (T(f) - f) (theta = 1/2 is
the averaged iteration of Feydy et al., arXiv 1810.08278, and Sejourne et
al., arXiv 1910.12958), which contract that mode by 1 - theta (1 + kappa p).
theta = 1/2 damps the smooth modes to (1 - kappa)/2 and so removes the
constant one of the balanced mode, on which plain steps oscillate for ever;
theta = 1 is the plain step, best where P is nearly of rank one (large eps).
So the first step takes theta = 1/2, and each later one the inverse of the
curvature 1 + kappa p that the last step showed along its own direction (the
Barzilai-Borwein step), clipped to [1/2, 1]; every theta there contracts
every mode with 0 <= p < 1. Each step is one product with the single kernel
log mu - cost/eps, absorbed as above. It stops on the same test; the
stopping step, like the last before the cap, is the plain f <- T(f), and
g = T(f) at the new f costs one more product, so the returned pair keeps the
contract above. The iteration count is then the number of these half-sweeps,
the one for g included, and max_inner caps it at 2 max_inner, the products of
max_inner alternating sweeps. A warm start (f0, g0) starts from (f0 + g0)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import TransportPlan

__all__ = ["Potentials", "SinkhornResult", "uot_sinkhorn"]


@dataclass(frozen=True)
class Potentials:
    """A pair of potentials. ``newton`` says that the call that returned them
    ended in Newton mode with no balanced side; a call warm-started from them
    with no balanced side then starts in Newton mode (see the module
    docstring). A balanced call ignores it."""

    f: np.ndarray
    g: np.ndarray
    newton: bool = False


@dataclass(frozen=True)
class SinkhornResult:
    potentials: Potentials
    plan: TransportPlan
    iterations: int
    converged: bool
    residual: float
    newton_steps: int = 0


def _damping(rho, eps):
    # prefactor eps * rho / (eps + rho); -> eps in the balanced limit rho = inf
    if math.isinf(rho):
        return eps
    return eps * rho / (eps + rho)


# Sweeps per estimate of the contraction rate.
WARMUP = 8
# Drift of the scaled potentials (f/eps or g/eps) from the point a kernel was
# absorbed at, past which it is absorbed again (see the module docstring).
DRIFT = 100.0
# A call whose observed rate per sweep passes NEWTON_RATE at the end of a
# WARMUP window follows each further sweep with a Newton step; each step tries
# at most NEWTON_HALVINGS lengths 1, 1/2, ... and takes the first whose dual
# gain is at least ARMIJO times the first-order one. RIDGE is the relative
# Levenberg-Marquardt term of the Newton system.
NEWTON_RATE = 0.5
NEWTON_HALVINGS = 6
ARMIJO = 1e-4
RIDGE = 1e-12


def _lse_rows(kernel, shift, buf, top=None):
    # log sum_j exp(kernel_ij + shift_j) per row, max-shifted; leaves the row
    # max in top and exp(kernel_ij + shift_j - top_i) in buf
    np.add(kernel, shift, out=buf)
    top = buf.max(axis=1, out=top)
    buf -= top[:, None]
    np.exp(buf, out=buf)
    return np.log(buf.sum(axis=1)) + top


def _lse_absorbed(kernel, h, K, top, ref):
    """log sum_j exp(kernel_ij + h_j) per row, through the kernel absorbed at ref.

    K_ij = exp(kernel_ij + ref_j - top_i) with top_i the row max, so the sum is
    top + log(K @ exp(h - ref)). Once h is more than DRIFT from ref (in the
    2-norm; a NaN ref, as before the first sweep, always is), K, top and ref
    are rebuilt at h first, and that sweep's sum is the max-shifted one.
    """
    d = h - ref
    if d.dot(d) <= DRIFT * DRIFT:
        out = K.dot(np.exp(d))
        np.log(out, out=out)
        out += top
        return out
    ref[:] = h
    return _lse_rows(kernel, h, K, top)


def _stop_test(tf, step, tol_pot, last):
    """The residual max|T(f) - f| and whether it passes the stop test.

    It passes at tol_pot, or, when it is no smaller than the last residual,
    within 4 float spacings of max|T(f)| (see the module docstring); so
    max|T(f)| is read only on a sweep that did not lower the residual. A
    potential that has left the floats is refused.
    """
    residual = float(abs(step).max())
    if not math.isfinite(residual):
        raise FloatingPointError("non-finite potential: cost scale is too large for this eps")
    if residual <= tol_pot:
        return residual, True
    return residual, residual >= last and residual <= 4.0 * math.ulp(float(abs(tf).max()))


def _gain(scale, d, rho):
    # dual change <scale, -rho expm1(-d/rho)> of a marginal term; <scale, d> at rho = inf
    if math.isinf(rho):
        return scale.dot(d)
    return scale.dot(np.expm1(d / -rho)) * -rho


def _newton(k_row, log_mu, mu, nu, f, g, eps, rho1, rho2):
    """One Armijo-backtracked Newton step on the dual; returns f, g, taken.

    See the module docstring. S is taken times eps, so S u = grad gives the
    f step eps u, and the g step is eps v.
    """
    with np.errstate(all="ignore"):
        pi = np.exp(k_row + g / eps + (f / eps + log_mu)[:, None])
        A = p1 = pi.sum(axis=1)
        B = pi.sum(axis=0)
        a, b = mu, nu
        if not math.isinf(rho1):
            a = mu * np.exp(f / -rho1)
            A = p1 + (eps / rho1) * a
        if not math.isinf(rho2):
            b = nu * np.exp(g / -rho2)
            B = B + (eps / rho2) * b
        if not A.min() > 0.0:
            return f, g, False
        # a column with no plan mass and no curvature (b underflows) has a
        # zero gradient too, so it takes no step: 1/B is 0 there
        Binv = np.divide(1.0, B, out=np.zeros_like(B), where=B > 0.0)
        grad = a - p1
        S = -(pi * Binv).dot(pi.T)
        S.flat[::A.size + 1] += (1.0 + RIDGE) * A  # the diagonal of S
        if math.isinf(rho1) and math.isinf(rho2):
            # the gauge (f + c, g - c) is the null space of S: step orthogonal to it
            grad -= grad.mean()
            S += A.mean() / A.size
        try:
            u = np.linalg.solve(S, grad)
        except np.linalg.LinAlgError:
            return f, g, False
        v = -pi.T.dot(u) * Binv
        slope = eps * grad.dot(u)
        if not slope > 0.0:
            return f, g, False
        uv = u[:, None] + v
        t = 1.0
        for _ in range(NEWTON_HALVINGS):
            df, dg = (t * eps) * u, (t * eps) * v
            gain = (_gain(a, df, rho1) + _gain(b, dg, rho2)
                    - eps * np.sum(pi * np.expm1(t * uv)))
            # a non-finite step fails this test at every length
            if gain >= ARMIJO * t * slope:
                return f + df, g + dg, True
            t *= 0.5
    return f, g, False


def _alternating(k_row, k_col, log_mu, mu, nu, f, g, eps, rho1, rho2, tol_pot, max_inner,
                 newton):
    """The plain f/g sweeps, with Newton steps on a slow call; ``newton`` starts
    the call in Newton mode.

    Returns f, g, sweeps, Newton steps, converged, residual, and whether the
    call ended in Newton mode.
    """
    n, m = k_row.shape
    fact1 = _damping(rho1, eps)
    fact2 = _damping(rho2, eps)
    # each kernel absorbed at a reference point: NaN until the first sweep
    K_row, top_row, ref_row = np.empty_like(k_row), np.empty(n), np.full(m, math.nan)
    K_col, top_col, ref_col = np.empty_like(k_col), np.empty(m), np.full(n, math.nan)
    converged = False
    residual = math.inf
    window = []
    steps = 0
    it = 0
    for it in range(1, max_inner + 1):
        tf = -fact1 * _lse_absorbed(k_row, g / eps, K_row, top_row, ref_row)
        residual, converged = _stop_test(tf, tf - f, tol_pot, residual)
        f = tf
        g = -fact2 * _lse_absorbed(k_col, f / eps, K_col, top_col, ref_col)
        if converged or it == max_inner:
            break
        if newton:
            # a refused step hands the call back to the rate estimate
            f, g, newton = _newton(k_row, log_mu, mu, nu, f, g, eps, rho1, rho2)
            steps += newton
            continue
        window.append(residual)
        if len(window) == WARMUP:
            # the observed residual ratio per sweep; each residual in the window
            # failed the stop test, so it exceeds tol_pot >= 0
            newton = (window[-1] / window[0]) ** (1.0 / (WARMUP - 1)) > NEWTON_RATE
            window = []
    return f, g, it, steps, converged, residual, newton


def _averaged(kernel, f, eps, rho, tol_pot, max_inner):
    """The averaged single-potential steps of a symmetric problem.

    Returns f, g, half-sweeps, converged, residual (see the module docstring).
    """
    fact = _damping(rho, eps)
    K, top, ref = np.empty_like(kernel), np.empty(f.size), np.full(f.size, math.nan)
    converged = False
    residual = math.inf
    theta = 0.5
    last = None
    it = 0
    # the half-sweeps of max_inner alternating sweeps, the one for g included
    for it in range(1, 2 * max_inner):
        tf = -fact * _lse_absorbed(kernel, f / eps, K, top, ref)
        step = tf - f
        residual, converged = _stop_test(tf, step, tol_pot, residual)
        if converged or it == 2 * max_inner - 1:
            f = tf
            break
        if last is not None:
            # the last move theta * last changed the residual by -(I + kappa P)
            # applied to it; invert that on its direction (Barzilai-Borwein)
            curv = last.dot(last - step)
            theta = min(1.0, max(0.5, theta * last.dot(last) / curv)) if curv > 0 else 0.5
        f = f + theta * step
        last = step
    g = -fact * _lse_absorbed(kernel, f / eps, K, top, ref)
    return f, g, it + 1, converged, residual


def uot_sinkhorn(
    cost,
    mu,
    nu,
    rho1,
    rho2=None,
    eps=1e-2,
    init=None,
    tol_pot=1e-6,
    max_inner=3000,
):
    """Run the f/g updates to a fixed point; returns a SinkhornResult.

    rho2 defaults to rho1. ``init`` warm-starts the potentials (default 0),
    and Newton mode with them where init.newton is set and no side is
    balanced; the returned potentials set it in the same way.
    Stops when the fixed-point residual max|T(f) - f| drops to tol_pot (or to
    the float resolution of the potentials, if that is coarser) or the cap is
    hit (the result is then flagged, not an error); the sweeps before it may
    be followed by a Newton step, the last one never is (see the module
    docstring); ``newton_steps`` counts the Newton steps.
    rho=inf on either side is the balanced mode for that marginal. The plan
    pi_ij = exp((f_i + g_j - c_ij)/eps) mu_i nu_j is formed once, from the
    returned potentials and the logs of mu and nu that the kernels were built
    from; a plan entry that overflows raises FloatingPointError.

    An exactly symmetric problem (cost equal to its transpose, mu equal to nu,
    rho1 == rho2) runs the averaged single-potential iteration instead, and
    ``iterations`` then counts its half-sweeps (one kernel product each,
    2 max_inner at most); its plan is averaged with its transpose, so it is
    exactly symmetric.
    """
    cost = np.asarray(cost, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if rho2 is None:
        rho2 = rho1
    if not eps > 0:
        raise ValueError("eps must be positive")
    if not (rho1 >= 0 and rho2 >= 0):
        raise ValueError("rho must be nonnegative")
    if not max_inner >= 1:
        raise ValueError("max_inner must be at least 1")
    if not tol_pot >= 0:  # 0 is legal: solve_ugw's derived stop can underflow to it
        raise ValueError("tol_pot must be nonnegative")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost must be finite")
    if not all(np.all(np.isfinite(w)) and np.all(w > 0) for w in (mu, nu)):
        raise ValueError("mu and nu must be finite and strictly positive")
    n, m = cost.shape
    if mu.shape != (n,) or nu.shape != (m,):
        raise ValueError("marginal sizes do not match the cost matrix")

    log_mu, log_nu = np.log(mu), np.log(nu)
    cost_eps = cost / eps
    # row i of k_row is log nu - cost_i./eps
    k_row = log_nu[None, :] - cost_eps
    if init is None:
        f = np.zeros(n)
        g = np.zeros(m)
    else:
        f = np.array(init.f, dtype=float, copy=True)
        g = np.array(init.g, dtype=float, copy=True)
    symmetric = (n == m and rho1 == rho2 and np.array_equal(mu, nu)
                 and np.array_equal(cost, cost.T))
    # Newton mode carries over between calls only with no balanced side
    unbalanced = not (math.isinf(rho1) or math.isinf(rho2))
    newton = False
    newton_steps = 0
    # a drift too large to square overflows to inf, which absorbs
    with np.errstate(over="ignore"):
        if symmetric:
            f, g, it, converged, residual = _averaged(
                k_row, 0.5 * (f + g), eps, rho1, tol_pot, max_inner)
        else:
            # row j of k_col is log mu - cost_.j/eps
            k_col = np.ascontiguousarray((log_mu[:, None] - cost_eps).T)
            f, g, it, newton_steps, converged, residual, newton = _alternating(
                k_row, k_col, log_mu, mu, nu, f, g, eps, rho1, rho2, tol_pot, max_inner,
                unbalanced and init is not None and init.newton)
    if not np.all(np.isfinite(g)):
        raise FloatingPointError("non-finite potential: cost scale is too large for this eps")

    # from (f + g - cost)/eps, not from k_row: at eps = 1e-300 only this form
    # overflows, and so reports potentials that do not fit the eps scale
    with np.errstate(over="raise"):
        try:
            values = np.exp((f[:, None] + g[None, :] - cost) / eps
                            + log_mu[:, None] + log_nu[None, :])
        except FloatingPointError as exc:
            raise FloatingPointError(
                "plan overflow: potentials do not match this eps scale") from exc
    if symmetric:
        # g = T(f) is off f by up to the residual; averaging the plan with its
        # transpose makes it exactly symmetric, as the fixed point's plan is
        values = 0.5 * (values + values.T)
    return SinkhornResult(Potentials(f, g, unbalanced and newton), TransportPlan(values), it,
                          converged, residual, newton_steps)
