"""Reference implementations the test suite checks the package against.

Everything here is written the slow, obvious way: quadruple loops, full
tensor products, exhaustive vertex enumeration, heap-based shortest paths.
None of it shares code with the package beyond numpy itself.
"""

import heapq
import itertools
import math

import numpy as np


def distortion_loop(DX, DY, pi, gamma=None):
    """Quadruple-loop evaluation of sum (DX_ij - DY_kl)^2 pi_ik gamma_jl."""
    DX = np.asarray(DX, float)
    DY = np.asarray(DY, float)
    P = np.asarray(pi, float)
    G = P if gamma is None else np.asarray(gamma, float)
    n, m = P.shape
    total = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(m):
                for l in range(m):
                    total += (DX[i, j] - DY[k, l]) ** 2 * P[i, k] * G[j, l]
    return total


def local_cost_loop(X, Y, gamma, eps, rho1, rho2):
    """Entrywise build of the frozen-plan cost matrix, all sums explicit.

    rho terms of the scalar offset are skipped for an infinite rho, matching
    the balanced convention.
    """
    G = np.asarray(gamma, float)
    n, m = G.shape
    g1 = G.sum(axis=1)
    g2 = G.sum(axis=0)
    mu, nu = X.weights, Y.weights
    E = 0.0
    for i in range(n):
        for k in range(m):
            if G[i, k] > 0:
                E += eps * G[i, k] * math.log(G[i, k] / (mu[i] * nu[k]))
    if not math.isinf(rho1):
        for i in range(n):
            if g1[i] > 0:
                E += rho1 * g1[i] * math.log(g1[i] / mu[i])
    if not math.isinf(rho2):
        for k in range(m):
            if g2[k] > 0:
                E += rho2 * g2[k] * math.log(g2[k] / nu[k])
    c = np.zeros((n, m))
    for i in range(n):
        for l in range(m):
            val = 0.0
            for j in range(n):
                val += X.dist[i, j] ** 2 * g1[j]
            for k in range(m):
                val += Y.dist[l, k] ** 2 * g2[k]
            for j in range(n):
                for k in range(m):
                    val -= 2.0 * X.dist[i, j] * G[j, k] * Y.dist[k, l]
            c[i, l] = val + E
    return c


def kl_loop(a, b):
    """Plain KL divergence, one term at a time."""
    total = 0.0
    for ai, bi in zip(np.ravel(a), np.ravel(b)):
        if ai > 0:
            if bi == 0:
                return math.inf
            total += ai * math.log(ai / bi) - ai + bi
        else:
            total += bi
    return total


def quad_kl_tensor(a, b):
    """KL between the tensor squares a (x) a and b (x) b, built in full."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return kl_loop(np.outer(a, a), np.outer(b, b))


def tensor_kl_full(a, b, p, q):
    """KL(a (x) b | p (x) q) on the fully materialized products."""
    return kl_loop(np.outer(a, b), np.outer(p, q))


def ternary_min(f, lo, hi, iters=300):
    """Scalar minimizer by interval thirds; independent of golden section.

    Returns early once a step leaves (a, b) unchanged: a only rises and b
    only falls, so every later step would leave it unchanged too.
    """
    a, b = lo, hi
    for _ in range(iters):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        step = (a, m2) if f(m1) <= f(m2) else (m1, b)
        if step == (a, b):
            break
        a, b = step
    return 0.5 * (a + b)


def lambert_w_halley(z, tol=1e-15, max_iter=64):
    """Principal-branch W(z), z >= 0, by Halley steps on w e^w = z from log1p(z).

    Forms e^w, so it holds for z up to about 1e305.
    """
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


def newton_log_root(a, b, c, t0, lo=-745.0, hi=60.0):
    """Root of h(t) = a t + 2 b e^t + c in [lo, hi] by Newton steps that fall
    back to bisection whenever they leave the shrinking bracket."""
    t = min(max(t0, lo), hi)
    for _ in range(200):
        e = 2.0 * b * math.exp(t)
        h = a * t + e + c
        if h > 0:
            hi = min(hi, t)
        else:
            lo = max(lo, t)
        t_new = t - h / (a + e)
        if not (lo <= t_new <= hi):
            t_new = 0.5 * (lo + hi)
        if abs(t_new - t) <= 1e-16 * (1.0 + abs(t)):
            return t_new
        t = t_new
    return t


def linear_scale_root(a, b, c):
    """theta solving a log(theta) + 2 b theta + c = 0: exp(-c/a) when b = 0,
    else the bracketed Newton root started from -c/a - W((2b/a) e^{-c/a})."""
    u = -c / a
    if b == 0:
        return math.exp(u)
    return math.exp(newton_log_root(a, b, c, u - lambert_w_halley(2.0 * b / a * math.exp(u))))


def enumerate_vertices(A, b, c, feas_tol=1e-9):
    """Best objective over all basic feasible solutions of Ax=b, x>=0.

    Assumes A has full row rank and the optimum is attained (use c >= 0 so
    the LP is bounded below on the nonnegative orthant). Returns
    (best_objective, best_x) or (None, None) when no vertex is feasible.
    """
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    c = np.asarray(c, float)
    m, n = A.shape
    best = None
    best_x = None
    for cols in itertools.combinations(range(n), m):
        B = A[:, cols]
        try:
            xB = np.linalg.solve(B, b)
        except np.linalg.LinAlgError:
            continue
        if np.min(xB) < -feas_tol:
            continue
        x = np.zeros(n)
        x[list(cols)] = np.maximum(xB, 0.0)
        obj = float(c @ x)
        if best is None or obj < best:
            best = obj
            best_x = x
    return best, best_x


def simplex_solve_loop(A, b, c, basis, switch_after, pivot_tol=1e-10, max_iter=200000):
    """Revised simplex phase that solves the basic systems afresh every pivot.

    Three np.linalg.solve calls per iteration (basic values, duals, entering
    column), Dantzig pricing switching to Bland's rule after switch_after
    iterations, and the smallest-basic-index tie-break in the ratio test.
    basis is modified in place; returns (status, iterations).
    """
    m, n = A.shape
    for it in range(max_iter):
        B = A[:, basis]
        xB = np.linalg.solve(B, b)
        y = np.linalg.solve(B.T, c[basis])
        reduced = c - A.T @ y
        reduced[basis] = 0.0
        if it < switch_after:
            j = int(np.argmin(reduced))
            if reduced[j] >= -pivot_tol:
                return "optimal", it
        else:
            candidates = np.nonzero(reduced < -pivot_tol)[0]
            if candidates.size == 0:
                return "optimal", it
            j = int(candidates[0])
        d = np.linalg.solve(B, A[:, j])
        pos = d > pivot_tol
        if not np.any(pos):
            return "unbounded", it
        ratios = np.full(m, np.inf)
        ratios[pos] = xB[pos] / d[pos]
        best = ratios.min()
        tied = np.nonzero(ratios <= best + pivot_tol * (1.0 + abs(best)))[0]
        r = int(tied[np.argmin(basis[tied])])
        basis[r] = j
    raise RuntimeError("simplex iteration limit reached")


def sinkhorn_1x1(c, a, b, rho1, rho2, eps):
    """Closed-form 1x1 unbalanced OT mass from the stationarity condition.

    c + rho1 log(p/a) + rho2 log(p/b) + eps log(p/(ab)) = 0 solved for p.
    """
    denom = rho1 + rho2 + eps
    log_p = ((rho1 + eps) * math.log(a) + (rho2 + eps) * math.log(b) - c) / denom
    return math.exp(log_p)


def sinkhorn_log_loop(cost, mu, nu, rho1, rho2, eps, f, g, tol_pot, max_inner):
    """Plain log-domain unbalanced Sinkhorn: the two-line update, no relaxation.

    f <- -(eps rho1/(eps+rho1)) LSE_j[(g_j - c_ij)/eps + log nu_j], then the
    same for g against the new f; rho = inf gives the factor eps. Stops when
    the sup-norm change of f is at most tol_pot. Returns (f, g, sweeps).
    """

    def lse(a, axis):
        top = np.max(a, axis=axis, keepdims=True)
        top = np.where(np.isfinite(top), top, 0.0)
        with np.errstate(divide="ignore"):
            return np.log(np.sum(np.exp(a - top), axis=axis)) + np.squeeze(top, axis=axis)

    fact1 = eps if math.isinf(rho1) else eps * rho1 / (eps + rho1)
    fact2 = eps if math.isinf(rho2) else eps * rho2 / (eps + rho2)
    f = np.array(f, dtype=float)
    g = np.array(g, dtype=float)
    for it in range(1, max_inner + 1):
        f_prev = f
        f = -fact1 * lse((g[None, :] - cost) / eps + np.log(nu)[None, :], axis=1)
        g = -fact2 * lse((f[:, None] - cost) / eps + np.log(mu)[:, None], axis=0)
        if np.max(np.abs(f - f_prev)) <= tol_pot:
            break
    return f, g, it


def plan_from_potentials(f, g, cost, eps, mu, nu):
    """The plan exp((f_i + g_j - c_ij)/eps) mu_i nu_j, entry by entry."""
    n, m = np.shape(cost)
    P = np.empty((n, m))
    for i in range(n):
        for j in range(m):
            P[i, j] = math.exp((f[i] + g[j] - cost[i][j]) / eps) * mu[i] * nu[j]
    return P


def dijkstra_geodesics(g):
    """All-pairs shortest paths by repeated heap search over the edge list."""
    adj = [[] for _ in range(g.n)]
    for i, j, w in g.edges:
        w = float(w)
        adj[i].append((j, w))
        adj[j].append((i, w))
    out = np.full((g.n, g.n), math.inf)
    for src in range(g.n):
        dist = [math.inf] * g.n
        dist[src] = 0.0
        heap = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        out[src] = dist
    return out


def gh_cone_cost(base, r, s, rho):
    """Cone cost of the quadratic KL setting, written out directly."""
    return rho * (r * r + s * s - 2.0 * r * s * math.exp(-(base * base) / (2.0 * rho)))


def hk_cone_cost(base, r, s, rho):
    """Cone cost of the trigonometric KL setting."""
    k = math.cos(min(base, math.pi / 2.0)) ** (1.0 / rho)
    return rho * (r * r + s * s - 2.0 * r * s * k)


def perspective_H_grid(c, r, s, entropy):
    """H_c(r, s) = inf_theta theta (c + rho psi(r/theta) + rho psi(s/theta)), searched.

    psi is the reverse entropy, x - log x - 1 for KL and |1 - x| for TV; both
    tend to 1 per unit of theta as theta -> 0, so rho (r + s) is the value at
    the left end. A log grid of theta brackets the minimum and golden-section
    steps refine it.
    """
    rho = entropy.rho

    def psi(x):
        if entropy.kind == "tv":
            return abs(1.0 - x)
        return x - math.log(x) - 1.0 if x > 0 else math.inf

    def objective(theta):
        try:
            val = theta * c + rho * theta * (psi(r / theta) + psi(s / theta))
        except OverflowError:
            return math.inf
        return val if math.isfinite(val) else math.inf

    best_val = rho * (r + s)
    scale = max(r, s)
    if scale == 0.0:
        return 0.0
    thetas = scale * np.logspace(-9, 3, 1201)
    vals = [objective(t) for t in thetas]
    i = int(np.argmin(vals))
    if vals[i] >= best_val:
        return best_val
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = thetas[max(i - 1, 0)], thetas[min(i + 1, thetas.size - 1)]
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(120):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = objective(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = objective(x2)
    return min(vals[i], f1, f2)


def ptv_cone_cost(base, r, s, rho, q):
    """Cone cost of the TV setting with its hinge kernel."""
    hinge = max(0.0, 2.0 - base**q / rho)
    return rho * (r + s - min(r, s) * hinge)


def conic_energy_loop(atoms, DX, DY, spec_setting, rho, q=2.0):
    """Double python loop over atom pairs; apex entries use radius 0."""
    atoms = np.asarray(atoms, float)
    total = 0.0
    for ia in range(atoms.shape[0]):
        i, r, j, s, w = atoms[ia]
        for ib in range(atoms.shape[0]):
            i2, r2, j2, s2, w2 = atoms[ib]
            bx = DX[max(int(i), 0), max(int(i2), 0)]
            by = DY[max(int(j), 0), max(int(j2), 0)]
            base = abs(bx - by)
            rr = r * r2
            ss = s * s2
            if spec_setting == "gh":
                cost = gh_cone_cost(base, rr, ss, rho)
            elif spec_setting == "hk":
                cost = hk_cone_cost(base, rr, ss, rho)
            else:
                cost = ptv_cone_cost(base, rr, ss, rho, q)
            total += w * w2 * max(cost, 0.0)
    return total


def conic_local_cost(beta, DX, DY, spec):
    """Frozen-plan cost tensor C[i,j,k,l] of the grid matching problem, dense.

    C = rho (r_k^2 S_r + s_l^2 S_s) - 2 rho r_k s_l G_ij with S_r, S_s the
    radial second moments of beta, G = kernel-contraction of the first
    moments T_ij = sum_kl r_k s_l beta_ijkl; the kernel of base distance t is
    exp(-lambda(t) / (2 rho)). Requires a KL (p = 2) setting.
    """
    if spec.setting not in ("gh", "hk"):
        raise ValueError("the grid cost is wired for the KL (p=2) settings")
    if beta.grid is None:
        raise ValueError("beta must be in grid form")
    DX = np.asarray(DX, dtype=float)
    DY = np.asarray(DY, dtype=float)
    n, m = DX.shape[0], DY.shape[0]
    if beta.grid.shape[:2] != (n, m):
        raise ValueError("grid does not match the distance matrices")
    K, L = beta.grid.shape[2] - 1, beta.grid.shape[3] - 1
    r, s = np.arange(K + 1) * (beta.R / K), np.arange(L + 1) * (beta.R / L)
    S_r = float(beta.grid.sum(axis=(0, 1, 3)) @ (r * r))
    S_s = float(beta.grid.sum(axis=(0, 1, 2)) @ (s * s))
    base = np.abs(DX[:, None, :, None] - DY[None, :, None, :]).reshape(n * m, n * m)
    if spec.setting == "gh":
        lam = base * base
    else:  # hk
        lam = -2.0 * np.log(np.cos(np.minimum(base, math.pi / 2.0)))
    T = beta.grid.reshape(-1, r.size, s.size) @ s @ r
    G = np.exp(-lam / (2.0 * spec.rho)) @ T
    C = np.add.outer(r * r * S_r, s * s * S_s) - np.multiply.outer(2.0 * G, np.outer(r, s))
    return (spec.rho * C).reshape(beta.grid.shape)


def grid_moment_rows(mu, nu, r, s):
    """Moment constraint matrix of the grid LP over every cell (i, j, k, l).

    Row i holds r_k^2 at the cells of row i, row n + j holds s_l^2 at the
    cells of column j; the columns run over the cells in C order.
    """
    n, m = mu.size, nu.size
    A_mu = np.kron(np.eye(n), np.kron(np.ones(m), np.kron(r * r, np.ones(s.size))))
    A_nu = np.kron(np.ones(n), np.kron(np.eye(m), np.kron(np.ones(r.size), s * s)))
    return np.vstack([A_mu, A_nu])


def cgw_full_grid_loop(mu, nu, r, s, inits, local_cost, lp_solve, max_rounds, tol):
    """The grid alternation with an LP column and a dense cost for every cell.

    From each initial grid, alternate: price the LP by the dense cost tensor
    local_cost(grid) of the current plan, solve it with
    lp_solve(A, b, c, basis) -> (x, basis), and stop once the cost falls by
    at most tol (1 + |cost|). The basis carries over from one LP to the next,
    across restarts too. Returns (cost trace, final grid) per initial grid.
    """
    A = grid_moment_rows(mu, nu, r, s)
    b = np.concatenate([mu, nu])
    basis = None
    out = []
    for grid in inits:
        C = local_cost(grid)
        trace = [float(np.vdot(C, grid))]
        while len(trace) <= max_rounds:
            x, basis = lp_solve(A, b, C.ravel(), basis)
            grid = x.reshape(grid.shape)
            C = local_cost(grid)
            trace.append(float(np.vdot(C, grid)))
            if trace[-2] - trace[-1] <= tol * (1.0 + abs(trace[-1])):
                break
        out.append((trace, grid))
    return out
