"""Cones over metric spaces: distances, dilations, lifts, and the grid solver.

A cone point is a base point plus a radius; all radius-0 points are glued
into a single apex. Distances on the cone come from the perspective
transform of an entropy function,

    H_c(r, s) = inf_{theta >= 0} theta * (c + rho psi(r/theta) + rho psi(s/theta)),

with the base distance entering through a setting-specific map lambda:
D = H_lambda(d)(r^p, s^p). Three settings are wired: Gaussian-Hellinger (KL,
lambda(t) = t^2, p = q = 2), Hellinger-Kantorovich (KL,
lambda(t) = -log cos^2(t /\\ pi/2), p = q = 2), and partial-TV (TV,
lambda(t) = t^q, p = 1). Each row of ``_SETTINGS`` holds the setting's
divergence, p, default q and lambda.

The quadratic matching problem compares two spaces through plans on the
product of their cones: the energy H(alpha) double-sums the cone cost over
atom pairs, where the pair of pairs ((x, x'), (y, y')) contributes the cone
distance between ([d_X(x, x'), r r'], [d_Y(y, y'), s s']). The solver
restricts radii to a uniform grid on [0, R], R^2 = m(mu)^2 + m(nu)^2, and
alternates linear programs on the frozen-cost contraction, from random
product-form and permutation-lift initializations. A frozen plan enters the
cost through its radial second moments S_r, S_s and its first moments
T_ij = sum_kl plan r_k s_l. Every plan the solver costs meets the LP's moment
rows, so S_r = m(mu) and S_s = m(nu): its cost and its next cost vector come
from T alone (``_price``). The solver works in units where the largest
weight is in [1, 2), so that its absolute tolerances mean the same at every
mass scale.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .lp import LpProblem, solve_lp
from .measures import EntropySpec, plan_values

__all__ = [
    "ConeMetricSpec",
    "ConicPlan",
    "CgwResult",
    "perspective_H",
    "cone_cost",
    "dilate",
    "conic_lift",
    "conic_energy",
    "conic_local_cost",
    "up_residual",
    "solve_cgw",
]

_SETTINGS = {
    # setting -> (divergence kind, p, default q, lambda(base distance t, q))
    "gh": ("kl", 2.0, 2.0, lambda t, q: t * t),
    "hk": ("kl", 2.0, 2.0, lambda t, q: -2.0 * np.log(np.cos(np.minimum(t, math.pi / 2.0)))),
    "ptv": ("tv", 1.0, 2.0, lambda t, q: t**q),
}

@dataclass(frozen=True)
class ConeMetricSpec:
    """Cone distance setting: divergence, base-distance map, exponents."""

    setting: str = "gh"
    rho: float = 1.0
    q: float = 2.0

    def __post_init__(self):
        key = self.setting.lower()
        if key not in _SETTINGS:
            raise ValueError(f"unknown cone setting {self.setting!r}")
        object.__setattr__(self, "setting", key)
        if not 0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite")
        if key != "ptv":
            object.__setattr__(self, "q", _SETTINGS[key][2])
        elif not self.q >= 1:
            raise ValueError("ptv requires q >= 1")

    @property
    def p(self):
        return _SETTINGS[self.setting][1]

    @property
    def entropy(self):
        return EntropySpec(_SETTINGS[self.setting][0], self.rho)


def perspective_H(c, r, s, entropy):
    """H_c(r, s), the perspective infimum over the joint scale theta.

    Closed forms for KL and TV; the balanced entropy forces theta = r = s.
    Elementwise over numpy-broadcastable arguments.
    """
    c, r, s = (np.asarray(v, dtype=float) for v in (c, r, s))
    if not np.all(c >= 0):
        raise ValueError("c must be nonnegative")
    if np.any(r < 0) or np.any(s < 0):
        raise ValueError("masses must be nonnegative")
    rho = entropy.rho
    if entropy.kind == "balanced":
        out = np.where(r == s, r * c, math.inf)
    elif entropy.kind == "kl":
        out = rho * (r + s - 2.0 * np.sqrt(r) * np.sqrt(s) * np.exp(-c / (2.0 * rho)))
    else:  # tv
        out = rho * (r + s - np.minimum(r, s) * np.clip(2.0 - c / rho, 0.0, None))
    return out[()]


def _lambda(spec, base):
    """The setting's lambda at the base distance(s) ``base``."""
    return _SETTINGS[spec.setting][3](np.asarray(base, dtype=float), spec.q)


def cone_cost(spec, base, r, s):
    """D_Co^q between cone points of radii r, s over base distance ``base``:
    H_lambda(base)(r^p, s^p), floored at 0 against roundoff.

    Vectorized over numpy-broadcastable arguments. For pairs of product
    atoms pass radius products as r and s.
    """
    r, s = (np.asarray(v, dtype=float) ** spec.p for v in (r, s))
    return np.maximum(perspective_H(_lambda(spec, base), r, s, spec.entropy), 0.0)


@dataclass
class ConicPlan:
    """A measure on the product of two cones, in grid or atom form.

    Grid form: tensor ``grid[i, j, k, l]`` over base pairs and radius indices
    with radii r_k = k R / K, s_l = l R / L. Atom form: rows
    (i, r, j, s, mass) with index -1 marking the apex (radius 0).
    """

    R: float
    grid: np.ndarray = None
    atoms: np.ndarray = None
    K: int = None
    L: int = None

    @classmethod
    def from_grid(cls, grid, R):
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 4:
            raise ValueError("grid form is a 4-way tensor")
        if np.any(grid < 0):
            raise ValueError("plan masses must be nonnegative")
        return cls(R=float(R), grid=grid, K=grid.shape[2] - 1, L=grid.shape[3] - 1)

    @classmethod
    def from_atoms(cls, atoms, R=None):
        atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
        if atoms.size == 0:
            atoms = atoms.reshape(0, 5)
        if atoms.shape[1] != 5:
            raise ValueError("atom rows are (i, r, j, s, mass)")
        if np.any(atoms[:, 4] < 0):
            raise ValueError("plan masses must be nonnegative")
        if np.any(atoms[:, [1, 3]] < 0):
            raise ValueError("radii must be nonnegative")
        if np.any((atoms[:, 0] < 0) & (atoms[:, 1] > 0)) or np.any(
            (atoms[:, 2] < 0) & (atoms[:, 3] > 0)
        ):
            raise ValueError("apex entries must have radius 0")
        if R is None:
            R = float(atoms[:, [1, 3]].max()) if atoms.size else 0.0
        return cls(R=float(R), atoms=atoms)

    def radii(self):
        if self.grid is None:
            raise ValueError("radii grids exist only in grid form")
        r = np.arange(self.K + 1) * (self.R / self.K)
        s = np.arange(self.L + 1) * (self.R / self.L)
        return r, s

    def to_atoms(self):
        """Atom-form view: one row per charged grid cell (or the atoms as-is)."""
        if self.atoms is not None:
            return self.atoms
        r, s = self.radii()
        i, j, k, l = np.nonzero(self.grid > 0)
        return np.column_stack(
            [i.astype(float), r[k], j.astype(float), s[l], self.grid[i, j, k, l]]
        )


def dilate(alpha, v, p):
    """Radial rescale (i, r, j, s, w) -> (i, r/v, j, s/v, w v^p), atom-wise.

    v is a positive scalar or a per-atom array; grid plans convert to atom
    form first. Leaves the conic energy and the U_p residuals unchanged.
    """
    atoms = np.array(alpha.to_atoms(), dtype=float)
    v = np.broadcast_to(np.asarray(v, dtype=float), atoms.shape[0]).astype(float)
    if np.any(v[atoms[:, 4] > 0] <= 0):
        raise ValueError("dilation factor must be positive on charged atoms")
    charged = atoms[:, 4] > 0
    atoms, v = atoms[charged], v[charged]
    out = atoms.copy()
    out[:, 1] = atoms[:, 1] / v
    out[:, 3] = atoms[:, 3] / v
    out[:, 4] = atoms[:, 4] * v**p
    return ConicPlan.from_atoms(out, R=max(alpha.R, float(out[:, [1, 3]].max(initial=0.0))))


def conic_lift(pi, X, Y, p=2.0):
    """Lift a plan to the cones: density radii on the support, apex elsewhere.

    Charged entries (i, j) get radii (mu_i/pi1_i)^(1/p), (nu_j/pi2_j)^(1/p)
    and keep their mass; rows (columns) the plan misses entirely send their
    weight to unit-radius atoms paired with the opposite apex. The result
    satisfies the radial moment constraints U_p exactly.
    """
    P = plan_values(pi)
    mu, nu = X.weights, Y.weights
    if P.shape != (X.n, Y.n):
        raise ValueError("plan shape does not match the spaces")
    p1 = P.sum(axis=1)
    p2 = P.sum(axis=0)
    ii, jj = np.nonzero(P > 0)
    di, dj = np.flatnonzero(p1 == 0), np.flatnonzero(p2 == 0)  # rows, columns it misses
    oi, oj = np.ones(di.size), np.ones(dj.size)
    atoms = np.vstack([
        np.column_stack([ii, (mu[ii] / p1[ii]) ** (1.0 / p), jj, (nu[jj] / p2[jj]) ** (1.0 / p),
                         P[ii, jj]]),
        np.column_stack([di, oi, -oi, np.zeros(di.size), mu[di]]),
        np.column_stack([-oj, np.zeros(dj.size), dj, oj, nu[dj]]),
    ])
    return ConicPlan.from_atoms(atoms)


def up_residual(alpha, X, Y, p=2.0):
    """Sup-norm residuals of the radial moment constraints against (mu, nu)."""
    atoms = alpha.to_atoms()
    h1 = np.zeros(X.n)
    h2 = np.zeros(Y.n)
    for row in atoms:
        i, r, j, s, w = row
        if i >= 0:
            h1[int(i)] += r**p * w
        if j >= 0:
            h2[int(j)] += s**p * w
    return (
        float(np.max(np.abs(h1 - X.weights), initial=0.0)),
        float(np.max(np.abs(h2 - Y.weights), initial=0.0)),
    )


def conic_energy(alpha, DX, DY, spec, block=1024):
    """H(alpha): double sum of cone costs over atom pairs.

    The pair of atoms ((i,r,j,s,w), (i',r',j',s',w')) contributes
    w w' D_Co([DX_ii', rr'], [DY_jj', ss'])^q. Apex rows (index -1) have
    zero radius, so their base lookup never influences the cost; the index
    is clamped to keep the fancy indexing in range.
    """
    DX = np.asarray(DX, dtype=float)
    DY = np.asarray(DY, dtype=float)
    atoms = alpha.to_atoms()
    if atoms.shape[0] == 0:
        return 0.0
    ix = np.maximum(atoms[:, 0].astype(int), 0)
    iy = np.maximum(atoms[:, 2].astype(int), 0)
    r, s, w = atoms[:, 1], atoms[:, 3], atoms[:, 4]
    total = 0.0
    for start in range(0, atoms.shape[0], block):
        end = min(start + block, atoms.shape[0])
        base = np.abs(DX[ix[start:end, None], ix[None, :]] - DY[iy[start:end, None], iy[None, :]])
        rr = r[start:end, None] * r[None, :]
        ss = s[start:end, None] * s[None, :]
        cost = cone_cost(spec, base, rr, ss)
        total += float(np.einsum("a,b,ab->", w[start:end], w, cost))
    return total


def conic_local_cost(beta, DX, DY, spec):
    """Frozen-plan cost tensor C[i,j,k,l] of the grid matching problem.

    C = rho (r_k^2 S_r + s_l^2 S_s) - 2 rho r_k s_l G_ij with S_r, S_s the
    radial second moments of beta, G = kernel-contraction of the first
    moments T_ij = sum_kl r_k s_l beta_ijkl. Requires a KL (p = 2) setting.
    """
    if spec.entropy.kind != "kl":
        raise ValueError("the grid cost is wired for the KL (p=2) settings")
    if beta.grid is None:
        raise ValueError("beta must be in grid form")
    DX = np.asarray(DX, dtype=float)
    DY = np.asarray(DY, dtype=float)
    if beta.grid.shape[:2] != (DX.shape[0], DY.shape[0]):
        raise ValueError("grid does not match the distance matrices")
    r, s = beta.radii()
    S_r = float(beta.grid.sum(axis=(0, 1, 3)) @ (r * r))
    S_s = float(beta.grid.sum(axis=(0, 1, 2)) @ (s * s))
    G = _pair_kernel(spec, DX, DY) @ _first_moments(beta.grid, r, s)
    C = np.add.outer(r * r * S_r, s * s * S_s) - np.multiply.outer(2.0 * G, np.outer(r, s))
    return (spec.rho * C).reshape(beta.grid.shape)


def _pair_kernel(spec, DX, DY):
    """Kernel exp(-lambda / (2 rho)) of the pair base distances |DX_ii' - DY_jj'|,
    an (nm x nm) matrix; a KL setting's cone cost is rho (r^2 + s^2 - 2 r s kernel)."""
    n, m = DX.shape[0], DY.shape[0]
    base = np.abs(DX[:, None, :, None] - DY[None, :, None, :]).reshape(n * m, n * m)
    return np.exp(-_lambda(spec, base) / (2.0 * spec.rho))


def _first_moments(grid, r, s):
    """A 4-way grid plan's first moments T[i m + j] = sum_kl grid_ijkl r_k s_l."""
    return grid.reshape(-1, r.size, s.size) @ s @ r


def _price(T, W, rho, mass_sq, rs):
    """The cost and next LP cost vector of a plan that meets the moment rows, from
    its first moments T. Its radial second moments are m(mu) and m(nu), so its
    cost is rho (mass_sq - 2 <W T, T>), mass_sq = m(mu)^2 + m(nu)^2. Over that
    cost vector, conic_local_cost's C at column (ij, p) adds rho (r_p^2 m(mu) +
    s_p^2 m(nu)), which is z^T A for z = rho (m(mu) 1_n, m(nu) 1_m): a constant
    on the feasible set that moves no reduced cost. rs holds r_p s_p per column.
    """
    G = W @ T
    return rho * (mass_sq - 2.0 * float(G @ T)), np.multiply.outer(-2.0 * rho * G, rs).ravel()


def _directions(K, L):
    """Cells (k, l), ascending, whose next multiple (k, l) (1 + 1/gcd(k, l)) is off
    the grid. Cell t (k, l) has t^2 times the LP column and cost of (k, l), so
    Dantzig pricing never picks a smaller multiple, and (0, 0) has a zero column.
    """
    k, l = np.divmod(np.arange((K + 1) * (L + 1)), L + 1)
    g = np.maximum(np.gcd(k, l), 1)
    keep = (k + k // g > K) | (l + l // g > L)
    return k[keep], l[keep]


def _radial_profile(rng, radii_sq, mass, moment):
    """Nonnegative profile with prescribed total mass and second moment.

    A random positive profile is blended with a point mass at radius 0 or at
    the top radius, which moves the moment to the target exactly.
    """
    npts = radii_sq.size
    top = radii_sq[-1] * mass
    if moment < 0 or moment > top * (1 + 1e-12):
        raise ValueError("moment target outside the reachable range")
    w = rng.uniform(0.1, 1.0, npts)
    w *= mass / w.sum()
    cur = float(radii_sq @ w)
    u = np.zeros(npts)
    if moment <= cur:
        lam = moment / cur
        u = lam * w
        u[0] += (1.0 - lam) * mass
    else:
        lam = (top - moment) / (top - cur)
        u = lam * w
        u[-1] += (1.0 - lam) * mass
    return u


def _product_init(rng, mu, nu, r, s):
    """alpha = mu_i nu_j u_k v_l with profiles solving both moment equations."""
    mmu, mnu = float(mu.sum()), float(nu.sum())
    R2 = r[-1] ** 2
    cap = R2 * min(1.0, mmu / mnu)
    mean_u = rng.uniform(0.05, 0.95) * cap
    u = _radial_profile(rng, r * r, 1.0, mean_u)
    v = _radial_profile(rng, s * s, 1.0 / (mnu * mean_u), 1.0 / mmu)
    return (
        mu[:, None, None, None]
        * nu[None, :, None, None]
        * u[None, None, :, None]
        * v[None, None, None, :]
    )


def _permutation_init(rng, mu, nu, r, s):
    """Permutation-supported feasible plan, radial profiles per matched pair.

    Each matched pair (i, j) carries unit-mass radial profiles whose moments
    reproduce mu_i and nu_j; any moment overflow beyond the grid top radius
    lands on the one-sided cells (K, 0) / (0, L), which only one constraint
    sees. Unmatched rows/columns go entirely to those one-sided cells.
    """
    n, m = mu.size, nu.size
    K1, L1 = r.size, s.size
    R2r, R2s = r[-1] ** 2, s[-1] ** 2
    alpha = np.zeros((n, m, K1, L1))
    k = min(n, m)
    perm = rng.permutation(max(n, m))  # of the larger side: its first k atoms are matched
    rows, cols = (np.arange(n), perm[:k]) if n <= m else (perm[:k], np.arange(m))
    for i, j in zip(rows, cols):
        mom_r = min(mu[i], 0.98 * R2r)
        mom_s = min(nu[j], 0.98 * R2s)
        u = _radial_profile(rng, r * r, 1.0, mom_r)
        v = _radial_profile(rng, s * s, 1.0, mom_s)
        alpha[i, j] += np.outer(u, v)
        if mu[i] > mom_r:
            alpha[i, j, K1 - 1, 0] += (mu[i] - mom_r) / R2r
        if nu[j] > mom_s:
            alpha[i, j, 0, L1 - 1] += (nu[j] - mom_s) / R2s
    for i in perm[k:] if n > m else ():
        alpha[i, 0, K1 - 1, 0] += mu[i] / R2r
    for j in perm[k:] if n < m else ():
        alpha[0, j, 0, L1 - 1] += nu[j] / R2s
    return alpha


@dataclass
class CgwResult:
    alpha: ConicPlan
    cost: float
    restart_log: list = field(default_factory=list)


def check_grid(K, L, restarts):
    """Raise ValueError unless the grid sizes and the restart count are at least 1."""
    if K < 1 or L < 1:
        raise ValueError("K and L must be at least 1")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")


def solve_cgw(X, Y, spec=None, K=10, L=10, restarts=20, seed=0, max_rounds=200, tol=1e-9):
    """Grid matching solver: alternate LPs from multiple feasible starts.

    Radii live on [0, R] with R^2 = m(mu)^2 + m(nu)^2. Half the restarts use
    random product-form plans, half permutation lifts. Each restart freezes
    the plan, prices the LP cells by its local cost, and re-solves the moment-
    constrained LP (warm-started, since the constraints never change) until
    the energy decrease falls below tol*(1+|cost|) or max_rounds. Each round
    starts from the solution the last round ended at, basis inverse included;
    the first round of a restart starts from the solution the last restart's
    first round ended at, which is nearer its optimum than the one that restart
    finished at. Every plan it costs, a start plan or an LP solution, meets
    the moment rows, so its first moments T_ij = sum_kl plan r_k s_l alone
    give its cost and the next LP's cost vector (``_price``). max_rounds must
    be at least 1 and tol nonnegative, so every restart ends at an LP solution.

    The solve runs on the weights divided by the power of two that brings the
    largest weight into [1, 2); its costs and traces are multiplied back by
    that unit squared, its plan divided by the unit and R multiplied by it.
    GH costs scale with the square of the mass, but the LP's tolerances and
    the decrease test are absolute, so unscaled tiny or huge masses stop
    early or break the LP. A power of two scales exactly: scaling both weight
    vectors by 2^k scales the cost by exactly 4^k.

    Everything after a round is a function of the ordered basis it ended at:
    the next cost comes from that basis's plan, the next LP starts from it,
    and the decrease test compares costs of such plans. So a restart whose
    round ends at a basis where an earlier restart's round ended and went on,
    and which does not stop there itself, takes over the earlier restart's
    remaining rounds instead of solving them again: its trace, cost and
    ``converged`` are the earlier restart's. Only rounds of a restart the
    decrease test stopped are taken over, and only if they fit in this
    restart's remaining max_rounds. Its cost equals the earlier one, so its
    plan is never the best; only bases are kept, and only for the call.

    Each restart_log entry holds the restart's init kind, rounds, final cost
    and cost trace, the pivots and seconds of its own LP calls, and
    ``converged``: whether the decrease test stopped it before max_rounds.
    ``reused_from`` names the restart whose rounds it took over (None if
    none) and ``reused_rounds`` counts them.
    """
    if spec is None:
        spec = ConeMetricSpec("gh", rho=1.0)
    if spec.setting != "gh":
        raise ValueError("the grid solver is wired for the GH setting")
    check_grid(K, L, restarts)
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    # the LP's right-hand side is the weights: scale the largest into [1, 2)
    unit = math.ldexp(1.0, math.frexp(max(X.weights.max(), Y.weights.max()))[1] - 1)
    cost_unit = unit * unit  # costs scale with the square of the mass
    mu, nu = X.weights / unit, Y.weights / unit
    mass_sq = (X.mass / unit) ** 2 + (Y.mass / unit) ** 2
    R = math.sqrt(mass_sq)
    r = np.arange(K + 1) * (R / K)
    s = np.arange(L + 1) * (R / L)
    n, m = X.n, Y.n
    W = _pair_kernel(spec, X.dist, Y.dist)
    kk, ll = _directions(K, L)  # LP columns: these cells for each (i, j)
    rk, sl, P = r[kk], s[ll], kk.size
    rs = rk * sl

    # moment constraint rows: sum_jkl r_k^2 alpha = mu_i, sum_ikl s_l^2 alpha = nu_j;
    # the columns of pair (i, j) hold r_k^2 in row i and s_l^2 in row n + j
    pair_rows = np.stack(np.divmod(np.arange(n * m), m), axis=1) + [0, n]
    lp = LpProblem.from_pairs(pair_rows, np.stack([rk * rk, sl * sl]), np.concatenate([mu, nu]),
                              np.zeros(n * m * P))

    rng = np.random.default_rng(seed)
    n_prod = (restarts + 1) // 2
    best_plan = None
    log = []
    first_sol = None  # the solution the last restart's first LP ended at
    went_on = {}  # basis bytes -> (restart, round) that first ended a non-final round there
    for idx in range(restarts):
        kind = "product" if idx < n_prod else "permutation"
        plan = (_product_init if kind == "product" else _permutation_init)(rng, mu, nu, r, s)
        start = time.perf_counter()
        cost, c = _price(_first_moments(plan, r, s), W, spec.rho, mass_sq, rs)
        trace = [cost]
        pivots = 0
        converged = False
        reused_from, reused_rounds = None, 0
        sol = first_sol
        for rnd in range(max_rounds):
            sol = solve_lp(lp.with_cost(c), init_basis=sol)
            if sol.status != "optimal":
                raise RuntimeError("grid LP terminated " + sol.status)
            pivots += sol.iterations
            if rnd == 0:
                first_sol = sol
            plan = sol.x
            if rnd and not sol.iterations:
                # no pivot: the LP ended at its start, the last round's basis, so
                # its plan, cost vector and cost are the last round's
                new_cost = cost
            else:
                new_cost, c = _price(plan.reshape(n * m, P) @ rs, W, spec.rho, mass_sq, rs)
            trace.append(new_cost)
            improved, cost = cost - new_cost, new_cost
            if improved <= tol * (1.0 + abs(new_cost)):
                converged = True
                break
            src, src_rnd = went_on.setdefault(sol.basis.tobytes(), (idx, rnd))
            if src == idx or not log[src]["converged"]:
                continue
            rest = log[src]["trace"][src_rnd + 2:]  # the costs of its rounds after this one
            if len(rest) < max_rounds - rnd:
                trace += rest
                cost, converged = log[src]["cost"], True
                reused_from, reused_rounds = src, len(rest)
                break
        log.append({"init": kind, "rounds": len(trace) - 1, "cost": cost, "trace": trace,
                    "pivots": pivots, "seconds": time.perf_counter() - start,
                    "converged": converged, "reused_from": reused_from,
                    "reused_rounds": reused_rounds})
        if best_plan is None or cost < best_cost:
            best_cost, best_plan = cost, plan
    grid = np.zeros((n, m, K + 1, L + 1))  # the best LP solution, on the kept cells
    grid[:, :, kk, ll] = best_plan.reshape(n, m, P)
    for entry in log:
        entry["cost"] *= cost_unit
        entry["trace"] = [value * cost_unit for value in entry["trace"]]
    return CgwResult(alpha=ConicPlan.from_grid(grid / unit, R * unit),
                     cost=best_cost * cost_unit, restart_log=log)
