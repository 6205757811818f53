"""Dense linear programming in standard form.

min c.x  subject to  A x = b, x >= 0, solved with a two-phase revised
simplex. The kernel keeps the inverse of the basis matrix and updates it by
one elimination step per pivot, so basic values, duals and the entering
column come from matrix-vector products; the basis stays small (tens of
rows) next to the few thousand columns of the conic grid solver's LPs. The
inverse is recomputed every n_rows pivots and before optimality is declared.
The returned point and duals come from a fresh solve of the final basis.
Pricing, with a tolerance scaled by the largest cost, starts with Dantzig's
rule and falls back to Bland's rule after 5 * n_cols iterations so cycling on
degenerate vertices cannot occur.

An optional warm start (``init_basis``) skips phase 1 when the caller already
holds a feasible basis for the same (A, b); the conic solver exploits this
because its alternations only change the objective vector.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["LpProblem", "LpSolution", "solve_lp"]

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9


@dataclass(frozen=True)
class LpProblem:
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float).ravel()
        c = np.asarray(self.c, dtype=float).ravel()
        if A.shape != (b.size, c.size):
            raise ValueError("A must be (len(b), len(c))")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
            raise ValueError("LP data must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def with_cost(self, c):
        """The same A and b with cost vector c; checks c alone, not A again."""
        new = copy.copy(self)
        object.__setattr__(new, "c", np.asarray(c, dtype=float).ravel())
        if new.c.shape != self.c.shape or not np.all(np.isfinite(new.c)):
            raise ValueError("c must be finite, one entry per column of A")
        return new


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray
    objective: float
    basis: np.ndarray
    y: np.ndarray  # dual vector of the equality constraints (optimal only)
    iterations: int


def _simplex(A, b, c, basis, Binv, switch_after, max_iter=200000):
    """Phase kernel: iterate from a feasible basis until optimal/unbounded.

    Binv is the inverse of A[:, basis], freshly computed on entry. Both are
    updated in place; returns (status, iterations), iterations counting pivots.
    Binv is recomputed from the basis every m pivots and before optimality is
    declared, so the roundoff of the updates cannot pile up. A reduced cost
    counts as negative below -PIVOT_TOL * max(1, max|c|): its roundoff grows
    with the costs, and on an LP with costs near 1e7 an absolute test lets two
    columns with reduced costs of -1e-8 take turns entering forever.
    """
    m, n = A.shape
    tol = PIVOT_TOL * max(1.0, float(np.abs(c).max()))
    reduced = np.empty(n)

    def entering(it):
        # reduced costs c - A^T y with the duals y = c_B B^-1, in one buffer
        np.matmul(c[basis] @ Binv, A, out=reduced)
        np.subtract(c, reduced, out=reduced)
        reduced[basis] = 0.0
        if it < switch_after:
            j = reduced.argmin()
            return j if reduced[j] < -tol else None
        candidates = np.nonzero(reduced < -tol)[0]
        return candidates[0] if candidates.size else None

    for it in range(max_iter):
        if it % m == 0 and it:
            Binv[...] = np.linalg.inv(A[:, basis])
        j = entering(it)
        if j is None and it % m:
            # optimal on an updated inverse: confirm on a fresh one
            Binv[...] = np.linalg.inv(A[:, basis])
            j = entering(it)
        if j is None:
            return "optimal", it
        d = Binv @ A[:, j]
        # ratio test over the m basic rows, short enough for plain Python
        ratios = [x / dr if dr > PIVOT_TOL else math.inf
                  for x, dr in zip((Binv @ b).tolist(), d.tolist())]
        best = min(ratios)
        if best == math.inf:
            return "unbounded", it
        # smallest basic variable index among the tied rows (anti-cycling)
        cut = best + PIVOT_TOL * (1.0 + abs(best))
        r = min((i for i, q in enumerate(ratios) if q <= cut), key=basis.__getitem__)
        _pivot(Binv, d, r)
        basis[r] = j
    raise RuntimeError("simplex iteration limit reached")


def _pivot(Binv, d, r):
    """Update Binv in place when basis position r takes the column a with
    Binv @ a = d: one elimination step on pivot d[r]."""
    pivot_row = Binv[r] / d[r]
    Binv -= d[:, None] * pivot_row
    Binv[r] = pivot_row


def solve_lp(problem, init_basis=None):
    """Solve the standard-form LP; returns an LpSolution.

    With ``init_basis`` (a feasible basis for the same A, b) phase 1 is
    skipped entirely. A basis that turns out singular or infeasible falls
    back to the cold two-phase path.
    """
    A, b, c = problem.A, problem.b, problem.c
    m, n = A.shape
    m_full = m
    rows = np.arange(m)  # active original row indices (redundant rows get dropped)
    # orient rows so b >= 0 (phase 1 needs it)
    flip = b < 0
    if flip.any():
        A = np.where(flip[:, None], -A, A)
        b = np.where(flip, -b, b)

    basis = None
    iters = 0
    if init_basis is not None:
        cand = np.asarray(init_basis, dtype=int)
        if cand.shape == (m,) and np.all(cand >= 0) and np.all(cand < n):
            try:
                Binv = np.linalg.inv(A[:, cand])
            except np.linalg.LinAlgError:
                Binv = None
            if Binv is not None and np.all(Binv @ b >= -FEAS_TOL):
                basis = cand.copy()

    if basis is None:
        # phase 1: artificial columns with unit costs
        A1 = np.hstack([A, np.eye(m)])
        c1 = np.concatenate([np.zeros(n), np.ones(m)])
        basis = np.arange(n, n + m)
        Binv = np.eye(m)
        status, it1 = _simplex(A1, b, c1, basis, Binv, switch_after=5 * (n + m))
        iters += it1
        if status != "optimal":
            raise RuntimeError("phase 1 terminated " + status)
        obj1 = float(c1[basis] @ (Binv @ b))
        if obj1 > FEAS_TOL:
            return LpSolution(
                status="infeasible",
                x=np.full(n, np.nan),
                objective=np.nan,
                basis=basis.copy(),
                y=np.full(m, np.nan),
                iterations=iters,
            )
        # drive leftover artificials out; a row none of the real columns can
        # pivot on is redundant and gets dropped
        keep = np.ones(m, dtype=bool)
        for pos in range(m):
            if basis[pos] < n:
                continue
            row = Binv[pos] @ A
            row[basis[basis < n]] = 0.0
            j = np.nonzero(np.abs(row) > PIVOT_TOL)[0]
            if j.size:
                _pivot(Binv, Binv @ A[:, j[0]], pos)
                basis[pos] = int(j[0])
            else:
                keep[pos] = False
        if not np.all(keep):
            A = A[keep]
            b = b[keep]
            basis = basis[keep]
            rows = rows[keep]
            m = rows.size
        Binv = np.linalg.inv(A[:, basis])

    status, it2 = _simplex(A, b, c, basis, Binv, switch_after=5 * n)
    iters += it2
    if status == "unbounded":
        return LpSolution(
            status="unbounded",
            x=np.full(n, np.nan),
            objective=-np.inf,
            basis=basis.copy(),
            y=np.full(m_full, np.nan),
            iterations=iters,
        )
    B = A[:, basis]
    xB = np.linalg.solve(B, b)
    if xB.min() < -FEAS_TOL:
        raise RuntimeError("simplex basis lost feasibility")
    x = np.zeros(n)
    x[basis] = np.maximum(xB, 0.0)
    # duals of the active rows; dropped (redundant) rows keep dual 0, and the
    # sign flip from the b >= 0 orientation is undone per row
    y_act = np.linalg.solve(B.T, c[basis])
    y = np.zeros(m_full)
    y[rows] = np.where(flip[rows], -y_act, y_act)
    return LpSolution(
        status="optimal",
        x=x,
        objective=float(problem.c @ x),
        basis=basis.copy(),
        y=y,
        iterations=iters,
    )
