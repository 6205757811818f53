"""Dense linear programming in standard form.

min c.x  subject to  A x = b, x >= 0, solved with a two-phase revised
simplex. The kernel keeps the inverse of the basis matrix and updates it by
one elimination step per pivot, so basic values, duals and the entering
column come from matrix-vector products; the basis stays small (tens of
rows) next to the few thousand columns of the conic grid solver's LPs. The
inverse is recomputed every n_rows pivots and before optimality is declared.
The returned point comes from a fresh solve of the final basis, and so do
the duals, solved for on their first read (``LpSolution.y``). Pricing, with a
tolerance scaled by the largest cost, starts with Dantzig's rule and falls
back to Bland's rule after 5 * n_cols iterations so cycling on degenerate
vertices cannot occur.

An optional warm start (``init_basis``) skips phase 1 when the caller already
holds a feasible basis for the same (A, b); the conic solver exploits this
because its alternations only change the objective vector. The start is
either the basis's column indices or an earlier optimal ``LpSolution`` of the
same A and b. Such a solution keeps the inverse of its final basis, which the
kernel inverted afresh before it declared optimality, so a warm call from it
inverts nothing before its first pivot and follows the same pivots as one
from the indices.

A problem built by ``LpProblem.from_pairs`` has two nonzeros per column, in
two rows that a column group shares (the conic grid LP: r_k^2 in row i and
s_l^2 in row n + j for every cell of pair (i, j)). Phase-2 pricing then
gathers the duals of each group's two rows and multiplies them by the two
rows of values, a (groups x 2) @ (2 x cells) product in place of the dense
(rows x columns) one. Phase 1, the entering column and the basis inversions
read the dense A.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["LpProblem", "LpSolution", "solve_lp"]

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9


@dataclass(frozen=True)
class LpProblem:
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    pairs: tuple = None  # (rows, vals) of a problem built by from_pairs

    @classmethod
    def from_pairs(cls, rows, vals, b, c):
        """The LP whose column g P + p holds vals[0, p] in row rows[g, 0] and
        vals[1, p] in row rows[g, 1], and zeros elsewhere; phase-2 pricing goes
        through these factors."""
        rows = np.asarray(rows, dtype=np.intp)
        vals = np.asarray(vals, dtype=float)
        A = np.zeros((len(b), rows.shape[0], vals.shape[1]))
        groups = np.arange(rows.shape[0])
        for t in range(2):
            A[rows[:, t], groups] += vals[t]
        return cls(A.reshape(len(b), -1), b, c, pairs=(rows, vals))

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
    iterations: int
    # inverse of the final basis, rows oriented b >= 0 (optimal only): a warm
    # start from this solution begins with it
    Binv: np.ndarray = field(default=None, repr=False)
    duals: object = field(default=None, repr=False)  # computes y

    @functools.cached_property
    def y(self):
        """Dual vector of the equality constraints (optimal only, NaN
        otherwise), solved for on the final basis at its first read."""
        return self.duals()


def _simplex(A, b, c, basis, Binv, switch_after, pairs=None, max_iter=200000):
    """Phase kernel: iterate from a feasible basis until optimal/unbounded.

    Binv is the inverse of A[:, basis], freshly computed on entry. Both are
    updated in place; returns (status, iterations), iterations counting pivots.
    Binv is recomputed from the basis every m pivots and before optimality is
    declared, so the roundoff of the updates cannot pile up, and an optimal
    return leaves it the fresh inverse of the final basis. A reduced cost
    counts as negative below -PIVOT_TOL * max(1, max|c|): its roundoff grows
    with the costs, and on an LP with costs near 1e7 an absolute test lets two
    columns with reduced costs of -1e-8 take turns entering forever.
    With ``pairs``, the (rows, vals) factors of ``LpProblem.from_pairs``, the
    reduced costs are priced through them. With no rows left (all dropped as
    redundant) the only vertex is x = 0: optimal unless a cost is negative.
    """
    m, n = A.shape
    tol = PIVOT_TOL * max(1.0, float(np.abs(c).max()))
    reduced = np.empty(n)
    if pairs is not None:
        rows, vals = pairs
        grouped = reduced.reshape(rows.shape[0], vals.shape[1])

    def entering(it):
        # reduced costs c - A^T y with the duals y = c_B B^-1, in one buffer
        y = c[basis] @ Binv
        if pairs is None:
            np.matmul(y, A, out=reduced)
        else:
            np.matmul(y[rows], vals, out=grouped)
        np.subtract(c, reduced, out=reduced)
        reduced[basis] = 0.0
        if it < switch_after:
            j = reduced.argmin()
            return j if reduced[j] < -tol else None
        candidates = np.nonzero(reduced < -tol)[0]
        return candidates[0] if candidates.size else None

    if m == 0:
        return ("optimal" if entering(0) is None else "unbounded"), 0
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

    With ``init_basis``, a feasible basis for the same A, b as column indices
    or an earlier optimal LpSolution of the same A, b, phase 1 is skipped
    entirely; a solution hands over the inverse of its final basis as well. A
    basis that turns out singular or infeasible falls back to the cold
    two-phase path. The point x comes from a fresh solve of the final basis;
    the duals y are solved for when first read. A problem that carries the
    ``from_pairs`` factors is priced through them in phase 2.
    """
    A, b, c = problem.A, problem.b, problem.c
    m, n = A.shape
    m_full = m
    rows = np.arange(m)  # active original row indices (redundant rows get dropped)
    pairs = problem.pairs
    # orient rows so b >= 0 (phase 1 needs it)
    flip = b < 0
    if flip.any():
        A = np.where(flip[:, None], -A, A)
        b = np.where(flip, -b, b)
        pairs = None  # the factors hold the unflipped signs

    def failed(status, basis, objective):
        return LpSolution(status=status, x=np.full(n, np.nan), objective=objective,
                          basis=basis.copy(), iterations=iters,
                          duals=lambda: np.full(m_full, np.nan))

    basis = None
    iters = 0
    if init_basis is not None:
        Binv = None
        if isinstance(init_basis, LpSolution):
            init_basis, Binv = init_basis.basis, init_basis.Binv
        cand = np.asarray(init_basis, dtype=int)
        if cand.shape == (m,) and np.all(cand >= 0) and np.all(cand < n):
            if Binv is None:
                try:
                    Binv = np.linalg.inv(A[:, cand])
                except np.linalg.LinAlgError:
                    pass
            else:
                Binv = Binv.copy()  # the kernel updates it in place
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
            return failed("infeasible", basis, np.nan)
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
            pairs = None  # the factors index the full rows
        Binv = np.linalg.inv(A[:, basis])

    status, it2 = _simplex(A, b, c, basis, Binv, switch_after=5 * n, pairs=pairs)
    iters += it2
    if status == "unbounded":
        return failed("unbounded", basis, -np.inf)
    # Binv was inverted afresh before the kernel declared optimality; x is
    # solved for anew all the same, so a wrong final basis cannot get through
    B = A[:, basis]
    xB = np.linalg.solve(B, b)
    if xB.min(initial=0.0) < -FEAS_TOL:
        raise RuntimeError("simplex basis lost feasibility")
    x = np.zeros(n)
    x[basis] = np.maximum(xB, 0.0)

    def duals():
        # duals of the active rows; dropped (redundant) rows keep dual 0, and
        # the sign flip from the b >= 0 orientation is undone per row
        y_act = np.linalg.solve(B.T, c[basis])
        y = np.zeros(m_full)
        y[rows] = np.where(flip[rows], -y_act, y_act)
        return y

    return LpSolution(status="optimal", x=x, objective=float(problem.c @ x),
                      basis=basis.copy(), iterations=iters, Binv=Binv, duals=duals)
