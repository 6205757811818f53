"""Core data types: mm-spaces, transport plans, and KL divergences.

A metric measure space is held as a symmetric distance matrix together with a
strictly positive weight vector. Weight vectors a, b >= 0 are compared by

    KL(a|b) = sum_i a_i log(a_i/b_i) - a_i + b_i     (+inf if a charges b_i = 0)

and the quadratic variant compares tensor squares a (x) a against b (x) b
through the decomposition

    KL(a (x) b | p (x) q) = m(b) KL(a|p) + m(a) KL(b|q)
                            + (m(a) - m(p)) (m(b) - m(q))

which keeps every evaluation O(n) instead of O(n^2). The entropies KL, TV
and Balanced (an EntropySpec with its weight rho) name the marginal penalty
of the conic settings; the solver's Balanced term is balanced_indicator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MmSpace",
    "TransportPlan",
    "EntropySpec",
    "KL",
    "TV",
    "BALANCED",
    "quad_kl",
    "tensor_kl",
    "kl_div",
]

# sup-norm tolerance under which the Balanced indicator accepts a == b;
# plans come out of floating-point iterations, exact equality never holds
BALANCED_ATOL = 1e-12


def _as_weights(a, name="weights"):
    a = np.asarray(a, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    if a.size and a.min() < 0:
        raise ValueError(f"{name} must be nonnegative")
    return a


class MmSpace:
    """A finite metric measure space: distance matrix + positive weights.

    Zero-weight atoms are dropped at construction (keeping them is equivalent
    to removing the points); the retained original indices are recorded in
    ``kept``.
    """

    __slots__ = ("dist", "weights", "label", "kept")

    def __init__(self, dist, weights, label=None):
        dist = np.asarray(dist, dtype=float)
        weights = _as_weights(weights)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise ValueError(f"dist must be square, got shape {dist.shape}")
        if dist.shape[0] != weights.shape[0]:
            raise ValueError("dist and weights size mismatch")
        if not np.all(np.isfinite(dist)):
            raise ValueError("dist must be finite")
        if np.any(dist < 0):
            raise ValueError("dist must be nonnegative")
        if not np.array_equal(dist, dist.T):
            if not np.allclose(dist, dist.T, rtol=0, atol=1e-12):
                raise ValueError("dist must be symmetric")
            dist = 0.5 * (dist + dist.T)
        if np.any(np.diag(dist) != 0.0):
            raise ValueError("dist diagonal must be exactly zero")

        kept = np.flatnonzero(weights > 0)
        if kept.size == 0:
            raise ValueError("all weights are zero")
        if kept.size < weights.size:
            dist = dist[np.ix_(kept, kept)]
            weights = weights[kept]

        self.dist = dist
        self.dist.setflags(write=False)
        self.weights = weights
        self.weights.setflags(write=False)
        self.label = label
        self.kept = kept

    @property
    def n(self):
        return self.weights.shape[0]

    @property
    def mass(self):
        return float(self.weights.sum())

    def __repr__(self):
        lab = f", label={self.label!r}" if self.label else ""
        return f"MmSpace(n={self.n}, mass={self.mass:.6g}{lab})"


class TransportPlan:
    """A nonnegative n x m coupling matrix with cached marginals and mass."""

    __slots__ = ("values", "row_marginal", "col_marginal", "mass")

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError(f"plan must be a matrix, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("plan entries must be finite")
        if np.any(values < 0):
            raise ValueError("plan entries must be nonnegative")
        self.values = values
        self.values.setflags(write=False)
        self.row_marginal = values.sum(axis=1)
        self.col_marginal = values.sum(axis=0)
        self.mass = float(values.sum())

    @property
    def shape(self):
        return self.values.shape

    def __repr__(self):
        return f"TransportPlan(shape={self.values.shape}, mass={self.mass:.6g})"


def plan_values(plan):
    """The matrix of a TransportPlan, or an array-like as a float array."""
    if isinstance(plan, TransportPlan):
        return plan.values
    return np.asarray(plan, dtype=float)


def xlogy_sum(a, b):
    """sum a log(a/b) over a > 0 (0 log 0 = 0); b > 0 wherever a > 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mask = a > 0
    return float(np.sum(a[mask] * np.log(a[mask] / b[mask])))


def balanced_indicator(a, b):
    """The Balanced divergence: 0 when a == b to BALANCED_ATOL in sup-norm, else +inf."""
    return 0.0 if float(np.max(np.abs(a - b), initial=0.0)) <= BALANCED_ATOL else math.inf


@dataclass(frozen=True)
class EntropySpec:
    """An entropy kind (KL, TV or balanced) with its weight rho."""

    kind: str  # "kl" | "tv" | "balanced"
    rho: float = 1.0

    def __post_init__(self):
        if self.kind not in ("kl", "tv", "balanced"):
            raise ValueError(f"unknown entropy kind {self.kind!r}")
        if not (self.rho >= 0):
            raise ValueError("rho must be nonnegative")


def KL(rho=1.0):
    return EntropySpec("kl", rho)


def TV(rho=1.0):
    return EntropySpec("tv", rho)


def BALANCED():
    return EntropySpec("balanced", math.inf)


def _kl_mass(a, b):
    """(KL(a|b), m(a), m(b)) for weight vectors a, b >= 0 of one length."""
    a = _as_weights(a, "a")
    b = _as_weights(b, "b")
    if a.shape != b.shape:
        raise ValueError("length mismatch")
    ma, mb = float(a.sum()), float(b.sum())
    pos = b > 0
    if a[~pos].any():
        return math.inf, ma, mb
    ap, bp = a[pos], b[pos]
    return xlogy_sum(ap, bp) - float(ap.sum()) + float(bp.sum()), ma, mb


def kl_div(a, b, rho=1.0):
    """rho * KL(a|b) for weight vectors a, b >= 0 and rho >= 0; +inf when a charges a zero of b."""
    rho = KL(rho).rho  # refuses a negative or NaN rho
    kl = _kl_mass(a, b)[0]
    return math.inf if math.isinf(kl) else rho * kl


def quad_kl(a, b):
    """KL(a (x) a | b (x) b) = 2 m(a) KL(a|b) + (m(a) - m(b))^2, tensor_kl's diagonal.

    Unweighted (rho = 1); callers multiply by their rho.
    """
    kl, ma, mb = _kl_mass(a, b)
    if math.isinf(kl):
        return math.inf
    return 2.0 * (ma * kl) + (ma - mb) * (ma - mb)


def tensor_kl(a, b, p, q):
    """KL(a (x) b | p (x) q) via the two-measure decomposition.

    a, b, p, q are weight vectors (a against p, b against q). Used by the
    biconvex functional where the two coupled plans differ.
    """
    kl_ap, ma, mp = _kl_mass(a, p)
    kl_bq, mb, mq = _kl_mass(b, q)
    if math.isinf(kl_ap) or math.isinf(kl_bq):
        return math.inf
    return mb * kl_ap + ma * kl_bq + (ma - mp) * (mb - mq)
