"""Core data types: mm-spaces, transport plans, and Csiszar divergences.

A metric measure space is held as a symmetric distance matrix together with a
strictly positive weight vector. Divergences compare two nonnegative weight
vectors through an entropy function phi; the implemented entropies are

    KL        phi(r) = r log r - r + 1,   phi'_inf = +inf
    TV        phi(r) = |r - 1|,           phi'_inf = 1
    Balanced  indicator of equality (zero 0, else +inf)

each multiplied by a nonnegative weight rho. The quadratic variant compares
tensor squares a (x) a against b (x) b; for KL it is evaluated through the
decomposition

    KL(a (x) b | p (x) q) = m(b) KL(a|p) + m(a) KL(b|q)
                            + (m(a) - m(p)) (m(b) - m(q))

which keeps every evaluation O(n) instead of O(n^2).
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
    "csiszar_div",
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
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    if np.any(a < 0):
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


def csiszar_div(a, b, entropy):
    """rho * D_phi(a|b) for weight vectors a, b >= 0.

    Evaluates sum_{b_i>0} phi(a_i/b_i) b_i + phi'_inf * sum_{b_i=0} a_i and
    scales by rho. Returns +inf when singular mass meets an infinite
    recession. 0*log 0 is 0 throughout.
    """
    a = _as_weights(a, "a")
    b = _as_weights(b, "b")
    if a.shape != b.shape:
        raise ValueError("length mismatch")

    if entropy.kind == "balanced":
        return balanced_indicator(a, b)

    pos = b > 0
    singular = float(a[~pos].sum())

    if entropy.kind == "kl":
        if singular > 0:
            return math.inf
        ap, bp = a[pos], b[pos]
        val = xlogy_sum(ap, bp) - float(ap.sum()) + float(bp.sum())
        return entropy.rho * val

    # TV: phi'_inf = 1
    ap, bp = a[pos], b[pos]
    val = float(np.abs(ap - bp).sum()) + singular
    return entropy.rho * val


def kl_div(a, b, rho=1.0):
    """Shorthand for csiszar_div(a, b, KL(rho))."""
    return csiszar_div(a, b, KL(rho))


def quad_kl(a, b):
    """KL(a (x) a | b (x) b) = 2 m(a) KL(a|b) + (m(a) - m(b))^2, tensor_kl's diagonal.

    Unweighted (rho = 1); callers multiply by their rho.
    """
    return tensor_kl(a, a, b, b)


def tensor_kl(a, b, p, q):
    """KL(a (x) b | p (x) q) via the two-measure decomposition.

    a, b, p, q are weight vectors (a against p, b against q). Used by the
    biconvex functional where the two coupled plans differ.
    """
    kl_ap = csiszar_div(a, p, KL(1.0))
    kl_bq = csiszar_div(b, q, KL(1.0))
    if math.isinf(kl_ap) or math.isinf(kl_bq):
        return math.inf
    ma = float(np.sum(a))
    mb = float(np.sum(b))
    mp = float(np.sum(p))
    mq = float(np.sum(q))
    return mb * kl_ap + ma * kl_bq + (ma - mp) * (mb - mq)
