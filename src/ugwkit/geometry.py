"""Synthetic dataset generators and distance-matrix builders.

Shapes follow the experiment families: boundary samples of a 2-D/3-D ellipse,
the unit square boundary, the unit sphere, two interleaved moons with tagged
outliers, and a two-community weighted graph with tagged outliers. The
experiments set only the outlier count and the moons' noise level; the
shapes' sizes (semi-axes, outlier box, community split and edge lengths) are
fixed, and each generator documents its own.

All generators are deterministic functions of (kind, n, seed).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from .measures import MmSpace

__all__ = [
    "PointCloud",
    "WeightedGraph",
    "pairwise_euclidean",
    "graph_geodesics",
    "gen_shape",
    "space_from_points",
    "space_from_graph",
    "SHAPE_KINDS",
]

@dataclass
class PointCloud:
    points: np.ndarray  # (n, d)
    tags: np.ndarray = None  # per-point int tag: cluster id, -1 for outliers

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2:
            raise ValueError("points must be an (n, d) array")
        if self.points.shape[0] == 0:
            raise ValueError("a point cloud needs at least one point")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points must be finite")
        if self.tags is None:
            self.tags = np.zeros(self.points.shape[0], dtype=int)
        else:
            self.tags = np.asarray(self.tags, dtype=int)

    @property
    def n(self):
        return self.points.shape[0]


@dataclass
class WeightedGraph:
    n: int
    edges: list = field(default_factory=list)  # (i, j, length > 0)
    tags: np.ndarray = None  # community id, -1 for outliers

    def __post_init__(self):
        if self.tags is None:
            self.tags = np.zeros(self.n, dtype=int)
        else:
            self.tags = np.asarray(self.tags, dtype=int)
        for i, j, w in self.edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i},{j}) out of range")
            if not w > 0:
                raise ValueError("edge lengths must be positive")


def pairwise_euclidean(points):
    """Euclidean distance matrix of a point cloud (exact zero diagonal)."""
    pts = points.points if isinstance(points, PointCloud) else np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def graph_geodesics(g):
    """All-pairs shortest-path matrix by Floyd-Warshall.

    Raises on a disconnected graph.
    """
    n = g.n
    d = np.full((n, n), math.inf)
    np.fill_diagonal(d, 0.0)
    for i, j, w in g.edges:
        w = float(w)
        if w < d[i, j]:
            d[i, j] = w
            d[j, i] = w
    for k in range(n):
        np.minimum(d, d[:, [k]] + d[[k], :], out=d)
    if not np.all(np.isfinite(d)):
        raise ValueError("graph is disconnected")
    return d


# community graph edge lengths: within a community, across the two (and
# between two outliers), and from an outlier to a community node
_INTRA, _INTER, _TO_OUTLIER = 1.0, 4.0, 2.0


def _ellipse2d(n, rng):
    # semi-axes 1 and 0.5
    t = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return np.column_stack([np.cos(t), 0.5 * np.sin(t)])


def _ellipse3d(n, rng):
    # uniform directions on the sphere, stretched onto the semi-axes 1, 0.7, 0.4
    return _sphere(n, rng) * np.array([1.0, 0.7, 0.4])


def _square(n, rng):
    # uniform by perimeter arclength on the boundary of [0, 1]^2
    t = rng.uniform(0.0, 4.0, size=n)
    side = np.floor(t).astype(int)
    u = t - side
    pts = np.empty((n, 2))
    pts[side == 0] = np.column_stack([u[side == 0], np.zeros((side == 0).sum())])
    pts[side == 1] = np.column_stack([np.ones((side == 1).sum()), u[side == 1]])
    pts[side == 2] = np.column_stack([1.0 - u[side == 2], np.ones((side == 2).sum())])
    pts[side == 3] = np.column_stack([np.zeros((side == 3).sum()), 1.0 - u[side == 3]])
    return pts


def _sphere(n, rng):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _two_moons_outliers(n, rng, n_outliers=3, noise=0.05):
    """Two interleaved half circles plus uniformly placed far outliers.

    The moons occupy roughly [-1.2, 2.2] x [-0.7, 1.2]; the outliers are
    drawn from the box [2.5, 3.5]^2, well outside that range. Outliers are
    tagged -1, the moons 0 and 1.
    """
    if n_outliers < 0:
        raise ValueError("n_outliers must be nonnegative")
    n0 = n // 2
    n1 = n - n0
    t0 = rng.uniform(0.0, math.pi, size=n0)
    t1 = rng.uniform(0.0, math.pi, size=n1)
    m0 = np.column_stack([np.cos(t0), np.sin(t0)])
    m1 = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    pts = np.vstack([m0, m1]) + noise * rng.standard_normal((n, 2))
    tags = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    if n_outliers > 0:
        out = np.column_stack(
            [rng.uniform(2.5, 3.5, size=n_outliers), rng.uniform(2.5, 3.5, size=n_outliers)]
        )
        pts = np.vstack([pts, out])
        tags = np.concatenate([tags, -np.ones(n_outliers, dtype=int)])
    return PointCloud(pts, tags)


def _community_graph(n, rng, n_outliers=2):
    """Two communities with class-determined edge costs and tagged outliers.

    The n - n_outliers community nodes split 60/40. Every intra-community
    pair is joined at cost _INTRA, cross-community pairs at _INTER, and
    outliers reach every other node at _TO_OUTLIER (outlier-outlier pairs at
    _INTER: two strangers).
    """
    if n_outliers < 0:
        raise ValueError("n_outliers must be nonnegative")
    n_core = n - n_outliers
    if n_core < 2:
        raise ValueError("need at least 2 community nodes")
    a = min(max(1, int(round(0.6 * n_core))), n_core - 1)
    tags = np.concatenate(
        [np.zeros(a, dtype=int), np.ones(n_core - a, dtype=int), -np.ones(n_outliers, dtype=int)]
    )
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if (tags[i] == -1) != (tags[j] == -1):
                w = _TO_OUTLIER
            else:
                w = _INTRA if tags[i] == tags[j] != -1 else _INTER
            edges.append((i, j, w))
    return WeightedGraph(n, edges, tags)


_SAMPLERS = {
    "ellipse2d": _ellipse2d,
    "ellipse3d": _ellipse3d,
    "square": _square,
    "sphere": _sphere,
    "two_moons_outliers": _two_moons_outliers,
    "community_graph": _community_graph,
}
SHAPE_KINDS = tuple(_SAMPLERS)


def gen_shape(kind, n, seed, **params):
    """Deterministic shape sampler; returns a PointCloud or WeightedGraph.

    Extra keyword parameters per kind:
      two_moons_outliers: n_outliers (default 3), noise (default 0.05)
      community_graph: n_outliers (default 2)
    The other kinds take none. A parameter the kind does not take is a
    ValueError.
    """
    if kind not in SHAPE_KINDS:
        raise ValueError(f"unknown shape kind {kind!r}; choose from {SHAPE_KINDS}")
    if n < 1:
        raise ValueError("n must be >= 1")
    sampler = _SAMPLERS[kind]
    takes = list(inspect.signature(sampler).parameters)[2:]  # after n and rng
    for name in params:
        if name not in takes:
            raise ValueError(f"shape kind {kind!r} takes no parameter {name!r}; "
                             f"it takes {', '.join(takes) or 'none'}")
    shape = sampler(n, np.random.default_rng(seed), **params)
    return shape if isinstance(shape, (PointCloud, WeightedGraph)) else PointCloud(shape)


def space_from_points(cloud, weights=None, label=None):
    """MmSpace with Euclidean distances; uniform probability weights by default."""
    pts = cloud if isinstance(cloud, PointCloud) else PointCloud(cloud)
    if weights is None:
        weights = np.full(pts.n, 1.0 / pts.n)
    return MmSpace(pairwise_euclidean(pts), weights, label=label)


def space_from_graph(g, weights=None, label=None):
    """MmSpace with geodesic distances; uniform probability weights by default."""
    if g.n == 0:
        raise ValueError("a graph needs at least one node")
    if weights is None:
        weights = np.full(g.n, 1.0 / g.n)
    return MmSpace(graph_geodesics(g), weights, label=label)
