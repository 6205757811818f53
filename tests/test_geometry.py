import numpy as np
import pytest

from ugwkit.geometry import (
    SHAPE_KINDS,
    PointCloud,
    WeightedGraph,
    gen_shape,
    graph_geodesics,
    pairwise_euclidean,
    space_from_graph,
    space_from_points,
)

import oracles


def test_shape_kinds_cover_the_samplers():
    assert set(SHAPE_KINDS) == {
        "ellipse2d",
        "ellipse3d",
        "square",
        "sphere",
        "two_moons_outliers",
        "community_graph",
    }


@pytest.mark.parametrize("kind", sorted(SHAPE_KINDS))
def test_gen_shape_deterministic(kind):
    a = gen_shape(kind, 12, seed=3)
    b = gen_shape(kind, 12, seed=3)
    if isinstance(a, PointCloud):
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.tags, b.tags)
        assert np.all(np.isfinite(a.points))
    else:
        assert a.edges == b.edges
        np.testing.assert_array_equal(a.tags, b.tags)


def test_gen_shape_rejects_unknown_kind():
    with pytest.raises(ValueError):
        gen_shape("torus", 10, seed=0)
    with pytest.raises(ValueError):
        gen_shape("square", 0, seed=0)


def test_gen_shape_rejects_a_parameter_the_kind_does_not_take():
    with pytest.raises(ValueError, match="'ellipse2d' takes no parameter 'n_outliers'"):
        gen_shape("ellipse2d", 5, seed=0, n_outliers=2)
    with pytest.raises(ValueError, match="'square' takes no parameter 'noise'"):
        gen_shape("square", 5, seed=0, noise=0.1)
    with pytest.raises(ValueError, match="'sphere' takes no parameter 'radius'"):
        gen_shape("sphere", 5, seed=0, radius=2.0)
    assert gen_shape("two_moons_outliers", 5, seed=0, noise=0.0).n == 8


def test_pairwise_euclidean_matches_direct():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(7, 3))
    D = pairwise_euclidean(pts)
    for i in range(7):
        for j in range(7):
            assert D[i, j] == pytest.approx(np.linalg.norm(pts[i] - pts[j]), abs=1e-12)
    assert np.all(np.diag(D) == 0.0)


def test_pairwise_euclidean_accepts_1d():
    D = pairwise_euclidean(np.array([0.0, 3.0]))
    np.testing.assert_allclose(D, [[0.0, 3.0], [3.0, 0.0]])


class TestMoons:
    def test_tags_and_outlier_box(self):
        cloud = gen_shape("two_moons_outliers", 40, seed=1, n_outliers=5)
        assert cloud.n == 45  # outliers ride on top of the two moons
        tags = cloud.tags
        assert np.sum(tags == -1) == 5
        assert set(np.unique(tags)) <= {-1, 0, 1}
        assert np.sum(tags == 0) + np.sum(tags == 1) == 40
        outliers = cloud.points[tags == -1]
        assert np.all(outliers >= 2.5) and np.all(outliers <= 3.5)

    def test_no_outliers(self):
        cloud = gen_shape("two_moons_outliers", 20, seed=1, n_outliers=0)
        assert np.sum(cloud.tags == -1) == 0
        assert cloud.n == 20


class TestCommunityGraph:
    def test_edge_weights_follow_block_structure(self):
        g = gen_shape("community_graph", 12, seed=2, n_outliers=2)
        assert g.n == 12
        assert np.sum(g.tags == -1) == 2
        assert len(g.edges) == 12 * 11 // 2
        for i, j, w in g.edges:
            ti, tj = g.tags[i], g.tags[j]
            if ti == -1 and tj == -1:
                assert w == 4  # two strangers meet at the cross-community cost
            elif ti == -1 or tj == -1:
                assert w == 2
            elif ti == tj:
                assert w == 1
            else:
                assert w == 4

    def test_community_split(self):
        g = gen_shape("community_graph", 10, seed=2, n_outliers=0)
        sizes = np.bincount(g.tags[g.tags >= 0])
        assert sizes.sum() == 10
        assert sizes[0] >= sizes[1]


class TestGeodesics:
    def test_matches_heap_oracle(self):
        rng = np.random.default_rng(4)
        n = 9
        edges = [(i, (i + 1) % n, float(rng.uniform(0.5, 2.0))) for i in range(n)]
        for _ in range(6):
            i, j = rng.integers(0, n, size=2)
            if i != j:
                edges.append((int(i), int(j), float(rng.uniform(0.5, 2.0))))
        g = WeightedGraph(n, edges)
        np.testing.assert_allclose(graph_geodesics(g), oracles.dijkstra_geodesics(g), atol=1e-12)

    def test_disconnected_raises(self):
        g = WeightedGraph(3, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            graph_geodesics(g)

    def test_parallel_edges_keep_shortest(self):
        g = WeightedGraph(2, [(0, 1, 5.0), (0, 1, 1.0)])
        D = graph_geodesics(g)
        assert D[0, 1] == 1.0


def test_weighted_graph_validation():
    with pytest.raises(ValueError):
        WeightedGraph(2, [(0, 2, 1.0)])
    with pytest.raises(ValueError):
        WeightedGraph(2, [(0, 1, 0.0)])


def test_space_from_points_defaults():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    X = space_from_points(pts)
    assert X.n == 3
    assert X.mass == pytest.approx(1.0)
    np.testing.assert_allclose(X.weights, np.full(3, 1.0 / 3.0))
    assert X.dist[0, 1] == pytest.approx(1.0)


def test_space_from_graph_uses_geodesics():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    X = space_from_graph(g)
    assert X.dist[0, 2] == pytest.approx(2.0)
    assert X.mass == pytest.approx(1.0)


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros(3))
    with pytest.raises(ValueError):
        PointCloud(np.array([[np.inf, 0.0]]))


def test_empty_inputs_and_negative_outlier_counts_refused():
    with pytest.raises(ValueError, match="at least one point"):
        space_from_points(np.zeros((0, 2)))
    with pytest.raises(ValueError, match="at least one node"):
        space_from_graph(WeightedGraph(0))
    for kind in ("two_moons_outliers", "community_graph"):
        with pytest.raises(ValueError, match="n_outliers must be nonnegative"):
            gen_shape(kind, 9, 0, n_outliers=-1)
