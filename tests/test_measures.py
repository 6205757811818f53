import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from ugwkit.measures import (
    BALANCED,
    BALANCED_ATOL,
    KL,
    TV,
    EntropySpec,
    MmSpace,
    TransportPlan,
    _as_weights,
    balanced_indicator,
    kl_div,
    quad_kl,
    tensor_kl,
)

import oracles


def weight_vectors(n=4, positive=False):
    # entries are exact zeros or comfortably normal floats; values near the
    # subnormal range make ratios underflow inside both the implementation
    # and the loop oracles, which tests nothing about the math
    if positive:
        elements = st.floats(0.1, 5.0, allow_nan=False, allow_infinity=False)
    else:
        elements = st.one_of(
            st.just(0.0),
            st.floats(1e-6, 5.0, allow_nan=False, allow_infinity=False),
        )
    return arrays(float, n, elements=elements)


class TestMmSpace:
    def test_basic_construction(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        X = MmSpace(d, [0.5, 1.5])
        assert X.n == 2
        assert X.mass == pytest.approx(2.0)
        np.testing.assert_array_equal(X.kept, [0, 1])

    def test_zero_weights_dropped(self):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
        X = MmSpace(d, [1.0, 0.0, 2.0])
        assert X.n == 2
        np.testing.assert_array_equal(X.kept, [0, 2])
        np.testing.assert_array_equal(X.dist, [[0.0, 2.0], [2.0, 0.0]])
        np.testing.assert_array_equal(X.weights, [1.0, 2.0])

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            MmSpace(np.zeros((2, 2)), [0.0, 0.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            MmSpace(np.zeros((2, 3)), [1.0, 1.0])
        with pytest.raises(ValueError, match="dist and weights size mismatch"):
            MmSpace(np.zeros((2, 2)), [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            MmSpace(np.zeros((2, 2)), [1.0, -1.0])
        with pytest.raises(ValueError):
            MmSpace([[0.0, -1.0], [-1.0, 0.0]], [1.0, 1.0])
        with pytest.raises(ValueError):
            MmSpace([[0.0, math.nan], [math.nan, 0.0]], [1.0, 1.0])
        with pytest.raises(ValueError):
            MmSpace([[0.1, 1.0], [1.0, 0.0]], [1.0, 1.0])

    def test_no_points_rejected(self):
        with pytest.raises(ValueError, match="all weights are zero"):
            MmSpace(np.zeros((0, 0)), [])

    def test_asymmetry_tolerance(self):
        d = np.array([[0.0, 1.0], [1.0 + 5e-13, 0.0]])
        X = MmSpace(d, [1.0, 1.0])
        assert X.dist[0, 1] == X.dist[1, 0]
        with pytest.raises(ValueError):
            MmSpace([[0.0, 1.0], [1.1, 0.0]], [1.0, 1.0])

    def test_arrays_read_only(self):
        X = MmSpace([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0])
        with pytest.raises(ValueError):
            X.dist[0, 1] = 5.0
        with pytest.raises(ValueError):
            X.weights[0] = 5.0


class TestTransportPlan:
    def test_marginals_cached(self):
        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        plan = TransportPlan(v)
        np.testing.assert_allclose(plan.row_marginal, [3.0, 7.0])
        np.testing.assert_allclose(plan.col_marginal, [4.0, 6.0])
        assert plan.mass == pytest.approx(10.0)
        assert plan.shape == (2, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            TransportPlan([1.0, 2.0])
        with pytest.raises(ValueError):
            TransportPlan([[-1.0]])
        with pytest.raises(ValueError):
            TransportPlan([[math.inf]])


class TestAsWeights:
    @pytest.mark.parametrize("value, message", [
        ([1.0, math.nan], "w must be finite"),
        ([math.inf, 1.0], "w must be finite"),
        ([1.0, -1e-300], "w must be nonnegative"),
        ([[1.0, 2.0]], r"w must be a 1-D vector, got shape \(1, 2\)"),
    ])
    def test_messages(self, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            _as_weights(value, "w")

    def test_empty_and_signed_zero_pass(self):
        assert _as_weights([]).shape == (0,)
        assert _as_weights([-0.0, 1.0]).shape == (2,)


class TestEntropySpec:
    def test_kinds_and_recession(self):
        assert (KL().kind, TV().kind, BALANCED().kind) == ("kl", "tv", "balanced")
        assert BALANCED().rho == math.inf
        with pytest.raises(ValueError):
            EntropySpec("huber")
        with pytest.raises(ValueError):
            EntropySpec("kl", rho=-1.0)


class TestCsiszarDiv:
    def test_kl_frozen_value(self):
        b = np.array([0.5, 0.5])
        assert kl_div(2.0 * b, b) == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-14)

    def test_kl_singular_mass_is_inf(self):
        assert math.isinf(kl_div([1.0, 1.0], [1.0, 0.0]))

    def test_balanced_indicator(self):
        a = np.array([1.0, 2.0])
        assert balanced_indicator(a, a + 0.5 * BALANCED_ATOL) == 0.0
        assert math.isinf(balanced_indicator(a, a + 1.0))

    def test_rho_scaling(self):
        a = np.array([1.0, 2.0])
        b = np.array([2.0, 1.0])
        assert kl_div(a, b, 3.0) == 3.0 * kl_div(a, b)

    def test_rho_checked_and_singular_inf_at_zero_rho(self):
        with pytest.raises(ValueError, match="rho must be nonnegative"):
            kl_div([1.0, 2.0], [2.0, 1.0], -1.0)
        assert kl_div([1.0, 1.0], [1.0, 0.0], 0.0) == math.inf

    @given(weight_vectors(), weight_vectors(positive=True))
    def test_kl_matches_loop_oracle(self, a, b):
        np.testing.assert_allclose(kl_div(a, b), oracles.kl_loop(a, b), rtol=1e-12, atol=1e-12)

    @given(weight_vectors(positive=True))
    def test_divergences_vanish_on_equal(self, a):
        assert kl_div(a, a) == pytest.approx(0.0, abs=1e-13)

    @given(weight_vectors(), weight_vectors(positive=True))
    def test_kl_nonnegative(self, a, b):
        assert kl_div(a, b) >= -1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kl_div([1.0], [1.0, 2.0])


class TestQuadKl:
    def test_frozen_value(self):
        b = np.array([0.5, 0.5])
        expected = 8.0 * math.log(2.0) - 3.0
        assert quad_kl(2.0 * b, b) == pytest.approx(expected, rel=1e-14)

    def test_zero_on_equal(self):
        a = np.array([0.3, 1.7])
        assert quad_kl(a, a) == pytest.approx(0.0, abs=1e-14)

    def test_singular(self):
        assert math.isinf(quad_kl([1.0, 1.0], [1.0, 0.0]))

    @given(weight_vectors(), weight_vectors(positive=True))
    def test_matches_tensor_square_oracle(self, a, b):
        got = quad_kl(a, b)
        want = oracles.quad_kl_tensor(a, b)
        if math.isinf(want):
            assert math.isinf(got)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


class TestTensorKl:
    @given(
        weight_vectors(3),
        weight_vectors(4),
        weight_vectors(3, positive=True),
        weight_vectors(4, positive=True),
    )
    def test_matches_full_product_oracle(self, a, b, p, q):
        got = tensor_kl(a, b, p, q)
        want = oracles.tensor_kl_full(a, b, p, q)
        if math.isinf(want):
            assert math.isinf(got)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_reduces_to_quad_kl_on_diagonal(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0.1, 2.0, size=5)
        b = rng.uniform(0.1, 2.0, size=5)
        np.testing.assert_allclose(tensor_kl(a, a, b, b), quad_kl(a, b), rtol=1e-12)

    @given(weight_vectors(), weight_vectors())
    def test_diagonal_is_quad_kl_exactly(self, a, b):
        # quad_kl evaluates the diagonal directly; it must give the same float
        assert quad_kl(a, b) == tensor_kl(a, a, b, b)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            tensor_kl([1.0], [1.0], [1.0, 2.0], [1.0])
        with pytest.raises(ValueError, match="length mismatch"):
            tensor_kl([1.0], [1.0], [1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="length mismatch"):
            quad_kl([1.0], [1.0, 2.0])
