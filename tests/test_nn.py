"""The numpy NN substrate: gradient checks, losses, parameter plumbing."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.training.nn import (
    Dense,
    MLP,
    ReLU,
    SGD,
    accuracy,
    make_classification,
    make_convex_problem,
    softmax_cross_entropy,
)


def numerical_gradient(f, params, eps=1e-5):
    grad = np.zeros_like(params)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] += eps
        up = f(bumped)
        bumped[i] -= 2 * eps
        down = f(bumped)
        grad[i] = (up - down) / (2 * eps)
    return grad


class TestGradients:
    def test_mlp_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        net = MLP([5, 7, 3], seed=1)
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 3, size=6)

        def loss_at(params):
            net.set_params(params)
            loss, _ = net.loss_and_grad(x, y)
            return loss

        params = net.get_params()
        _, analytic = net.loss_and_grad(x, y)
        numeric = numerical_gradient(loss_at, params)
        assert np.allclose(analytic, numeric, atol=1e-6)

    @settings(max_examples=10, deadline=None)
    @given(
        batch=st.integers(min_value=1, max_value=8),
        hidden=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=1000),
    )
    # a hidden pre-activation of 9.6e-6 < eps: the central difference
    # straddles the ReLU kink and misses the analytic gradient by 0.036
    @example(batch=5, hidden=12, seed=464)
    def test_property_gradcheck_random_shapes(self, batch, hidden, seed):
        rng = np.random.default_rng(seed)
        net = MLP([4, hidden, 3], seed=seed)
        x = rng.normal(size=(batch, 4))
        y = rng.integers(0, 3, size=batch)
        eps = 1e-5
        # the numerical gradient is only valid away from the ReLU kink
        assume(np.abs(net.layers[0].forward(x)).min() >= 10 * eps)

        def loss_at(params):
            net.set_params(params)
            loss, _ = net.loss_and_grad(x, y)
            return loss

        _, analytic = net.loss_and_grad(x, y)
        numeric = numerical_gradient(loss_at, net.get_params(), eps=eps)
        assert np.allclose(analytic, numeric, atol=1e-5)

    def test_relu_backward(self):
        relu = ReLU()
        x = np.array([[-1.0, 2.0, 0.0]])
        relu.forward(x)
        grad = relu.backward(np.ones_like(x))
        assert grad.tolist() == [[0.0, 1.0, 0.0]]


class TestLoss:
    def test_uniform_logits_loss_is_log_k(self):
        logits = np.zeros((4, 8))
        labels = np.zeros(4, dtype=int)
        loss, _ = softmax_cross_entropy(logits, labels)
        assert loss == pytest.approx(np.log(8))

    def test_gradient_sums_to_zero_per_row(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        _, grad = softmax_cross_entropy(logits, labels)
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_numerically_stable_at_large_logits(self):
        logits = np.array([[1e4, 0.0]])
        loss, grad = softmax_cross_entropy(logits, np.array([0]))
        assert np.isfinite(loss) and np.isfinite(grad).all()

    def test_accuracy(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 1.0]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)


class TestParamPlumbing:
    def test_roundtrip(self):
        net = MLP([4, 6, 2], seed=3)
        params = net.get_params()
        net.set_params(np.zeros_like(params))
        assert net.get_params().sum() == 0.0
        net.set_params(params)
        assert np.array_equal(net.get_params(), params)

    def test_param_count(self):
        net = MLP([4, 6, 2], seed=0)
        assert net.param_count == (4 * 6 + 6) + (6 * 2 + 2)
        assert net.get_params().size == net.param_count

    def test_wrong_size_rejected(self):
        net = MLP([4, 2], seed=0)
        with pytest.raises(ConfigurationError):
            net.set_params(np.zeros(3))

    def test_dense_rejects_bad_dims(self):
        with pytest.raises(ConfigurationError):
            Dense(0, 4, np.random.default_rng(0))

    def test_mlp_needs_two_dims(self):
        with pytest.raises(ConfigurationError):
            MLP([4], seed=0)

    def test_gradient_at_is_stateless_for_caller(self):
        rng = np.random.default_rng(0)
        net = MLP([4, 3], seed=0)
        w = np.ones(net.param_count)
        x = rng.normal(size=(2, 4))
        y = np.array([0, 1])
        g1 = net.gradient_at(w, x, y)
        g2 = net.gradient_at(w, x, y)
        assert np.array_equal(g1, g2)


class TestSGD:
    def test_update_direction(self):
        opt = SGD(lr=0.1)
        grad = np.array([1.0, -2.0])
        assert np.allclose(opt.update(grad), [-0.1, 0.2])

    def test_decay_schedule(self):
        opt = SGD(lr=1.0, decay=1.0)
        opt.update(np.zeros(1))
        assert opt.step_size() == pytest.approx(1 / np.sqrt(2))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SGD(lr=0.0)
        with pytest.raises(ConfigurationError):
            SGD(lr=0.1, decay=-1)


class TestData:
    def test_shapes_and_split(self):
        ds = make_classification(samples=1000, feature_dim=8, num_classes=4)
        assert ds.train_x.shape == (800, 8)
        assert ds.test_x.shape == (200, 8)
        assert ds.feature_dim == 8
        assert set(np.unique(ds.train_y)) <= set(range(4))

    def test_deterministic_by_seed(self):
        a = make_classification(samples=100, seed=3)
        b = make_classification(samples=100, seed=3)
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.train_y, b.train_y)

    def test_minibatch_shape(self):
        ds = make_classification(samples=200)
        x, y = ds.minibatch(np.random.default_rng(0), 16)
        assert x.shape == (16, ds.feature_dim) and y.shape == (16,)

    def test_convex_problem_learnable_by_linear(self):
        ds = make_convex_problem()
        net = MLP([ds.feature_dim, ds.num_classes], seed=0)
        rng = np.random.default_rng(0)
        w = net.get_params()
        for _ in range(300):
            x, y = ds.minibatch(rng, 64)
            w = w - 0.1 * net.gradient_at(w, x, y)
        net.set_params(w)
        assert net.evaluate(ds.test_x, ds.test_y) > 0.8

    def test_invalid_test_fraction(self):
        with pytest.raises(ConfigurationError):
            make_classification(test_fraction=1.5)

    def test_mlp_learns_the_task(self):
        """The central sanity check behind Figures 5/6: the student MLP
        actually learns the synthetic task well past chance."""
        ds = make_classification()
        net = MLP([ds.feature_dim, 64, 32, ds.num_classes], seed=0)
        rng = np.random.default_rng(0)
        w = net.get_params()
        for _ in range(1500):
            x, y = ds.minibatch(rng, 32)
            w = w - 0.04 * net.gradient_at(w, x, y)
        net.set_params(w)
        assert net.evaluate(ds.test_x, ds.test_y) > 0.5  # chance is 0.125
