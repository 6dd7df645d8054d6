"""Differentiable layers with explicit forward/backward.

Each layer caches what its backward pass needs.  Parameters live in the
layer but are exposed as flat vectors through ``get_params`` /
``set_params`` so the distributed trainers can treat a whole network as
one parameter vector — the natural representation for parameter-server
semantics (push/pull whole-model update vectors).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


class Layer:
    """Interface: forward caches, backward returns input gradient."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def param_count(self) -> int:
        return 0

    def get_params(self) -> np.ndarray:
        return np.empty(0)

    def set_params(self, flat: np.ndarray) -> None:
        if flat.size:
            raise ConfigurationError("layer has no parameters")

    def get_grads(self) -> np.ndarray:
        return np.empty(0)


class Dense(Layer):
    """Affine layer ``y = x W + b`` with He initialization."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        if in_dim <= 0 or out_dim <= 0:
            raise ConfigurationError("Dense dims must be positive")
        self.in_dim = in_dim
        self.out_dim = out_dim
        scale = np.sqrt(2.0 / in_dim)
        self.weight = rng.normal(0.0, scale, size=(in_dim, out_dim))
        self.bias = np.zeros(out_dim)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.weight + self.bias

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._x is not None, "backward before forward"
        self.grad_weight = self._x.T @ grad_out
        self.grad_bias = grad_out.sum(axis=0)
        return grad_out @ self.weight.T

    @property
    def param_count(self) -> int:
        return self.weight.size + self.bias.size

    def get_params(self) -> np.ndarray:
        return np.concatenate([self.weight.ravel(), self.bias])

    def set_params(self, flat: np.ndarray) -> None:
        if flat.size != self.param_count:
            raise ConfigurationError(
                f"expected {self.param_count} params, got {flat.size}"
            )
        w = self.weight.size
        self.weight = flat[:w].reshape(self.weight.shape).copy()
        self.bias = flat[w:].copy()

    def get_grads(self) -> np.ndarray:
        return np.concatenate([self.grad_weight.ravel(), self.grad_bias])


class ReLU(Layer):
    """Element-wise ``max(0, x)``."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._mask is not None, "backward before forward"
        return grad_out * self._mask


