"""Dense-layer numerical kernels with hand-written backward passes.

Everything operates on 2-D float64 arrays (rows = batch items, columns =
features).  There is no autodiff graph: each layer exposes a forward
function and a matching backward function, and :func:`grad_check` verifies
any analytic gradient against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

TRAIN = "train"
INFER = "infer"

# Batch norm's running-statistics decay and the variance's stabilizer.
BN_MOMENTUM = 0.99
BN_EPSILON = 1e-5


def glorot_uniform(rng: np.random.Generator, n_in: int, n_out: int) -> np.ndarray:
    """Uniform init on +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (n_in + n_out))
    return limit * (2.0 * rng.random((n_in, n_out)) - 1.0)


@dataclass
class DenseLayer:
    weight: np.ndarray  # (n_in, n_out)
    bias: np.ndarray  # (n_out,)

    @classmethod
    def init(cls, rng: np.random.Generator, n_in: int, n_out: int) -> "DenseLayer":
        return cls(glorot_uniform(rng, n_in, n_out), np.zeros(n_out))

    @property
    def n_in(self) -> int:
        return self.weight.shape[0]

    @property
    def n_out(self) -> int:
        return self.weight.shape[1]


def dense_forward(x: np.ndarray, layer: DenseLayer) -> np.ndarray:
    if x.ndim != 2 or x.shape[1] != layer.n_in:
        raise ValueError(f"dense input shape {x.shape} incompatible with n_in={layer.n_in}")
    return x @ layer.weight + layer.bias


def dense_backward(
    x: np.ndarray, layer: DenseLayer, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (grad_x, grad_weight, grad_bias)."""
    if grad_out.shape != (x.shape[0], layer.n_out):
        raise ValueError(
            f"grad shape {grad_out.shape} incompatible with ({x.shape[0]}, {layer.n_out})"
        )
    return grad_out @ layer.weight.T, x.T @ grad_out, grad_out.sum(axis=0)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, grad_out, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise 1 / (1 + exp(-x)), branch-stable for large |x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax; subtracts the row max so large logits cannot overflow."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_rows_backward(softmax_out: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Backward through a row-wise softmax, given its forward output."""
    inner = (grad_out * softmax_out).sum(axis=-1, keepdims=True)
    return softmax_out * (grad_out - inner)


@dataclass
class BatchNormState:
    """Per-column scale/shift parameters plus running statistics.

    Running statistics follow ``running = BN_MOMENTUM * running + (1 -
    BN_MOMENTUM) * batch`` and are only consulted in infer mode.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def init(cls, dim: int) -> "BatchNormState":
        return cls(np.ones(dim), np.zeros(dim), np.zeros(dim), np.ones(dim))


def batchnorm_forward(
    x: np.ndarray, state: BatchNormState, mode: str, update_running: bool = True
) -> np.ndarray:
    """Column-normalize by batch statistics (train) or running statistics (infer)."""
    if mode not in (TRAIN, INFER):
        raise ValueError(f"mode must be {TRAIN!r} or {INFER!r}, got {mode!r}")
    if mode == TRAIN:
        if x.shape[0] < 2:
            raise ValueError(f"train-mode batch norm needs >= 2 rows, got {x.shape[0]}")
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        if update_running:
            state.running_mean = BN_MOMENTUM * state.running_mean + (1.0 - BN_MOMENTUM) * mean
            state.running_var = BN_MOMENTUM * state.running_var + (1.0 - BN_MOMENTUM) * var
    else:
        mean = state.running_mean
        var = state.running_var
    x_hat = (x - mean) / np.sqrt(var + BN_EPSILON)
    return state.gamma * x_hat + state.beta


def batchnorm_backward(
    x: np.ndarray, state: BatchNormState, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Train-mode backward; recomputes the batch statistics from ``x``.

    grad_x folds in the dependence of the batch mean and variance on every
    row: with g = grad wrt the normalized values,
    grad_x = (g - mean(g) - x_hat * mean(g * x_hat)) / sqrt(var + eps).
    Returns (grad_x, grad_gamma, grad_beta).
    """
    n = x.shape[0]
    mean = x.mean(axis=0)
    var = x.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
    x_hat = (x - mean) * inv_std

    grad_beta = grad_out.sum(axis=0)
    grad_gamma = (grad_out * x_hat).sum(axis=0)
    g = grad_out * state.gamma
    grad_x = inv_std * (g - g.sum(axis=0) / n - x_hat * (g * x_hat).sum(axis=0) / n)
    return grad_x, grad_gamma, grad_beta


def dropout_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """Scaled keep-mask: 0 with probability ``rate``, else 1/(1-rate)."""
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


def relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> float:
    """Max elementwise |a - n| / max(|a| + |n|, floor)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.abs(a) + np.abs(n), floor)
    return float((np.abs(a - n) / denom).max())


def grad_check(
    loss_fn: Callable[[], float],
    params: Mapping[str, np.ndarray],
    analytic_grads: Mapping[str, np.ndarray],
    step: float = 1e-5,
) -> float:
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` must be a deterministic pure function of the entries of
    ``params``, which are perturbed in place and restored.  Returns the max
    relative error over every scalar parameter.
    """
    worst = 0.0
    for name, p in params.items():
        analytic = np.asarray(analytic_grads[name], dtype=np.float64).reshape(-1)
        flat = p.reshape(-1)
        numeric = np.empty_like(analytic)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            loss_plus = loss_fn()
            flat[i] = orig - step
            loss_minus = loss_fn()
            flat[i] = orig
            numeric[i] = (loss_plus - loss_minus) / (2.0 * step)
        worst = max(worst, relative_error(analytic, numeric))
    return worst
