"""Dense-layer numerical kernels with hand-written backward passes.

Everything operates on 2-D float64 arrays (rows = batch items, columns =
features).  There is no autodiff graph: each layer exposes a forward
function and a matching backward function, and :func:`grad_check` verifies
any analytic gradient against central finite differences.

In-place contract.  The forward kernels work in place on arrays they
allocate themselves and never write to their inputs, except :func:`relu`,
which clamps the array it is given (the model passes it the batch-norm
output it just allocated).  A backward kernel may overwrite its
``grad_out`` argument and may return it as its input gradient, so a caller
passes a gradient it owns and does not read it afterwards.  No backward
kernel writes to ``x``, to a layer's state or to a cached activation.
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

# Finite-difference half-step of grad_check, and the denominator floor of
# relative_error that keeps near-zero gradient pairs from dividing by ~0.
GRAD_CHECK_STEP = 1e-5
RELATIVE_ERROR_FLOOR = 1e-6


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
    out = x @ layer.weight
    out += layer.bias
    return out


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
    """max(x, 0) in place; returns ``x``."""
    return np.maximum(x, 0.0, out=x)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """``grad_out`` times the step of ``x`` (the ReLU's input or output), in place.

    Where ``x <= 0`` a finite gradient becomes a zero of its own sign.
    """
    grad_out *= x > 0.0
    return grad_out


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise 1 / (1 + exp(-x)), branch-stable for large |x|."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    # The numerator is 1 where x >= 0, else e; as e <= 1 that is max(step(x), e).
    out = (x >= 0.0).astype(e.dtype)
    np.maximum(out, e, out=out)
    e += 1.0
    out /= e
    return out


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax; subtracts the row max so large logits cannot overflow."""
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


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
    x: np.ndarray, state: BatchNormState, mode: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-normalize by batch statistics (train) or running statistics (infer).

    Returns (out, mean, var): the output and the statistics it was
    normalized with, which :func:`batchnorm_backward` takes back.
    """
    if mode not in (TRAIN, INFER):
        raise ValueError(f"mode must be {TRAIN!r} or {INFER!r}, got {mode!r}")
    if mode == TRAIN:
        if x.shape[0] < 2:
            raise ValueError(f"train-mode batch norm needs >= 2 rows, got {x.shape[0]}")
        mean = x.mean(axis=0)
        out = x - mean
        # x.var(axis=0): the mean of the squared deviations held in ``out``
        var = np.square(out).sum(axis=0)
        var /= x.shape[0]
        state.running_mean = BN_MOMENTUM * state.running_mean + (1.0 - BN_MOMENTUM) * mean
        state.running_var = BN_MOMENTUM * state.running_var + (1.0 - BN_MOMENTUM) * var
    else:
        mean = state.running_mean
        var = state.running_var
        out = x - mean
    out /= np.sqrt(var + BN_EPSILON)
    out *= state.gamma
    out += state.beta
    return out, mean, var


def batchnorm_backward(
    x: np.ndarray, mean: np.ndarray, var: np.ndarray, state: BatchNormState, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Train-mode backward, given the batch ``mean`` and ``var`` the forward returned.

    grad_x folds in the dependence of the batch mean and variance on every
    row: with g = grad wrt the normalized values,
    grad_x = (g - mean(g) - x_hat * mean(g * x_hat)) / sqrt(var + eps).
    Returns (grad_x, grad_gamma, grad_beta); grad_x is ``grad_out``,
    overwritten.
    """
    n = x.shape[0]
    inv_std = np.sqrt(var + BN_EPSILON)
    np.divide(1.0, inv_std, out=inv_std)
    x_hat = x - mean
    x_hat *= inv_std

    grad_beta = grad_out.sum(axis=0)
    product = grad_out * x_hat
    grad_gamma = product.sum(axis=0)
    g = grad_out
    g *= state.gamma
    g_mean = g.sum(axis=0)
    g_mean /= n
    np.multiply(g, x_hat, out=product)
    x_hat *= product.sum(axis=0)
    x_hat /= n
    g -= g_mean
    g -= x_hat
    g *= inv_std
    return g, grad_gamma, grad_beta


def dropout_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """Scaled keep-mask: 0 with probability ``rate``, else 1/(1-rate)."""
    mask = rng.random(shape)
    np.greater_equal(mask, rate, out=mask)
    mask *= 1.0 / (1.0 - rate)
    return mask


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise |a - n| / max(|a| + |n|, RELATIVE_ERROR_FLOOR)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.abs(a) + np.abs(n), RELATIVE_ERROR_FLOOR)
    return float((np.abs(a - n) / denom).max())


def grad_check(
    loss_fn: Callable[[], float],
    params: Mapping[str, np.ndarray],
    analytic_grads: Mapping[str, np.ndarray],
) -> float:
    """Compare analytic gradients against central finite differences of GRAD_CHECK_STEP.

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
            flat[i] = orig + GRAD_CHECK_STEP
            loss_plus = loss_fn()
            flat[i] = orig - GRAD_CHECK_STEP
            loss_minus = loss_fn()
            flat[i] = orig
            numeric[i] = (loss_plus - loss_minus) / (2.0 * GRAD_CHECK_STEP)
        worst = max(worst, relative_error(analytic, numeric))
    return worst
