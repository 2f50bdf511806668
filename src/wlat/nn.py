"""Dense-layer numerical kernels with hand-written backward passes.

Everything operates on 2-D float64 arrays (rows = batch items, columns =
features).  There is no autodiff graph: each layer exposes a forward
function and a matching backward function, and :func:`grad_check` verifies
any analytic gradient against central finite differences.

In-place contract.  The forward kernels work in place on arrays they
allocate themselves and never write to their inputs, except :func:`relu`,
:func:`sigmoid` and :func:`softmax_rows`, which work in place on the array
they are given and return it (every caller passes an output it just
allocated: a batch-norm or dense output), and a train-mode
:func:`batchnorm_forward`, which updates its state's running statistics in
place, so no array a model holds is ever replaced.  A backward kernel may
overwrite its ``grad_out`` argument and may return it as its input gradient
(:func:`relu_backward`, :func:`batchnorm_backward` and
:func:`softmax_rows_backward` do), so a caller passes a gradient it owns and
does not read it afterwards.  No backward kernel writes to ``x``, to a
layer's state or to a cached activation.
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


def glorot_uniform(rng: np.random.Generator, weight: np.ndarray) -> np.ndarray:
    """Fill an (n_in, n_out) ``weight`` in place, uniform on +-sqrt(6 / (n_in + n_out))."""
    rng.random(out=weight)
    weight *= 2.0
    weight -= 1.0
    weight *= np.sqrt(6.0 / sum(weight.shape))
    return weight


@dataclass
class DenseLayer:
    """An affine map ``x @ weight + bias``; its shape is ``weight.shape``."""

    weight: np.ndarray  # (n_in, n_out)
    bias: np.ndarray  # (n_out,)


def dense_forward(x: np.ndarray, layer: DenseLayer) -> np.ndarray:
    if x.ndim != 2 or x.shape[1] != layer.weight.shape[0]:
        raise ValueError(f"dense input shape {x.shape} incompatible with n_in={layer.weight.shape[0]}")
    out = x @ layer.weight
    out += layer.bias
    return out


def dense_backward(
    x: np.ndarray, layer: DenseLayer, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (grad_x, grad_weight, grad_bias)."""
    if grad_out.shape != (want := (x.shape[0], layer.weight.shape[1])):
        raise ValueError(f"grad shape {grad_out.shape} incompatible with {want}")
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
    """Elementwise 1 / (1 + exp(-x)) in place, branch-stable for large |x|; returns ``x``."""
    step = x >= 0.0
    e = np.abs(x, out=x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    denom = e + 1.0
    # The numerator is 1 where x >= 0, else e; as e <= 1 that is max(e, step(x)).
    np.maximum(e, step, out=e)
    e /= denom
    return e


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax in place; subtracts the row max so large logits cannot overflow."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def softmax_rows_backward(softmax_out: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Backward through a row-wise softmax given its output; returns ``grad_out``, overwritten."""
    inner = (grad_out * softmax_out).sum(axis=-1, keepdims=True)
    grad_out -= inner
    grad_out *= softmax_out
    return grad_out


@dataclass
class BatchNormState:
    """Per-column scale/shift parameters plus running statistics.

    Running statistics follow ``running = BN_MOMENTUM * running + (1 -
    BN_MOMENTUM) * batch``, updated in place, and are only consulted in infer mode.
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
        for running, batch in ((state.running_mean, mean), (state.running_var, var)):
            running *= BN_MOMENTUM
            running += (1.0 - BN_MOMENTUM) * batch
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
    ``params``, which are perturbed in place and restored, also when it raises.
    Returns the max relative error over every scalar parameter.
    """
    worst = 0.0
    for name, p in params.items():
        analytic = np.asarray(analytic_grads[name], dtype=np.float64).reshape(-1)
        flat = p.reshape(-1)
        numeric = np.empty_like(analytic)
        for i in range(flat.size):
            orig = flat[i]
            try:
                flat[i] = orig + GRAD_CHECK_STEP
                loss_plus = loss_fn()
                flat[i] = orig - GRAD_CHECK_STEP
                loss_minus = loss_fn()
            finally:
                flat[i] = orig
            numeric[i] = (loss_plus - loss_minus) / (2.0 * GRAD_CHECK_STEP)
        worst = max(worst, relative_error(analytic, numeric))
    return worst
