"""Kernels against their plain-expression oracles, bit for bit.

The kernels compute in place.  Each oracle below is the same expression
written with one temporary per step; every kernel must match it bitwise and
leave untouched its inputs, the layer state and the cached activations it
reads (a backward kernel may overwrite only its ``grad_out``; ``sigmoid`` and
``softmax_rows`` return the array they are given, overwritten), on random
inputs and on extreme ones (+-800, signed zeros, subnormals, ties; for the
sigmoid also NaN and infinities).  The one exception is ``relu_backward``:
a multiply by the step gives a zero with the sign of the gradient where the
oracle gives +0.0, so it is compared with ``np.array_equal``.
"""

import numpy as np
import pytest

from wlat import nn
from wlat.attention import NORM_EPSILON, AttentionHead, backward_batch, forward_batch
from wlat.rng import gaussian, new_rng
from wlat.train import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, AdamState, adam_step


def oracle_dense(x, layer):
    return x @ layer.weight + layer.bias


def oracle_sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def oracle_softmax_rows(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def oracle_batchnorm(x, state, mode):
    """(output, running_mean, running_var) with running statistics updated in train mode."""
    running_mean, running_var = state.running_mean, state.running_var
    if mode == nn.TRAIN:
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        running_mean = nn.BN_MOMENTUM * running_mean + (1.0 - nn.BN_MOMENTUM) * mean
        running_var = nn.BN_MOMENTUM * running_var + (1.0 - nn.BN_MOMENTUM) * var
    else:
        mean, var = running_mean, running_var
    x_hat = (x - mean) / np.sqrt(var + nn.BN_EPSILON)
    return state.gamma * x_hat + state.beta, running_mean, running_var


def oracle_batchnorm_backward(x, state, grad_out):
    """(grad_x, grad_gamma, grad_beta), recomputing the batch statistics from x."""
    n = x.shape[0]
    mean = x.mean(axis=0)
    var = x.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + nn.BN_EPSILON)
    x_hat = (x - mean) * inv_std
    grad_beta = grad_out.sum(axis=0)
    grad_gamma = (grad_out * x_hat).sum(axis=0)
    g = grad_out * state.gamma
    grad_x = inv_std * (g - g.sum(axis=0) / n - x_hat * (g * x_hat).sum(axis=0) / n)
    return grad_x, grad_gamma, grad_beta


def oracle_relu_backward(x, grad_out):
    return np.where(x > 0.0, grad_out, 0.0)


def oracle_dropout_mask(rng, shape, rate):
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


def oracle_adam_step(params, grads, m, v, t, lr):
    """One step on the given dicts, in the order of the original expressions."""
    for name in params:
        grad = grads[name]
        m[name] = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * grad
        v[name] = ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m[name] / (1.0 - ADAM_BETA1**t)
        v_hat = v[name] / (1.0 - ADAM_BETA2**t)
        params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


def oracle_softmax_rows_backward(softmax_out, grad_out):
    inner = (grad_out * softmax_out).sum(axis=-1, keepdims=True)
    return softmax_out * (grad_out - inner)


def oracle_dense_backward(x, layer, grad_out):
    return grad_out @ layer.weight.T, x.T @ grad_out, grad_out.sum(axis=0)


def oracle_backward_batch(h, head, weights, frame_probs, denom, grad_y):
    gy = grad_y[:, None, :]
    grad_probs = weights * gy
    grad_cls_logits = grad_probs * frame_probs * (1.0 - frame_probs)
    grad_w = frame_probs * gy
    grad_v = (grad_w - (grad_w * weights).sum(axis=1, keepdims=True)) / denom
    grad_att_logits = oracle_softmax_rows_backward(weights * denom, grad_v)
    rows = h.reshape(-1, h.shape[2])
    k = head.n_classes
    att_x, att_w, att_b = oracle_dense_backward(rows, head.att_dense, grad_att_logits.reshape(-1, k))
    cls_x, cls_w, cls_b = oracle_dense_backward(rows, head.cls_dense, grad_cls_logits.reshape(-1, k))
    grad_h = (att_x + cls_x).reshape(h.shape)
    return grad_h, att_w, att_b, cls_w, cls_b


def oracle_forward_batch(h, head):
    rows = h.reshape(-1, h.shape[2])
    shape = (*h.shape[:2], head.n_classes)
    v = oracle_softmax_rows(oracle_dense(rows, head.att_dense)).reshape(shape)
    frame_probs = oracle_sigmoid(oracle_dense(rows, head.cls_dense)).reshape(shape)
    denom = v.sum(axis=1, keepdims=True)
    denom = np.where(denom > 0.0, denom, NORM_EPSILON)
    weights = v / denom
    y = (weights * frame_probs).sum(axis=1)
    return y, weights, frame_probs, denom


def extreme_rows(width):
    """Rows mixing +-800, signed zeros and subnormals, plus constant and tied rows."""
    values = np.array([800.0, -800.0, 0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0])
    rows = [np.resize(np.roll(values, i), width) for i in range(values.size)]
    rows += [np.full(width, value) for value in (800.0, -800.0, 0.0, -0.0, 5e-324)]
    rows += [rows[0], rows[3]]  # rows tied with earlier ones
    return np.array(rows)


def random_rows(seed, width):
    return 3.0 * gaussian(new_rng(seed), (30, width))


INPUTS = {
    "random0": lambda width: random_rows(0, width),
    "random1": lambda width: random_rows(1, width),
    "extreme": extreme_rows,
}


def assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def snapshot(*arrays):
    return [a.tobytes() for a in arrays]


def random_bn_state(width):
    rng = new_rng(4)
    return nn.BatchNormState(
        gaussian(rng, width), gaussian(rng, width), gaussian(rng, width), 0.5 + rng.random(width)
    )


@pytest.mark.parametrize("kind", INPUTS)
def test_dense_forward_matches_oracle(kind):
    x = INPUTS[kind](7)
    layer = nn.DenseLayer(gaussian(new_rng(2), (7, 5)), gaussian(new_rng(3), 5))
    before = snapshot(x, layer.weight, layer.bias)
    assert_bitwise(nn.dense_forward(x, layer), oracle_dense(x, layer))
    assert snapshot(x, layer.weight, layer.bias) == before


@pytest.mark.parametrize("kind", INPUTS)
def test_sigmoid_matches_oracle(kind):
    non_finite = np.resize([np.nan, -np.nan, np.inf, -np.inf], (1, 9))
    x = np.vstack([INPUTS[kind](9), non_finite])
    expected = oracle_sigmoid(x.copy())
    out = nn.sigmoid(x)
    assert_bitwise(out, expected)
    assert np.shares_memory(out, x)


@pytest.mark.parametrize("kind", INPUTS)
def test_softmax_rows_matches_oracle(kind):
    x = INPUTS[kind](9)
    expected = oracle_softmax_rows(x.copy())
    out = nn.softmax_rows(x)
    assert_bitwise(out, expected)
    assert np.shares_memory(out, x)


@pytest.mark.parametrize("mode", [nn.TRAIN, nn.INFER])
@pytest.mark.parametrize("kind", INPUTS)
def test_batchnorm_forward_matches_oracle(kind, mode):
    x = INPUTS[kind](9)
    state = random_bn_state(9)
    expected, running_mean, running_var = oracle_batchnorm(x, state, mode)
    if mode == nn.TRAIN:
        expected_mean, expected_var = x.mean(axis=0), x.var(axis=0)
    else:
        expected_mean, expected_var = state.running_mean.copy(), state.running_var.copy()
    running = (state.running_mean, state.running_var)
    # train mode updates the running statistics in place: they are outputs, checked below
    inputs = (x, state.gamma, state.beta) + (running if mode == nn.INFER else ())
    before = snapshot(*inputs)
    out, mean, var = nn.batchnorm_forward(x, state, mode)
    assert_bitwise(out, expected)
    assert_bitwise(mean, expected_mean)
    assert_bitwise(var, expected_var)
    assert_bitwise(state.running_mean, running_mean)
    assert_bitwise(state.running_var, running_var)
    assert state.running_mean is running[0] and state.running_var is running[1]
    assert snapshot(*inputs) == before


@pytest.mark.parametrize("kind", INPUTS)
def test_attention_forward_batch_matches_oracle(kind):
    rows = INPUTS[kind](6)
    h = rows[: rows.shape[0] // 3 * 3].reshape(-1, 3, 6)
    rng = new_rng(5)
    head = AttentionHead(
        nn.DenseLayer(gaussian(rng, (6, 4)), gaussian(rng, 4)),
        nn.DenseLayer(gaussian(rng, (6, 4)), gaussian(rng, 4)),
    )
    params = (head.att_dense.weight, head.att_dense.bias, head.cls_dense.weight, head.cls_dense.bias)
    before = snapshot(h, *params)
    for actual, expected in zip(forward_batch(h, head), oracle_forward_batch(h, head)):
        assert_bitwise(actual, expected)
    assert snapshot(h, *params) == before


def gradient_like(kind, shape, seed):
    """A gradient for the backward kernels: random, or the extreme values reordered."""
    if kind == "extreme":
        return np.resize(extreme_rows(shape[1])[::-1], shape).copy()
    return gaussian(new_rng(seed), shape)


@pytest.mark.parametrize("kind", INPUTS)
def test_batchnorm_backward_matches_oracle(kind):
    x = INPUTS[kind](9)
    state = random_bn_state(9)
    mean, var = x.mean(axis=0), x.var(axis=0)
    grad_out = gradient_like(kind, x.shape, 6)
    expected = oracle_batchnorm_backward(x, state, grad_out)
    cached = (x, mean, var, state.gamma, state.beta, state.running_mean, state.running_var)
    before = snapshot(*cached)
    actual = nn.batchnorm_backward(x, mean, var, state, grad_out)
    for a, e in zip(actual, expected):
        assert_bitwise(a, e)
    assert snapshot(*cached) == before


@pytest.mark.parametrize("kind", INPUTS)
def test_relu_backward_matches_oracle_up_to_zero_sign(kind):
    x = INPUTS[kind](9)
    grad_out = gradient_like(kind, x.shape, 7)
    expected = oracle_relu_backward(x, grad_out)
    before = snapshot(x)
    actual = nn.relu_backward(x, grad_out)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)
    assert snapshot(x) == before


@pytest.mark.parametrize("kind", INPUTS)
def test_softmax_rows_backward_matches_oracle(kind):
    softmax_out = INPUTS[kind](9)
    grad_out = gradient_like(kind, softmax_out.shape, 8)
    expected = oracle_softmax_rows_backward(softmax_out, grad_out.copy())
    before = snapshot(softmax_out)
    actual = nn.softmax_rows_backward(softmax_out, grad_out)
    assert_bitwise(actual, expected)
    assert actual is grad_out
    assert snapshot(softmax_out) == before


@pytest.mark.parametrize("rate", [0.0, 0.25, 0.4, 0.9])
def test_dropout_mask_matches_oracle_with_the_same_draws(rate):
    rng, oracle_rng = new_rng(8), new_rng(8)
    assert_bitwise(nn.dropout_mask(rng, (30, 9), rate), oracle_dropout_mask(oracle_rng, (30, 9), rate))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("kind", INPUTS)
def test_adam_step_matches_oracle_over_fifty_steps(kind):
    params = {"w": INPUTS[kind](9), "b": np.array([0.0, -0.0, 5e-324, 1.0])}
    state = AdamState.init(params, lr=0.003)
    oracle_params = {name: p.copy() for name, p in params.items()}
    oracle_m = {name: np.zeros_like(p) for name, p in params.items()}
    oracle_v = {name: np.zeros_like(p) for name, p in params.items()}
    for step in range(1, 51):
        grads = {
            "w": gradient_like(kind, params["w"].shape, 100 + step) * 10.0 ** (step % 7 - 3),
            "b": np.array([0.0, -0.0, -5e-324, 1e100]) * (-1.0) ** step,
        }
        before = snapshot(*grads.values())
        adam_step(params, grads, state)
        oracle_adam_step(oracle_params, grads, oracle_m, oracle_v, step, 0.003)
        assert snapshot(*grads.values()) == before
        for name in params:
            assert_bitwise(params[name], oracle_params[name])
            assert_bitwise(state.m[name], oracle_m[name])
            assert_bitwise(state.v[name], oracle_v[name])
    assert state.t == 50


@pytest.mark.parametrize("kind", INPUTS)
def test_attention_backward_batch_matches_oracle(kind):
    rows = INPUTS[kind](6)
    h = rows[: rows.shape[0] // 3 * 3].reshape(-1, 3, 6)
    rng = new_rng(5)
    head = AttentionHead(
        nn.DenseLayer(gaussian(rng, (6, 4)), gaussian(rng, 4)),
        nn.DenseLayer(gaussian(rng, (6, 4)), gaussian(rng, 4)),
    )
    _, weights, frame_probs, denom = forward_batch(h, head)
    grad_y = gradient_like(kind, (h.shape[0], 4), 9)
    params = (head.att_dense.weight, head.att_dense.bias, head.cls_dense.weight, head.cls_dense.bias)
    cached = (h, weights, frame_probs, denom, grad_y, *params)
    before = snapshot(*cached)
    grads = backward_batch(h, head, weights, frame_probs, denom, grad_y)
    expected = oracle_backward_batch(h, head, weights, frame_probs, denom, grad_y)
    assert len(grads) == len(expected) == 5
    for grad, oracle in zip(grads, expected):
        assert_bitwise(grad, oracle)
    assert snapshot(*cached) == before
