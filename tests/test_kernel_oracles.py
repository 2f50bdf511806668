"""Forward kernels against their plain-expression oracles, bit for bit.

The kernels compute in place on arrays they allocate themselves.  Each
oracle below is the same expression written with one temporary per step;
every kernel must match it bitwise and leave its inputs untouched, on
random inputs and on extreme ones (+-800, signed zeros, subnormals, ties;
for the sigmoid also NaN and infinities).
"""

import numpy as np
import pytest

from wlat import nn
from wlat.attention import NORM_EPSILON, AttentionHead, forward_batch
from wlat.rng import gaussian, new_rng


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
    before = snapshot(x)
    assert_bitwise(nn.sigmoid(x), oracle_sigmoid(x))
    assert snapshot(x) == before


@pytest.mark.parametrize("kind", INPUTS)
def test_softmax_rows_matches_oracle(kind):
    x = INPUTS[kind](9)
    before = snapshot(x)
    assert_bitwise(nn.softmax_rows(x), oracle_softmax_rows(x))
    assert snapshot(x) == before


@pytest.mark.parametrize("mode", [nn.TRAIN, nn.INFER])
@pytest.mark.parametrize("kind", INPUTS)
def test_batchnorm_forward_matches_oracle(kind, mode):
    x = INPUTS[kind](9)
    rng = new_rng(4)
    state = nn.BatchNormState(
        gaussian(rng, 9), gaussian(rng, 9), gaussian(rng, 9), 0.5 + rng.random(9)
    )
    expected, running_mean, running_var = oracle_batchnorm(x, state, mode)
    inputs = (x, state.gamma, state.beta, state.running_mean, state.running_var)
    before = snapshot(*inputs)
    assert_bitwise(nn.batchnorm_forward(x, state, mode), expected)
    assert_bitwise(state.running_mean, running_mean)
    assert_bitwise(state.running_var, running_var)
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
