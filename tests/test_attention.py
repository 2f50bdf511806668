"""Attention pooling head: forward oracle, reductions, and gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlat import nn
from wlat.attention import backward_batch, forward_batch
from wlat.rng import gaussian, new_rng

from oracles import naive_attention, pool_clip, random_head


def pool_clip_backward(h, head, grad_y):
    """Gradients for one clip, as (grad_h, att weight, att bias, cls weight, cls bias);
    recomputes its forward pass."""
    _, weights, frame_probs, denom = forward_batch(h[None], head)
    grad_h, *grads = backward_batch(h[None], head, weights, frame_probs, denom, grad_y[None])
    return grad_h[0], *grads


@pytest.mark.parametrize("seed", range(10))
def test_forward_matches_scalar_oracle(seed):
    rng = new_rng(seed)
    head = random_head(rng, 6, 4)
    h = gaussian(rng, (10, 6))
    y, weights = pool_clip(h, head)
    expected_y, expected_w = naive_attention(h, head)
    assert np.max(np.abs(y - expected_y)) < 1e-12
    assert np.max(np.abs(weights - expected_w)) < 1e-12


def test_single_frame_reduces_to_classifier_exactly():
    rng = new_rng(42)
    head = random_head(rng, 5, 3)
    h = gaussian(rng, (1, 5))
    y, weights = pool_clip(h, head)
    direct = nn.sigmoid(h @ head.cls_dense.weight + head.cls_dense.bias)[0]
    assert np.array_equal(y, direct)
    assert np.array_equal(weights, np.ones((1, 3)))


def test_zero_attention_parameters_mean_pool():
    rng = new_rng(43)
    head = random_head(rng, 5, 3)
    head.att_dense.weight[:] = 0.0
    head.att_dense.bias[:] = 0.0
    h = gaussian(rng, (7, 5))
    y, _ = pool_clip(h, head)
    frame_probs = nn.sigmoid(h @ head.cls_dense.weight + head.cls_dense.bias)
    assert np.max(np.abs(y - frame_probs.mean(axis=0))) < 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_frames=st.integers(1, 8))
def test_output_in_unit_interval_and_columns_normalized(seed, n_frames):
    rng = new_rng(seed)
    head = random_head(rng, 4, 3)
    h = 5.0 * gaussian(rng, (n_frames, 4))
    y, weights = pool_clip(h, head)
    assert ((y >= 0.0) & (y <= 1.0)).all()
    assert (weights >= 0.0).all()
    assert np.max(np.abs(weights.sum(axis=0) - 1.0)) < 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_frame_permutation_invariance(seed):
    rng = new_rng(seed + 10)
    head = random_head(rng, 5, 4)
    h = gaussian(rng, (9, 5))
    perm = new_rng(seed).permutation(9)
    base_y, base_w = pool_clip(h, head)
    permuted_y, permuted_w = pool_clip(h[perm], head)
    assert np.max(np.abs(base_y - permuted_y)) < 1e-12
    assert np.max(np.abs(permuted_w - base_w[perm])) < 1e-12


def test_batched_forward_equals_per_clip():
    rng = new_rng(77)
    head = random_head(rng, 5, 3)
    h = gaussian(rng, (4, 6, 5))
    y, weights, frame_probs, _ = forward_batch(h, head)
    for i in range(4):
        clip_y, clip_w = pool_clip(h[i], head)
        assert np.array_equal(y[i], clip_y)
        assert np.array_equal(weights[i], clip_w)


def test_forward_rejects_empty_frames():
    head = random_head(new_rng(0), 4, 2)
    with pytest.raises(ValueError):
        forward_batch(np.zeros((1, 0, 4)), head)
    with pytest.raises(ValueError):
        forward_batch(np.zeros((1, 3, 5)), head)


@pytest.mark.parametrize("grad_shape", [(2, 4), (3, 3), (2, 1, 3)])
def test_backward_refuses_a_grad_of_another_shape(grad_shape):
    rng = new_rng(1)
    head = random_head(rng, 5, 3)
    h = gaussian(rng, (2, 6, 5))
    _, weights, frame_probs, denom = forward_batch(h, head)
    with pytest.raises(ValueError) as err:
        backward_batch(h, head, weights, frame_probs, denom, np.zeros(grad_shape))
    assert str(err.value) == f"grad shape {grad_shape} != (2, 3)"


def test_backward_zero_grad_gives_zero():
    rng = new_rng(1)
    head = random_head(rng, 5, 3)
    h = gaussian(rng, (6, 5))
    grads = pool_clip_backward(h, head, np.zeros(3))
    assert all(not g.any() for g in grads)


def test_single_frame_gradient_skips_attention_path():
    rng = new_rng(2)
    head = random_head(rng, 5, 3)
    h = gaussian(rng, (1, 5))
    grad_y = gaussian(rng, 3)
    _, att_weight, att_bias, cls_weight, _ = pool_clip_backward(h, head, grad_y)
    assert np.max(np.abs(att_weight)) < 1e-15
    assert np.max(np.abs(att_bias)) < 1e-15
    assert cls_weight.any()


@pytest.mark.parametrize("seed", range(10))
def test_backward_finite_differences(seed):
    rng = new_rng(seed + 200)
    head = random_head(rng, 4, 3)
    h = gaussian(rng, (5, 4))
    direction = gaussian(rng, 3)

    def loss():
        return float(pool_clip(h, head)[0] @ direction)

    params = (h, head.att_dense.weight, head.att_dense.bias, head.cls_dense.weight,
              head.cls_dense.bias)
    analytic = pool_clip_backward(h, head, direction)
    assert nn.grad_check(loss, dict(enumerate(params)), dict(enumerate(analytic))) < 1e-5


def test_batched_backward_matches_per_clip():
    rng = new_rng(3)
    head = random_head(rng, 4, 3)
    h = gaussian(rng, (3, 5, 4))
    grad_y = gaussian(rng, (3, 3))
    y, weights, frame_probs, denom = forward_batch(h, head)
    grad_h, *grads = backward_batch(h, head, weights, frame_probs, denom, grad_y)
    summed = [np.zeros_like(g) for g in grads]
    for i in range(3):
        clip_grad_h, *clip_grads = pool_clip_backward(h[i], head, grad_y[i])
        assert np.allclose(grad_h[i], clip_grad_h, atol=1e-12)
        for total, g in zip(summed, clip_grads):
            total += g
    for g, total in zip(grads, summed):
        assert np.allclose(g, total, atol=1e-12)
