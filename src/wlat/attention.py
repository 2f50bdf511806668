"""Per-class attention pooling of frame-level predictions.

Given embedded frames ``h`` (one row per frame), the head produces for each
frame both a per-class attention score and a per-class probability, then
averages the probabilities over time with the attention as weights:

    v = softmax over classes of att_dense(h)     per frame
    f = sigmoid of          cls_dense(h)         per frame
    w[t, k] = v[t, k] / sum_t' v[t', k]          normalize over time
    y[k]    = sum_t w[t, k] * f[t, k]

Each output y[k] is a convex combination of sigmoid outputs, so it stays in
[0, 1] and is invariant to frame order.  The functions below are batched
over clips; the two maps are ordinary dense layers applied to the frames of
every clip at once, as (n_clips * n_frames, width) rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import (
    DenseLayer, dense_backward, dense_forward, sigmoid, softmax_rows, softmax_rows_backward
)

# Substituted for a time-normalization denominator that is exactly zero
# (possible only when every frame's softmax mass for a class underflowed).
# Nonzero denominators are used as-is, so normal results are untouched and
# a single frame pools to w = 1 exactly.
NORM_EPSILON = 1e-12


@dataclass
class AttentionHead:
    """Two parallel dense maps from embedding width to class count."""

    att_dense: DenseLayer
    cls_dense: DenseLayer

    @property
    def n_classes(self) -> int:
        return self.att_dense.weight.shape[1]


def forward_batch(
    h: np.ndarray, head: AttentionHead
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pool a batch of embedded clips, shape (n_clips, n_frames, width).

    Returns (y, weights, frame_probs, denom) where y is (n_clips,
    n_classes), weights and frame_probs are (n_clips, n_frames, n_classes),
    and denom is the (n_clips, 1, n_classes) time-normalization term; the
    last three feed :func:`backward_batch`.  A training and an inference
    forward run the same code, on the calling thread.
    """
    if h.ndim != 3 or h.shape[1] < 1:
        raise ValueError(f"expected (n_clips, n_frames >= 1, width), got {h.shape}")
    rows = h.reshape(-1, h.shape[2])
    shape = (*h.shape[:2], head.n_classes)
    v = softmax_rows(dense_forward(rows, head.att_dense)).reshape(shape)
    frame_probs = sigmoid(dense_forward(rows, head.cls_dense)).reshape(shape)
    denom = v.sum(axis=1, keepdims=True)
    denom = np.where(denom > 0.0, denom, NORM_EPSILON)
    v /= denom  # v becomes the weights
    y = (v * frame_probs).sum(axis=1)
    return y, v, frame_probs, denom


def backward_batch(
    h: np.ndarray,
    head: AttentionHead,
    weights: np.ndarray,
    frame_probs: np.ndarray,
    denom: np.ndarray,
    grad_y: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Exact gradients through the pooling, normalization, sigmoid and softmax.

    ``weights``, ``frame_probs`` and ``denom`` are the cached forward
    results.  Returns (grad_h, att weight, att bias, cls weight, cls bias).
    """
    if grad_y.shape != (h.shape[0], head.n_classes):
        raise ValueError(f"grad shape {grad_y.shape} != {(h.shape[0], head.n_classes)}")
    # Each step runs in place on one of three (rows x classes) arrays made
    # here, in the order of the one-temporary-per-step expression beside it.
    gy = grad_y[:, None, :]
    grad_cls_logits = weights * gy  # weights * gy * frame_probs * (1.0 - frame_probs)
    grad_cls_logits *= frame_probs
    one_minus = 1.0 - frame_probs
    grad_cls_logits *= one_minus

    # w = v / denom with denom = sum_t v:
    # d y / d v[t] = (grad_w[t] - sum_t' grad_w[t'] * w[t']) / denom
    grad_v = np.multiply(frame_probs, gy, out=one_minus)  # grad_w, made grad_v in place
    product = grad_v * weights
    grad_v -= product.sum(axis=1, keepdims=True)
    grad_v /= denom
    # the softmax output v = weights * denom, made in the product's place
    grad_att_logits = softmax_rows_backward(np.multiply(weights, denom, out=product), grad_v)
    del one_minus, grad_v, product  # grad_att_logits is grad_v, overwritten

    rows = h.reshape(-1, h.shape[2])
    k = head.n_classes
    att_x, att_w, att_b = dense_backward(rows, head.att_dense, grad_att_logits.reshape(-1, k))
    del grad_att_logits
    cls_x, cls_w, cls_b = dense_backward(rows, head.cls_dense, grad_cls_logits.reshape(-1, k))
    att_x += cls_x
    grad_h = att_x.reshape(h.shape)
    return grad_h, att_w, att_b, cls_w, cls_b

