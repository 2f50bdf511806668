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

    @classmethod
    def init(cls, rng: np.random.Generator, n_in: int, n_classes: int) -> "AttentionHead":
        return cls(DenseLayer.init(rng, n_in, n_classes), DenseLayer.init(rng, n_in, n_classes))

    @property
    def n_classes(self) -> int:
        return self.att_dense.n_out


def forward_batch(
    h: np.ndarray, head: AttentionHead
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pool a batch of embedded clips, shape (n_clips, n_frames, width).

    Returns (y, weights, frame_probs, denom) where y is (n_clips,
    n_classes), weights and frame_probs are (n_clips, n_frames, n_classes),
    and denom is the (n_clips, 1, n_classes) time-normalization term; the
    last three feed :func:`backward_batch`.
    """
    if h.ndim != 3 or h.shape[1] < 1:
        raise ValueError(f"expected (n_clips, n_frames >= 1, width), got {h.shape}")
    rows = h.reshape(-1, h.shape[2])
    shape = (*h.shape[:2], head.n_classes)
    v = softmax_rows(dense_forward(rows, head.att_dense)).reshape(shape)
    frame_probs = sigmoid(dense_forward(rows, head.cls_dense)).reshape(shape)
    denom = v.sum(axis=1, keepdims=True)
    denom = np.where(denom > 0.0, denom, NORM_EPSILON)
    weights = v / denom
    y = (weights * frame_probs).sum(axis=1)
    return y, weights, frame_probs, denom


def backward_batch(
    h: np.ndarray,
    head: AttentionHead,
    weights: np.ndarray,
    frame_probs: np.ndarray,
    denom: np.ndarray,
    grad_y: np.ndarray,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Exact gradients through the pooling, normalization, sigmoid and softmax.

    ``weights``, ``frame_probs`` and ``denom`` are the cached forward
    results.  Returns (grad_h, head_grads) with head_grads keyed
    ``att.weight``, ``att.bias``, ``cls.weight``, ``cls.bias``.
    """
    if grad_y.shape != (h.shape[0], head.n_classes):
        raise ValueError(f"grad shape {grad_y.shape} != {(h.shape[0], head.n_classes)}")
    gy = grad_y[:, None, :]
    grad_probs = weights * gy
    grad_cls_logits = grad_probs * frame_probs * (1.0 - frame_probs)

    # w = v / denom with denom = sum_t v:
    # d y / d v[t] = (grad_w[t] - sum_t' grad_w[t'] * w[t']) / denom
    grad_w = frame_probs * gy
    grad_v = (grad_w - (grad_w * weights).sum(axis=1, keepdims=True)) / denom
    grad_att_logits = softmax_rows_backward(weights * denom, grad_v)

    rows = h.reshape(-1, h.shape[2])
    k = head.n_classes
    att_x, att_w, att_b = dense_backward(rows, head.att_dense, grad_att_logits.reshape(-1, k))
    cls_x, cls_w, cls_b = dense_backward(rows, head.cls_dense, grad_cls_logits.reshape(-1, k))
    grad_h = (att_x + cls_x).reshape(h.shape)
    return grad_h, {"att.weight": att_w, "att.bias": att_b, "cls.weight": cls_w, "cls.bias": cls_b}

