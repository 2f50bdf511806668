"""Reference implementations and shared constructors, one copy for every test module.

The oracles re-derive each definition with scalar Python loops and share no
code with the kernels they check; ``random_head`` and ``pool_clip`` build and
call the real attention head.
"""

import io
import itertools
import math
import struct

import numpy as np

from wlat import nn
from wlat.attention import AttentionHead, forward_batch
from wlat.model import save_weights
from wlat.rng import gaussian

# Published (AUC, d-prime) operating points; the AUCs are rounded to four
# decimals, which dominates the ±0.01 reproduction tolerance.
AUC_DPRIME_PAIRS = [
    (0.9590, 2.452),
    (0.9650, 2.558),
    (0.9693, 2.645),
    (0.9700, 2.660),
    (0.9668, 2.596),
    (0.9695, 2.650),
    (0.9690, 2.639),
    (0.9571, 2.430),
    (0.9687, 2.633),
    (0.9676, 2.612),
    (0.9388, 2.185),
]


def random_head(rng, width, n_classes):
    """A head with Glorot weights and Gaussian biases, drawn in that order."""
    att_weight = nn.glorot_uniform(rng, np.empty((width, n_classes)))
    cls_weight = nn.glorot_uniform(rng, np.empty((width, n_classes)))
    return AttentionHead(nn.DenseLayer(att_weight, gaussian(rng, n_classes)),
                         nn.DenseLayer(cls_weight, gaussian(rng, n_classes)))


def checkpoint_with(model, name, index, value):
    """``model``'s checkpoint bytes with element ``index`` of array ``name`` set to ``value``
    in the bytes, so it may be one ``save_weights`` refuses to write.  By the documented
    layout: a header of ``4 * (n_levels + 6)`` bytes, then each array as float64, in
    ``model.arrays`` order."""
    buffer = io.BytesIO()
    save_weights(model, buffer)
    blob = bytearray(buffer.getvalue())
    offset = 4 * (model.spec.n_levels + 6)
    for key, arr in model.arrays.items():
        if key == name:
            struct.pack_into("<d", blob, offset + 8 * index, value)
            return bytes(blob)
        offset += 8 * arr.size
    raise KeyError(name)


def pool_clip(h, head):
    """Pool one clip (n_frames, width) as a batch of one: (y, weights)."""
    y, weights, _, _ = forward_batch(h[None], head)
    return y[0], weights[0]


def naive_attention(h, head):
    """Scalar-loop re-implementation of the pooling definition: (y, weights)."""
    n_frames, width = h.shape
    n_classes = head.n_classes
    v = np.zeros((n_frames, n_classes))
    f = np.zeros((n_frames, n_classes))
    for t in range(n_frames):
        att = [
            sum(h[t, i] * head.att_dense.weight[i, k] for i in range(width))
            + head.att_dense.bias[k]
            for k in range(n_classes)
        ]
        cls = [
            sum(h[t, i] * head.cls_dense.weight[i, k] for i in range(width))
            + head.cls_dense.bias[k]
            for k in range(n_classes)
        ]
        top = max(att)
        exp_att = [math.exp(a - top) for a in att]
        total = sum(exp_att)
        for k in range(n_classes):
            v[t, k] = exp_att[k] / total
            f[t, k] = 1.0 / (1.0 + math.exp(-cls[k]))
    y = np.zeros(n_classes)
    weights = np.zeros((n_frames, n_classes))
    for k in range(n_classes):
        denom = sum(v[t, k] for t in range(n_frames))
        for t in range(n_frames):
            weights[t, k] = v[t, k] / denom
            y[k] += weights[t, k] * f[t, k]
    return y, weights


def oracle_average_precision(scores, positive_mask):
    """Walk the stable descending order and average precision at each hit."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    precisions = []
    for rank, i in enumerate(order, start=1):
        if positive_mask[i]:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / hits


def oracle_auc(scores, positive_mask):
    """Count concordant positive/negative pairs, half credit for ties."""
    positives = [s for s, p in zip(scores, positive_mask) if p]
    negatives = [s for s, p in zip(scores, positive_mask) if not p]
    total = 0.0
    for p, n in itertools.product(positives, negatives):
        if p > n:
            total += 1.0
        elif p == n:
            total += 0.5
    return total / (len(positives) * len(negatives))
