"""Single- and multi-level attention models assembled from an architecture string.

An architecture string like ``"2-A-1-A"`` lists embedding blocks: two dense
layers, an attention head, one more dense layer, another attention head.
Every dense layer is width ``hidden_units`` and is followed by batch norm
and ReLU (and, in a training forward, dropout at the caller's rate).  Each
head pools its block's output into a per-class probability vector; the
level vectors are concatenated and a final dense+sigmoid layer maps the
concatenation to the clip probabilities.  A model holds exactly what its
weight file stores, so a loaded checkpoint is the whole model.

Weight file format (all little-endian): magic ``WLAM``, version u32,
n_blocks u32, block depths (u32 each), hidden_units u32, n_classes u32,
input_dim u32, then the model's ``state`` verbatim: one buffer of finite
``<f8`` values that holds every array in the order in which :func:`_assemble`
carves and names them.  The header alone determines the architecture and
every array shape.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import BinaryIO, Callable

import numpy as np

from . import nn
from .attention import AttentionHead, backward_batch, forward_batch
from .nn import INFER, TRAIN, BatchNormState, DenseLayer, dropout_mask
from .rng import new_rng

WEIGHTS_MAGIC = b"WLAM"
WEIGHTS_VERSION = 1

# Frame rows (clips x frames) per chunk of :func:`predict_scores`, which has
# two chunks in flight, one per thread.  At paper width the two chunks'
# widest activations (2 x 360 x 600 floats) stay near the CPU cache; 10000-row
# chunks spent more time in elementwise passes and page faults than in their
# GEMMs.  Smaller chunks lower the traced peak on 1000 paper-shape clips (19.2
# MB at 400 rows, 17.7 at 360, 13.2 at 240), but at synth-train shape a chunk
# is mostly per-call cost: 360 rows took 1.04x the time of 400 (quartiles
# 0.97-1.10), 320 1.10x and 240 1.33x.  Chunked scores equal one forward over
# all clips bitwise only at toy widths: at paper shape BLAS rounds the tail
# rows of a GEMM differently, and 0.16-0.25% of scores differ, by at most
# 5.6e-16 (0.24% by at most 3.3e-16 between 360- and 400-row chunks).
INFER_CHUNK_ROWS = 360

# The architecture grammar: dense-layer counts separated by attention taps.
PRESET_ARCHS = (
    "1-A-1-A-1-A",
    "2-A-1-A",
    "2-A-2-A-2-A",
    "3-A",
    "3-A-3-A",
    "3-A-3-A-3-A",
    "5-A-4-A",
    "6-A",
    "9-A",
)


class WeightFormatError(ValueError):
    """Raised for malformed weight bytes or a spec/file mismatch."""


@dataclass(frozen=True)
class ArchSpec:
    block_depths: tuple[int, ...]
    hidden_units: int
    n_classes: int

    def __post_init__(self) -> None:
        if len(self.block_depths) < 1 or any(d < 1 for d in self.block_depths):
            raise ValueError(f"block depths must be positive, got {self.block_depths}")
        if self.hidden_units < 1 or self.n_classes < 1:
            raise ValueError("hidden_units and n_classes must be >= 1")

    @property
    def n_levels(self) -> int:
        return len(self.block_depths)


def parse_arch(text: str, hidden_units: int, n_classes: int) -> ArchSpec:
    """Parse ``"<depth>-A-<depth>-A-..."`` into an :class:`ArchSpec`.

    Raises ValueError naming the character position of the first bad token.
    """
    tokens = text.split("-")
    if len(tokens) % 2 != 0:
        raise ValueError(f"arch {text!r}: expected '<int>-A' pairs, got an odd token")
    depths = []
    pos = 0
    for i, token in enumerate(tokens):
        if i % 2 == 0:
            if not (token.isascii() and token.isdigit()):
                raise ValueError(f"arch {text!r}: expected integer at position {pos}, got {token!r}")
            depth = int(token)
            if depth < 1:
                raise ValueError(f"arch {text!r}: depth must be positive at position {pos}")
            depths.append(depth)
        elif token != "A":
            raise ValueError(f"arch {text!r}: expected 'A' at position {pos}, got {token!r}")
        pos += len(token) + 1
    return ArchSpec(tuple(depths), hidden_units, n_classes)


@dataclass
class MultiLevelModel:
    spec: ArchSpec
    input_dim: int
    blocks: list[list[tuple[DenseLayer, BatchNormState]]]  # per block, per hidden layer
    heads: list[AttentionHead]
    out: DenseLayer  # (n_classes * n_levels) -> n_classes
    arrays: dict[str, np.ndarray]  # each array above by checkpoint name, in file order
    state: np.ndarray  # (_state_size,) <f8: every array above is a view of it, in file order

    def trainable_params(self) -> dict[str, np.ndarray]:
        """The state minus batch-norm running statistics, in the same order."""
        return {name: arr for name, arr in self.arrays.items() if ".running_" not in name}

    def copy_state(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.arrays.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Copy ``state`` into the model's arrays; names and shapes are checked before any write."""
        if self.arrays.keys() != state.keys():
            raise ValueError("state dict does not match model structure")
        for name, arr in self.arrays.items():
            if (got := np.shape(state[name])) != arr.shape:
                raise ValueError(f"state {name} has shape {got}, the model {arr.shape}")
        for name, arr in self.arrays.items():
            arr[...] = state[name]


def _assemble(spec: ArchSpec, input_dim: int) -> MultiLevelModel:
    """The model's structure over one zeroed ``state`` buffer, batch-norm ``gamma`` and
    ``running_var`` set to 1.  Each array is the next view of ``state``, named as it is
    carved: blocks, then heads (att, then cls), then ``out``."""
    if input_dim < 1:
        raise ValueError(f"input_dim must be >= 1, got {input_dim}")
    h, k = spec.hidden_units, spec.n_classes
    state = np.zeros(_state_size(spec, input_dim), dtype="<f8")
    arrays: dict[str, np.ndarray] = {}
    used = 0  # floats of ``state`` carved so far

    def carve(part, prefix: str, *shapes: tuple[int, ...]):
        """A ``part`` whose array fields, given ``shapes``, are the next views of
        ``state``, each recorded as ``<prefix>.<field>``."""
        nonlocal used
        views = []
        for f, shape in zip(fields(part), shapes, strict=True):
            views.append(state[used : used + math.prod(shape)].reshape(shape))
            arrays[f"{prefix}.{f.name}"] = views[-1]
            used += views[-1].size
        return part(*views)

    def dense(prefix: str, n_in: int, n_out: int) -> DenseLayer:
        return carve(DenseLayer, prefix, (n_in, n_out), (n_out,))

    def batchnorm(prefix: str) -> BatchNormState:
        bn = carve(BatchNormState, prefix, (h,), (h,), (h,), (h,))
        bn.gamma[...] = bn.running_var[...] = 1.0
        return bn

    blocks = [
        [(dense(f"block{b}.layer{j}", input_dim if (b, j) == (0, 0) else h, h),
          batchnorm(f"block{b}.layer{j}"))
         for j in range(depth)]
        for b, depth in enumerate(spec.block_depths)
    ]
    heads = [AttentionHead(dense(f"head{l}.att", h, k), dense(f"head{l}.cls", h, k))
             for l in range(spec.n_levels)]
    out = dense("out", k * spec.n_levels, k)
    return MultiLevelModel(spec, input_dim, blocks, heads, out, arrays, state)


def build_model(spec: ArchSpec, input_dim: int, init_seed: int) -> MultiLevelModel:
    """Deterministically initialize a model: Glorot-uniform weights, zero biases.

    Each ``*.weight`` array of :meth:`MultiLevelModel.trainable_params` is
    drawn in place, in that order, from one PCG64 stream seeded by ``init_seed``.
    """
    model = _assemble(spec, input_dim)
    rng = new_rng(init_seed)
    for name, arr in model.trainable_params().items():
        if name.endswith(".weight"):
            nn.glorot_uniform(rng, arr)
    return model


def _check_features(model: MultiLevelModel, features: np.ndarray) -> None:
    if features.ndim != 3 or features.shape[2] != model.input_dim:
        raise ValueError(
            f"features shape {features.shape} incompatible with input_dim={model.input_dim}"
        )
    if features.shape[0] < 1 or features.shape[1] < 1:
        raise ValueError(f"features shape {features.shape} holds no clip or no frame")


@dataclass(frozen=True)
class ForwardPass:
    """One forward pass over a batch of clips.

    A train-mode pass also retains what :func:`backward` needs: ``u``,
    ``levels`` and ``dropout``, but no dropout mask.  :func:`backward` consumes
    it, popping each level as its walk reaches it, so a walked pass keeps only
    ``z`` and ``u``.  An infer-mode pass keeps only ``z``: each activation and
    each level's attention weights are freed once used.
    """

    z: np.ndarray  # (n_clips, n_classes), final probabilities
    u: np.ndarray | None  # (n_clips, n_classes * n_levels), concatenated level outputs
    # per level: (layers, block output (n_clips, n_frames, width), weights,
    # frame_probs, denom); layers holds, per layer, (dense input, dense output,
    # batch mean, batch var, layer output), where the layer output is the
    # batch-norm output after ReLU and dropout, both in place
    levels: list[tuple[list[tuple[np.ndarray, ...]], np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    dropout: float  # the rate applied: the caller's in a train-mode pass with dropout, else 0.0


def forward_cached(
    model: MultiLevelModel,
    features: np.ndarray,
    mode: str,
    rng: np.random.Generator | None = None,
    dropout: float = 0.0,
) -> ForwardPass:
    """Run clips of shape (n_clips, n_frames, input_dim) through the model.

    Train mode normalizes with batch statistics (over all frames of all
    clips), zeroes units at rate ``dropout`` with masks from ``rng``, and
    updates running statistics; infer mode uses running statistics and no
    dropout, though a rate outside [0, 1) raises ValueError in either mode.
    Features of any dtype (float32 as read or generated) are widened to
    float64 once per call, so a batch or chunk is the most ever held at
    float64, and every kernel computes in float64 on the calling thread.
    """
    _check_features(model, features)
    if not 0.0 <= dropout < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {dropout}")
    use_dropout = mode == TRAIN and dropout > 0.0
    if use_dropout and rng is None:
        raise ValueError("train-mode forward with dropout needs an rng for the masks")

    retain = mode == TRAIN
    n_clips, n_frames, _ = features.shape
    x = features.reshape(n_clips * n_frames, model.input_dim).astype(np.float64, copy=False)

    levels = []
    level_y = []
    for block, head in zip(model.blocks, model.heads):
        layers = []
        for dense, bn in block:
            # Only x carries an activation from one step to the next, so in
            # infer mode each layer's input and dense output are freed as
            # soon as they are used.
            dense_in = x if retain else None
            x = nn.dense_forward(x, dense)
            dense_out = x if retain else None
            x, mean, var = nn.batchnorm_forward(x, bn, mode)
            nn.relu(x)
            if use_dropout:
                x *= dropout_mask(rng, x.shape, dropout)
            if retain:
                layers.append((dense_in, dense_out, mean, var, x))

        h = x.reshape(n_clips, n_frames, -1)
        y, weights, frame_probs, denom = forward_batch(h, head)
        if retain:
            levels.append((layers, h, weights, frame_probs, denom))
        level_y.append(y)
        del h, weights, frame_probs, denom  # in infer mode, nothing else holds them

    u = np.concatenate(level_y, axis=1)
    z = nn.sigmoid(nn.dense_forward(u, model.out))
    return ForwardPass(z, u if retain else None, levels, dropout if use_dropout else 0.0)


def backward(
    model: MultiLevelModel, fwd: ForwardPass, grad_z: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of every trainable parameter, keyed like ``trainable_params``.

    Requires a matching train-mode forward pass (its activations and dropout
    rate are reused, batch-norm gradients assume batch statistics) and
    consumes it, so afterwards ``fwd`` holds only ``z`` and ``u``.  A pass
    missing a level, walked or left partial by a backward that raised, raises ValueError.
    """
    if fwd.u is None:
        raise ValueError("backward requires a train-mode forward pass")
    if grad_z.shape != fwd.z.shape:
        raise ValueError(f"grad_z shape {grad_z.shape} != {fwd.z.shape}")
    if len(fwd.levels) != model.spec.n_levels:
        raise ValueError(f"forward pass holds {len(fwd.levels)} of {model.spec.n_levels} levels: "
                         "a backward has consumed its cache")

    grad_pre = grad_z * fwd.z * (1.0 - fwd.z)
    grad_u, *out_grads = nn.dense_backward(fwd.u, model.out, grad_pre)

    # Levels feed only the concatenation, so walk blocks from deepest to
    # shallowest, merging each head's gradient with the one flowing down
    # from the block above.  Prepending each gradient as it is computed
    # leaves the block and head lists in ``trainable_params`` order.  Levels and
    # layer records are popped as the walk reaches them and each name is dropped
    # once used, so nothing holds an activation the walk is done with.
    block_grads: list[np.ndarray] = []
    head_grads: list[np.ndarray] = []
    grad_x: np.ndarray | None = None  # the gradient flowing down from the block above
    for block, head, grad_y in zip(
        reversed(model.blocks), reversed(model.heads),
        reversed(np.hsplit(grad_u, model.spec.n_levels)),
    ):
        layers, h, weights, frame_probs, denom = fwd.levels.pop()
        grad_h, *head_grad = backward_batch(h, head, weights, frame_probs, denom, grad_y)
        del h, weights, frame_probs, denom
        head_grads[:0] = head_grad
        if grad_x is not None:
            grad_h += grad_x.reshape(grad_h.shape)
        grad_x = grad_h.reshape(-1, grad_h.shape[2])
        del grad_h

        # grad_x is always a fresh array here, so the kernels may overwrite it
        for dense, bn in reversed(block):
            dense_in, dense_out, mean, var, out = layers.pop()
            # a unit dropout zeroed has out == 0, so its ReLU step zeroes its
            # gradient; a kept one gets the float64 scale dropout_mask gave it
            if fwd.dropout:
                grad_x *= 1.0 / (1.0 - fwd.dropout)
            grad_x = nn.relu_backward(out, grad_x)
            del out
            grad_x, grad_gamma, grad_beta = nn.batchnorm_backward(dense_out, mean, var, bn, grad_x)
            del dense_out
            grad_x, grad_w, grad_b = nn.dense_backward(dense_in, dense, grad_x)
            block_grads[:0] = (grad_w, grad_b, grad_gamma, grad_beta)
    grads = [*block_grads, *head_grads, *out_grads]
    return dict(zip(model.trainable_params(), grads, strict=True))


def predict_scores(model: MultiLevelModel, features: np.ndarray) -> np.ndarray:
    """Infer-mode class probabilities (n_clips, n_classes); a score not finite raises ValueError.

    Clips are scored in chunks of about :data:`INFER_CHUNK_ROWS` frame rows
    (at least one clip).  This thread and a helper, joined before this
    returns, take chunks from one queue: two are in flight, one per thread,
    and memory stays bounded by them and the output.  After a chunk fails,
    the other thread finishes the one it holds and takes no more; the first
    error is raised.  Each chunk is one single-thread forward, under its
    thread's own numpy error state, so the threads change no bit of any score.
    The helper pays only with BLAS on one thread, as the ``wlat`` command runs
    it; a library caller sets ``OPENBLAS_NUM_THREADS=1`` before numpy loads.
    """
    _check_features(model, features)
    step = max(1, INFER_CHUNK_ROWS // features.shape[1])
    # each chunk's scores are copied into place and freed, not kept for one concatenation
    scores = np.empty((len(features), model.spec.n_classes))
    chunks = iter([slice(start, start + step) for start in range(0, len(features), step)])
    lock, errors = threading.Lock(), []

    def drain() -> None:
        try:
            while True:
                with lock:  # a failure and the next take are ordered: no chunk starts after one
                    rows = None if errors else next(chunks, None)
                if rows is None:
                    return
                with np.errstate(all="ignore"):  # a model that overflows is refused, not warned of
                    scores[rows] = forward_cached(model, features[rows], INFER).z
        except BaseException as err:  # raised below, by the caller, once both threads stop
            with lock:
                errors.append(err)

    with ThreadPoolExecutor(1) as helper:
        helper.submit(drain)
        drain()
    if errors:
        raise errors[0]
    if not (finite := np.isfinite(scores).all(axis=1)).all():
        raise ValueError(f"clip {np.argmin(finite)} of {len(scores)} has a score that is not finite")
    return scores


def model_grad_check(
    model: MultiLevelModel,
    features: np.ndarray,
    loss_on_z: Callable[[np.ndarray], tuple[float, np.ndarray]],
) -> float:
    """Finite-difference check of the full backward pass; see nn.grad_check.

    Runs in train mode without dropout, so every forward is deterministic; the
    running statistics they update are restored, also when ``loss_on_z`` raises.
    """

    def loss_fn() -> float:
        return loss_on_z(forward_cached(model, features, TRAIN).z)[0]

    saved = model.copy_state()
    try:
        fwd = forward_cached(model, features, TRAIN)
        _, grad_z = loss_on_z(fwd.z)
        return nn.grad_check(loss_fn, model.trainable_params(), backward(model, fwd, grad_z))
    finally:
        model.load_state(saved)


def _check_state(model: MultiLevelModel) -> MultiLevelModel:
    """The ``.wlam`` array rule: values finite, running variances >= 0; a breach names its array."""
    for name, arr in model.arrays.items():
        if not np.isfinite(arr).all():
            raise WeightFormatError(f"non-finite value in {name}")
        if name.endswith(".running_var") and (arr < 0).any():
            raise WeightFormatError(f"negative batch-norm variance in {name}")
    return model


def save_weights(model: MultiLevelModel, sink: BinaryIO) -> int:
    """Write the header, then ``model.state`` in one call; returns bytes written.

    The arrays are checked as :func:`load_weights` checks them before any byte is written.
    """
    spec = _check_state(model).spec
    header = (WEIGHTS_VERSION, spec.n_levels, *spec.block_depths, spec.hidden_units,
              spec.n_classes, model.input_dim)
    written = sink.write(WEIGHTS_MAGIC + struct.pack(f"<{len(header)}I", *header))
    return written + sink.write(memoryview(model.state).cast("B"))  # one write, no copy


def _state_size(spec: ArchSpec, input_dim: int) -> int:
    """Float count of :attr:`MultiLevelModel.state`, every array together, for this shape."""
    h, k, depth = spec.hidden_units, spec.n_classes, sum(spec.block_depths)
    # dense weights, then bias, gamma, beta and running mean/var per layer
    layers = h * (input_dim + (depth - 1) * h) + 5 * h * depth
    return layers + spec.n_levels * 2 * (h * k + k) + spec.n_levels * k * k + k


def load_weights(source: BinaryIO, spec: ArchSpec | None = None) -> MultiLevelModel:
    """Rebuild a model from :func:`save_weights` bytes; the header is the architecture.

    A given ``spec`` is a cross-check: a file holding another architecture
    raises.  Only the header is read as bytes.  The stream's length (by
    ``tell`` and ``seek``, so a pipe raises its own OSError) is checked against
    the byte count the header implies before the model is allocated; then one
    ``readinto`` fills ``model.state`` (no initializer runs), and a short read
    is a truncated stream.  A NaN or infinite value, or a negative running
    variance, is a format error.
    """
    head = source.read(12)
    if head[:4] != WEIGHTS_MAGIC:
        raise WeightFormatError(f"bad magic {head[:4]!r}, expected {WEIGHTS_MAGIC!r}")
    at = source.tell()
    left = source.seek(0, os.SEEK_END) - at  # bytes after the first 12
    source.seek(at)
    n_levels = struct.unpack_from("<I", head, 8)[0] if len(head) == 12 else 0
    rest = 4 * (n_levels + 3)  # depths and three dims
    if len(head) == 12 and left >= rest:
        head += source.read(rest)
    if len(head) < 12 + rest:
        raise WeightFormatError("truncated weight stream while reading the header")
    version, _, *depths, hidden, n_classes, input_dim = struct.unpack_from(
        f"<{n_levels + 5}I", head, 4
    )
    if version != WEIGHTS_VERSION:
        raise WeightFormatError(f"unsupported weight version {version}")
    try:
        stored = ArchSpec(tuple(depths), hidden, n_classes)
    except ValueError as err:
        raise WeightFormatError(f"bad architecture in header: {err}") from None
    if spec is not None and stored != spec:
        raise WeightFormatError(f"weight file holds {stored}, expected {spec}")
    if input_dim < 1:
        raise WeightFormatError("header input_dim must be >= 1")

    size = 8 * _state_size(stored, input_dim)
    if left - rest < size:
        raise WeightFormatError(f"truncated weight stream: {stored} needs {size} parameter bytes")
    if left - rest > size:
        raise WeightFormatError("trailing bytes after final parameter array")
    model = _assemble(stored, input_dim)
    if source.readinto(model.state) != size:  # the stream shrank since its length was read
        raise WeightFormatError(f"truncated weight stream: {stored} needs {size} parameter bytes")
    return _check_state(model)
