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
input_dim u32, then every state array as raw float64 in the fixed traversal
order of :meth:`MultiLevelModel.state_params` (per block, per layer: dense
weight, dense bias, gamma, beta, running mean, running var; per head:
attention weight/bias, classifier weight/bias; then output weight, output
bias).  The header alone determines the architecture and every array shape.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import partial
from typing import BinaryIO, Callable

import numpy as np

from . import nn
from .attention import AttentionHead, backward_batch, forward_batch
from .nn import INFER, TRAIN, BatchNormState, DenseLayer, dropout_mask
from .rng import new_rng

WEIGHTS_MAGIC = b"WLAM"
WEIGHTS_VERSION = 1

# Frame rows (clips x frames) that :func:`predict_scores` scores at once.
# At paper width a chunk's widest activation (1000 x 600 floats) stays near
# the CPU cache; 10000-row chunks spent more time in elementwise passes and
# page faults than in their GEMMs.
INFER_CHUNK_ROWS = 1000

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
            if not token.isdigit():
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
class LayerStack:
    """One hidden layer of an embedding block: dense + batch norm (+ ReLU)."""

    dense: DenseLayer
    bn: BatchNormState


@dataclass
class MultiLevelModel:
    spec: ArchSpec
    input_dim: int
    blocks: list[list[LayerStack]]
    heads: list[AttentionHead]
    out: DenseLayer  # (n_classes * n_levels) -> n_classes

    def state_params(self) -> dict[str, np.ndarray]:
        """Live views of every persisted array, in fixed traversal order."""
        params: dict[str, np.ndarray] = {}
        for b, block in enumerate(self.blocks):
            for j, layer in enumerate(block):
                prefix = f"block{b}.layer{j}"
                params[f"{prefix}.weight"] = layer.dense.weight
                params[f"{prefix}.bias"] = layer.dense.bias
                params[f"{prefix}.gamma"] = layer.bn.gamma
                params[f"{prefix}.beta"] = layer.bn.beta
                params[f"{prefix}.running_mean"] = layer.bn.running_mean
                params[f"{prefix}.running_var"] = layer.bn.running_var
        for l, head in enumerate(self.heads):
            params[f"head{l}.att.weight"] = head.att_dense.weight
            params[f"head{l}.att.bias"] = head.att_dense.bias
            params[f"head{l}.cls.weight"] = head.cls_dense.weight
            params[f"head{l}.cls.bias"] = head.cls_dense.bias
        params["out.weight"] = self.out.weight
        params["out.bias"] = self.out.bias
        return params

    def trainable_params(self) -> dict[str, np.ndarray]:
        """The state minus batch-norm running statistics, in the same order."""
        return {name: arr for name, arr in self.state_params().items() if ".running_" not in name}

    def copy_state(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.state_params().items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        own = self.state_params()
        if own.keys() != state.keys():
            raise ValueError("state dict does not match model structure")
        for name, arr in own.items():
            arr[...] = state[name]


def _assemble(
    spec: ArchSpec,
    input_dim: int,
    dense: Callable[[int, int], DenseLayer],
) -> MultiLevelModel:
    """The model's structure; ``dense(n_in, n_out)`` makes each dense layer in traversal order."""
    if input_dim < 1:
        raise ValueError(f"input_dim must be >= 1, got {input_dim}")
    h, k = spec.hidden_units, spec.n_classes
    blocks = []
    width_in = input_dim
    for depth in spec.block_depths:
        block = []
        for _ in range(depth):
            block.append(LayerStack(dense(width_in, h), BatchNormState.init(h)))
            width_in = h
        blocks.append(block)
    heads = [AttentionHead(dense(h, k), dense(h, k)) for _ in spec.block_depths]
    out = dense(k * spec.n_levels, k)
    return MultiLevelModel(spec, input_dim, blocks, heads, out)


def build_model(spec: ArchSpec, input_dim: int, init_seed: int) -> MultiLevelModel:
    """Deterministically initialize a model: Glorot-uniform weights, zero biases.

    Draws come from one PCG64 stream seeded by ``init_seed``, consumed in
    traversal order, so identical (spec, input_dim, seed) give bitwise-
    identical parameters.
    """
    return _assemble(spec, input_dim, partial(DenseLayer.init, new_rng(init_seed)))


@dataclass(frozen=True)
class ForwardPass:
    """One forward pass over a batch of clips.

    A train-mode pass also retains what :func:`backward` needs: ``u``,
    ``layer_io`` and ``level_io``.  An infer-mode pass retains none of
    them, so each activation is freed as soon as the next one exists.
    """

    mode: str
    z: np.ndarray  # (n_clips, n_classes), final probabilities
    level_att: list[np.ndarray]  # per level (n_clips, n_frames, n_classes)
    u: np.ndarray | None  # (n_clips, n_classes * n_levels), concatenated level outputs
    # per block, per layer: (dense input, dense output, batch mean, batch var,
    # layer output, dropout mask); the layer output is the batch-norm output
    # after ReLU and dropout, both applied in place
    layer_io: list[list[tuple[np.ndarray, ...]]]
    # per level: (block output (n_clips, n_frames, width), weights, frame_probs, denom)
    level_io: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]


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
    dropout.
    """
    if features.ndim != 3 or features.shape[2] != model.input_dim:
        raise ValueError(
            f"features shape {features.shape} incompatible with input_dim={model.input_dim}"
        )
    use_dropout = mode == TRAIN and dropout > 0.0
    if use_dropout and rng is None:
        raise ValueError("train-mode forward with dropout needs an rng for the masks")

    retain = mode == TRAIN
    n_clips, n_frames, _ = features.shape
    x = features.reshape(n_clips * n_frames, model.input_dim)

    layer_io = []
    level_io = []
    level_y = []
    level_att = []
    for block, head in zip(model.blocks, model.heads):
        block_io = []
        for layer in block:
            # Only x carries an activation from one step to the next, so in
            # infer mode each layer's input and dense output are freed as
            # soon as they are used.
            dense_in = x if retain else None
            x = nn.dense_forward(x, layer.dense)
            dense_out = x if retain else None
            x, mean, var = nn.batchnorm_forward(x, layer.bn, mode)
            nn.relu(x)
            mask = None
            if use_dropout:
                mask = dropout_mask(rng, x.shape, dropout)
                x *= mask
            if retain:
                block_io.append((dense_in, dense_out, mean, var, x, mask))
        if retain:
            layer_io.append(block_io)

        h = x.reshape(n_clips, n_frames, -1)
        y, weights, frame_probs, denom = forward_batch(h, head)
        if retain:
            level_io.append((h, weights, frame_probs, denom))
        level_y.append(y)
        level_att.append(weights)
        del h, frame_probs, denom  # in infer mode, nothing else holds them

    u = np.concatenate(level_y, axis=1)
    z = nn.sigmoid(nn.dense_forward(u, model.out))
    return ForwardPass(mode, z, level_att, u if retain else None, layer_io, level_io)


def backward(
    model: MultiLevelModel, fwd: ForwardPass, grad_z: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of every trainable parameter, keyed like ``trainable_params``.

    Requires a matching train-mode forward pass (dropout masks are reused,
    batch-norm gradients assume batch statistics).
    """
    if fwd.mode != TRAIN:
        raise ValueError("backward requires a train-mode forward pass")
    if grad_z.shape != fwd.z.shape:
        raise ValueError(f"grad_z shape {grad_z.shape} != {fwd.z.shape}")

    grads: dict[str, np.ndarray] = {}
    k = model.spec.n_classes

    grad_pre = grad_z * fwd.z * (1.0 - fwd.z)
    grad_u, grads["out.weight"], grads["out.bias"] = nn.dense_backward(fwd.u, model.out, grad_pre)

    # Levels feed only the concatenation, so walk blocks from deepest to
    # shallowest, merging each head's gradient with the one flowing down
    # from the block above.
    grad_from_above: np.ndarray | None = None
    for l in range(model.spec.n_levels - 1, -1, -1):
        h, weights, frame_probs, denom = fwd.level_io[l]
        grad_y = grad_u[:, l * k : (l + 1) * k]
        grad_h, head_grads = backward_batch(h, model.heads[l], weights, frame_probs, denom, grad_y)
        for name, value in head_grads.items():
            grads[f"head{l}.{name}"] = value
        grad_x = grad_h.reshape(-1, grad_h.shape[2])
        if grad_from_above is not None:
            grad_x += grad_from_above

        # grad_x is always a fresh array here, so the kernels may overwrite it
        for j in range(len(model.blocks[l]) - 1, -1, -1):
            layer = model.blocks[l][j]
            dense_in, dense_out, mean, var, out, mask = fwd.layer_io[l][j]
            if mask is not None:
                grad_x *= mask
            # out > 0 only where the batch-norm output was > 0; where dropout
            # zeroed a unit, grad_x is already zero
            grad_x = nn.relu_backward(out, grad_x)
            grad_x, grad_gamma, grad_beta = nn.batchnorm_backward(
                dense_out, mean, var, layer.bn, grad_x
            )
            grad_x, grad_w, grad_b = nn.dense_backward(dense_in, layer.dense, grad_x)
            prefix = f"block{l}.layer{j}"
            grads[f"{prefix}.weight"] = grad_w
            grads[f"{prefix}.bias"] = grad_b
            grads[f"{prefix}.gamma"] = grad_gamma
            grads[f"{prefix}.beta"] = grad_beta
        grad_from_above = grad_x
    return grads


def predict_scores(model: MultiLevelModel, features: np.ndarray) -> np.ndarray:
    """Infer-mode class probabilities (n_clips, n_classes).

    Clips are scored in chunks of about :data:`INFER_CHUNK_ROWS` frame
    rows (at least one clip), so memory stays bounded by one chunk.
    """
    step = max(1, INFER_CHUNK_ROWS // max(1, features.shape[1]))
    outputs = [
        forward_cached(model, features[start : start + step], INFER).z
        for start in range(0, features.shape[0], step)
    ]
    return np.concatenate(outputs, axis=0)


def model_grad_check(
    model: MultiLevelModel,
    features: np.ndarray,
    loss_on_z: Callable[[np.ndarray], tuple[float, np.ndarray]],
) -> float:
    """Finite-difference check of the full backward pass; see nn.grad_check.

    Runs in train mode without dropout, so every forward is deterministic;
    the running statistics those forwards update are restored afterwards.
    """

    def loss_fn() -> float:
        return loss_on_z(forward_cached(model, features, TRAIN).z)[0]

    saved = model.copy_state()
    fwd = forward_cached(model, features, TRAIN)
    _, grad_z = loss_on_z(fwd.z)
    analytic = backward(model, fwd, grad_z)
    error = nn.grad_check(loss_fn, model.trainable_params(), analytic)
    model.load_state(saved)
    return error


def save_weights(model: MultiLevelModel, sink: BinaryIO) -> int:
    """Serialize spec echo + state arrays; returns bytes written."""
    spec = model.spec
    written = sink.write(WEIGHTS_MAGIC)
    written += sink.write(struct.pack("<2I", WEIGHTS_VERSION, spec.n_levels))
    written += sink.write(struct.pack(f"<{spec.n_levels}I", *spec.block_depths))
    written += sink.write(struct.pack("<3I", spec.hidden_units, spec.n_classes, model.input_dim))
    for arr in model.state_params().values():
        written += sink.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return written


def _state_size(spec: ArchSpec, input_dim: int) -> int:
    """Float count of :meth:`MultiLevelModel.state_params` for this shape."""
    h, k, depth = spec.hidden_units, spec.n_classes, sum(spec.block_depths)
    # dense weights, then bias, gamma, beta and running mean/var per layer
    layers = h * (input_dim + (depth - 1) * h) + 5 * h * depth
    return layers + spec.n_levels * 2 * (h * k + k) + spec.n_levels * k * k + k


def _empty_dense(n_in: int, n_out: int) -> DenseLayer:
    return DenseLayer(np.empty((n_in, n_out)), np.empty(n_out))


def load_weights(source: BinaryIO, spec: ArchSpec | None = None) -> MultiLevelModel:
    """Rebuild a model from :func:`save_weights` bytes; the header is the architecture.

    A given ``spec`` is a cross-check: a file holding another architecture
    raises.  The byte count the header implies is checked before any model
    array is allocated, and the arrays are filled straight from the bytes
    (no initializer runs).
    """
    blob = source.read()
    if blob[:4] != WEIGHTS_MAGIC:
        raise WeightFormatError(f"bad magic {blob[:4]!r}, expected {WEIGHTS_MAGIC!r}")
    n_levels = struct.unpack_from("<I", blob, 8)[0] if len(blob) >= 12 else 0
    offset = 4 * (n_levels + 6)  # magic, version, n_levels, depths, three dims
    if len(blob) < offset:
        raise WeightFormatError("truncated weight stream while reading the header")
    version, _, *depths, hidden, n_classes, input_dim = struct.unpack_from(
        f"<{n_levels + 5}I", blob, 4
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
    if len(blob) - offset < size:
        raise WeightFormatError(f"truncated weight stream: {stored} needs {size} parameter bytes")
    if len(blob) - offset > size:
        raise WeightFormatError("trailing bytes after final parameter array")
    model = _assemble(stored, input_dim, _empty_dense)
    values = np.frombuffer(blob, dtype="<f8", offset=offset)
    for arr in model.state_params().values():
        arr[...] = values[: arr.size].reshape(arr.shape)
        values = values[arr.size :]
    return model
