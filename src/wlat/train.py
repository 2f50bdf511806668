"""Binary cross-entropy training loop with Adam, checkpointing and replay.

A run is a pure function of (seed, data, config) for a fixed numpy/BLAS build
and BLAS thread count (BLAS splits its sums by thread): the master seed spawns
one stream for dropout masks and a shuffle seed, which spawns one seed as each
epoch starts, so evaluation cadence never perturbs the draws.  The best-by-
validation-mAP parameter snapshot is restored into the model when fit returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Sample, stack_features, stack_targets
from .metrics import evaluate, exclusion_reasons
from .model import MultiLevelModel, backward, forward_cached, parse_arch, predict_scores
from .nn import TRAIN
from .rng import new_rng, seed_stream

# Probabilities are clamped to [BCE_EPSILON, 1 - BCE_EPSILON] inside the
# loss; gradients vanish where the clamp is active.
BCE_EPSILON = 1e-7

# Adam moment decay rates and the denominator's stabilizer.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


def bce_loss(z: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy over every (sample, class) entry.

    Accepts a single probability vector or an (n, k) batch; the gradient
    has z's shape and matches the analytic derivative of the clamped loss.
    """
    z = np.asarray(z, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if z.shape != targets.shape:
        raise ValueError(f"targets shape {targets.shape} != predictions shape {z.shape}")
    clamped = np.clip(z, BCE_EPSILON, 1.0 - BCE_EPSILON)
    loss = -(targets * np.log(clamped) + (1.0 - targets) * np.log1p(-clamped)).mean()
    grad = (clamped - targets) / (clamped * (1.0 - clamped)) / z.size
    grad[clamped != z] = 0.0
    return float(loss), grad


@dataclass
class AdamState:
    """First/second moment estimates per parameter plus the step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    lr: float
    t: int = 0

    @classmethod
    def init(cls, params: dict[str, np.ndarray], lr: float) -> "AdamState":
        return cls(
            m={name: np.zeros_like(arr) for name, arr in params.items()},
            v={name: np.zeros_like(arr) for name, arr in params.items()},
            lr=lr,
        )


def adam_step(
    params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState
) -> None:
    """One bias-corrected Adam update, applied to the parameters in place."""
    if params.keys() != grads.keys() or params.keys() != state.m.keys():
        raise ValueError("parameter, gradient and state dictionaries must share keys")
    state.t += 1
    m_correction = 1.0 - ADAM_BETA1**state.t
    v_correction = 1.0 - ADAM_BETA2**state.t
    for name, param in params.items():
        grad = grads[name]
        if grad.shape != param.shape:
            raise ValueError(f"gradient shape {grad.shape} != parameter shape {param.shape} for {name}")
        m = state.m[name]
        v = state.v[name]
        # param -= lr * (m / m_correction) / (sqrt(v / v_correction) + eps),
        # each step in place, in that order
        step = grad * (1.0 - ADAM_BETA1)
        m *= ADAM_BETA1
        m += step
        np.multiply(grad, 1.0 - ADAM_BETA2, out=step)
        step *= grad
        v *= ADAM_BETA2
        v += step
        denom = v / v_correction
        np.sqrt(denom, out=denom)
        denom += ADAM_EPSILON
        np.divide(m, m_correction, out=step)
        step *= state.lr
        step /= denom
        param -= step


@dataclass(frozen=True)
class TrainConfig:
    arch: str
    epochs: int = 50
    batch_size: int = 500
    lr: float = 0.001
    dropout: float = 0.4
    seed: int = 0
    eval_every: int = 1
    patience: int = 0  # 0 disables early stopping

    def __post_init__(self) -> None:
        parse_arch(self.arch, 1, 1)  # the grammar only: fit checks it against the model
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {self.dropout}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class FitResult:
    log_lines: list[str]
    best_epoch: int
    best_map: float
    total_steps: int
    stopped_early: bool


def fit(
    model: MultiLevelModel,
    train_samples: Sequence[Sample],
    valid_samples: Sequence[Sample],
    cfg: TrainConfig,
) -> FitResult:
    """Train to best validation mAP; the model ends holding that checkpoint.

    One log line per epoch with fields epoch, step, train_loss, valid_mAP,
    valid_AUC, valid_dprime (literal ``nan`` on non-evaluation epochs).
    Evaluation runs every ``eval_every`` epochs and on the final epoch;
    ``patience`` consecutive evaluations without improvement end
    the run early.
    """
    spec = model.spec
    if parse_arch(cfg.arch, spec.hidden_units, spec.n_classes) != spec:
        raise ValueError(f"config arch {cfg.arch!r} does not describe the given model")
    if not train_samples or not valid_samples:
        raise ValueError("training and validation sets must be nonempty")
    for name, batch in (("train", train_samples), ("valid", valid_samples)):
        shape = batch[0].features.shape
        if shape[1] != model.input_dim:
            raise ValueError(f"{name} feature dim {shape[1]} != model input dim {model.input_dim}")

    x_train = stack_features(train_samples)
    y_train = stack_targets(train_samples, spec.n_classes)
    x_valid = stack_features(valid_samples)
    y_valid = stack_targets(valid_samples, spec.n_classes)
    if all(exclusion_reasons(y_valid)):
        raise ValueError("validation set cannot be scored: no class has positives and negatives")
    n_train = x_train.shape[0]
    if x_train.shape[1] == 1 and n_train % cfg.batch_size == 1:
        raise ValueError(f"n_train={n_train} with batch_size={cfg.batch_size} leaves a lone "
                         "one-frame clip, and train-mode batch norm needs >= 2 rows")

    run_seeds = seed_stream(cfg.seed)
    dropout_rng = new_rng(next(run_seeds))
    epoch_seeds = seed_stream(next(run_seeds))

    params = model.trainable_params()
    adam = AdamState.init(params, lr=cfg.lr)

    log_lines: list[str] = []
    best_state: dict[str, np.ndarray] | None = None
    best_map = -np.inf
    best_epoch = 0
    evals_without_improvement = 0
    stopped_early = False

    for epoch in range(1, cfg.epochs + 1):
        order = new_rng(next(epoch_seeds)).permutation(n_train)
        loss_sum = 0.0
        for start in range(0, n_train, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            # a diverging step overflows silently; the finite checks name it
            with np.errstate(over="ignore", invalid="ignore"):
                fwd = forward_cached(model, x_train[batch], TRAIN, dropout_rng, cfg.dropout)
                loss, grad_z = bce_loss(fwd.z, y_train[batch])
                if not math.isfinite(loss):
                    raise ValueError(f"training loss {loss} is not finite at epoch {epoch}, "
                                     f"step {adam.t + 1}")
                grads = backward(model, fwd, grad_z)
            if not any(grad.any() for grad in grads.values()):
                raise ValueError(f"every gradient is zero at epoch {epoch}, step {adam.t + 1}: "
                                 "the output layer is saturated")
            for name, grad in grads.items():
                if not np.isfinite(grad).all():
                    raise ValueError(f"gradient {name} is not finite at epoch {epoch}, "
                                     f"step {adam.t + 1}")
            adam_step(params, grads, adam)
            loss_sum += loss * batch.size
        epoch_loss = loss_sum / n_train

        # an epoch without an evaluation logs nan for the three means
        mean_ap = mean_auc = mean_dprime = math.nan
        if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
            report = evaluate(predict_scores(model, x_valid), y_valid)
            mean_ap, mean_auc, mean_dprime = report.mean_ap, report.mean_auc, report.mean_dprime
            if report.mean_ap > best_map:
                best_map = report.mean_ap
                best_epoch = epoch
                best_state = model.copy_state()
                evals_without_improvement = 0
            else:
                evals_without_improvement += 1
                if cfg.patience and evals_without_improvement >= cfg.patience:
                    stopped_early = True
        log_lines.append(f"{epoch}\t{adam.t}\t{epoch_loss:.8f}"
                         f"\t{mean_ap:.8f}\t{mean_auc:.8f}\t{mean_dprime:.8f}")
        if stopped_early:
            break

    assert best_state is not None
    model.load_state(best_state)
    return FitResult(log_lines, best_epoch, best_map, adam.t, stopped_early)
