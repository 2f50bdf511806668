"""The benchmark workloads, driven through wlat's public functions.

Each workload has a set-up (make the inputs from the seed), one repeated
operation that is timed, and checks on every operation's outputs.  Calls
go through module attributes (``train.fit``, ``data.read_dataset``, ...)
so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from wlat import cli, data, metrics, model, train

ARCH = "2-A-1-A"


@dataclass(frozen=True)
class Shape:
    hidden: int
    classes: int
    frames: int
    features: int


# The two shapes named in ROADMAP: test-suite scale and the paper's
# dimensions (600 hidden units, 527 AudioSet classes, 10 x 128-d frames).
SYNTHETIC = Shape(hidden=64, classes=8, frames=10, features=32)
PAPER = Shape(hidden=600, classes=527, frames=10, features=128)
# Smoke-test scale: every code path, milliseconds per operation.
TINY = Shape(hidden=6, classes=4, frames=3, features=5)


def derive_seeds(seed: int) -> tuple[int, int, int]:
    """Data, weight-init and training seeds, all from the workload seed."""
    data_seed, init_seed, train_seed = np.random.SeedSequence(seed).generate_state(3, np.uint64)
    return int(data_seed), int(init_seed), int(train_seed)


def gemm_flops_per_clip(shape: Shape) -> dict[str, int]:
    """Computed GEMM FLOPs (2 per multiply-add) for one clip.

    Inference is the forward pass.  Training adds a backward pass of two
    GEMMs per forward GEMM (input gradient and weight gradient), so it is
    three times inference.
    """
    depths = model.parse_arch(ARCH, shape.hidden, shape.classes).block_depths
    t, h, k = shape.frames, shape.hidden, shape.classes
    forward = 0
    width = shape.features
    for depth in depths:
        for _ in range(depth):
            forward += 2 * t * width * h
            width = h
    forward += len(depths) * 2 * (2 * t * h * k)  # attention and classifier maps
    forward += 2 * (k * len(depths)) * k  # output layer
    return {"infer": forward, "train": 3 * forward}


def wlad_bytes(samples) -> int:
    """Computed size of a .wlad file holding ``samples`` (see wlat.data)."""
    header = 4 + 5 * 4
    body = sum(4 + len(s.id.encode("utf-8")) + s.features.size * 4 + 2 + 2 * len(s.labels)
               for s in samples)
    return header + body


def inputs_digest(samples) -> str:
    digest = hashlib.sha256()
    for s in samples:
        digest.update(s.id.encode("utf-8"))
        digest.update(s.features.tobytes())
        digest.update(np.asarray(s.labels, dtype=np.int64).tobytes())
    return digest.hexdigest()


def scores_ok(scores: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(scores)) and scores.min() >= 0.0 and scores.max() <= 1.0)


@dataclass
class OpResult:
    seconds: float
    phases: dict[str, float]
    output: object  # compared across operations for determinism
    failures: list[str]


@dataclass(frozen=True)
class TrainWorkload:
    """``train.fit`` on synthetic clips; one operation is one whole fit."""

    name: str
    shape: Shape
    n_train: int
    n_valid: int
    batch_size: int
    lr: float
    epochs: int

    @property
    def clips_per_op(self) -> int:
        return self.n_train * self.epochs

    def setup(self, seed: int, workdir: str):
        data_seed, init_seed, train_seed = derive_seeds(seed)
        s = self.shape
        cfg = data.SynthConfig(
            n_classes=s.classes, n_samples=self.n_train + self.n_valid,
            n_frames=s.frames, n_features=s.features, seed=data_seed,
        )
        samples, _ = data.generate_synthetic(cfg)
        net = model.build_model(model.parse_arch(ARCH, s.hidden, s.classes), s.features, init_seed)
        tcfg = train.TrainConfig(
            arch=ARCH, epochs=self.epochs, batch_size=self.batch_size, lr=self.lr,
            seed=train_seed, eval_every=1,
        )
        return TrainState(samples[: self.n_train], samples[self.n_train :], net, net.copy_state(), tcfg)

    def op(self, state: "TrainState") -> OpResult:
        state.net.load_state(state.initial)
        start = time.perf_counter()
        result = train.fit(state.net, state.train, state.valid, state.cfg)
        seconds = time.perf_counter() - start
        failures = []
        if not math.isfinite(result.best_map):
            failures.append(f"valid mAP {result.best_map} is not finite")
        output = ("\n".join(result.log_lines), repr(result.best_map))
        return OpResult(seconds, {"fit": seconds}, output, failures)

    def verify(self, state: "TrainState", output, workdir: str) -> list[str]:
        """The model fit left behind is the best checkpoint: rescoring it
        reproduces the best valid mAP bit for bit, with scores in [0, 1]."""
        x_valid = data.stack_features(state.valid)
        y_valid = data.stack_targets(state.valid, self.shape.classes)
        scores = model.predict_scores(state.net, x_valid)
        failures = []
        if not scores_ok(scores):
            failures.append("valid scores are not finite values in [0, 1]")
        elif repr(metrics.evaluate(scores, y_valid).mean_ap) != output[1]:
            failures.append("rescoring the restored checkpoint does not reproduce best valid mAP")
        return failures

    def describe(self, state: "TrainState", output) -> dict:
        log_text, best_map = output
        flops = gemm_flops_per_clip(self.shape)
        return {
            "valid_mAP": float(best_map),
            "fit_log_sha256": hashlib.sha256(log_text.encode("utf-8")).hexdigest(),
            "fit_log_lines": log_text.split("\n"),
            "computed": {
                "gemm_flops_per_train_clip": flops["train"],
                "gemm_flops_per_infer_clip": flops["infer"],
                "wlad_bytes_train_file": wlad_bytes(state.train),
                "wlad_bytes_valid_file": wlad_bytes(state.valid),
            },
        }

    def main_file_bytes(self, state: "TrainState") -> int:
        return wlad_bytes(state.train)


@dataclass
class TrainState:
    train: list
    valid: list
    net: model.MultiLevelModel
    initial: dict
    cfg: train.TrainConfig

    @property
    def inputs(self) -> list:
        return self.train + self.valid


@dataclass(frozen=True)
class EvalWorkload:
    """The ``wlat evaluate`` path as library calls; one operation is the
    whole path: write, read, load, predict, evaluate."""

    name: str
    shape: Shape
    n_clips: int

    @property
    def clips_per_op(self) -> int:
        return self.n_clips

    def setup(self, seed: int, workdir: str):
        data_seed, init_seed, _ = derive_seeds(seed)
        s = self.shape
        cfg = data.SynthConfig(
            n_classes=s.classes, n_samples=self.n_clips,
            n_frames=s.frames, n_features=s.features, seed=data_seed,
        )
        samples, _ = data.generate_synthetic(cfg)
        spec = model.parse_arch(ARCH, s.hidden, s.classes)
        checkpoint = os.path.join(workdir, "model.wlam")
        with open(checkpoint, "wb") as sink:
            model.save_weights(model.build_model(spec, s.features, init_seed), sink)
        return EvalState(samples, cfg.header(), spec, checkpoint, os.path.join(workdir, "eval.wlad"))

    def op(self, state: "EvalState") -> OpResult:
        clock = time.perf_counter
        t0 = clock()
        with open(state.data_path, "wb") as sink:
            written = data.write_dataset(state.samples, state.header, sink)
        t1 = clock()
        with open(state.data_path, "rb") as source:
            header, samples = data.read_dataset(source)
        t2 = clock()
        with open(state.checkpoint, "rb") as source:
            net = model.load_weights(source, state.spec)
        t3 = clock()
        scores = model.predict_scores(net, data.stack_features(samples))
        t4 = clock()
        report = metrics.evaluate(scores, data.stack_targets(samples, header.n_classes))
        t5 = clock()

        failures = []
        if header != state.header or not _same_samples(samples, state.samples):
            failures.append("write_dataset -> read_dataset did not round-trip bitwise")
        if not written == os.path.getsize(state.data_path) == wlad_bytes(state.samples):
            failures.append("written, on-disk and computed .wlad sizes disagree")
        if not scores_ok(scores):
            failures.append("scores are not finite values in [0, 1]")
        phases = {"write": t1 - t0, "read": t2 - t1, "load": t3 - t2, "infer": t4 - t3,
                  "evaluate": t5 - t4}
        return OpResult(t5 - t0, phases, tuple(metrics.machine_lines(report)), failures)

    def verify(self, state: "EvalState", output, workdir: str) -> list[str]:
        """``wlat evaluate --out`` on the same files writes the same records."""
        out_path = os.path.join(workdir, "evaluate.tsv")
        argv = ["evaluate", "--model", state.checkpoint, "--arch", ARCH, "--data", state.data_path,
                "--hidden-units", str(self.shape.hidden), "--out", out_path]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(argv)
        if code != 0:
            return [f"wlat evaluate exited with {code}"]
        with open(out_path, encoding="utf-8") as source:
            if source.read() != "\n".join(output) + "\n":
                return ["wlat evaluate --out differs from machine_lines of the library path"]
        return []

    def describe(self, state: "EvalState", output) -> dict:
        return {
            "mAP": float(output[-1].split("\t")[1]),
            "machine_lines_sha256": hashlib.sha256("\n".join(output).encode("utf-8")).hexdigest(),
            "computed": {
                "gemm_flops_per_infer_clip": gemm_flops_per_clip(self.shape)["infer"],
                "wlad_bytes_eval_file": wlad_bytes(state.samples),
            },
        }

    def main_file_bytes(self, state: "EvalState") -> int:
        return wlad_bytes(state.samples)


@dataclass
class EvalState:
    samples: list
    header: data.DatasetHeader
    spec: model.ArchSpec
    checkpoint: str
    data_path: str

    @property
    def inputs(self) -> list:
        return self.samples


def _same_samples(read, written) -> bool:
    return len(read) == len(written) and all(
        a.id == b.id and a.labels == b.labels and a.features.dtype == b.features.dtype
        and a.features.tobytes() == b.features.tobytes()
        for a, b in zip(read, written)
    )


# Why each workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        # Small arrays: per-call cost dominates, batch norm outweighs attention.
        TrainWorkload("synth-train", SYNTHETIC, n_train=2000, n_valid=500, batch_size=100,
                      lr=0.01, epochs=3),
        # Infer-mode forward, the data layer both ways, and evaluate over 527 classes.
        EvalWorkload("paper-eval", PAPER, n_clips=1000),
    )
}


def tiny(workload):
    """The same workload at smoke-test scale."""
    if isinstance(workload, TrainWorkload):
        return replace(workload, shape=TINY, n_train=40, n_valid=20, batch_size=10, epochs=2)
    return replace(workload, shape=TINY, n_clips=30)
