"""Command-line front end: gen-data, train, evaluate, predict, gradcheck.

Every command is reproducible from its flags and seeds.  A JSON config file
(``--config``) may supply any flag by its destination name; flags given on
the command line win.  Exit codes: 0 success, 1 runtime or validation
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields, replace
from typing import Sequence

import numpy as np

from .data import (
    SynthConfig,
    generate_synthetic,
    read_dataset,
    stack_features,
    stack_targets,
    write_dataset,
    write_truth,
)
from .metrics import evaluate, human_table, machine_lines
from .model import (
    PRESET_ARCHS,
    WeightFormatError,
    build_model,
    load_weights,
    model_grad_check,
    parse_arch,
    predict_scores,
    save_weights,
)
from .rng import gaussian, new_rng
from .train import TrainConfig, bce_loss, fit

GRADCHECK_THRESHOLD = 1e-4


class UsageError(Exception):
    """Bad command grammar; maps to exit code 2."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wlat",
        description="Attention-pooling models for weakly labelled multi-label tagging.",
    )
    parser.add_argument(
        "--list-archs", action="store_true", help="print the preset architecture strings and exit"
    )
    commands = parser.add_subparsers(dest="command", metavar="command")

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--config", help="JSON file supplying flag values (flags override)")
        return sub

    gen = add("gen-data", "generate a synthetic weakly labelled dataset")
    gen.add_argument("--out", help="dataset file to write")
    gen.add_argument("--truth-out", help="event-frame sidecar for --out")
    gen.add_argument("--valid-out", help="carve a validation split into this file")
    gen.add_argument("--valid-samples", type=int, help="size of the validation split")
    gen.add_argument("--valid-truth-out", help="event-frame sidecar for --valid-out")
    for field in fields(SynthConfig):
        flag = "--" + field.name.replace("_", "-")
        kind = float if field.type == "float" else int
        gen.add_argument(flag, dest=field.name, type=kind)

    tr = add("train", "train a model and keep the best validation checkpoint")
    tr.add_argument("--arch", help="architecture string, e.g. 2-A-1-A")
    tr.add_argument("--train", dest="train_path", help="training dataset file")
    tr.add_argument("--valid", dest="valid_path", help="validation dataset file")
    tr.add_argument("--out", help="output directory for checkpoint and log")
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--batch-size", type=int)
    tr.add_argument("--lr", type=float)
    tr.add_argument("--seed", type=int)
    tr.add_argument("--eval-every", type=int)
    tr.add_argument("--patience", type=int, help="evaluations without improvement before stopping")
    tr.add_argument("--hidden-units", type=int)
    tr.add_argument("--dropout", type=float)
    tr.add_argument("--init-seed", type=int)

    ev = add("evaluate", "score a trained model on a dataset")
    ev.add_argument("--model", help="weight file")
    ev.add_argument("--arch", help="optional check of the checkpoint's architecture string")
    ev.add_argument("--data", help="dataset file")
    ev.add_argument("--hidden-units", type=int, help="optional check of the checkpoint's width")
    ev.add_argument("--out", help="also write machine-readable records here")

    pr = add("predict", "emit per-sample class scores above a threshold")
    pr.add_argument("--model", help="weight file")
    pr.add_argument("--arch", help="optional check of the checkpoint's architecture string")
    pr.add_argument("--data", help="dataset file")
    pr.add_argument("--hidden-units", type=int, help="optional check of the checkpoint's width")
    pr.add_argument("--threshold", type=float)
    pr.add_argument("--out", help="write records here instead of stdout")

    gc = add("gradcheck", "finite-difference check of the full backward pass")
    gc.add_argument("--arch", help="architecture string to check")
    gc.add_argument("--toy-dims", help="frames,features,hidden,classes (default 2,4,5,3)")
    gc.add_argument("--seed", type=int)
    return parser


def _merge(args: argparse.Namespace, keys: dict[str, object]) -> dict[str, object]:
    """Fill unset flags from the JSON config, then from defaults."""
    config: dict[str, object] = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
        if not isinstance(config, dict):
            raise UsageError(f"config file {args.config} must hold a JSON object")
        unknown = set(config) - set(keys)
        if unknown:
            raise UsageError(f"config file {args.config}: unknown keys {sorted(unknown)}")
    merged = {}
    for name, default in keys.items():
        value = getattr(args, name)
        if value is None:
            value = config.get(name, default)
        merged[name] = value
    return merged


def _require(merged: dict[str, object], *names: str) -> None:
    missing = [name for name in names if merged[name] is None]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise UsageError(f"missing required flags: {flags}")


def _open_out(path: str, mode: str):
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise UsageError(f"output directory does not exist: {parent}")
    return open(path, mode)


def _cmd_gen_data(args: argparse.Namespace) -> int:
    keys: dict[str, object] = {f.name: f.default for f in fields(SynthConfig)}
    keys.update(out=None, truth_out=None, valid_out=None, valid_samples=None, valid_truth_out=None)
    merged = _merge(args, keys)
    _require(merged, "out")
    if (merged["valid_out"] is None) != (merged["valid_samples"] is None):
        raise UsageError("--valid-out and --valid-samples must be given together")
    if merged["valid_truth_out"] is not None and merged["valid_out"] is None:
        raise UsageError("--valid-truth-out needs --valid-out")

    cfg = SynthConfig(**{f.name: merged[f.name] for f in fields(SynthConfig)})
    cfg.validate()
    n_valid = int(merged["valid_samples"] or 0)
    if not 0 <= n_valid < cfg.n_samples:
        raise ValueError(f"valid split {n_valid} must be smaller than n_samples {cfg.n_samples}")

    # open every sink before the expensive generation step
    sinks = {name: _open_out(str(merged[name]), "wb")
             for name in ("out", "valid_out") if merged[name] is not None}
    text_sinks = {name: _open_out(str(merged[name]), "w")
                  for name in ("truth_out", "valid_truth_out") if merged[name] is not None}
    try:
        samples, truth = generate_synthetic(cfg)
        split = cfg.n_samples - n_valid
        parts = {"out": samples[:split]}
        if n_valid:
            parts["valid_out"] = samples[split:]
        for name, part in parts.items():
            header = replace(cfg.header(), n_samples=len(part))
            write_dataset(part, header, sinks[name])
            print(f"wrote {len(part)} samples to {merged[name]}")
        for name, source in (("truth_out", "out"), ("valid_truth_out", "valid_out")):
            if name in text_sinks:
                part_truth = {s.id: truth[s.id] for s in parts[source]}
                write_truth(part_truth, text_sinks[name])
                print(f"wrote truth sidecar to {merged[name]}")
    finally:
        for handle in (*sinks.values(), *text_sinks.values()):
            handle.close()
    return 0


def _load_dataset(path: str):
    with open(path, "rb") as handle:
        return read_dataset(handle)


def _cmd_train(args: argparse.Namespace) -> int:
    keys: dict[str, object] = dict(
        arch=None, train_path=None, valid_path=None, out=None,
        epochs=50, batch_size=500, lr=0.001, seed=0, eval_every=1, patience=0,
        hidden_units=600, dropout=0.4, init_seed=0,
    )
    merged = _merge(args, keys)
    _require(merged, "arch", "train_path", "valid_path", "out")
    cfg = TrainConfig(
        arch=str(merged["arch"]),
        epochs=int(merged["epochs"]),
        batch_size=int(merged["batch_size"]),
        lr=float(merged["lr"]),
        dropout=float(merged["dropout"]),
        seed=int(merged["seed"]),
        eval_every=int(merged["eval_every"]),
        early_stop_patience=int(merged["patience"]),
    )
    out_dir = str(merged["out"])
    os.makedirs(out_dir, exist_ok=True)

    train_header, train_samples = _load_dataset(str(merged["train_path"]))
    valid_header, valid_samples = _load_dataset(str(merged["valid_path"]))
    for dim in ("n_frames", "n_features", "n_classes"):
        if getattr(train_header, dim) != getattr(valid_header, dim):
            raise ValueError(
                f"train/valid disagree on {dim}: "
                f"{getattr(train_header, dim)} != {getattr(valid_header, dim)}"
            )

    spec = parse_arch(str(merged["arch"]), int(merged["hidden_units"]), train_header.n_classes)
    model = build_model(spec, train_header.n_features, int(merged["init_seed"]))
    result = fit(model, train_samples, valid_samples, cfg)

    weights_path = os.path.join(out_dir, "model.wlam")
    with open(weights_path, "wb") as handle:
        save_weights(model, handle)
    log_path = os.path.join(out_dir, "train_log.tsv")
    with open(log_path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(result.log_lines) + "\n")

    print(f"best valid mAP {result.best_map:.6f} at epoch {result.best_epoch}"
          f" ({result.total_steps} steps{', stopped early' if result.stopped_early else ''})")
    print(f"checkpoint: {weights_path}")
    print(f"log: {log_path}")
    return 0


def _score_dataset(merged: dict[str, object]):
    """Score a dataset with a checkpoint whose header must agree with any given flags."""
    _require(merged, "model", "data")
    header, samples = _load_dataset(str(merged["data"]))
    with open(str(merged["model"]), "rb") as handle:
        model = load_weights(handle)
    spec = model.spec
    claimed = spec
    if merged["arch"] is not None:
        claimed = parse_arch(str(merged["arch"]), spec.hidden_units, spec.n_classes)
    if merged["hidden_units"] is not None:
        claimed = replace(claimed, hidden_units=int(merged["hidden_units"]))
    if claimed != spec:
        raise WeightFormatError(f"weight file holds {spec}, expected {claimed}")
    if (spec.n_classes, model.input_dim) != (header.n_classes, header.n_features):
        raise ValueError(
            f"model has n_classes={spec.n_classes} input_dim={model.input_dim}, dataset has"
            f" n_classes={header.n_classes} n_features={header.n_features}"
        )
    return header, samples, predict_scores(model, stack_features(samples))


def _cmd_evaluate(args: argparse.Namespace) -> int:
    keys: dict[str, object] = dict(model=None, arch=None, data=None, hidden_units=None, out=None)
    merged = _merge(args, keys)
    header, samples, scores = _score_dataset(merged)
    report = evaluate(scores, stack_targets(samples, header.n_classes))
    print(human_table(report))
    print(f"mAP {report.mean_ap:.6f}")
    if merged["out"] is not None:
        with _open_out(str(merged["out"]), "w") as handle:
            handle.write("\n".join(machine_lines(report)) + "\n")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    keys: dict[str, object] = dict(
        model=None, arch=None, data=None, hidden_units=None, threshold=0.5, out=None
    )
    merged = _merge(args, keys)
    threshold = float(merged["threshold"])
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    _, samples, scores = _score_dataset(merged)
    lines = []
    for sample, row in zip(samples, scores):
        hits = ",".join(f"{k}:{row[k]:.6f}" for k in np.flatnonzero(row >= threshold))
        lines.append(f"{sample.id}\t{hits}")
    text = "\n".join(lines) + "\n"
    if merged["out"] is not None:
        with _open_out(str(merged["out"]), "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    keys: dict[str, object] = dict(arch=None, toy_dims="2,4,5,3", seed=0)
    merged = _merge(args, keys)
    _require(merged, "arch")
    try:
        n_frames, n_features, hidden, n_classes = (
            int(part) for part in str(merged["toy_dims"]).split(",")
        )
    except ValueError as err:
        raise UsageError(f"--toy-dims must be four comma-separated integers: {err}") from None

    spec = parse_arch(str(merged["arch"]), hidden, n_classes)
    model = build_model(spec, n_features, int(merged["seed"]))
    rng = new_rng(int(merged["seed"]) + 1)
    features = gaussian(rng, (3, n_frames, n_features))
    targets = (rng.random((3, n_classes)) < 0.5).astype(np.float64)
    error = model_grad_check(model, features, lambda z: bce_loss(z, targets))
    print(f"max relative error {error:.3e} (threshold {GRADCHECK_THRESHOLD:.0e})")
    return 0 if error < GRADCHECK_THRESHOLD else 1


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
    "gradcheck": _cmd_gradcheck,
}


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        return int(exit_request.code or 0)
    if args.list_archs:
        for arch in PRESET_ARCHS:
            print(arch)
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
