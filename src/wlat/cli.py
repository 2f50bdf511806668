"""Command-line front end: gen-data, train, evaluate, predict, gradcheck.

Every command is reproducible from its flags and seeds.  A JSON config file
(``--config``) may supply any flag by its destination name; each entry
parses exactly as that flag typed right after the command, so flags given
on the command line win.  Exit codes: 0 success, 1 runtime or validation
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, fields, replace
from typing import Callable, Iterable, Sequence, get_type_hints

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
    """The ``wlat`` grammar.  A command's namespace carries ``run``, the
    function that executes it, and ``flags``, which maps each destination
    name (a config key) to the flag declared for it.
    """
    parser = argparse.ArgumentParser(
        prog="wlat",
        description="Attention-pooling models for weakly labelled multi-label tagging.",
    )
    parser.add_argument(
        "--list-archs", action="store_true", help="print the preset architecture strings and exit"
    )
    commands = parser.add_subparsers(dest="command", metavar="command")

    def add(
        name: str, help_text: str, command: Callable[[argparse.Namespace], int]
    ) -> Callable[..., None]:
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--config", help="JSON file supplying flag values (flags override)")
        flags: dict[str, str] = {}
        sub.set_defaults(flags=flags, run=command)

        def flag(option: str, **kwargs) -> None:
            flags[sub.add_argument(option, **kwargs).dest] = option

        return flag

    def field_flags(flag: Callable[..., None], config: type, **help_text: str) -> None:
        """One flag per field of a config dataclass, with the field's type and default."""
        types = get_type_hints(config)
        for field in fields(config):
            default = None if field.default is MISSING else field.default
            flag("--" + field.name.replace("_", "-"), type=types[field.name], default=default,
                 help=help_text.get(field.name))

    gen = add("gen-data", "generate a synthetic weakly labelled dataset", _cmd_gen_data)
    gen("--out", help="dataset file to write")
    gen("--truth-out", help="event-frame sidecar for --out")
    gen("--valid-out", help="carve a validation split into this file")
    gen("--valid-samples", type=int, help="size of the validation split")
    gen("--valid-truth-out", help="event-frame sidecar for --valid-out")
    field_flags(gen, SynthConfig)

    tr = add("train", "train a model and keep the best validation checkpoint", _cmd_train)
    tr("--train", dest="train_path", help="training dataset file")
    tr("--valid", dest="valid_path", help="validation dataset file")
    tr("--out", help="output directory for checkpoint and log")
    field_flags(tr, TrainConfig, arch="architecture string, e.g. 2-A-1-A",
                patience="evaluations without improvement before stopping")
    tr("--hidden-units", type=int, default=600)
    tr("--init-seed", type=int, default=0)

    ev = add("evaluate", "score a trained model on a dataset", _cmd_evaluate)
    pr = add("predict", "emit per-sample class scores above a threshold", _cmd_predict)
    for flag in (ev, pr):
        flag("--model", help="weight file")
        flag("--arch", help="optional check of the checkpoint's architecture string")
        flag("--data", help="dataset file")
        flag("--hidden-units", type=int, help="optional check of the checkpoint's width")
    ev("--out", help="also write machine-readable records here")
    pr("--threshold", type=float, default=0.5)
    pr("--out", help="write records here instead of stdout")

    gc = add("gradcheck", "finite-difference check of the full backward pass", _cmd_gradcheck)
    gc("--arch", help="architecture string to check")
    gc("--toy-dims", default="2,4,5,3", help="frames,features,hidden,classes (default %(default)s)")
    gc("--seed", type=int, default=0)
    return parser


def _parse(parser: argparse.ArgumentParser, argv: Sequence[str]) -> argparse.Namespace:
    """Parse argv; a ``--config`` file's entries parse as flags typed right after the command."""
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    with open(args.config, "r", encoding="utf-8") as handle:
        config = json.load(handle)
    if not isinstance(config, dict):
        raise UsageError(f"config file {args.config} must hold a JSON object")
    unknown = set(config) - set(args.flags)
    if unknown:
        raise UsageError(f"config file {args.config}: unknown keys {sorted(unknown)}")
    # non-strings keep their JSON spelling, so null, true or 2.5 meet the flag's type check
    entries = [f"{args.flags[key]}={value if isinstance(value, str) else json.dumps(value)}"
               for key, value in config.items()]
    at = list(argv).index(args.command) + 1
    return parser.parse_args([*argv[:at], *entries, *argv[at:]])


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [args.flags[name] for name in names if getattr(args, name) is None]
    if missing:
        raise UsageError(f"missing required flags: {', '.join(missing)}")


def _config(config: type, args: argparse.Namespace):
    """Build a config dataclass from the flags declared for its fields."""
    return config(**{field.name: getattr(args, field.name) for field in fields(config)})


def _check_files(args: argparse.Namespace, read: Sequence[str], written: Iterable[tuple]) -> None:
    """Fail before any work if an output's directory is missing, its path is a directory, or
    its ``os.path.realpath`` names ``--config``, a ``read`` flag's file or another output.
    ``written`` holds (flag name, path) pairs; read files may be the same file."""
    flag_by_file = {os.path.realpath(getattr(args, name)): args.flags.get(name, "--config")
                    for name in ("config", *read) if getattr(args, name) is not None}
    for name, path in written:
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise UsageError(f"output directory does not exist: {parent}")
        if os.path.isdir(path):
            raise UsageError(f"output path is a directory: {path}")
        real, flag = os.path.realpath(path), args.flags[name]
        if real in flag_by_file:
            raise UsageError(f"{flag_by_file[real]} and {flag} name the same file: {path}")
        flag_by_file[real] = flag


def _cmd_gen_data(args: argparse.Namespace) -> int:
    _require(args, "out")
    if (args.valid_out is None) != (args.valid_samples is None):
        raise UsageError("--valid-out and --valid-samples must be given together")
    if args.valid_truth_out is not None and args.valid_out is None:
        raise UsageError("--valid-truth-out needs --valid-out")

    cfg = _config(SynthConfig, args)
    n_valid = args.valid_samples or 0
    if not 0 <= n_valid < cfg.n_samples:
        raise ValueError(f"valid split {n_valid} must be smaller than n_samples {cfg.n_samples}")
    outputs = ("out", "valid_out", "truth_out", "valid_truth_out")
    paths = {name: getattr(args, name) for name in outputs if getattr(args, name) is not None}
    _check_files(args, (), paths.items())

    samples, truth = generate_synthetic(cfg)
    split = cfg.n_samples - n_valid
    parts = {"out": samples[:split], "valid_out": samples[split:]}
    for name, part in parts.items():
        if name in paths:
            with open(paths[name], "wb") as handle:
                write_dataset(part, replace(cfg.header(), n_samples=len(part)), handle)
            print(f"wrote {len(part)} samples to {paths[name]}")
    for name, source in (("truth_out", "out"), ("valid_truth_out", "valid_out")):
        if name in paths:
            with open(paths[name], "w") as handle:
                write_truth({s.id: truth[s.id] for s in parts[source]}, handle)
            print(f"wrote truth sidecar to {paths[name]}")
    return 0


def _load_dataset(path: str):
    with open(path, "rb") as handle:
        return read_dataset(handle)


def _cmd_train(args: argparse.Namespace) -> int:
    _require(args, "arch", "train_path", "valid_path", "out")
    cfg = _config(TrainConfig, args)
    os.makedirs(args.out, exist_ok=True)
    weights_path, log_path = (os.path.join(args.out, f) for f in ("model.wlam", "train_log.tsv"))
    _check_files(args, ("train_path", "valid_path"), (("out", weights_path), ("out", log_path)))

    train_header, train_samples = _load_dataset(args.train_path)
    valid_header, valid_samples = _load_dataset(args.valid_path)
    for dim in ("n_frames", "n_features", "n_classes"):
        if getattr(train_header, dim) != getattr(valid_header, dim):
            raise ValueError(
                f"train/valid disagree on {dim}: "
                f"{getattr(train_header, dim)} != {getattr(valid_header, dim)}"
            )

    spec = parse_arch(cfg.arch, args.hidden_units, train_header.n_classes)
    model = build_model(spec, train_header.n_features, args.init_seed)
    result = fit(model, train_samples, valid_samples, cfg)

    with open(weights_path, "wb") as handle:
        save_weights(model, handle)
    with open(log_path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(result.log_lines) + "\n")

    print(f"best valid mAP {result.best_map:.6f} at epoch {result.best_epoch}"
          f" ({result.total_steps} steps{', stopped early' if result.stopped_early else ''})")
    print(f"checkpoint: {weights_path}")
    print(f"log: {log_path}")
    return 0


def _score_dataset(args: argparse.Namespace):
    """Score a dataset with a checkpoint whose header must agree with any given flags."""
    _require(args, "model", "data")
    _check_files(args, ("model", "data"), [("out", args.out)] if args.out is not None else ())
    header, samples = _load_dataset(args.data)
    with open(args.model, "rb") as handle:
        model = load_weights(handle)
    spec = model.spec
    claimed = spec
    if args.arch is not None:
        claimed = parse_arch(args.arch, spec.hidden_units, spec.n_classes)
    if args.hidden_units is not None:
        claimed = replace(claimed, hidden_units=args.hidden_units)
    if claimed != spec:
        raise WeightFormatError(f"weight file holds {spec}, expected {claimed}")
    if (spec.n_classes, model.input_dim) != (header.n_classes, header.n_features):
        raise ValueError(
            f"model has n_classes={spec.n_classes} input_dim={model.input_dim}, dataset has"
            f" n_classes={header.n_classes} n_features={header.n_features}"
        )
    return header, samples, predict_scores(model, stack_features(samples))


def _cmd_evaluate(args: argparse.Namespace) -> int:
    header, samples, scores = _score_dataset(args)
    report = evaluate(scores, stack_targets(samples, header.n_classes))
    print(human_table(report))
    print(f"mAP {report.mean_ap:.6f}")
    if args.out is not None:
        with open(args.out, "w") as handle:
            handle.write("\n".join(machine_lines(report)) + "\n")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    if not math.isfinite(args.threshold):
        raise ValueError(f"threshold must be finite, got {args.threshold}")
    _, samples, scores = _score_dataset(args)
    lines = []
    for sample, row in zip(samples, scores):
        hits = ",".join(f"{k}:{row[k]:.6f}" for k in np.flatnonzero(row >= args.threshold))
        lines.append(f"{sample.id}\t{hits}")
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    _require(args, "arch")
    try:
        n_frames, n_features, hidden, n_classes = (int(part) for part in args.toy_dims.split(","))
    except ValueError as err:
        raise UsageError(f"--toy-dims must be four comma-separated integers: {err}") from None

    spec = parse_arch(args.arch, hidden, n_classes)
    model = build_model(spec, n_features, args.seed)
    rng = new_rng(args.seed + 1)
    features = gaussian(rng, (3, n_frames, n_features))
    targets = (rng.random((3, n_classes)) < 0.5).astype(np.float64)
    error = model_grad_check(model, features, lambda z: bce_loss(z, targets))
    print(f"max relative error {error:.3e} (threshold {GRADCHECK_THRESHOLD:.0e})")
    return 0 if error < GRADCHECK_THRESHOLD else 1


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = _parse(parser, argv)
        if args.list_archs:
            for arch in PRESET_ARCHS:
                print(arch)
            return 0
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 2
        return args.run(args)
    except SystemExit as exit_request:
        return int(exit_request.code or 0)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

