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
import stat
import sys
from dataclasses import MISSING, fields, replace
from functools import partial
from typing import BinaryIO, Callable, Iterable, Sequence, get_type_hints

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
from .metrics import evaluate, exclusion_reasons, human_table, machine_lines
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
Result = tuple[list[tuple[str, str, Callable]], Sequence[str], int]  # outputs, lines, exit code


class UsageError(Exception):
    """Bad command grammar; maps to exit code 2."""


def _build_parser() -> argparse.ArgumentParser:
    """The ``wlat`` grammar.  A command's namespace carries ``run``, the function that
    executes it, ``flags``, which maps each destination name (a config key) to the flag
    declared for it, and ``required``, the names ``run`` needs set after ``--config``.
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
        name: str, help_text: str, command: Callable[[argparse.Namespace], Result]
    ) -> Callable[..., None]:
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--config", help="JSON file supplying flag values (flags override)")
        flags: dict[str, str] = {}
        required_names: list[str] = []
        sub.set_defaults(flags=flags, required=required_names, run=command)

        def flag(option: str, required: bool = False, **kwargs) -> None:
            dest = sub.add_argument(option, **kwargs).dest
            flags[dest] = option
            if required:
                required_names.append(dest)

        return flag

    def field_flags(flag: Callable[..., None], config: type, **help_text: str) -> None:
        """One flag per config dataclass field, with its type and default, or required."""
        types = get_type_hints(config)
        for field in fields(config):
            required = field.default is MISSING
            flag("--" + field.name.replace("_", "-"), required, type=types[field.name],
                 default=None if required else field.default, help=help_text.get(field.name))

    gen = add("gen-data", "generate a synthetic weakly labelled dataset", _cmd_gen_data)
    gen("--out", required=True, help="dataset file to write")
    gen("--truth-out", help="event-frame sidecar for --out")
    gen("--valid-out", help="carve a validation split into this file")
    gen("--valid-samples", type=int, help="size of the validation split")
    gen("--valid-truth-out", help="event-frame sidecar for --valid-out")
    field_flags(gen, SynthConfig)

    tr = add("train", "train a model and keep the best validation checkpoint", _cmd_train)
    tr("--train", required=True, dest="train_path", help="training dataset file")
    tr("--valid", required=True, dest="valid_path", help="validation dataset file")
    tr("--out", required=True, help="output directory for checkpoint and log")
    field_flags(tr, TrainConfig, arch="architecture string, e.g. 2-A-1-A",
                patience="evaluations without improvement before stopping")
    tr("--hidden-units", type=int, default=600)
    tr("--init-seed", type=int, default=0)

    ev = add("evaluate", "score a trained model on a dataset", _cmd_evaluate)
    pr = add("predict", "emit per-sample class scores above a threshold", _cmd_predict)
    for flag in (ev, pr):
        flag("--model", required=True, help="weight file")
        flag("--arch", help="optional check of the checkpoint's architecture string")
        flag("--data", required=True, help="dataset file")
        flag("--hidden-units", type=int, help="optional check of the checkpoint's width")
    ev("--out", help="also write machine-readable records here")
    pr("--threshold", type=float, default=0.5)
    pr("--out", help="write records here instead of stdout")

    gc = add("gradcheck", "finite-difference check of the full backward pass", _cmd_gradcheck)
    gc("--arch", required=True, help="architecture string to check")
    gc("--toy-dims", default="2,4,5,3", help="frames,features,hidden,classes (default %(default)s)")
    gc("--seed", type=int, default=0)
    return parser


def _parse(parser: argparse.ArgumentParser, argv: Sequence[str]) -> argparse.Namespace:
    """Parse argv; a ``--config`` file's entries parse as flags typed right after the command."""
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    config = _read(args, "config", json.load)
    if not isinstance(config, dict):
        raise UsageError(f"config file {args.config} must hold a JSON object")
    if unknown := set(config) - set(args.flags):
        raise UsageError(f"config file {args.config}: unknown keys {sorted(unknown)}")
    for key, value in config.items():  # a value is what can be typed: a string or a number
        if value is None or isinstance(value, (bool, list, dict)):
            raise UsageError(f"config file {args.config}: argument {args.flags[key]}: invalid"
                             f" value {json.dumps(value)}")
    entries = [f"{args.flags[key]}={value}" for key, value in config.items()]
    at = list(argv).index(args.command) + 1
    return parser.parse_args([*argv[:at], *entries, *argv[at:]])


def _read(args: argparse.Namespace, name: str, reader: Callable):
    """Apply ``reader`` to flag ``name``'s file; failures read ``<flag> <path>: <reason>``."""
    path = getattr(args, name)
    try:
        with open(path, "rb") as handle:
            return reader(handle)
    except (ValueError, OSError) as err:
        reason = getattr(err, "strerror", None) or err
        raise ValueError(f"{args.flags.get(name, '--config')} {path}: {reason}") from None


def _write(args: argparse.Namespace, outputs: Iterable[tuple[str, str, Callable]]) -> None:
    """Write every (flag name, path, writer) output or none; failures read ``<flag> <path>:
    <reason>``.  By one ``os.stat``: stdout's own file is written through a dup of stdout's
    descriptor (one offset), any other that is not regular (a FIFO, a device, a pipe) in place,
    and the rest replaced, mode kept, by a temporary file made (directory too) beside the
    realpath once every writer has succeeded (any exception unlinks them)."""
    try:
        stdout = os.fstat(sys.stdout.fileno())
    except (OSError, ValueError):  # a stream with no descriptor (io.StringIO) is no file
        stdout = None
    staged = []  # (temporary file, file it replaces, flag name, path)
    try:
        for name, path, writer in outputs:
            try:
                status = os.stat(path)
            except (FileNotFoundError, NotADirectoryError):  # no file there yet
                status = None
            own = status is not None and stdout is not None and os.path.samestat(status, stdout)
            if own or status is not None and not stat.S_ISREG(status.st_mode):
                with open(os.dup(sys.stdout.fileno()) if own else path, "wb") as handle:
                    writer(handle)
                continue
            target = os.path.realpath(path)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            temp = os.path.join(os.path.dirname(target), f".wlat-{os.urandom(8).hex()}.tmp")
            with open(os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb") as handle:
                staged.append((temp, target, name, path))
                if status is not None:
                    os.chmod(temp, stat.S_IMODE(status.st_mode))
                writer(handle)
        for temp, target, name, path in staged:
            os.replace(temp, target)
        staged = []
    except OSError as err:
        raise ValueError(f"{args.flags[name]} {path}: {err.strerror or err}") from None
    finally:
        for temp, *_ in staged:
            if os.path.exists(temp):
                os.unlink(temp)


def _lines(lines: Sequence[str]) -> Callable[[BinaryIO], int]:
    """A ``_write`` writer of ``lines`` as UTF-8 text, each line ended by ``\\n``."""
    return lambda handle: handle.write(("\n".join(lines) + "\n").encode("utf-8"))


def _check_dataset(args: argparse.Namespace, name: str, header, model) -> None:
    """A dataset must carry its model's n_features and n_classes; attention pools any frames."""
    if (header.n_features, header.n_classes) != (model.input_dim, model.spec.n_classes):
        raise ValueError(f"{args.flags[name]} {getattr(args, name)} and the model disagree: dataset"
                         f" has n_classes={header.n_classes} n_features={header.n_features}, model"
                         f" has n_classes={model.spec.n_classes} input_dim={model.input_dim}")


def _at_least(args: argparse.Namespace, name: str, low: int) -> None:
    if (value := getattr(args, name)) is not None and value < low:
        raise ValueError(f"{args.flags[name]} must be >= {low}, got {value}")


def _config(config: type, args: argparse.Namespace):
    """Build a config dataclass from the flags declared for its fields."""
    return config(**{field.name: getattr(args, field.name) for field in fields(config)})


def _check_files(args: argparse.Namespace, read: Sequence[str], written: Iterable[tuple],
                 out_dir: str | None = None) -> None:
    """Fail before any work if an output's path is empty or its ``os.path.realpath`` (the file
    ``_write`` replaces) is a directory, lies in a missing directory, or names ``--config``, a
    ``read`` flag's file or another output; read files may be the same file.  ``written``
    holds (flag name, path) pairs.  Only ``out_dir`` (train's, which ``_write`` makes) may be
    missing, and then the nearest existing path on its way up must be a directory."""
    if out_dir is not None:
        if not out_dir:
            raise UsageError("output directory is an empty path")
        out_dir = existing = os.path.realpath(out_dir)
        while not os.path.lexists(existing):
            existing = os.path.dirname(existing)
        if not os.path.isdir(existing):
            raise UsageError(f"output directory is not a directory: {existing}")
    flag_by_file = {os.path.realpath(getattr(args, name)): args.flags.get(name, "--config")
                    for name in ("config", *read) if getattr(args, name) is not None}
    for name, path in written:
        if not path:
            raise UsageError(f"{args.flags[name]} is an empty path")
        real, flag = os.path.realpath(path), args.flags[name]
        if (parent := os.path.dirname(real)) != out_dir and not os.path.isdir(parent):
            raise UsageError(f"output directory does not exist: {parent}")
        if os.path.isdir(real):
            raise UsageError(f"output path is a directory: {path}")
        if real in flag_by_file:
            raise UsageError(f"{flag_by_file[real]} and {flag} name the same file: {path}")
        flag_by_file[real] = flag


def _cmd_gen_data(args: argparse.Namespace) -> Result:
    if (args.valid_out is None) != (args.valid_samples is None):
        raise UsageError("--valid-out and --valid-samples must be given together")
    if args.valid_truth_out is not None and args.valid_out is None:
        raise UsageError("--valid-truth-out needs --valid-out")

    cfg = _config(SynthConfig, args)
    n_valid = args.valid_samples or 0
    if args.valid_out is not None and not 1 <= n_valid < cfg.n_samples:
        raise ValueError(f"--valid-samples must be >= 1 and < --n-samples {cfg.n_samples},"
                         f" got {n_valid}")
    outputs = ("out", "valid_out", "truth_out", "valid_truth_out")
    paths = {name: getattr(args, name) for name in outputs if getattr(args, name) is not None}
    _check_files(args, (), paths.items())

    samples, truth = generate_synthetic(cfg)
    split = cfg.n_samples - n_valid
    made = {}  # flag name -> (writer, what stdout says once the file is in place)
    for name, truth_name, part in (("out", "truth_out", samples[:split]),
                                   ("valid_out", "valid_truth_out", samples[split:])):
        header = replace(cfg.header(), n_samples=len(part))
        events = {s.id: truth[s.id] for s in part}
        made[name] = partial(write_dataset, part, header), f"wrote {len(part)} samples to"
        made[truth_name] = partial(write_truth, events), "wrote truth sidecar to"
    return ([(name, path, made[name][0]) for name, path in paths.items()],
            [f"{made[name][1]} {path}" for name, path in paths.items()], 0)


def _cmd_train(args: argparse.Namespace) -> Result:
    cfg = _config(TrainConfig, args)
    _at_least(args, "init_seed", 0)
    _at_least(args, "hidden_units", 1)
    weights_path, log_path = (os.path.join(args.out, f) for f in ("model.wlam", "train_log.tsv"))
    _check_files(args, ("train_path", "valid_path"), (("out", weights_path), ("out", log_path)),
                 args.out)

    train_header, train_samples = _read(args, "train_path", read_dataset)
    valid_header, valid_samples = _read(args, "valid_path", read_dataset)
    spec = parse_arch(cfg.arch, args.hidden_units, train_header.n_classes)
    model = build_model(spec, train_header.n_features, args.init_seed)
    _check_dataset(args, "valid_path", valid_header, model)
    result = fit(model, train_samples, valid_samples, cfg)
    return ([("out", weights_path, partial(save_weights, model)),
             ("out", log_path, _lines(result.log_lines))],
            [f"best valid mAP {result.best_map:.6f} at epoch {result.best_epoch}"
             f" ({result.total_steps} steps{', stopped early' if result.stopped_early else ''})",
             f"checkpoint: {weights_path}", f"log: {log_path}"], 0)


def _read_data(args: argparse.Namespace):
    """Check the model flags, then the files of ``evaluate`` or ``predict``, then read
    ``--data``: one clip or more.  Returns its header and clips, and ``--arch``'s depths."""
    _at_least(args, "hidden_units", 1)
    depths = None if args.arch is None else parse_arch(args.arch, 1, 1).block_depths
    _check_files(args, ("model", "data"), [("out", args.out)] if args.out is not None else ())
    header, samples = _read(args, "data", read_dataset)
    if not samples:
        raise ValueError(f"--data {args.data} holds no clips to score")
    return header, samples, depths


def _score(args: argparse.Namespace, header, samples, depths) -> np.ndarray:
    """Score clips with a checkpoint whose header must agree with any given flags."""
    model = _read(args, "model", load_weights)
    spec = model.spec
    claimed = replace(spec, block_depths=depths or spec.block_depths,
                      hidden_units=args.hidden_units or spec.hidden_units)
    if claimed != spec:
        raise WeightFormatError(f"weight file holds {spec}, expected {claimed}")
    _check_dataset(args, "data", header, model)
    return predict_scores(model, stack_features(samples))


def _cmd_evaluate(args: argparse.Namespace) -> Result:
    header, samples, depths = _read_data(args)
    # train's rule for --valid, on targets freed at once: scoring never holds them
    if all(exclusion_reasons(stack_targets(samples, header.n_classes))):
        raise ValueError(f"--data {args.data} cannot be scored: no class has positives and"
                         " negatives")
    scores = _score(args, header, samples, depths)
    report = evaluate(scores, stack_targets(samples, header.n_classes))
    outputs = [("out", args.out, _lines(machine_lines(report)))] if args.out is not None else []
    return outputs, [human_table(report), f"mAP {report.mean_ap:.6f}"], 0


def _cmd_predict(args: argparse.Namespace) -> Result:
    if not math.isfinite(args.threshold):
        raise ValueError(f"threshold must be finite, got {args.threshold}")
    header, samples, depths = _read_data(args)
    scores = _score(args, header, samples, depths)
    lines = [f"{sample.id}\t" + ",".join(f"{k}:{row[k]:.6f}" for k in np.flatnonzero(hits))
             for sample, row, hits in zip(samples, scores, scores >= args.threshold)]
    return ([], lines, 0) if args.out is None else ([("out", args.out, _lines(lines))], [], 0)


def _cmd_gradcheck(args: argparse.Namespace) -> Result:
    _at_least(args, "seed", 0)
    try:
        n_frames, n_features, hidden, n_classes = dims = [int(p) for p in args.toy_dims.split(",")]
    except ValueError as err:
        raise UsageError(f"--toy-dims must be four comma-separated integers: {err}") from None
    if min(dims) < 1:
        raise UsageError(f"--toy-dims entries must be >= 1, got {args.toy_dims}")

    spec = parse_arch(args.arch, hidden, n_classes)
    model = build_model(spec, n_features, args.seed)
    rng = new_rng(args.seed + 1)
    features = gaussian(rng, (3, n_frames, n_features))
    targets = (rng.random((3, n_classes)) < 0.5).astype(np.float64)
    error = model_grad_check(model, features, lambda z: bce_loss(z, targets))
    return ([], [f"max relative error {error:.3e} (threshold {GRADCHECK_THRESHOLD:.0e})"],
            0 if error < GRADCHECK_THRESHOLD else 1)


def run(argv: Sequence[str]) -> int:
    """Parse (``--config`` merged), check required flags, run the command, write the outputs
    it returns all or none, then print its lines: an error prints nothing on stdout."""
    parser = _build_parser()
    try:
        args = _parse(parser, argv)
        if args.list_archs:
            outputs, lines, code = [], PRESET_ARCHS, 0
        elif args.command is None:
            parser.print_usage(sys.stderr)
            return 2
        elif missing := [args.flags[n] for n in args.required if getattr(args, n) is None]:
            raise UsageError(f"missing required flags: {', '.join(missing)}")
        else:
            outputs, lines, code = args.run(args)
        _write(args, outputs)
        try:
            sys.stdout.writelines(f"{line}\n" for line in lines)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader left early; every file is already in place
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())  # so the flush at exit goes nowhere
            os.close(devnull)
        return code
    except SystemExit as exit_request:
        return int(exit_request.code or 0)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as err:
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 1

