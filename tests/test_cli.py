"""Command-line behavior: flags, exit codes, files, and printed output."""

import contextlib
import dataclasses
import errno
import io
import json
import os
import shutil
import stat
import struct
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wlat
from wlat import cli
from wlat import train as train_module
from wlat.data import (
    DatasetHeader,
    SynthConfig,
    generate_synthetic,
    read_dataset,
    stack_features,
    write_dataset,
)
from wlat.model import (
    PRESET_ARCHS,
    build_model,
    load_weights,
    parse_arch,
    predict_scores,
    save_weights,
)
from wlat.train import TrainConfig

from oracles import checkpoint_with


def run_cli(*argv):
    return cli.run([str(a) for a in argv])


GEN_FLAGS = ("--n-classes", 5, "--n-samples", 12, "--n-frames", 4, "--n-features", 6)


def write_clipless_dataset(path):
    """A header-only ``.wlad`` of GEN_FLAGS' shape: a valid file that holds no clips."""
    with open(path, "wb") as handle:
        write_dataset([], DatasetHeader(n_frames=4, n_features=6, n_classes=5, n_samples=0),
                      handle)
    return path


def test_list_archs_prints_all_presets(capsys):
    assert run_cli("--list-archs") == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == list(PRESET_ARCHS)
    assert len(printed) == 9


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def python_env(blas_threads=None):
    """Environment for a child interpreter that imports this ``wlat``; the BLAS
    thread variables are set to ``blas_threads``, or unset when it is None."""
    src = Path(wlat.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    if blas_threads is not None:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, blas_threads))
    return dict(env, PYTHONPATH=path)


def test_python_m_wlat_runs_the_cli():
    done = subprocess.run([sys.executable, "-m", "wlat", "--list-archs"],
                          capture_output=True, text=True, env=python_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == list(PRESET_ARCHS)


def test_importing_wlat_runs_nothing_and_leaves_blas_alone():
    code = ("import os, sys, wlat, wlat.__main__; "
            "print([os.environ.get(v) for v in %r], 'numpy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code % (BLAS_THREAD_VARS,)],
                          capture_output=True, text=True, env=python_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[None, None] False\n"


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="BLAS runs one thread on one CPU")
def test_train_checkpoint_is_the_same_whatever_the_blas_environment(tmp_path):
    train, valid = tmp_path / "train.wlad", tmp_path / "valid.wlad"
    assert run_cli("gen-data", "--n-samples", 1000, "--out", train,
                   "--valid-out", valid, "--valid-samples", 200) == 0
    checkpoints = []
    for blas_threads in (None, "1"):
        out = tmp_path / f"threads-{blas_threads}"
        done = subprocess.run(
            [sys.executable, "-m", "wlat", "train", "--arch", "2-A-1-A", "--hidden-units", "64",
             "--train", str(train), "--valid", str(valid), "--out", str(out),
             "--epochs", "2", "--batch-size", "100", "--lr", "0.01"],
            capture_output=True, text=True, env=python_env(blas_threads), timeout=120)
        assert done.returncode == 0, done.stderr
        checkpoints.append((out / "model.wlam").read_bytes())
    assert checkpoints[0] == checkpoints[1]


def test_no_command_is_usage_error(capsys):
    assert run_cli() == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    assert run_cli("frobnicate") == 2


def test_unknown_flag_is_usage_error():
    assert run_cli("gen-data", "--does-not-exist", "1") == 2


def test_gen_data_missing_out_is_usage_error(capsys):
    assert run_cli("gen-data", *GEN_FLAGS) == 2
    assert "out" in capsys.readouterr().err


def test_gen_data_runs_are_byte_identical(tmp_path):
    paths = []
    for name in ("a", "b"):
        data = tmp_path / f"{name}.wlad"
        truth = tmp_path / f"{name}.truth"
        assert run_cli(
            "gen-data", *GEN_FLAGS, "--seed", 7, "--out", data, "--truth-out", truth
        ) == 0
        paths.append((data, truth))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_text() == paths[1][1].read_text()


def test_gen_data_split_counts(tmp_path):
    train = tmp_path / "train.wlad"
    valid = tmp_path / "valid.wlad"
    assert run_cli(
        "gen-data", *GEN_FLAGS, "--out", train,
        "--valid-out", valid, "--valid-samples", 3,
    ) == 0
    with open(train, "rb") as handle:
        train_header, train_samples = read_dataset(handle)
    with open(valid, "rb") as handle:
        valid_header, valid_samples = read_dataset(handle)
    assert train_header.n_samples == len(train_samples) == 9
    assert valid_header.n_samples == len(valid_samples) == 3
    train_ids = {s.id for s in train_samples}
    assert train_ids.isdisjoint(s.id for s in valid_samples)


def test_gen_data_valid_flags_must_pair(tmp_path):
    assert run_cli("gen-data", *GEN_FLAGS, "--out", tmp_path / "d.wlad",
                   "--valid-samples", 3) == 2


@pytest.mark.parametrize("flags,code,message", [
    (("--n-classes", 70000, "--n-samples", 20, "--n-frames", 3, "--n-features", 4),
     1, "n_classes 70000 exceeds u16 labels"),
    (("--n-samples", 2**32), 1, "n_samples 4294967296 outside u32 [0, 4294967295]"),
    ((*GEN_FLAGS, "--truth-out", "missing/x.truth"), 2, "output directory does not exist"),
    ((*GEN_FLAGS, "--truth-out", "adir"), 2, "output path is a directory: adir"),
    ((*GEN_FLAGS, "--truth-out", "x.wlad"), 2, "--out and --truth-out name the same file"),
    ((*GEN_FLAGS, "--valid-samples", 2, "--valid-out", "./x.wlad"), 2,
     "--out and --valid-out name the same file"),
    ((*GEN_FLAGS, "--truth-out", ""), 2, "--truth-out is an empty path"),
    ((*GEN_FLAGS, "--out", ""), 2, "--out is an empty path"),
    ((*GEN_FLAGS, "--valid-truth-out", "v.truth"), 2, "--valid-truth-out needs --valid-out"),
    (("--n-samples", 0), 1, "n_samples must be >= 1, got 0"),
    (("--n-samples", 1, "--n-classes", 65536, "--labels-per-sample-min", 65536,
      "--labels-per-sample-max", 65536, "--n-frames", 1, "--n-features", 1,
      "--event-frames-max", 1), 1, "labels_per_sample_max 65536 overflows the u16 label count"),
], ids=["u16-class-limit", "u32-sample-limit", "missing-directory", "directory-output",
        "same-file", "same-file-spelled-twice", "empty-truth-out", "empty-out",
        "valid-truth-out-alone", "no-samples", "u16-label-count"])
def test_gen_data_fails_before_generating_or_writing(tmp_path, monkeypatch, capsys,
                                                     flags, code, message):
    def never(cfg):
        raise AssertionError("generate_synthetic ran")

    monkeypatch.setattr(cli, "generate_synthetic", never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.wlad").write_bytes(b"keep me")
    (tmp_path / "adir").mkdir()
    assert run_cli("gen-data", "--out", "x.wlad", *flags) == code
    assert message in capsys.readouterr().err
    assert (tmp_path / "x.wlad").read_bytes() == b"keep me"


def test_config_file_supplies_flags_and_flags_override(tmp_path):
    config = tmp_path / "recipe.json"
    config.write_text(json.dumps(
        {"n_classes": 5, "n_samples": 12, "n_frames": 4, "n_features": 6, "seed": 3}
    ))
    from_config = tmp_path / "config.wlad"
    assert run_cli("gen-data", "--config", config, "--seed", 7,
                   "--out", from_config) == 0
    from_flags = tmp_path / "flags.wlad"
    assert run_cli("gen-data", *GEN_FLAGS, "--seed", 7, "--out", from_flags) == 0
    assert from_config.read_bytes() == from_flags.read_bytes()


def test_gen_data_out_naming_its_config_fails_before_writing(tmp_path, capsys):
    config = tmp_path / "recipe.json"
    config.write_text(json.dumps({"n_classes": 5, "n_samples": 12}))
    before = config.read_bytes()
    assert run_cli("gen-data", "--config", config, "--out", config) == 2
    assert "--config and --out name the same file" in capsys.readouterr().err
    assert config.read_bytes() == before


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"not_a_field": 1}))
    assert run_cli("gen-data", "--config", config, "--out", tmp_path / "d.wlad") == 2
    assert "not_a_field" in capsys.readouterr().err


def test_config_file_must_hold_an_object(tmp_path, capsys):
    config = tmp_path / "list.json"
    config.write_text(json.dumps([1, 2]))
    assert run_cli("gen-data", "--config", config, "--out", tmp_path / "d.wlad") == 2
    assert f"usage error: config file {config} must hold a JSON object" in capsys.readouterr().err


def test_config_values_parse_like_typed_flags(tmp_path):
    config = tmp_path / "recipe.json"
    config.write_text(json.dumps({"n_samples": "5"}))
    from_config = tmp_path / "config.wlad"
    assert run_cli("gen-data", "--config", config, "--out", from_config) == 0
    from_flags = tmp_path / "flags.wlad"
    assert run_cli("gen-data", "--n-samples", 5, "--out", from_flags) == 0
    assert from_config.read_bytes() == from_flags.read_bytes()


@pytest.mark.parametrize("command,key,value,flag", [
    ("gen-data", "n_samples", 2.5, "--n-samples"),
    ("train", "epochs", True, "--epochs"),
    ("gen-data", "seed", None, "--seed"),
])
def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys, command, key, value, flag):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({key: value}))
    assert run_cli(command, "--config", config, "--out", tmp_path / "out") == 2
    assert f"argument {flag}: invalid" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config", [
    {"truth_out": None},
    {"valid_out": False, "valid_samples": 1, "n_samples": 5},
    {"truth_out": True},
    {"truth_out": ["a.truth"]},
    {"truth_out": {"path": "a.truth"}},
], ids=["null", "false", "true", "array", "object"])
def test_config_value_no_flag_can_take_is_usage_error_for_any_flag(tmp_path, monkeypatch,
                                                                   capsys, config):
    monkeypatch.chdir(tmp_path)
    Path("recipe.json").write_text(json.dumps(config))
    assert run_cli("gen-data", "--config", "recipe.json", "--out", "d.wlad") == 2
    flag = "--" + next(key for key in config if key != "n_samples").replace("_", "-")
    assert f"argument {flag}: invalid value" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["recipe.json"]


@pytest.mark.parametrize("command,field", [
    pytest.param(command, field, id=f"{command}-{field.name}")
    for command, config in (("gen-data", SynthConfig), ("train", TrainConfig))
    for field in dataclasses.fields(config)
])
def test_every_config_field_is_one_flag(tmp_path, command, field):
    parser = cli._build_parser()
    default = None if field.default is dataclasses.MISSING else field.default
    assert getattr(cli._parse(parser, [command]), field.name) == default
    if field.type == "str":
        from_config, typed = "2-A-1-A", "3-A"
    else:
        from_config, typed = default + 1, default + 2
    config = tmp_path / "recipe.json"
    config.write_text(json.dumps({field.name: from_config}))
    args = cli._parse(parser, [command, "--config", str(config)])
    assert getattr(args, field.name) == from_config
    assert type(getattr(args, field.name)) is type(from_config)
    flag = "--" + field.name.replace("_", "-")
    args = cli._parse(parser, [command, "--config", str(config), flag, str(typed)])
    assert getattr(args, field.name) == typed


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    train = root / "train.wlad"
    valid = root / "valid.wlad"
    code = run_cli(
        "gen-data", "--n-classes", 4, "--n-samples", 24, "--n-frames", 4,
        "--n-features", 6, "--out", train, "--valid-out", valid, "--valid-samples", 8,
    )
    assert code == 0
    return train, valid


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_train_rejects_non_finite_lr_before_loading(tmp_path, capsys, lr):
    out_dir = tmp_path / "run"
    code = run_cli(
        "train", "--arch", "1-A", "--train", tmp_path / "absent.wlad",
        "--valid", tmp_path / "absent.wlad", "--out", out_dir, "--lr", lr,
    )
    assert code == 1
    assert f"lr must be finite and >= 0, got {lr}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_gen_data_rejects_non_finite_noise(tmp_path, capsys):
    out = tmp_path / "d.wlad"
    assert run_cli("gen-data", *GEN_FLAGS, "--noise-sigma", "nan", "--out", out) == 1
    assert "noise_sigma must be finite and >= 0, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_train_writes_checkpoint_and_log(tiny_dataset, tmp_path, capsys):
    train, valid = tiny_dataset
    out_dir = tmp_path / "run"
    code = run_cli(
        "train", "--arch", "1-A", "--train", train, "--valid", valid,
        "--out", out_dir, "--epochs", 2, "--batch-size", 8,
        "--hidden-units", 6, "--lr", 0.01,
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "best valid mAP" in printed
    assert (out_dir / "model.wlam").exists()
    log_lines = (out_dir / "train_log.tsv").read_text().splitlines()
    assert len(log_lines) == 2
    assert all(len(line.split("\t")) == 6 for line in log_lines)


def test_train_may_validate_on_its_training_file(tiny_dataset, tmp_path):
    train, _ = tiny_dataset
    assert run_cli("train", "--arch", "1-A", "--train", train, "--valid", train,
                   "--out", tmp_path / "run", "--epochs", 1, "--batch-size", 8,
                   "--hidden-units", 6) == 0


def test_train_checkpoint_path_that_is_a_directory_fails_before_training(
        tiny_dataset, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("fit ran")

    monkeypatch.setattr(cli, "fit", never)
    train, valid = tiny_dataset
    out_dir = tmp_path / "run"
    (out_dir / "model.wlam").mkdir(parents=True)
    assert run_cli("train", "--arch", "1-A", "--train", train, "--valid", valid,
                   "--out", out_dir) == 2
    assert "output path is a directory" in capsys.readouterr().err
    assert not (out_dir / "train_log.tsv").exists()


@pytest.mark.parametrize("below", [(), ("run",)], ids=["file", "under-file"])
def test_train_out_under_a_file_is_usage_error_before_reading(
        tiny_dataset, monkeypatch, capsys, below):
    def never(path):
        raise AssertionError("a dataset was read")

    monkeypatch.setattr(cli, "read_dataset", never)
    train, valid = tiny_dataset
    stored = valid.read_bytes()
    assert run_cli("train", "--arch", "1-A", "--train", train, "--valid", valid,
                   "--out", valid.joinpath(*below)) == 2
    assert f"output directory is not a directory: {valid}" in capsys.readouterr().err
    assert valid.read_bytes() == stored


def test_train_makes_no_output_directory_when_a_dataset_fails(tiny_dataset, tmp_path, capsys):
    _, valid = tiny_dataset
    fresh = tmp_path / "fresh"
    assert run_cli("train", "--arch", "1-A", "--train", tmp_path / "nope.wlad", "--valid", valid,
                   "--out", fresh) == 1
    assert "nope.wlad" in capsys.readouterr().err
    assert not fresh.exists()


@pytest.mark.parametrize("case,message", [
    ("bad-arch", "position 2"),
    ("empty-valid", "training and validation sets must be nonempty"),
], ids=["bad-arch", "empty-valid"])
def test_train_makes_no_output_directory_when_training_fails(tiny_dataset, tmp_path, capsys,
                                                             case, message):
    train, valid = tiny_dataset
    arch = "2-B" if case == "bad-arch" else "1-A"
    if case == "empty-valid":
        train, valid = tmp_path / "full.wlad", write_clipless_dataset(tmp_path / "empty.wlad")
        assert run_cli("gen-data", *GEN_FLAGS, "--out", train) == 0
    fresh = tmp_path / "fresh"
    assert run_cli("train", "--arch", arch, "--train", train, "--valid", valid,
                   "--out", fresh, "--batch-size", 8) == 1
    assert message in capsys.readouterr().err
    assert not fresh.exists()


def test_train_checkpoint_linked_into_a_missing_directory_fails_before_training(
        tiny_dataset, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("fit ran")

    monkeypatch.setattr(cli, "fit", never)
    train, valid = tiny_dataset
    out_dir, missing = tmp_path / "run", tmp_path / "missing"
    out_dir.mkdir()
    (out_dir / "model.wlam").symlink_to(missing / "model.wlam")
    assert run_cli("train", "--arch", "1-A", "--train", train, "--valid", valid,
                   "--out", out_dir) == 2
    assert (capsys.readouterr().err
            == f"usage error: output directory does not exist: {os.path.realpath(missing)}\n")
    assert os.listdir(tmp_path) == ["run"] and os.listdir(out_dir) == ["model.wlam"]


def test_train_out_taken_by_a_file_after_training_fails_naming_the_checkpoint(
        tiny_dataset, tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "run"
    real_fit = cli.fit

    def fit_then_take_out(*args, **kwargs):
        result = real_fit(*args, **kwargs)
        out_dir.write_bytes(b"not a directory\n")
        return result

    monkeypatch.setattr(cli, "fit", fit_then_take_out)
    train, valid = tiny_dataset
    assert run_cli("train", "--arch", "1-A", "--train", train, "--valid", valid, "--out", out_dir,
                   "--epochs", 1, "--batch-size", 8, "--hidden-units", 6) == 1
    printed = capsys.readouterr()
    assert printed.err == f"error: --out {out_dir / 'model.wlam'}: File exists\n"
    assert printed.out == ""
    assert os.listdir(tmp_path) == ["run"]
    assert out_dir.read_bytes() == b"not a directory\n"


def test_train_empty_out_is_usage_error_before_reading(tiny_dataset, monkeypatch, capsys):
    def never(path):
        raise AssertionError("a dataset was read")

    monkeypatch.setattr(cli, "read_dataset", never)
    train, valid = tiny_dataset
    assert run_cli("train", "--arch", "1-A", "--train", train, "--valid", valid, "--out", "") == 2
    assert "output directory is an empty path" in capsys.readouterr().err


def test_train_stops_at_non_finite_gradient(tiny_dataset, tmp_path, monkeypatch, capsys):
    real = train_module.backward

    def poisoned(model, fwd, grad_z):
        grads = real(model, fwd, grad_z)
        grads["out.bias"][0] = np.inf
        return grads

    monkeypatch.setattr(train_module, "backward", poisoned)
    train, valid = tiny_dataset
    code = run_cli("train", "--arch", "1-A", "--train", train, "--valid", valid,
                   "--out", tmp_path / "run", "--epochs", 2, "--batch-size", 8,
                   "--hidden-units", 6)
    assert code == 1
    assert "gradient out.bias is not finite at epoch 1, step 1" in capsys.readouterr().err
    assert not (tmp_path / "run" / "model.wlam").exists()


def test_train_rejects_mismatched_dims(tiny_dataset, tmp_path, capsys):
    train, _ = tiny_dataset
    other = tmp_path / "other.wlad"
    assert run_cli("gen-data", "--n-classes", 4, "--n-samples", 6, "--n-frames", 4,
                   "--n-features", 9, "--out", other) == 0
    code = run_cli(
        "train", "--arch", "1-A", "--train", train, "--valid", other,
        "--out", tmp_path / "run", "--epochs", 1, "--batch-size", 8,
        "--hidden-units", 6,
    )
    assert code == 1
    assert "disagree" in capsys.readouterr().err


def test_train_rejects_dropout_rate_one(tiny_dataset, tmp_path, capsys):
    train, valid = tiny_dataset
    code = run_cli(
        "train", "--arch", "1-A", "--train", train, "--valid", valid,
        "--out", tmp_path / "run", "--epochs", 1, "--batch-size", 8,
        "--hidden-units", 6, "--dropout", 1.0,
    )
    assert code == 1
    assert "dropout rate" in capsys.readouterr().err


def test_train_rejects_unscorable_validation_set(tiny_dataset, tmp_path, capsys):
    train, _ = tiny_dataset
    single = tmp_path / "single.wlad"
    assert run_cli("gen-data", "--n-classes", 4, "--n-samples", 1, "--n-frames", 4,
                   "--n-features", 6, "--out", single) == 0
    code = run_cli(
        "train", "--arch", "1-A", "--train", train, "--valid", single,
        "--out", tmp_path / "run", "--epochs", 1, "--batch-size", 8,
        "--hidden-units", 6,
    )
    assert code == 1
    assert "validation" in capsys.readouterr().err


def test_train_rejects_lone_single_frame_batch(tmp_path, capsys):
    train = tmp_path / "train.wlad"
    valid = tmp_path / "valid.wlad"
    assert run_cli("gen-data", "--n-classes", 4, "--n-samples", 29, "--n-frames", 1,
                   "--event-frames-max", 1, "--n-features", 6, "--out", train,
                   "--valid-out", valid, "--valid-samples", 8) == 0
    code = run_cli(
        "train", "--arch", "1-A", "--train", train, "--valid", valid,
        "--out", tmp_path / "run", "--epochs", 1, "--batch-size", 10, "--hidden-units", 6,
    )
    assert code == 1
    assert "n_train=21 with batch_size=10" in capsys.readouterr().err
    assert not (tmp_path / "run" / "model.wlam").exists()


def test_train_stops_at_non_finite_loss(tiny_dataset, tmp_path, capsys):
    train, valid = tiny_dataset
    code = run_cli(
        "train", "--arch", "1-A", "--train", train, "--valid", valid,
        "--out", tmp_path / "run", "--epochs", 2, "--batch-size", 8,
        "--hidden-units", 6, "--lr", 1e200,
    )
    assert code == 1
    assert "not finite at epoch 1, step" in capsys.readouterr().err
    assert not (tmp_path / "run" / "model.wlam").exists()


def test_train_stops_when_every_gradient_is_zero(tiny_dataset, tmp_path, capsys):
    train, valid = tiny_dataset
    code = run_cli(
        "train", "--arch", "1-A", "--train", train, "--valid", valid,
        "--out", tmp_path / "run", "--epochs", 3, "--batch-size", 8,
        "--hidden-units", 6, "--lr", 1e6,
    )
    assert code == 1
    assert "every gradient is zero at epoch 1, step" in capsys.readouterr().err
    assert not (tmp_path / "run" / "model.wlam").exists()


@pytest.fixture(scope="module")
def overfit_artifacts(overfit_run, tmp_path_factory):
    """Dataset plus a checkpoint trained until it ranks that dataset perfectly."""
    samples, result, checkpoint = overfit_run
    assert result.best_map == 1.0
    root = tmp_path_factory.mktemp("overfit")
    data_path = root / "ten.wlad"
    with open(data_path, "wb") as handle:
        write_dataset(samples, SynthConfig(n_samples=10).header(), handle)
    model_path = root / "model.wlam"
    model_path.write_bytes(checkpoint)
    return data_path, model_path, samples


def test_evaluate_prints_perfect_map(overfit_artifacts, tmp_path, capsys):
    data_path, model_path, _ = overfit_artifacts
    report_path = tmp_path / "per_class.tsv"
    code = run_cli(
        "evaluate", "--model", model_path, "--arch", "3-A", "--hidden-units", 32,
        "--data", data_path, "--out", report_path,
    )
    assert code == 0
    assert "mAP 1.0" in capsys.readouterr().out
    lines = report_path.read_text().splitlines()
    assert lines[-1].startswith("mean\t1.000000\t")
    for line in lines[:-1]:
        fields = line.split("\t")
        assert len(fields) == 5
        assert float(fields[1]) == 1.0


def test_evaluate_rejects_oversized_dataset_header(overfit_artifacts, tmp_path, capsys):
    _, model_path, _ = overfit_artifacts
    data_path = tmp_path / "huge.wlad"
    header = struct.pack("<4s5I", b"WLAD", 1, 2**32 - 1, 2**32 - 1, 8, 1)
    data_path.write_bytes(header + bytes(64))
    assert run_cli("evaluate", "--model", model_path, "--data", data_path) == 1
    assert "truncated stream while reading sample 0" in capsys.readouterr().err


def test_evaluate_rejects_unknown_dataset_version(overfit_artifacts, tmp_path, capsys):
    data_path, model_path, _ = overfit_artifacts
    raw = bytearray(data_path.read_bytes())
    raw[4:8] = (7).to_bytes(4, "little")
    patched = tmp_path / "v7.wlad"
    patched.write_bytes(bytes(raw))
    assert run_cli("evaluate", "--model", model_path, "--data", patched) == 1
    assert "unsupported dataset version 7" in capsys.readouterr().err


def test_predict_lists_scores_above_threshold(overfit_artifacts, capsys):
    data_path, model_path, samples = overfit_artifacts
    code = run_cli(
        "predict", "--model", model_path, "--arch", "3-A", "--hidden-units", 32,
        "--data", data_path, "--threshold", 0.5,
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(samples)
    spec = parse_arch("3-A", hidden_units=32, n_classes=8)
    with open(model_path, "rb") as handle:
        model = load_weights(handle, spec)
    scores = predict_scores(model, stack_features(samples))
    for line, sample, row in zip(lines, samples, scores):
        hits = ",".join(f"{k}:{row[k]:.6f}" for k in np.flatnonzero(row >= 0.5))
        assert line == f"{sample.id}\t{hits}"


def test_predict_rejects_non_finite_threshold(overfit_artifacts, capsys):
    data_path, model_path, _ = overfit_artifacts
    code = run_cli("predict", "--model", model_path, "--data", data_path, "--threshold", "nan")
    assert code == 1
    printed = capsys.readouterr()
    assert "threshold must be finite, got nan" in printed.err
    assert printed.out == ""


def test_predict_writes_to_file(overfit_artifacts, tmp_path):
    data_path, model_path, samples = overfit_artifacts
    out_path = tmp_path / "scores.tsv"
    code = run_cli(
        "predict", "--model", model_path, "--arch", "3-A", "--hidden-units", 32,
        "--data", data_path, "--threshold", 0.99, "--out", out_path,
    )
    assert code == 0
    assert len(out_path.read_text().splitlines()) == len(samples)


@pytest.fixture(scope="module")
def wide_checkpoint(tmp_path_factory):
    """An untrained 64-unit 2-A-1-A checkpoint plus a dataset it can score."""
    root = tmp_path_factory.mktemp("wide")
    cfg = SynthConfig(n_classes=5, n_samples=20, n_frames=4, n_features=6, seed=2)
    samples, _ = generate_synthetic(cfg)
    data_path = root / "data.wlad"
    with open(data_path, "wb") as handle:
        write_dataset(samples, cfg.header(), handle)
    model = build_model(parse_arch("2-A-1-A", hidden_units=64, n_classes=5), 6, init_seed=1)
    model_path = root / "model.wlam"
    with open(model_path, "wb") as handle:
        save_weights(model, handle)
    return data_path, model_path


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_checkpoint_header_replaces_arch_flags(wide_checkpoint, tmp_path, capsys, command):
    data_path, model_path = wide_checkpoint
    outputs = []
    for name, flags in (("bare", ()), ("flagged", ("--arch", "2-A-1-A", "--hidden-units", 64))):
        out_path = tmp_path / f"{name}.tsv"
        code = run_cli(command, "--model", model_path, "--data", data_path, *flags,
                       "--out", out_path)
        assert code == 0
        outputs.append((capsys.readouterr().out, out_path.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][1]


@pytest.mark.parametrize("flags", [("--arch", "3-A"), ("--hidden-units", 600)])
def test_wrong_arch_flags_name_both_specs(wide_checkpoint, capsys, flags):
    data_path, model_path = wide_checkpoint
    assert run_cli("evaluate", "--model", model_path, "--data", data_path, *flags) == 1
    err = capsys.readouterr().err
    assert "hidden_units=64" in err
    assert "block_depths=(3,)" in err or "hidden_units=600" in err


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_non_finite_checkpoint_fails_before_scoring(wide_checkpoint, tmp_path, monkeypatch,
                                                    capsys, command):
    data_path, model_path = wide_checkpoint
    with open(model_path, "rb") as handle:
        model = load_weights(handle)
    poisoned = tmp_path / "nan.wlam"
    poisoned.write_bytes(checkpoint_with(model, "out.bias", 1, np.nan))

    def never(model, features):
        raise AssertionError("predict_scores ran")

    monkeypatch.setattr(cli, "predict_scores", never)
    assert run_cli(command, "--model", poisoned, "--data", data_path) == 1
    printed = capsys.readouterr()
    assert f"--model {poisoned}: non-finite value in out.bias" in printed.err
    assert printed.out == ""


@pytest.mark.parametrize("command", ["evaluate", "predict"])
@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
def test_checkpoint_that_overflows_is_one_error_line(wide_checkpoint, tmp_path, command, out):
    data_path, model_path = wide_checkpoint
    with open(model_path, "rb") as handle:
        model = load_weights(handle)
    model.arrays["block0.layer0.weight"][...] = 1.7e308  # finite, so the checkpoint loads
    overflowing = tmp_path / "overflow.wlam"
    with open(overflowing, "wb") as handle:
        save_weights(model, handle)
    out_path = tmp_path / "out.tsv"
    out_path.write_bytes(b"keep me")
    argv = [command, "--model", overflowing, "--data", data_path,
            *(["--threshold", 0] if command == "predict" else []),
            *(["--out", out_path] if out else [])]
    done = subprocess.run([sys.executable, "-m", "wlat", *map(str, argv)], capture_output=True,
                          text=True, env=python_env(), timeout=60)
    assert done.returncode == 1
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: clip ") and "not finite" in done.stderr
    assert done.stdout == ""
    assert out_path.read_bytes() == b"keep me"


@pytest.mark.parametrize("field, value", [("--n-classes", 4), ("--n-features", 7)])
def test_dataset_shape_must_match_checkpoint(wide_checkpoint, tmp_path, capsys, field, value):
    _, model_path = wide_checkpoint
    other = tmp_path / "other.wlad"
    dims = {"--n-classes": 5, "--n-features": 6, field: value}
    assert run_cli("gen-data", "--n-samples", 6, "--n-frames", 4,
                   *[str(x) for kv in dims.items() for x in kv], "--out", other) == 0
    capsys.readouterr()
    assert run_cli("evaluate", "--model", model_path, "--data", other) == 1
    err = capsys.readouterr().err
    assert "n_classes=5" in err and f"={value}" in err


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_missing_out_directory_fails_before_scoring(overfit_artifacts, tmp_path, monkeypatch,
                                                    capsys, command):
    data_path, model_path, _ = overfit_artifacts

    def never(model, features):
        raise AssertionError("predict_scores ran")

    monkeypatch.setattr(cli, "predict_scores", never)
    code = run_cli(command, "--model", model_path, "--data", data_path,
                   "--out", tmp_path / "missing" / "out.tsv")
    assert code == 2
    printed = capsys.readouterr()
    assert "output directory does not exist" in printed.err
    assert printed.out == ""


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_out_linked_into_a_missing_directory_fails_before_scoring(overfit_artifacts, tmp_path,
                                                                  monkeypatch, capsys, command):
    data_path, model_path, _ = overfit_artifacts

    def never(model, features):
        raise AssertionError("predict_scores ran")

    monkeypatch.setattr(cli, "predict_scores", never)
    out, missing = tmp_path / "report.tsv", tmp_path / "missing"
    out.symlink_to(missing / "report.tsv")
    assert run_cli(command, "--model", model_path, "--data", data_path, "--out", out) == 2
    printed = capsys.readouterr()
    assert printed.err == ("usage error: output directory does not exist:"
                           f" {os.path.realpath(missing)}\n")
    assert printed.out == ""
    assert os.listdir(tmp_path) == ["report.tsv"]


@pytest.mark.parametrize("command,empty", [
    ("evaluate", False), ("predict", False), ("evaluate", True), ("predict", True),
], ids=["evaluate", "predict", "evaluate-empty", "predict-empty"])
def test_out_path_that_is_a_directory_fails_before_scoring(overfit_artifacts, tmp_path,
                                                           monkeypatch, capsys, command, empty):
    data_path, model_path, _ = overfit_artifacts

    def never(model, features):
        raise AssertionError("predict_scores ran")

    monkeypatch.setattr(cli, "predict_scores", never)
    out, message = (("", "--out is an empty path") if empty
                    else (tmp_path, "output path is a directory"))
    assert run_cli(command, "--model", model_path, "--data", data_path, "--out", out) == 2
    printed = capsys.readouterr()
    assert message in printed.err
    assert printed.out == ""


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_dataset_without_clips_fails_before_reading_the_checkpoint(tmp_path, monkeypatch,
                                                                   capsys, command):
    def never(handle):
        raise AssertionError("the checkpoint was read")

    monkeypatch.setattr(cli, "load_weights", never)
    empty = write_clipless_dataset(tmp_path / "empty.wlad")
    assert run_cli(command, "--model", tmp_path / "absent.wlam", "--data", empty) == 1
    printed = capsys.readouterr()
    assert f"--data {empty} holds no clips to score" in printed.err
    assert printed.out == ""


def test_evaluate_refuses_a_set_no_class_can_be_scored_before_reading_the_checkpoint(
        wide_checkpoint, tmp_path, monkeypatch, capsys):
    _, model_path = wide_checkpoint
    one = tmp_path / "one.wlad"
    assert run_cli("gen-data", "--n-classes", 5, "--n-samples", 1, "--n-frames", 4,
                   "--n-features", 6, "--out", one) == 0
    # predict needs no labels, and train refuses the same set as --valid
    assert run_cli("predict", "--model", model_path, "--data", one) == 0
    assert run_cli("train", "--arch", "1-A", "--hidden-units", 4, "--train", one,
                   "--valid", one, "--out", tmp_path / "run") == 1
    assert "validation set cannot be scored" in capsys.readouterr().err

    def never(handle):
        raise AssertionError("the checkpoint was read")

    monkeypatch.setattr(cli, "load_weights", never)
    report = tmp_path / "report.tsv"
    assert run_cli("evaluate", "--model", model_path, "--data", one, "--out", report) == 1
    printed = capsys.readouterr()
    assert printed.err == (f"error: --data {one} cannot be scored: no class has positives"
                           " and negatives\n")
    assert printed.out == ""
    assert not report.exists()


def test_evaluate_holds_no_targets_while_it_scores(tmp_path, monkeypatch):
    """The (clips x classes) float64 targets of the scorability check are freed before
    scoring starts, so the traced memory when the clips are scored is well under them."""
    cfg = SynthConfig(n_classes=500, n_samples=2000, n_frames=3, n_features=2, seed=3)
    samples, _ = generate_synthetic(cfg)
    data_path, model_path = tmp_path / "data.wlad", tmp_path / "model.wlam"
    with open(data_path, "wb") as handle:
        write_dataset(samples, cfg.header(), handle)
    model = build_model(parse_arch("1-A", hidden_units=1, n_classes=cfg.n_classes), 2, init_seed=0)
    with open(model_path, "wb") as handle:
        save_weights(model, handle)
    at_entry = []

    def traced(*args):
        at_entry.append(tracemalloc.get_traced_memory()[0])
        return predict_scores(*args)

    monkeypatch.setattr(cli, "predict_scores", traced)
    tracemalloc.start()
    try:
        assert run_cli("evaluate", "--model", model_path, "--data", data_path) == 0
    finally:
        tracemalloc.stop()
    assert at_entry[0] < 0.6 * cfg.n_samples * cfg.n_classes * 8  # the targets' bytes


@pytest.mark.parametrize("command,flag,link", [
    ("evaluate", "--data", False),
    ("evaluate", "--data", True),
    ("predict", "--model", False),
], ids=["evaluate-data", "evaluate-data-symlink", "predict-model"])
def test_out_naming_an_input_fails_before_scoring(overfit_artifacts, tmp_path, monkeypatch,
                                                  capsys, command, flag, link):
    def never(model, features):
        raise AssertionError("predict_scores ran")

    monkeypatch.setattr(cli, "predict_scores", never)
    data_path, model_path, _ = overfit_artifacts
    inputs = {"--data": tmp_path / "ten.wlad", "--model": tmp_path / "model.wlam"}
    inputs["--data"].write_bytes(data_path.read_bytes())
    inputs["--model"].write_bytes(model_path.read_bytes())
    before = inputs[flag].read_bytes()
    out = inputs[flag]
    if link:
        out = tmp_path / "report.tsv"
        out.symlink_to(inputs[flag])
    assert run_cli(command, "--model", inputs["--model"], "--data", inputs["--data"],
                   "--out", out) == 2
    assert f"{flag} and --out name the same file" in capsys.readouterr().err
    assert inputs[flag].read_bytes() == before


def test_evaluate_missing_file_is_runtime_error(overfit_artifacts, capsys):
    _, model_path, _ = overfit_artifacts
    code = run_cli("evaluate", "--model", model_path, "--arch", "3-A",
                   "--hidden-units", 32, "--data", "/nonexistent/nope.wlad")
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--config", "--train", "--valid", "--data", "--model"])
@pytest.mark.parametrize("damage", ["missing", "garbage", "truncated"])
def test_unreadable_input_is_one_error_line_naming_its_flag(tiny_dataset, wide_checkpoint,
                                                            tmp_path, capsys, flag, damage):
    train, valid = tiny_dataset
    data, model = wide_checkpoint
    config = tmp_path / "recipe.json"
    config.write_text(json.dumps({"epochs": 1, "batch_size": 8}))
    inputs = {"--config": config, "--train": train, "--valid": valid, "--data": data,
              "--model": model}
    bad = tmp_path / "bad"
    if damage == "garbage":
        bad.write_bytes(b"neither JSON nor a wlat file\n")
    elif damage == "truncated":
        whole = inputs[flag].read_bytes()
        bad.write_bytes(whole[: len(whole) // 2])
    inputs[flag] = bad
    if flag in ("--data", "--model"):
        argv = ["evaluate", "--model", inputs["--model"], "--data", inputs["--data"]]
    else:
        argv = ["train", "--config", inputs["--config"], "--arch", "1-A", "--hidden-units", 6,
                "--train", inputs["--train"], "--valid", inputs["--valid"],
                "--out", tmp_path / "run"]
    assert run_cli(*argv) == 1
    printed = capsys.readouterr()
    assert printed.err.startswith(f"error: {flag} {bad}: ")
    assert printed.err.count("\n") == 1
    assert printed.out == ""
    assert not (tmp_path / "run").exists()


def test_train_and_valid_sets_may_differ_in_frame_count(tiny_dataset, tmp_path):
    train, _ = tiny_dataset
    six_frames = tmp_path / "six.wlad"
    assert run_cli("gen-data", "--n-classes", 4, "--n-samples", 8, "--n-frames", 6,
                   "--n-features", 6, "--out", six_frames) == 0
    assert run_cli("train", "--arch", "1-A", "--train", train, "--valid", six_frames,
                   "--out", tmp_path / "run", "--epochs", 1, "--batch-size", 8,
                   "--hidden-units", 6) == 0
    assert (tmp_path / "run" / "model.wlam").exists()


def test_train_rejects_a_valid_set_of_other_classes(tiny_dataset, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("fit ran")

    monkeypatch.setattr(cli, "fit", never)
    train, _ = tiny_dataset
    other = tmp_path / "other.wlad"
    assert run_cli("gen-data", "--n-classes", 7, "--n-samples", 8, "--n-frames", 4,
                   "--n-features", 6, "--out", other) == 0
    capsys.readouterr()
    assert run_cli("train", "--arch", "1-A", "--train", train, "--valid", other,
                   "--out", tmp_path / "run", "--hidden-units", 6) == 1
    assert (f"error: --valid {other} and the model disagree: dataset has n_classes=7"
            " n_features=6, model has n_classes=4 input_dim=6") in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_negative_running_variance_fails_before_scoring(wide_checkpoint, tmp_path, monkeypatch,
                                                        capsys, command):
    data_path, model_path = wide_checkpoint
    with open(model_path, "rb") as handle:
        model = load_weights(handle)
    poisoned = tmp_path / "negative.wlam"
    poisoned.write_bytes(checkpoint_with(model, "block0.layer0.running_var", 3, -1.0))

    def never(model, features):
        raise AssertionError("predict_scores ran")

    monkeypatch.setattr(cli, "predict_scores", never)
    assert run_cli(command, "--model", poisoned, "--data", data_path) == 1
    printed = capsys.readouterr()
    assert (f"--model {poisoned}: negative batch-norm variance in block0.layer0.running_var"
            in printed.err)
    assert printed.out == ""


@pytest.mark.parametrize("argv,message", [
    (("gen-data", "--out", "x.wlad", "--seed", -1), "seed must be >= 0, got -1"),
    (("train", "--seed", -1), "seed must be >= 0, got -1"),
    (("train", "--init-seed", -1), "--init-seed must be >= 0, got -1"),
    (("gradcheck", "--arch", "1-A", "--seed", -1), "--seed must be >= 0, got -1"),
], ids=["gen-data-seed", "train-seed", "train-init-seed", "gradcheck-seed"])
def test_negative_seed_names_its_setting_before_any_work(tiny_dataset, tmp_path, monkeypatch,
                                                         capsys, argv, message):
    def never(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("read_dataset", "generate_synthetic", "build_model"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.chdir(tmp_path)
    train, valid = tiny_dataset
    if argv[0] == "train":
        argv += ("--arch", "1-A", "--train", train, "--valid", valid, "--out", "run")
    assert run_cli(*argv) == 1
    assert f"error: {message}\n" == capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv,message", [
    (("train", "--arch", "2-B"), "arch '2-B': expected 'A' at position 2, got 'B'"),
    (("train", "--arch", "1-A", "--hidden-units", 0), "--hidden-units must be >= 1, got 0"),
    (("evaluate", "--hidden-units", 0), "--hidden-units must be >= 1, got 0"),
    (("predict", "--hidden-units", -3), "--hidden-units must be >= 1, got -3"),
    (("evaluate", "--arch", "2-B"), "arch '2-B': expected 'A' at position 2, got 'B'"),
    (("predict", "--arch", "2-B"), "arch '2-B': expected 'A' at position 2, got 'B'"),
    (("train", "--arch", "²-A"), "arch '²-A': expected integer at position 0, got '²'"),
    (("evaluate", "--arch", "٣-A"), "arch '٣-A': expected integer at position 0, got '٣'"),
], ids=["train-arch", "train-hidden-units", "evaluate-hidden-units", "predict-hidden-units",
        "evaluate-arch", "predict-arch", "train-arch-superscript-digit", "evaluate-arch-arabic-digit"])
def test_model_flags_are_checked_before_any_input_is_read(tiny_dataset, wide_checkpoint, tmp_path,
                                                          monkeypatch, capsys, argv, message):
    def never(*args, **kwargs):
        raise AssertionError("an input was read")

    for name in ("read_dataset", "load_weights"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.chdir(tmp_path)
    if argv[0] == "train":
        train, valid = tiny_dataset
        argv += ("--train", train, "--valid", valid, "--out", "run")
    else:
        data, model = wide_checkpoint
        argv += ("--model", model, "--data", data)
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv,message", [
    (("train", "--arch", "1-A", "--hidden-units", 0), "--hidden-units must be >= 1, got 0"),
    (("train", "--arch", "2-B"), "arch '2-B': expected 'A' at position 2, got 'B'"),
    (("evaluate", "--hidden-units", 0), "--hidden-units must be >= 1, got 0"),
    (("predict", "--arch", "2-B"), "arch '2-B': expected 'A' at position 2, got 'B'"),
    (("train", "--arch", "٣-A"), "arch '٣-A': expected integer at position 0, got '٣'"),
    (("predict", "--arch", "²-A"), "arch '²-A': expected integer at position 0, got '²'"),
], ids=["train-hidden-units", "train-arch", "evaluate-hidden-units", "predict-arch",
        "train-arch-arabic-digit", "predict-arch-superscript-digit"])
def test_flags_are_checked_before_any_path(tiny_dataset, wide_checkpoint, tmp_path, monkeypatch,
                                           capsys, argv, message):
    # every output path below breaks the file rule; a bad flag must be named first
    monkeypatch.chdir(tmp_path)
    for name, source in zip(("t.wlad", "v.wlad", "d.wlad", "m.wlam"),
                            (*tiny_dataset, *wide_checkpoint)):
        shutil.copyfile(source, name)
    (tmp_path / "run").mkdir()
    if argv[0] == "train":
        argv += ("--train", "t.wlad", "--valid", "v.wlad", "--out", "t.wlad")
    else:
        argv += ("--model", "m.wlam", "--data", "d.wlad", "--out", "run")
    before = snapshot(tmp_path)
    assert run_cli(*argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert snapshot(tmp_path) == before and os.listdir("run") == []


def test_required_flags_may_come_from_the_config_file(tiny_dataset, tmp_path):
    train, valid = tiny_dataset
    config = tmp_path / "recipe.json"
    config.write_text(json.dumps({"arch": "1-A", "train_path": str(train),
                                  "valid_path": str(valid), "out": str(tmp_path / "run"),
                                  "hidden_units": 6, "epochs": 1, "batch_size": 8}))
    assert run_cli("train", "--config", config) == 0
    assert sorted(os.listdir(tmp_path / "run")) == ["model.wlam", "train_log.tsv"]


@pytest.mark.parametrize("raised", [MemoryError("Unable to allocate 238. GiB"), MemoryError()],
                         ids=["numpy-message", "bare"])
def test_out_of_memory_is_one_error_line(tiny_dataset, tmp_path, monkeypatch, capsys, raised):
    def exhausted(*args, **kwargs):
        raise raised

    monkeypatch.setattr(cli, "build_model", exhausted)
    train, valid = tiny_dataset
    assert run_cli("train", "--arch", "1-A", "--hidden-units", 1000000000, "--train", train,
                   "--valid", valid, "--out", tmp_path / "run") == 1
    assert capsys.readouterr().err == f"error: {str(raised) or 'MemoryError'}\n"
    assert not (tmp_path / "run").exists()


def test_gradcheck_passes_at_toy_dims(capsys):
    assert run_cli("gradcheck", "--arch", "2-A-1-A") == 0
    printed = capsys.readouterr().out
    assert "max relative error" in printed
    assert float(printed.split()[3]) < 1e-4


def test_gradcheck_fails_when_threshold_tightened(monkeypatch):
    monkeypatch.setattr(cli, "GRADCHECK_THRESHOLD", 1e-18)
    assert run_cli("gradcheck", "--arch", "3-A") == 1


@pytest.mark.parametrize("toy_dims", ["2,4,5", "-2,4,5,3", "2,4,-5,3", "2,0,5,3"])
def test_gradcheck_bad_toy_dims_is_usage_error(capsys, toy_dims):
    assert run_cli("gradcheck", "--arch", "3-A", f"--toy-dims={toy_dims}") == 2
    assert "toy-dims" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--signal-scale", "1e39"), ("--noise-sigma", "1e300")])
def test_generator_overflow_fails_before_any_work(tmp_path, capsys, flag, value):
    keep = tmp_path / "keep.wlad"
    assert run_cli("gen-data", "--n-samples", 20, "--out", keep) == 0
    before = keep.read_bytes()
    capsys.readouterr()
    assert run_cli("gen-data", "--n-samples", 20, "--out", keep, flag, value) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: signal_scale ") and err.count("\n") == 1
    assert f"{flag[2:].replace('-', '_')} {float(value)} " in err
    assert "above float32's max" in err
    assert keep.read_bytes() == before
    assert os.listdir(tmp_path) == ["keep.wlad"]


@pytest.mark.parametrize("valid_samples,message", [
    (-1, "--valid-samples must be >= 1 and < --n-samples 12, got -1"),
    (0, "--valid-samples must be >= 1 and < --n-samples 12, got 0"),
    (12, "--valid-samples must be >= 1 and < --n-samples 12, got 12"),
], ids=["negative", "empty", "whole-set"])
def test_valid_split_names_its_flag_and_bound(tmp_path, capsys, valid_samples, message):
    # a split of no clips is refused too: train, evaluate and predict all refuse such a file
    assert run_cli("gen-data", *GEN_FLAGS, "--out", tmp_path / "a.wlad", "--truth-out",
                   tmp_path / "a.truth", "--valid-out", tmp_path / "b.wlad", "--valid-samples",
                   valid_samples, "--valid-truth-out", tmp_path / "b.truth") == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == []


def test_clip_id_holding_a_separator_is_rejected_before_scoring(wide_checkpoint, tmp_path,
                                                                capsys):
    data_path, model_path = wide_checkpoint
    raw = data_path.read_bytes()
    crafted = tmp_path / "crafted.wlad"
    crafted.write_bytes(raw.replace(b"s000000", b"a\tb\nc00", 1))
    assert run_cli("predict", "--model", model_path, "--data", crafted, "--threshold", 0) == 1
    printed = capsys.readouterr()
    assert printed.err == (f"error: --data {crafted}: sample 'a\\tb\\nc00':"
                           " id holds a tab, CR or LF\n")
    assert printed.out == ""


GEN_OUTPUTS = ("--out", "--valid-out", "--truth-out", "--valid-truth-out")


@pytest.mark.parametrize("raised", [OSError(errno.ENOSPC, "No space left on device"),
                                    KeyboardInterrupt()], ids=["no-space", "interrupt"])
def test_failed_write_leaves_every_output_as_it_was(tmp_path, monkeypatch, capsys, raised):
    paths = {flag: tmp_path / f"prior{flag}" for flag in GEN_OUTPUTS}
    for flag, path in paths.items():
        path.write_bytes(f"prior {flag}\n".encode())
    listed = sorted(os.listdir(tmp_path))
    real_write_truth = cli.write_truth

    def half_then_fail(truth, sink):
        first = dict(list(truth.items())[: len(truth) // 2])
        real_write_truth(first, sink)
        raise raised

    monkeypatch.setattr(cli, "write_truth", half_then_fail)
    argv = ["gen-data", *GEN_FLAGS, "--valid-samples", 4,
            *[x for flag, path in paths.items() for x in (flag, path)]]
    if isinstance(raised, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            run_cli(*argv)
    else:
        assert run_cli(*argv) == 1
        assert (capsys.readouterr().err
                == f"error: --truth-out {paths['--truth-out']}: No space left on device\n")
    for flag, path in paths.items():
        assert path.read_bytes() == f"prior {flag}\n".encode()
    assert sorted(os.listdir(tmp_path)) == listed


def test_predict_out_is_utf8_whatever_the_locale(wide_checkpoint, tmp_path):
    data_path, model_path = wide_checkpoint
    with open(data_path, "rb") as handle:
        header, samples = read_dataset(handle)
    samples[0] = dataclasses.replace(samples[0], id="é")
    data = tmp_path / "accented.wlad"
    with open(data, "wb") as handle:
        write_dataset(samples, header, handle)
    utf8_out, posix_out = tmp_path / "utf8.tsv", tmp_path / "posix.tsv"
    assert run_cli("predict", "--model", model_path, "--data", data, "--out", utf8_out) == 0
    posix_out.write_bytes(b"old scores\n")
    env = {k: v for k, v in python_env().items()
           if not k.startswith("LC_") and k not in ("LANG", "PYTHONIOENCODING", "PYTHONUTF8")}
    done = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "wlat", "predict", "--model", str(model_path),
         "--data", str(data), "--out", str(posix_out)],
        capture_output=True, env=dict(env, LC_ALL="POSIX"), timeout=60)
    assert done.returncode == 0, done.stderr
    assert posix_out.read_bytes() == utf8_out.read_bytes()
    assert posix_out.read_bytes().startswith("é\t".encode("utf-8"))


def test_predict_stdout_is_utf8_whatever_the_locale(wide_checkpoint, tmp_path):
    data_path, model_path = wide_checkpoint
    with open(data_path, "rb") as handle:
        header, samples = read_dataset(handle)
    samples[0] = dataclasses.replace(samples[0], id="é1")
    data = tmp_path / "accented.wlad"
    with open(data, "wb") as handle:
        write_dataset(samples, header, handle)
    argv = ["predict", "--model", str(model_path), "--data", str(data), "--threshold", "0"]
    out = tmp_path / "scores.tsv"
    assert run_cli(*argv, "--out", out) == 0
    env = {k: v for k, v in python_env().items()
           if not k.startswith("LC_") and k not in ("LANG", "PYTHONIOENCODING", "PYTHONUTF8")}
    done = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "wlat", *argv],
                          capture_output=True, env=dict(env, LC_ALL="POSIX"), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == out.read_bytes()
    assert done.stdout.startswith("é1\t".encode("utf-8"))


def test_out_path_that_is_not_utf8_prints_as_given(tmp_path):
    out = os.fsencode(tmp_path) + b"/d\xff.wlad"
    done = subprocess.run([sys.executable, "-m", "wlat", "gen-data", "--n-samples", "5",
                           "--out", out], capture_output=True, timeout=60,
                          env=dict(python_env(), PYTHONIOENCODING="utf-8"))
    assert done.returncode == 0, done.stderr
    assert done.stdout == b"wrote 5 samples to " + out + b"\n"
    assert os.path.exists(out)


def test_failed_write_prints_nothing_on_stdout(overfit_artifacts, tmp_path, monkeypatch, capsys):
    def no_space(source, target):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "replace", no_space)
    out = tmp_path / "report.tsv"
    assert evaluate_into(overfit_artifacts, out) == 1
    printed = capsys.readouterr()
    assert printed.err == f"error: --out {out}: No space left on device\n"
    assert printed.out == ""
    assert os.listdir(tmp_path) == []


def evaluate_into(artifacts, out):
    data_path, model_path, _ = artifacts
    return run_cli("evaluate", "--model", model_path, "--data", data_path, "--out", out)


def test_symlinked_out_is_written_through(overfit_artifacts, tmp_path):
    assert evaluate_into(overfit_artifacts, tmp_path / "plain.tsv") == 0
    target, link = tmp_path / "target.tsv", tmp_path / "link.tsv"
    target.write_bytes(b"old report\n")
    link.symlink_to(target.name)
    assert evaluate_into(overfit_artifacts, link) == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == (tmp_path / "plain.tsv").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["link.tsv", "plain.tsv", "target.tsv"]


def test_symlink_loop_out_fails_like_open_and_stays(overfit_artifacts, tmp_path, capsys):
    loop = tmp_path / "a.tsv"
    loop.symlink_to("b.tsv")
    (tmp_path / "b.tsv").symlink_to("a.tsv")
    assert evaluate_into(overfit_artifacts, loop) == 1
    assert capsys.readouterr().err == f"error: --out {loop}: Too many levels of symbolic links\n"
    assert os.readlink(loop) == "b.tsv" and os.readlink(tmp_path / "b.tsv") == "a.tsv"
    assert sorted(os.listdir(tmp_path)) == ["a.tsv", "b.tsv"]


def test_out_keeps_its_mode_and_a_new_one_gets_opens(overfit_artifacts, tmp_path):
    kept, new = tmp_path / "kept.tsv", tmp_path / "new.tsv"
    kept.write_bytes(b"old report\n")
    kept.chmod(0o600)
    assert evaluate_into(overfit_artifacts, kept) == 0
    assert evaluate_into(overfit_artifacts, new) == 0
    assert kept.read_bytes() == new.read_bytes()
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(kept.stat().st_mode) == 0o600
    assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask


def test_out_naming_a_fifo_is_written_in_place(overfit_artifacts, tmp_path, capsys):
    data_path, model_path, _ = overfit_artifacts
    argv = ["predict", "--model", model_path, "--data", data_path]
    assert run_cli(*argv) == 0
    expected = capsys.readouterr().out.encode("utf-8")
    fifo = tmp_path / "scores.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert run_cli(*argv, "--out", fifo) == 0
    finally:
        reader.join(timeout=30)
        if reader.is_alive():  # release a reader still waiting for a writer
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=30)
    assert received == [expected]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["scores.fifo"]


def test_a_model_on_a_fifo_is_refused_as_a_stream_that_cannot_seek(overfit_artifacts, tmp_path,
                                                                   capsys):
    data_path, model_path, _ = overfit_artifacts
    fifo = tmp_path / "model.fifo"
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "wb") as sink:
                sink.write(Path(model_path).read_bytes())
        except BrokenPipeError:  # the reader gave up on the stream
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        code = run_cli("evaluate", "--model", fifo, "--data", data_path)
    finally:
        writer.join(timeout=30)
        if writer.is_alive():  # release a writer still waiting for a reader
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=30)
    assert not writer.is_alive()
    printed = capsys.readouterr()
    assert (code, printed.out, printed.err) == (1, "", f"error: --model {fifo}: Illegal seek\n")


def test_out_naming_a_pipe_is_written_in_place(overfit_artifacts, tmp_path, monkeypatch):
    data_path, model_path, _ = overfit_artifacts
    argv = ["predict", "--model", model_path, "--data", data_path, "--out"]
    assert run_cli(*argv, tmp_path / "plain.tsv") == 0
    real_open = os.open

    def no_files_under_proc(path, *args, **kwargs):
        if os.fspath(path).startswith("/proc/"):
            raise PermissionError(errno.EACCES, "refused a file under /proc", path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", no_files_under_proc)
    read_end, write_end = os.pipe()
    received = []

    def drain():
        with open(read_end, "rb") as source:
            received.append(source.read())

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    try:
        code = run_cli(*argv, f"/dev/fd/{write_end}")
    finally:
        os.close(write_end)
        reader.join(timeout=30)
    assert code == 0
    assert not reader.is_alive()
    assert received == [(tmp_path / "plain.tsv").read_bytes()]
    assert os.listdir(tmp_path) == ["plain.tsv"]


def test_out_naming_the_file_stdout_is_redirected_to_gets_records_then_table(
        overfit_artifacts, tmp_path, capsys):
    assert evaluate_into(overfit_artifacts, tmp_path / "records.tsv") == 0
    expected = (tmp_path / "records.tsv").read_bytes() + capsys.readouterr().out.encode("utf-8")
    data_path, model_path, _ = overfit_artifacts
    argv = [sys.executable, "-m", "wlat", "evaluate", "--model", str(model_path),
            "--data", str(data_path), "--out", "/dev/stdout"]
    piped = subprocess.run(argv, capture_output=True, env=python_env(), timeout=60)
    assert piped.returncode == 0, piped.stderr
    with open(tmp_path / "r.txt", "wb") as stdout:
        done = subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, env=python_env(),
                              timeout=60)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "r.txt").read_bytes() == piped.stdout == expected
    assert sorted(os.listdir(tmp_path)) == ["r.txt", "records.tsv"]


def run_into_closed_pipe(*argv):
    """Run ``python -m wlat`` with stdout on a pipe whose read end is closed before it starts."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "wlat", *map(str, argv)], stdout=write_end,
                              stderr=subprocess.PIPE, env=python_env(), timeout=60)
    finally:
        os.close(write_end)


def test_a_closed_stdout_ends_the_command_quietly(overfit_artifacts):
    data_path, model_path, _ = overfit_artifacts
    done = run_into_closed_pipe("predict", "--model", model_path, "--data", data_path,
                                "--threshold", 0)
    assert (done.returncode, done.stderr) == (0, b"")


def test_a_closed_stdout_as_out_is_a_failed_write(overfit_artifacts):
    data_path, model_path, _ = overfit_artifacts
    done = run_into_closed_pipe("predict", "--model", model_path, "--data", data_path,
                                "--out", "/dev/stdout")
    assert (done.returncode, done.stderr) == (1, b"error: --out /dev/stdout: Broken pipe\n")


# Every command's base argv exits 0; the property test below overrides or drops up to
# three of its flags.  Values stay small, so no example builds more than 24 clips, 16
# hidden units or 2 epochs.
PROPERTY_BASES = {
    "gen-data": {"n_samples": "24", "n_classes": "4", "n_frames": "4", "n_features": "6",
                 "out": "gen.wlad", "truth_out": "gen.truth", "valid_out": "valid.wlad",
                 "valid_samples": "8"},
    "train": {"arch": "1-A", "hidden_units": "4", "epochs": "1", "batch_size": "8",
              "train_path": "data.wlad", "valid_path": "data.wlad", "out": "run"},
    "evaluate": {"model": "model.wlam", "data": "data.wlad", "out": "report.tsv"},
    "predict": {"model": "model.wlam", "data": "data.wlad", "out": "scores.tsv"},
    "gradcheck": {"arch": "1-A"},
}
PROPERTY_OUTPUTS = ("gen.wlad", "gen.truth", "valid.wlad", "run/model.wlam",
                    "run/train_log.tsv", "report.tsv", "scores.tsv")
DROPPED = None


@pytest.fixture(scope="module")
def property_files(tmp_path_factory):
    """The inputs every example starts from: a dataset, a checkpoint that scores it, a
    corrupt file and a directory."""
    root = tmp_path_factory.mktemp("property")
    cfg = SynthConfig(n_classes=4, n_samples=24, n_frames=4, n_features=6, seed=5)
    with open(root / "data.wlad", "wb") as handle:
        write_dataset(generate_synthetic(cfg)[0], cfg.header(), handle)
    with open(root / "model.wlam", "wb") as handle:
        save_weights(build_model(parse_arch("1-A", 4, 4), 6, init_seed=0), handle)
    (root / "corrupt.bin").write_bytes(b"neither JSON nor a wlat file\n")
    (root / "adir").mkdir()
    return root


def snapshot(root):
    return {os.path.relpath(os.path.join(folder, name), root):
            Path(folder, name).read_bytes() for folder, _, names in os.walk(root)
            for name in names}


def written_files(argv):
    args = cli._parse(cli._build_parser(), argv)
    if args.command == "train":
        return {os.path.join(args.out, name) for name in ("model.wlam", "train_log.tsv")}
    names = ("out", "truth_out", "valid_out", "valid_truth_out")
    return {getattr(args, name) for name in names if getattr(args, name, None) is not None}


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_any_flags_exit_cleanly_and_a_failure_changes_no_file(property_files, tmp_path,
                                                              monkeypatch, data):
    command = data.draw(st.sampled_from(sorted(PROPERTY_BASES)), label="command")
    flags = cli._parse(cli._build_parser(), [command]).flags
    values = st.sampled_from(["-1", "0", "1", "2", "1e39", "nan", "inf", "", "absent", "adir",
                              "corrupt.bin", "data.wlad", "model.wlam", DROPPED])
    changes = data.draw(st.dictionaries(st.sampled_from(sorted(flags)), values, max_size=3),
                        label="changes")
    via_config = data.draw(st.booleans(), label="via_config")
    prior_outputs = data.draw(st.booleans(), label="prior_outputs")

    root = Path(tempfile.mkdtemp(dir=tmp_path))
    shutil.copytree(property_files, root, dirs_exist_ok=True)
    monkeypatch.chdir(root)
    if prior_outputs:
        for name in PROPERTY_OUTPUTS:
            Path(name).parent.mkdir(exist_ok=True)
            Path(name).write_text(f"prior {name}\n")
    entries = {**PROPERTY_BASES[command], **changes}
    argv = [command]
    if via_config:
        Path("recipe.json").write_text(json.dumps(
            {key: value for key, value in changes.items() if value is not DROPPED}))
        argv += ["--config", "recipe.json"]
        entries = {key: value for key, value in entries.items() if key not in changes}
    argv += [f"{flags[key]}={value}" for key, value in entries.items() if value is not DROPPED]

    before = snapshot(root)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.run(argv)
    after, err = snapshot(root), err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "RuntimeWarning" not in err
    if code:
        lines = err.splitlines()
        assert (len(lines) == 1 and lines[0].startswith(("error: ", "usage error: "))
                or lines[0].startswith("usage: ") and f"wlat {command}: error: " in lines[-1]), \
            (argv, err)
        assert after == before, argv
    else:
        written = {os.path.normpath(path) for path in written_files(argv)}
        assert set(after) - set(before) <= written, argv
        assert {k: v for k, v in before.items() if k not in written} == \
            {k: v for k, v in after.items() if k not in written}, argv
