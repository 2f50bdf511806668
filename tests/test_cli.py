"""Command-line behavior: flags, exit codes, files, and printed output."""

import dataclasses
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wlat
from wlat import cli
from wlat.data import SynthConfig, generate_synthetic, read_dataset, stack_features, write_dataset
from wlat.model import (
    PRESET_ARCHS,
    build_model,
    load_weights,
    parse_arch,
    predict_scores,
    save_weights,
)
from wlat.train import TrainConfig, fit


def run_cli(*argv):
    return cli.run([str(a) for a in argv])


GEN_FLAGS = ("--n-classes", 5, "--n-samples", 12, "--n-frames", 4, "--n-features", 6)


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
    code = "import os, wlat, wlat.__main__; print([os.environ.get(v) for v in %r])"
    done = subprocess.run([sys.executable, "-c", code % (BLAS_THREAD_VARS,)],
                          capture_output=True, text=True, env=python_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[None, None]\n"


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
    ((*GEN_FLAGS, "--truth-out", "missing/x.truth"), 2, "output directory does not exist"),
    ((*GEN_FLAGS, "--truth-out", "adir"), 2, "output path is a directory: adir"),
    ((*GEN_FLAGS, "--truth-out", "x.wlad"), 2, "--out and --truth-out name the same file"),
    ((*GEN_FLAGS, "--valid-samples", 2, "--valid-out", "./x.wlad"), 2,
     "--out and --valid-out name the same file"),
], ids=["u16-class-limit", "missing-directory", "directory-output", "same-file",
        "same-file-spelled-twice"])
def test_gen_data_fails_before_generating_or_writing(tmp_path, monkeypatch, capsys,
                                                     flags, code, message):
    def never(cfg):
        raise AssertionError("generate_synthetic ran")

    monkeypatch.setattr(cli, "generate_synthetic", never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.wlad").write_bytes(b"keep me")
    (tmp_path / "adir").mkdir()
    assert run_cli("gen-data", *flags, "--out", "x.wlad") == code
    assert message in capsys.readouterr().err
    assert (tmp_path / "x.wlad").read_bytes() == b"keep me"


def test_gen_data_empty_valid_split_is_header_only(tmp_path, capsys):
    valid = tmp_path / "valid.wlad"
    valid_truth = tmp_path / "valid.truth"
    assert run_cli("gen-data", *GEN_FLAGS, "--out", tmp_path / "train.wlad",
                   "--valid-out", valid, "--valid-samples", 0,
                   "--valid-truth-out", valid_truth) == 0
    assert len(valid.read_bytes()) == 24
    with open(valid, "rb") as handle:
        header, samples = read_dataset(handle)
    assert header.n_samples == 0 and samples == []
    assert (header.n_frames, header.n_features, header.n_classes) == (4, 6, 5)
    assert valid_truth.read_text() == ""
    assert capsys.readouterr().err == ""


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the huge steps overflow on purpose
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
def overfit_artifacts(tmp_path_factory):
    """Dataset plus a checkpoint trained until it ranks that dataset perfectly."""
    root = tmp_path_factory.mktemp("overfit")
    cfg = SynthConfig(n_samples=10)
    samples, _ = generate_synthetic(cfg)
    data_path = root / "ten.wlad"
    with open(data_path, "wb") as handle:
        write_dataset(samples, cfg.header(), handle)
    spec = parse_arch("3-A", hidden_units=32, n_classes=cfg.n_classes)
    model = build_model(spec, cfg.n_features, init_seed=0)
    result = fit(model, samples, samples, TrainConfig(
        arch="3-A", epochs=500, batch_size=10, lr=0.1, dropout=0.0, seed=0, eval_every=100,
    ))
    assert result.best_map == 1.0
    model_path = root / "model.wlam"
    with open(model_path, "wb") as handle:
        save_weights(model, handle)
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
def test_out_path_that_is_a_directory_fails_before_scoring(overfit_artifacts, tmp_path,
                                                           monkeypatch, capsys, command):
    data_path, model_path, _ = overfit_artifacts

    def never(model, features):
        raise AssertionError("predict_scores ran")

    monkeypatch.setattr(cli, "predict_scores", never)
    assert run_cli(command, "--model", model_path, "--data", data_path, "--out", tmp_path) == 2
    printed = capsys.readouterr()
    assert "output path is a directory" in printed.err
    assert printed.out == ""


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


def test_gradcheck_passes_at_toy_dims(capsys):
    assert run_cli("gradcheck", "--arch", "2-A-1-A") == 0
    printed = capsys.readouterr().out
    assert "max relative error" in printed
    assert float(printed.split()[3]) < 1e-4


def test_gradcheck_fails_when_threshold_tightened(monkeypatch):
    monkeypatch.setattr(cli, "GRADCHECK_THRESHOLD", 1e-18)
    assert run_cli("gradcheck", "--arch", "3-A") == 1


def test_gradcheck_bad_toy_dims_is_usage_error(capsys):
    assert run_cli("gradcheck", "--arch", "3-A", "--toy-dims", "2,4,5") == 2
    assert "toy-dims" in capsys.readouterr().err
