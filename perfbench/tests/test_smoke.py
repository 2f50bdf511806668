"""Smoke run of every workload at tiny shapes, traced and untraced.

Runs the benchmark as the command in BENCHMARK.json in a scratch copy of
the repository (``src/``, ``perfbench/``, ``BENCHMARK.json``), so its
reports and spans stay out of the working tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
IGNORE = shutil.ignore_patterns("__pycache__", ".perfbench-*")


def _copy(dest: Path, with_src: bool) -> Path:
    shutil.copy(REPO / "BENCHMARK.json", dest / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(REPO / path, dest / path, ignore=IGNORE)
    if with_src:
        shutil.copytree(REPO / "src", dest / "src", ignore=IGNORE)
    return dest


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    return _copy(tmp_path_factory.mktemp("checkout"), with_src=True)


def _run(root: Path, workload: str, trace: int, seed: int = 3):
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
            "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)
    return proc


def _parse(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.rstrip("\n").split("\n")
    return json.loads("\n".join(lines[:-1])), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correct_and_deterministic(checkout, workload):
    runs = {}
    for label, trace in (("plain", 0), ("again", 0), ("traced", 1)):
        report, result = _parse(_run(checkout, workload, trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, report["failures"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        kind = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        runs[label] = (report, result)

    for name, metric in runs["plain"][1]["metrics"].items():
        assert metric["value"] > 0, name
    digests = [k for k in runs["plain"][0] if k.endswith("_sha256")]
    assert "inputs_sha256" in digests and len(digests) >= 2
    for key in digests:
        assert runs["plain"][0][key] == runs["again"][0][key] == runs["traced"][0][key], key

    traced = runs["traced"][0]
    assert traced["absent"] == []
    assert traced["gflop_per_s"]["nn.dense"]["value"] > 0
    assert traced["gflop_per_s"]["attention"]["value"] > 0
    used = {name for name, row in traced["per_function"].items() if row["status"] == "used"}
    assert {"attention.forward_batch", "nn.dense_forward", "model.forward_cached.infer",
            "metrics.evaluate", "data.generate_synthetic"} <= used
    train_only = {"attention.backward_batch", "nn.dropout_mask", "train.adam_step", "train.fit"}
    io_only = {"data.read_dataset", "data.write_dataset", "model.load_weights"}
    if workload == "paper-eval":
        assert io_only <= used and not train_only & used
    else:
        assert train_only <= used and not io_only & used


def test_fails_without_sources(tmp_path):
    root = _copy(tmp_path, with_src=False)
    proc = _run(root, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_reports_missing_names_as_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "src"))
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import numpy as np
    import tracer
    import wlat.data
    import wlat.metrics

    original_auc = wlat.metrics.auc
    monkeypatch.delattr(wlat.data, "write_dataset")
    spans = tracer.Tracer()
    with spans.installed("op"):
        assert wlat.metrics.auc(np.array([0.2, 0.9, 0.4]), [1]) == 1.0
    assert wlat.metrics.auc is original_auc
    table = spans.per_function(n_ops=1, n_setups=0)
    assert table["data.write_dataset"]["status"] == "absent"
    assert table["data.write_dataset"]["calls"] == 0
    assert table["metrics.auc"]["status"] == "used" and table["metrics.auc"]["calls"] == 1
    assert table["metrics.evaluate"]["status"] == "unused"
    assert len(spans.spans) == 1
