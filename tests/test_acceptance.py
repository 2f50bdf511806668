"""Acceptance gate: one check per shipped guarantee, with a printed verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
each check also fails loudly under a plain pytest run.  The oracles live in
``tests/oracles.py``; the gradient check and the overfit fit run once per
session in ``tests/conftest.py`` fixtures that the unit tests read too.
"""

import io
import multiprocessing
import os
import pickle
import time

import numpy as np
import pytest

from wlat import nn
from wlat.data import (
    DatasetFormatError,
    SynthConfig,
    generate_synthetic,
    read_dataset,
    stack_features,
    write_dataset,
)
from wlat.metrics import auc, auc_to_dprime, average_precision
from wlat.model import (
    WeightFormatError,
    build_model,
    forward_cached,
    load_weights,
    parse_arch,
    save_weights,
)
from wlat.rng import gaussian, new_rng
from wlat.train import TrainConfig, fit

from oracles import (
    AUC_DPRIME_PAIRS,
    naive_attention,
    oracle_auc,
    oracle_average_precision,
    pool_clip,
    random_head,
)


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_dprime_pairs():
    worst = max(abs(auc_to_dprime(a) - d) for a, d in AUC_DPRIME_PAIRS)
    verdict(1, worst <= 0.01, f"11 AUC to d-prime pairs, max abs diff {worst:.4f} <= 0.01")


def test_criterion_2_substituted():
    print("\ncriterion 2: SKIP (published mAP values need the full 2M-sample corpus"
          " and its bottleneck features; substituted by criterion 6)")
    pytest.skip("substituted by criterion 6")


def test_criterion_3_gradient_integrity(preset_grad_checks):
    checks, elapsed = preset_grad_checks
    worst = max(checks, key=lambda arch: checks[arch][0])
    restored = all(ok for _, ok in checks.values())
    verdict(
        3,
        checks[worst][0] < 1e-4 and restored and elapsed < 60.0,
        f"nine architectures, max rel err {checks[worst][0]:.3e} ({worst}) < 1e-4 in"
        f" {elapsed:.1f}s; parameters restored={restored}",
    )


def test_criterion_4_attention_oracle():
    worst = 0.0
    for seed in range(100):
        rng = new_rng(seed)
        n_frames = int(rng.integers(1, 9))
        head = random_head(rng, 5, 4)
        h = gaussian(rng, (n_frames, 5))
        y, weights = pool_clip(h, head)
        expected_y, expected_weights = naive_attention(h, head)
        worst = max(worst, float(np.max(np.abs(y - expected_y))),
                    float(np.max(np.abs(weights - expected_weights))))
        assert np.max(np.abs(weights.sum(axis=0) - 1.0)) < 1e-9
        perm = rng.permutation(n_frames)
        permuted_y, permuted_weights = pool_clip(h[perm], head)
        assert np.max(np.abs(permuted_y - y)) < 1e-12
        assert np.max(np.abs(permuted_weights - weights[perm])) < 1e-12

    rng = new_rng(1234)
    head = random_head(rng, 5, 4)
    single = gaussian(rng, (1, 5))
    direct = nn.sigmoid(single @ head.cls_dense.weight + head.cls_dense.bias)[0]
    single_y, single_weights = pool_clip(single, head)
    single_exact = np.array_equal(single_y, direct) and (single_weights == 1.0).all()

    head.att_dense.weight[:] = 0.0
    head.att_dense.bias[:] = 0.0
    multi = gaussian(rng, (7, 5))
    frame_probs = nn.sigmoid(multi @ head.cls_dense.weight + head.cls_dense.bias)
    mean_pool = float(np.max(np.abs(pool_clip(multi, head)[0] - frame_probs.mean(axis=0))))

    verdict(
        4,
        worst < 1e-12 and single_exact and mean_pool < 1e-12,
        f"100 scalar-oracle instances max output and weight diff {worst:.1e} < 1e-12;"
        f" single-frame reduction exact={single_exact}; mean-pool diff {mean_pool:.1e}",
    )


def test_criterion_5_metric_oracles():
    worst = 0.0
    for seed in range(200):
        rng = new_rng(seed)
        n = int(rng.integers(2, 13))
        scores = np.round(gaussian(rng, n), 1)  # coarse rounding forces ties
        mask = rng.random(n) < 0.5
        if not mask.any():
            mask[0] = True
        if mask.all():
            mask[-1] = False
        positives = np.flatnonzero(mask)
        worst = max(
            worst,
            abs(average_precision(scores, positives)
                - oracle_average_precision(scores.tolist(), mask.tolist())),
            abs(auc(scores, positives) - oracle_auc(scores.tolist(), mask.tolist())),
        )
    # one positive tied with a negative takes half credit; all-tied scores keep input order
    tie_scores = np.array([0.7, 0.7, 0.9, 0.1])
    tie_auc_ok = abs(auc(tie_scores, [0, 2]) - 3.5 / 4.0) < 1e-12
    tie_ap_ok = (abs(average_precision(np.zeros(4), [3]) - 0.25) < 1e-12
                 and abs(average_precision(np.zeros(4), [0]) - 1.0) < 1e-12)
    verdict(
        5,
        worst < 1e-12 and tie_auc_ok and tie_ap_ok,
        f"200 seeds of brute-force AP/AUC, max diff {worst:.1e} < 1e-12; tie cases hold",
    )


def learning_run(arch, cfg, path):
    """Fit one model on the first 2000 of ``cfg``'s clips and pickle (model, result) to path."""
    samples, _ = generate_synthetic(cfg)
    spec = parse_arch(arch, hidden_units=64, n_classes=cfg.n_classes)
    model = build_model(spec, cfg.n_features, init_seed=0)
    train_cfg = TrainConfig(arch=arch, epochs=50, batch_size=100, lr=0.01, seed=0, eval_every=5)
    result = fit(model, samples[:2000], samples[2000:], train_cfg)
    with open(path, "wb") as handle:
        pickle.dump((model, result), handle)


@pytest.fixture(scope="session", autouse=True)
def learning_fits(request, tmp_path_factory):
    """Start criterion 6's four fits when the session enters this module.

    Each fit runs in a fresh spawned process on the one BLAS thread that
    ``tests/conftest.py`` pins, so the replay compares two processes.  The
    tests that wait for the fits run last, so the fits overlap the rest of
    the suite.  A worker generates its own clips and leaves its fit in a
    file, so the pool's threads in this process move no large object while
    other tests run; a ``tracemalloc`` peak would count it.
    """
    items = request.session.items
    if not any("learning_results" in getattr(item, "fixturenames", ()) for item in items):
        yield None
        return
    cfg = SynthConfig(n_samples=2500)
    samples, truth = generate_synthetic(cfg)
    archs = ("2-A-1-A", "3-A", "1-A-1-A-1-A", "2-A-1-A")  # the last fit replays the first
    root = tmp_path_factory.mktemp("learning")
    paths = [root / f"fit{i}.pickle" for i in range(len(archs))]
    start = time.monotonic()
    workers = min(len(archs), os.cpu_count() or 1)
    with multiprocessing.get_context("spawn").Pool(workers, maxtasksperchild=1) as pool:
        pending = [pool.apply_async(learning_run, (arch, cfg, path))
                   for arch, path in zip(archs, paths)]
        yield cfg, samples[2000:], truth, archs, pending, paths, start


@pytest.fixture(scope="session")
def learning_results(learning_fits):
    cfg, valid_samples, truth, archs, pending, paths, start = learning_fits
    for result in pending:
        result.get(timeout=600)
    elapsed = time.monotonic() - start
    fits = [pickle.loads(path.read_bytes()) for path in paths]
    runs = dict(zip(archs[:3], fits))
    _, repeat = fits[3]
    return cfg, valid_samples, truth, runs, repeat, elapsed


def test_criterion_6_synthetic_learning(learning_results):
    _, _, _, runs, repeat, elapsed = learning_results
    best = {arch: result.best_map for arch, (_, result) in runs.items()}
    deterministic = runs["2-A-1-A"][1].log_lines == repeat.log_lines
    ok = (
        best["2-A-1-A"] >= 0.90
        and best["2-A-1-A"] >= best["3-A"] - 0.02
        and best["1-A-1-A-1-A"] >= best["3-A"] - 0.02
        and deterministic
        and elapsed < 600.0
    )
    verdict(
        6,
        ok,
        f"valid mAP [2,1]={best['2-A-1-A']:.4f} >= 0.90, [3]={best['3-A']:.4f},"
        f" [1,1,1]={best['1-A-1-A-1-A']:.4f}; replay identical={deterministic};"
        f" {elapsed:.0f}s < 600s",
    )


def test_criterion_7_attention_concentration(learning_results, record_attention):
    cfg, valid_samples, truth, runs, _, _ = learning_results
    model, _ = runs["2-A-1-A"]
    forward_cached(model, stack_features(valid_samples), nn.INFER)
    assert len(record_attention) == model.spec.n_levels
    ratios = []
    for i, sample in enumerate(valid_samples):
        for class_index, frames in truth[sample.id].items():
            uniform_share = len(frames) / cfg.n_frames
            for att in record_attention:
                mass = float(att[i, list(frames), class_index].sum())
                ratios.append(mass / uniform_share)
    mean_ratio = float(np.mean(ratios))
    verdict(7, mean_ratio >= 1.5, f"attention mass on event frames {mean_ratio:.2f}x uniform >= 1.5x")


def test_criterion_8_overfit_sanity(overfit_run):
    _, result, _ = overfit_run
    hits = [
        int(line.split("\t")[1])
        for line in result.log_lines
        if float(line.split("\t")[2]) < 0.01
    ]
    verdict(
        8,
        bool(hits) and hits[0] <= 500,
        f"ten-sample batch reaches loss < 0.01 at step {hits[0] if hits else '>500'} of 500",
    )


def test_criterion_9_format_round_trips():
    cfg = SynthConfig(n_classes=5, n_samples=8, n_frames=4, n_features=6, seed=11)
    samples, _ = generate_synthetic(cfg)
    first = io.BytesIO()
    write_dataset(samples, cfg.header(), first)
    first.seek(0)
    header, loaded = read_dataset(first)
    second = io.BytesIO()
    write_dataset(loaded, header, second)
    dataset_bitwise = (first.getvalue() == second.getvalue() and header == cfg.header()
                       and all(s.features.dtype == np.float32 for s in (*samples, *loaded)))

    spec = parse_arch("2-A-1-A", hidden_units=5, n_classes=3)
    model = build_model(spec, input_dim=4, init_seed=3)
    forward_cached(model, gaussian(new_rng(22), (6, 4, 4)), nn.TRAIN)  # move the running stats
    saved = io.BytesIO()
    save_weights(model, saved)
    saved.seek(0)
    reloaded = load_weights(saved, spec)
    resaved = io.BytesIO()
    save_weights(reloaded, resaved)
    state = reloaded.arrays
    weights_bitwise = saved.getvalue() == resaved.getvalue() and all(
        np.array_equal(arr, state[name]) for name, arr in model.arrays.items())

    with pytest.raises(DatasetFormatError, match="magic"):
        read_dataset(io.BytesIO(b"XXXX" + first.getvalue()[4:]))
    with pytest.raises(DatasetFormatError, match="truncated"):
        read_dataset(io.BytesIO(first.getvalue()[:-3]))
    with pytest.raises(WeightFormatError, match="magic"):
        load_weights(io.BytesIO(b"XXXX" + saved.getvalue()[4:]), spec)
    with pytest.raises(WeightFormatError, match="truncated"):
        load_weights(io.BytesIO(saved.getvalue()[:-3]), spec)

    verdict(
        9,
        dataset_bitwise and weights_bitwise,
        f"dataset files round-trip bitwise={dataset_bitwise}, weight files={weights_bitwise};"
        " corrupted magic and truncation raise the format errors",
    )
