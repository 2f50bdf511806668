"""Acceptance gate: one check per shipped guarantee, with a printed verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
each check also fails loudly under a plain pytest run.
"""

import io
import itertools
import math
import multiprocessing
import os
import time

import numpy as np
import pytest

from wlat import nn
from wlat.attention import AttentionHead, forward_batch
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
    PRESET_ARCHS,
    WeightFormatError,
    build_model,
    forward_cached,
    load_weights,
    model_grad_check,
    parse_arch,
    save_weights,
)
from wlat.rng import gaussian, new_rng
from wlat.train import TrainConfig, bce_loss, fit

# Published (AUC, d-prime) operating points; the AUCs are rounded to four
# decimals, which dominates the ±0.01 reproduction tolerance.
AUC_DPRIME_PAIRS = [
    (0.9590, 2.452),
    (0.9650, 2.558),
    (0.9693, 2.645),
    (0.9700, 2.660),
    (0.9668, 2.596),
    (0.9695, 2.650),
    (0.9690, 2.639),
    (0.9571, 2.430),
    (0.9687, 2.633),
    (0.9676, 2.612),
    (0.9388, 2.185),
]


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


def test_criterion_3_gradient_integrity():
    start = time.monotonic()
    worst = 0.0
    for arch in PRESET_ARCHS:
        spec = parse_arch(arch, hidden_units=5, n_classes=3)
        model = build_model(spec, input_dim=4, init_seed=0)
        rng = new_rng(1)
        features = gaussian(rng, (3, 2, 4))
        targets = (rng.random((3, 3)) < 0.5).astype(np.float64)
        error = model_grad_check(model, features, lambda z: bce_loss(z, targets))
        worst = max(worst, error)
    elapsed = time.monotonic() - start
    verdict(
        3,
        worst < 1e-4 and elapsed < 60.0,
        f"nine architectures, max rel err {worst:.3e} < 1e-4 in {elapsed:.1f}s",
    )


def naive_attention(h, head):
    n_frames, width = h.shape
    n_classes = head.n_classes
    v = np.zeros((n_frames, n_classes))
    f = np.zeros((n_frames, n_classes))
    for t in range(n_frames):
        att = [
            sum(h[t, i] * head.att_dense.weight[i, k] for i in range(width))
            + head.att_dense.bias[k]
            for k in range(n_classes)
        ]
        cls = [
            sum(h[t, i] * head.cls_dense.weight[i, k] for i in range(width))
            + head.cls_dense.bias[k]
            for k in range(n_classes)
        ]
        top = max(att)
        exp_att = [math.exp(a - top) for a in att]
        total = sum(exp_att)
        for k in range(n_classes):
            v[t, k] = exp_att[k] / total
            f[t, k] = 1.0 / (1.0 + math.exp(-cls[k]))
    y = np.zeros(n_classes)
    for k in range(n_classes):
        denom = sum(v[t, k] for t in range(n_frames))
        for t in range(n_frames):
            y[k] += v[t, k] / denom * f[t, k]
    return y


def random_head(rng):
    """A 5-wide, 4-class head with Glorot weights and zero biases."""
    return AttentionHead(nn.DenseLayer.init(rng, 5, 4), nn.DenseLayer.init(rng, 5, 4))


def pool_clip(h, head):
    """Pool one clip (n_frames, width) through the batched head: (y, weights)."""
    y, weights, _, _ = forward_batch(h[None], head)
    return y[0], weights[0]


def test_criterion_4_attention_oracle():
    worst = 0.0
    for seed in range(100):
        rng = new_rng(seed)
        n_frames = int(rng.integers(1, 9))
        head = random_head(rng)
        head.att_dense.bias[:] = gaussian(rng, 4)
        head.cls_dense.bias[:] = gaussian(rng, 4)
        h = gaussian(rng, (n_frames, 5))
        y, weights = pool_clip(h, head)
        worst = max(worst, float(np.max(np.abs(y - naive_attention(h, head)))))
        assert np.max(np.abs(weights.sum(axis=0) - 1.0)) < 1e-9
        perm = rng.permutation(n_frames)
        assert np.max(np.abs(pool_clip(h[perm], head)[0] - y)) < 1e-12

    rng = new_rng(1234)
    head = random_head(rng)
    head.cls_dense.bias[:] = gaussian(rng, 4)
    single = gaussian(rng, (1, 5))
    direct = nn.sigmoid(single @ head.cls_dense.weight + head.cls_dense.bias)[0]
    single_exact = np.array_equal(pool_clip(single, head)[0], direct)

    head.att_dense.weight[:] = 0.0
    head.att_dense.bias[:] = 0.0
    multi = gaussian(rng, (7, 5))
    frame_probs = nn.sigmoid(multi @ head.cls_dense.weight + head.cls_dense.bias)
    mean_pool = float(np.max(np.abs(pool_clip(multi, head)[0] - frame_probs.mean(axis=0))))

    verdict(
        4,
        worst < 1e-12 and single_exact and mean_pool < 1e-12,
        f"100 scalar-oracle instances max diff {worst:.1e} < 1e-12;"
        f" single-frame reduction exact; mean-pool diff {mean_pool:.1e}",
    )


def oracle_average_precision(scores, positive_mask):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits, precisions = 0, []
    for rank, i in enumerate(order, start=1):
        if positive_mask[i]:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / hits


def oracle_auc(scores, positive_mask):
    positives = [s for s, p in zip(scores, positive_mask) if p]
    negatives = [s for s, p in zip(scores, positive_mask) if not p]
    total = 0.0
    for p, n in itertools.product(positives, negatives):
        total += 1.0 if p > n else 0.5 if p == n else 0.0
    return total / (len(positives) * len(negatives))


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
    tie_scores = np.array([0.7, 0.7, 0.9, 0.1])
    tie_auc_ok = abs(auc(tie_scores, [0, 2]) - 3.5 / 4.0) < 1e-12
    tie_ap_ok = abs(average_precision(np.zeros(4), [3]) - 0.25) < 1e-12
    verdict(
        5,
        worst < 1e-12 and tie_auc_ok and tie_ap_ok,
        f"200 seeds of brute-force AP/AUC, max diff {worst:.1e} < 1e-12; tie cases hold",
    )


def learning_run(arch, train_samples, valid_samples, n_features, n_classes):
    spec = parse_arch(arch, hidden_units=64, n_classes=n_classes)
    model = build_model(spec, n_features, init_seed=0)
    cfg = TrainConfig(arch=arch, epochs=50, batch_size=100, lr=0.01, seed=0, eval_every=5)
    return model, fit(model, train_samples, valid_samples, cfg)


@pytest.fixture(scope="session", autouse=True)
def learning_fits(request):
    """Start criterion 6's four fits when the session enters this module.

    Each fit runs in a fresh spawned process on the one BLAS thread that
    ``tests/conftest.py`` pins, so the replay compares two processes.  The
    tests that wait for the fits run last, so the fits overlap the rest of
    the suite.
    """
    items = request.session.items
    if not any("learning_results" in getattr(item, "fixturenames", ()) for item in items):
        yield None
        return
    cfg = SynthConfig(n_samples=2500)
    samples, truth = generate_synthetic(cfg)
    train_samples, valid_samples = samples[:2000], samples[2000:]
    archs = ("2-A-1-A", "3-A", "1-A-1-A-1-A", "2-A-1-A")  # the last fit replays the first
    start = time.monotonic()
    workers = min(len(archs), os.cpu_count() or 1)
    with multiprocessing.get_context("spawn").Pool(workers, maxtasksperchild=1) as pool:
        pending = [pool.apply_async(learning_run, (arch, train_samples, valid_samples,
                                                   cfg.n_features, cfg.n_classes))
                   for arch in archs]
        yield cfg, valid_samples, truth, archs, pending, start


@pytest.fixture(scope="session")
def learning_results(learning_fits):
    cfg, valid_samples, truth, archs, pending, start = learning_fits
    fits = [result.get(timeout=600) for result in pending]
    elapsed = time.monotonic() - start
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


def test_criterion_7_attention_concentration(learning_results):
    cfg, valid_samples, truth, runs, _, _ = learning_results
    model, _ = runs["2-A-1-A"]
    prediction = forward_cached(model, stack_features(valid_samples), nn.INFER)
    ratios = []
    for i, sample in enumerate(valid_samples):
        for class_index, frames in truth[sample.id].items():
            uniform_share = len(frames) / cfg.n_frames
            for att in prediction.level_att:
                mass = float(att[i, list(frames), class_index].sum())
                ratios.append(mass / uniform_share)
    mean_ratio = float(np.mean(ratios))
    verdict(7, mean_ratio >= 1.5, f"attention mass on event frames {mean_ratio:.2f}x uniform >= 1.5x")


def test_criterion_8_overfit_sanity():
    cfg = SynthConfig(n_samples=10)
    samples, _ = generate_synthetic(cfg)
    spec = parse_arch("3-A", hidden_units=32, n_classes=cfg.n_classes)
    model = build_model(spec, cfg.n_features, init_seed=0)
    result = fit(model, samples, samples, TrainConfig(
        arch="3-A", epochs=500, batch_size=10, lr=0.1, dropout=0.0, seed=0, eval_every=100,
    ))
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
    dataset_bitwise = first.getvalue() == second.getvalue()

    spec = parse_arch("2-A-1-A", hidden_units=5, n_classes=3)
    model = build_model(spec, input_dim=4, init_seed=3)
    saved = io.BytesIO()
    save_weights(model, saved)
    saved.seek(0)
    resaved = io.BytesIO()
    save_weights(load_weights(saved, spec), resaved)
    weights_bitwise = saved.getvalue() == resaved.getvalue()

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
        "dataset and weight files round-trip bitwise; corrupted magic and"
        " truncation raise the format errors",
    )
