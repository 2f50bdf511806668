"""Dataset format, synthetic generator, batching, and stacking tests."""

import io
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlat.data import (
    DatasetFormatError,
    DatasetHeader,
    Sample,
    SynthConfig,
    generate_synthetic,
    read_dataset,
    read_truth,
    stack_features,
    stack_targets,
    write_dataset,
    write_truth,
)
from wlat.metrics import auc
from wlat.model import build_model, parse_arch
from wlat.rng import gaussian, new_rng
from wlat.train import TrainConfig, fit


def small_dataset(n_samples=20, seed=0, **overrides):
    cfg = SynthConfig(
        n_classes=5, n_samples=n_samples, n_frames=4, n_features=6, seed=seed, **overrides
    )
    samples, truth = generate_synthetic(cfg)
    return cfg, samples, truth


def write_bytes(samples, header):
    sink = io.BytesIO()
    count = write_dataset(samples, header, sink)
    assert count == len(sink.getvalue())
    return sink.getvalue()


def test_empty_dataset_is_header_only():
    header = DatasetHeader(n_frames=3, n_features=2, n_classes=4, n_samples=0)
    raw = write_bytes([], header)
    assert len(raw) == 24
    assert raw[:4] == b"WLAD"


def test_single_sample_byte_count():
    # header + (4 + len(id)) + T*M*4 + (2 + 2*labels)
    features = np.zeros((2, 3))
    sample = Sample("ab", features, (1,))
    header = DatasetHeader(n_frames=2, n_features=3, n_classes=4, n_samples=1)
    raw = write_bytes([sample], header)
    assert len(raw) == 24 + (4 + 2) + 24 + (2 + 2)


def test_round_trip_identity():
    cfg, samples, _ = small_dataset()
    raw = write_bytes(samples, cfg.header())
    header, loaded = read_dataset(io.BytesIO(raw))
    assert header == cfg.header()
    assert len(loaded) == len(samples)
    for original, copy in zip(samples, loaded):
        assert copy.id == original.id
        assert copy.labels == original.labels
        assert np.array_equal(copy.features, original.features)


def test_write_is_deterministic():
    cfg, samples, _ = small_dataset()
    assert write_bytes(samples, cfg.header()) == write_bytes(samples, cfg.header())


@settings(max_examples=25, deadline=None)
@given(
    n_frames=st.integers(1, 4),
    n_features=st.integers(1, 4),
    n_classes=st.integers(1, 6),
    n_samples=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_trip_arbitrary_shapes(n_frames, n_features, n_classes, n_samples, seed):
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n_samples):
        features = rng.normal(size=(n_frames, n_features)).astype(np.float32).astype(np.float64)
        n_labels = int(rng.integers(0, n_classes + 1))
        labels = tuple(sorted(rng.choice(n_classes, size=n_labels, replace=False).tolist()))
        samples.append(Sample(f"clip-{i}-é", features, labels))
    header = DatasetHeader(n_frames, n_features, n_classes, n_samples)
    loaded_header, loaded = read_dataset(io.BytesIO(write_bytes(samples, header)))
    assert loaded_header == header
    for original, copy in zip(samples, loaded):
        assert copy.id == original.id
        assert copy.labels == original.labels
        assert np.array_equal(copy.features, original.features)


def test_bad_magic_rejected():
    cfg, samples, _ = small_dataset(n_samples=2)
    raw = bytearray(write_bytes(samples, cfg.header()))
    raw[:4] = b"XXXX"
    with pytest.raises(DatasetFormatError, match="magic"):
        read_dataset(io.BytesIO(bytes(raw)))


def test_truncation_names_the_sample():
    cfg, samples, _ = small_dataset(n_samples=3)
    raw = write_bytes(samples, cfg.header())
    per_sample = (len(raw) - 24) // 3
    cut = 24 + per_sample + per_sample // 2  # inside the second sample
    with pytest.raises(DatasetFormatError, match="sample 1"):
        read_dataset(io.BytesIO(raw[:cut]))


def test_label_out_of_range_rejected():
    cfg, samples, _ = small_dataset(n_samples=1, labels_per_sample_min=1, labels_per_sample_max=1)
    raw = bytearray(write_bytes(samples, cfg.header()))
    raw[-2:] = int(cfg.n_classes).to_bytes(2, "little")  # patch the only label to K
    with pytest.raises(DatasetFormatError, match="label"):
        read_dataset(io.BytesIO(bytes(raw)))


def test_header_sample_count_must_match():
    cfg, samples, _ = small_dataset(n_samples=2)
    with pytest.raises(DatasetFormatError, match="2 samples"):
        write_dataset(samples[:1], cfg.header(), io.BytesIO())


def test_non_finite_features_rejected():
    features = np.full((2, 2), np.nan)
    header = DatasetHeader(2, 2, 3, 1)
    with pytest.raises(DatasetFormatError, match="non-finite"):
        write_dataset([Sample("x", features, ())], header, io.BytesIO())


@pytest.mark.parametrize("n_samples", [1, 2**32 - 1])
def test_oversized_header_fails_before_allocating(n_samples):
    header = struct.pack("<4s5I", b"WLAD", 1, 2**32 - 1, 2**32 - 1, 5, n_samples)
    tracemalloc.start()
    try:
        with pytest.raises(DatasetFormatError, match="truncated stream while reading sample 0"):
            read_dataset(io.BytesIO(header + bytes(64)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_unknown_version_rejected():
    cfg, samples, _ = small_dataset(n_samples=2)
    raw = bytearray(write_bytes(samples, cfg.header()))
    raw[4:8] = (7).to_bytes(4, "little")
    with pytest.raises(DatasetFormatError, match="unsupported dataset version 7"):
        read_dataset(io.BytesIO(bytes(raw)))


def test_signalling_nan_feature_rejected_without_warning():
    cfg, samples, _ = small_dataset(n_samples=1)
    raw = bytearray(write_bytes(samples, cfg.header()))
    raw[35:39] = (0x7FA00000).to_bytes(4, "little")  # the first feature of id "s000000"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DatasetFormatError, match="non-finite"):
            read_dataset(io.BytesIO(bytes(raw)))


def test_invalid_utf8_id_rejected():
    cfg, samples, _ = small_dataset(n_samples=1)
    raw = bytearray(write_bytes(samples, cfg.header()))
    raw[28:30] = b"\xff\xfe"  # the first two bytes of the id "s000000"
    with pytest.raises(DatasetFormatError, match="sample 0: id is not valid UTF-8"):
        read_dataset(io.BytesIO(bytes(raw)))


def test_trailing_bytes_rejected():
    cfg, samples, _ = small_dataset(n_samples=2)
    with pytest.raises(DatasetFormatError, match="3 trailing bytes"):
        read_dataset(io.BytesIO(write_bytes(samples, cfg.header()) + b"abc"))


def test_label_count_must_fit_u16():
    header = DatasetHeader(1, 1, 65536, 1)
    sample = Sample("x", np.zeros((1, 1)), tuple(range(65536)))
    with pytest.raises(DatasetFormatError, match="65536 labels"):
        write_dataset([sample], header, io.BytesIO())
    Sample("x", np.zeros((1, 1)), tuple(range(65535))).validate(header)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupted_bytes_raise_only_format_errors(data):
    cfg, samples, _ = small_dataset(n_samples=3)
    raw = bytearray(write_bytes(samples, cfg.header()))
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        for bit in data.draw(st.lists(st.integers(0, 8 * len(raw) - 1), min_size=1, max_size=4)):
            raw[bit // 8] ^= 1 << (bit % 8)
    try:
        read_dataset(io.BytesIO(bytes(raw)))
    except DatasetFormatError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet="s01-9\t,x \r\u00e9", max_size=12), max_size=5))
def test_malformed_truth_lines_raise_only_format_errors(lines):
    try:
        read_truth(io.StringIO("\n".join(["s000001\t2\t0,3", *lines]) + "\n"))
    except DatasetFormatError:
        pass


def test_generator_is_deterministic():
    cfg, first, first_truth = small_dataset(seed=77)
    _, second, second_truth = small_dataset(seed=77)
    assert first_truth == second_truth
    for a, b in zip(first, second):
        assert a.id == b.id and a.labels == b.labels
        assert np.array_equal(a.features, b.features)


def test_different_seeds_differ():
    _, first, _ = small_dataset(seed=1)
    _, second, _ = small_dataset(seed=2)
    assert not np.array_equal(first[0].features, second[0].features)


def test_noise_free_generation_reproduces_prototype():
    cfg = SynthConfig(
        n_classes=1,
        n_samples=3,
        n_frames=4,
        n_features=6,
        event_frames_min=4,
        event_frames_max=4,
        labels_per_sample_min=1,
        labels_per_sample_max=1,
        signal_scale=1.0,
        noise_sigma=0.0,
        seed=9,
    )
    samples, truth = generate_synthetic(cfg)
    prototype = samples[0].features[0]
    assert np.linalg.norm(prototype) == pytest.approx(1.0, abs=1e-6)
    for sample in samples:
        assert sample.labels == (0,)
        assert truth[sample.id][0] == (0, 1, 2, 3)
        assert np.array_equal(sample.features, np.tile(prototype, (4, 1)))


def test_truth_marks_every_assigned_class():
    cfg, samples, truth = small_dataset(n_samples=40)
    for sample in samples:
        events = truth[sample.id]
        assert set(events) == set(sample.labels)
        for frames in events.values():
            assert len(frames) >= 1
            assert all(0 <= t < cfg.n_frames for t in frames)
            assert list(frames) == sorted(set(frames))


def test_event_frames_carry_the_signal():
    # one class per sample so projections are not confounded by overlap
    cfg, samples, truth = small_dataset(n_samples=30, seed=4, labels_per_sample_max=1)
    # reconstruct the prototypes from the documented draw order: they come
    # first out of the seeded stream, one unit-norm row per class
    g = new_rng(cfg.seed)
    prototypes = gaussian(g, (cfg.n_classes, cfg.n_features))
    prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)
    for sample in samples[:10]:
        for class_index, frames in truth[sample.id].items():
            projections = sample.features @ prototypes[class_index]
            event_mean = np.mean([projections[t] for t in frames])
            assert event_mean > cfg.signal_scale / 2


def test_truth_sidecar_round_trip():
    _, samples, truth = small_dataset()
    sink = io.StringIO()
    write_truth(truth, sink)
    assert read_truth(io.StringIO(sink.getvalue())) == truth


def test_truth_reader_rejects_garbage():
    with pytest.raises(DatasetFormatError, match="line 1"):
        read_truth(io.StringIO("not a record\n"))


def fit_batches(record_batches, samples, batch_size, epochs=2):
    """Train on ``samples`` and return the batches ``fit`` drew, per epoch."""
    cfg = SynthConfig(n_classes=5, n_features=6)
    spec = parse_arch("1-A", hidden_units=4, n_classes=cfg.n_classes)
    model = build_model(spec, cfg.n_features, init_seed=0)
    batches = record_batches(samples)
    fit(model, samples, samples, TrainConfig(arch="1-A", epochs=epochs, batch_size=batch_size))
    per_epoch = -(-len(samples) // batch_size)
    return [batches[i : i + per_epoch] for i in range(0, len(batches), per_epoch)]


def test_batch_iter_sizes(record_batches):
    _, samples, _ = small_dataset(n_samples=10)
    for epoch in fit_batches(record_batches, samples, 4):
        assert [len(b) for b in epoch] == [4, 4, 2]


def test_batch_iter_is_a_permutation(record_batches):
    _, samples, _ = small_dataset(n_samples=17)
    epochs = fit_batches(record_batches, samples, 5)
    assert len(epochs) == 2
    for epoch in epochs:
        seen = [i for batch in epoch for i in batch]
        assert sorted(seen) == list(range(17))
        assert len(set(seen)) == len(seen)


def test_batch_iter_rejects_empty_and_bad_size():
    _, samples, _ = small_dataset(n_samples=3)
    spec = parse_arch("1-A", hidden_units=4, n_classes=5)
    with pytest.raises(ValueError):
        fit(build_model(spec, 6, init_seed=0), [], samples, TrainConfig(arch="1-A", epochs=1, batch_size=4))
    with pytest.raises(ValueError):
        TrainConfig(arch="1-A", epochs=1, batch_size=0)


def test_class_count_limited_to_u16_labels():
    with pytest.raises(DatasetFormatError, match="n_classes 70000"):
        DatasetHeader(2, 3, 70000, 0)
    with pytest.raises(DatasetFormatError, match="n_classes"):
        DatasetHeader(2, 3, 0x10001, 0)
    DatasetHeader(2, 3, 0x10000, 0)
    with pytest.raises(DatasetFormatError, match="n_classes 70000 exceeds u16 labels"):
        SynthConfig(n_classes=70000)


def test_multi_hot_and_stacks():
    _, samples, _ = small_dataset(n_samples=4)
    feats = stack_features(samples)
    targets = stack_targets(samples, 5)
    assert feats.shape == (4, 4, 6)
    assert targets.shape == (4, 5)
    for i, sample in enumerate(samples):
        assert set(np.flatnonzero(targets[i])) == set(sample.labels)
        assert targets[i, list(sample.labels)].tolist() == [1.0] * len(sample.labels)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_classes=0)
    with pytest.raises(ValueError):
        SynthConfig(event_frames_min=5, event_frames_max=3)
    with pytest.raises(ValueError):
        SynthConfig(event_frames_max=99)
    with pytest.raises(ValueError):
        SynthConfig(labels_per_sample_min=0)
    with pytest.raises(ValueError):
        SynthConfig(signal_scale=0.0)
    with pytest.raises(ValueError):
        SynthConfig(noise_sigma=-1.0)
    SynthConfig(noise_sigma=0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["signal_scale", "noise_sigma"])
def test_synth_config_rejects_non_finite_scales(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite.*got {value}"):
        SynthConfig(**{name: value})


def _logistic_probe_auc(train_x, train_y, test_x, test_y):
    """Full-batch gradient-descent logistic regression, one probe per class."""
    mean, std = train_x.mean(axis=0), train_x.std(axis=0)
    a_train = (train_x - mean) / std
    a_test = (test_x - mean) / std
    aucs = []
    for k in range(train_y.shape[1]):
        w = np.zeros(a_train.shape[1])
        b = 0.0
        target = train_y[:, k]
        for _ in range(2000):
            p = 1.0 / (1.0 + np.exp(-(a_train @ w + b)))
            gap = p - target
            w -= 0.1 * (a_train.T @ gap) / len(target)
            b -= 0.1 * gap.mean()
        scores = a_test @ w + b
        aucs.append(auc(scores, np.flatnonzero(test_y[:, k])))
    return aucs


def test_mean_pooled_features_are_linearly_separable():
    """A plain linear probe already scores well, so the task is learnable."""
    cfg = SynthConfig(seed=0)  # defaults: 8 classes, 2000 samples, T=10, M=32
    samples, _ = generate_synthetic(cfg)
    split = len(samples) - 500
    pooled = np.stack([s.features.mean(axis=0) for s in samples])
    targets = stack_targets(samples, cfg.n_classes)
    aucs = _logistic_probe_auc(
        pooled[:split], targets[:split], pooled[split:], targets[split:]
    )
    assert min(aucs) > 0.9
