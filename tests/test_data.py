"""Dataset format, synthetic generator, batching, and stacking tests."""

import hashlib
import io
import re
import struct
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlat import data
from wlat.data import (
    SYNTH_BLOCK_BYTES,
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
        # generated and read features are both the stored float32 values
        assert original.features.dtype == copy.features.dtype == np.float32
        assert copy.features.tobytes() == original.features.tobytes()


def test_read_holds_the_features_once(tmp_path):
    cfg = SynthConfig(n_classes=527, n_samples=1000, n_frames=10, n_features=128)
    samples, _ = generate_synthetic(cfg)
    path = tmp_path / "paper.wlad"
    with open(path, "wb") as sink:
        size = write_dataset(samples, cfg.header(), sink)
    del samples
    tracemalloc.start()
    try:
        with open(path, "rb") as source:
            read_dataset(source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the bytes read, which the features view, plus the objects of each clip;
    # widening the features to float64 would hold them twice more
    assert peak < size + cfg.n_samples * 1024


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


def test_size_guard_holds_at_its_bound():
    # A clip with an empty id and no labels is the least the header implies:
    # 4 + 4 * 2 * 3 + 2 = 30 bytes here.  Three such clips read back from
    # exactly 90 bytes; one byte fewer is refused by the guard, before any clip.
    header = DatasetHeader(n_frames=2, n_features=3, n_classes=4, n_samples=3)
    samples = [Sample("", np.full((2, 3), i, dtype=np.float32), ()) for i in range(3)]
    raw = write_bytes(samples, header)
    assert len(raw) == 24 + 90
    read_header, loaded = read_dataset(io.BytesIO(raw))
    assert read_header == header
    assert [(s.id, s.features.tobytes(), s.labels) for s in loaded] == [
        (s.id, s.features.tobytes(), s.labels) for s in samples]
    with pytest.raises(DatasetFormatError) as info:
        read_dataset(io.BytesIO(raw[:-1]))
    assert str(info.value) == ("truncated stream while reading sample 2: the header implies"
                               " at least 90 bytes of samples, 89 present")


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


@pytest.mark.parametrize("sample_id", ["a\tb", "a\rb", "a\nb", "a\tb\nc"])
def test_id_holding_a_separator_is_rejected(sample_id):
    header = DatasetHeader(1, 1, 2, 1)
    features = np.zeros((1, 1), np.float32)
    message = re.escape(f"sample {sample_id!r}: id holds a tab, CR or LF")
    with pytest.raises(DatasetFormatError, match=message):
        write_dataset([Sample(sample_id, features, (0,))], header, io.BytesIO())
    stand_in = "x" * len(sample_id)
    raw = write_bytes([Sample(stand_in, features, (0,))], header)
    with pytest.raises(DatasetFormatError, match=message):
        read_dataset(io.BytesIO(raw.replace(stand_in.encode(), sample_id.encode())))


@pytest.mark.parametrize("value", [1e39, -3.5e38, 1e-46, 1e-40, 0.1])
def test_clip_float32_does_not_hold_exactly_is_refused_without_warning(value):
    # beyond float32's range, below its smallest subnormal, a subnormal it rounds, and a
    # value between two float32s
    header = DatasetHeader(1, 2, 2, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DatasetFormatError,
                           match="sample 'a': feature value not exact in float32"):
            write_dataset([Sample("a", np.array([[value, 1.0]]), (0,))], header, io.BytesIO())


def test_clip_of_another_shape_is_refused():
    header = DatasetHeader(2, 3, 4, 1)
    with pytest.raises(DatasetFormatError, match=re.escape("feature shape (3, 2) != (2, 3)")):
        write_dataset([Sample("x", np.zeros((3, 2), np.float32), ())], header, io.BytesIO())
    # on read a clip has the header's shape, so one written as 3 x 3 leaves bytes over
    raw = bytearray(write_bytes([Sample("x", np.zeros((3, 3), np.float32), ())],
                                DatasetHeader(3, 3, 4, 1)))
    raw[8:12] = (2).to_bytes(4, "little")  # n_frames
    with pytest.raises(DatasetFormatError, match="12 trailing bytes"):
        read_dataset(io.BytesIO(bytes(raw)))


def test_labels_not_strictly_increasing_are_refused_on_write_and_read():
    header = DatasetHeader(1, 1, 4, 1)
    features = np.zeros((1, 1), np.float32)
    raw = write_bytes([Sample("x", features, (1, 2))], header)
    for labels in ((2, 1), (1, 1)):  # decreasing, and repeated
        message = re.escape(f"sample 'x': labels {labels} not strictly increasing")
        with pytest.raises(DatasetFormatError, match=message):
            write_dataset([Sample("x", features, labels)], header, io.BytesIO())
        with pytest.raises(DatasetFormatError, match=message):
            read_dataset(io.BytesIO(raw[:-4] + struct.pack("<2H", *labels)))


# Any float32 value; float64 values float32 cannot hold (beyond its range, below its
# smallest subnormal, between two float32s), ones it holds (subnormals and signed zeros
# included) and non-finite ones; and any float64 value.
FEATURE_VALUES = (st.floats(width=32)
                  | st.sampled_from([1e39, -3.5e38, 3.4028234663852886e38, 1e-46, 2.0**-149,
                                     1e-40, 0.1, 0.5, -0.0, 0.0, np.nan, np.inf, -np.inf])
                  | st.floats())
# Ids without a TAB, CR or LF, and ids holding one.
SAMPLE_IDS = st.text("ab\u00e9 ,0", max_size=3) | st.sampled_from(["a\tb", "a\rb", "a\nb"])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_written_dataset_reads_back_bitwise_or_is_refused(data):
    shape = n_frames, n_features = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    n_classes = data.draw(st.integers(1, 3))
    labels = (st.lists(st.integers(0, n_classes - 1), unique=True, max_size=3).map(sorted)
              | st.lists(st.integers(-1, n_classes), max_size=3))  # valid ones, and any
    samples = []
    for _ in range(data.draw(st.integers(1, 2), label="n_samples")):
        dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
        values = FEATURE_VALUES if dtype is np.float64 else st.floats(width=32)
        values = data.draw(st.lists(values, min_size=n_frames * n_features,
                                    max_size=n_frames * n_features), label="features")
        samples.append(Sample(data.draw(SAMPLE_IDS, label="id"),
                              np.array(values, dtype).reshape(shape),
                              tuple(data.draw(labels, label="labels"))))
    header = DatasetHeader(n_frames, n_features, n_classes, len(samples))
    sink = io.BytesIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            write_dataset(samples, header, sink)
        except DatasetFormatError:
            assert sink.getvalue() == b""
            return
    loaded_header, loaded = read_dataset(io.BytesIO(sink.getvalue()))
    assert loaded_header == header
    for original, copy in zip(samples, loaded, strict=True):
        assert (copy.id, copy.labels) == (original.id, original.labels)
        assert copy.features.astype(original.features.dtype).tobytes() == \
            original.features.tobytes()


@pytest.mark.parametrize("second", [
    Sample("b\udc80", np.zeros((1, 1), np.float32), (0,)),
    Sample("b\tc", np.zeros((1, 1), np.float32), (0,)),
    Sample("b", np.full((1, 1), np.nan, np.float32), (0,)),
    Sample("b", np.zeros((1, 1), np.float32), (2,)),
], ids=["id-not-utf8", "id-with-tab", "non-finite-feature", "label-out-of-range"])
def test_a_refused_later_clip_leaves_the_sink_empty(second):
    first = Sample("a", np.zeros((1, 1), np.float32), (0,))
    sink = io.BytesIO()
    with pytest.raises(DatasetFormatError, match="^sample 'b"):
        write_dataset([first, second], DatasetHeader(1, 1, 2, 2), sink)
    assert sink.getvalue() == b""


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
        read_truth(io.BytesIO(("\n".join(["s000001\t2\t0,3", *lines]) + "\n").encode("utf-8")))
    except DatasetFormatError:
        pass


def test_generator_is_deterministic():
    cfg, first, first_truth = small_dataset(seed=77)
    _, second, second_truth = small_dataset(seed=77)
    assert first_truth == second_truth
    for a, b in zip(first, second):
        assert a.id == b.id and a.labels == b.labels
        assert np.array_equal(a.features, b.features)


# sha256 of write_dataset bytes followed by write_truth bytes.  The generator's
# output is a documented function of its config, so these digests hold across
# any re-implementation that keeps the draw stream.
GENERATOR_PINS = {
    "odd-values-noise-free": (
        dict(n_classes=4, n_samples=30, n_frames=3, n_features=5, noise_sigma=0.0, seed=11),
        "acfad354d0206641724bc7bf9961c9135e0ec8b03a24bdf6dcc384764d40e8af",
    ),
    "every-class-labelled": (
        dict(n_classes=3, n_samples=40, n_frames=4, n_features=6, labels_per_sample_max=3,
             seed=12),
        "4a3f16c5a452205b43ebeaf80fe421e7bda5ab57e0abb326795a5bbf3fc33269",
    ),
    "several-blocks": (
        dict(n_classes=8, n_samples=250, n_frames=10, n_features=128, seed=13),
        "bb66ae3c4801d504a4d146bc843dd7f3ddaa1dd4b48897386638b216150c17a6",
    ),
    # above n_classes // 50 = 200 labels numpy's choice takes a tail shuffle, not Floyd's sample
    "tail-shuffle-labels": (
        dict(n_classes=10001, n_samples=5, n_frames=3, n_features=2, labels_per_sample_min=200,
             labels_per_sample_max=203, seed=14),
        "442bc7da540c2ff0fb7395769f4a75745a1cf657f351f36802c1b9fa2c4a4c9a",
    ),
}


@pytest.mark.parametrize("name", GENERATOR_PINS)
def test_generator_output_is_pinned(name):
    overrides, digest = GENERATOR_PINS[name]
    cfg = SynthConfig(**overrides)
    samples, truth = generate_synthetic(cfg)
    sink = io.BytesIO()
    write_truth(truth, sink)
    blob = write_bytes(samples, cfg.header()) + sink.getvalue()
    assert hashlib.sha256(blob).hexdigest() == digest


def synth_block_rows(cfg):
    """Clips per generator block: SYNTH_BLOCK_BYTES of their noise uniforms."""
    row_bytes = 8 * 2 * ((cfg.n_frames * cfg.n_features + 1) // 2)
    return SYNTH_BLOCK_BYTES // row_bytes


def test_several_blocks_pin_ends_in_a_partial_block():
    cfg = SynthConfig(**GENERATOR_PINS["several-blocks"][0])
    rows = synth_block_rows(cfg)
    assert cfg.n_samples > 2 * rows and cfg.n_samples % rows


def test_generator_memory_is_a_few_blocks():
    n_frames, n_features = 10, 128
    rows = synth_block_rows(SynthConfig(n_frames=n_frames, n_features=n_features))
    cfg = SynthConfig(n_samples=8 * rows + rows // 2, n_frames=n_frames, n_features=n_features)
    tracemalloc.start()
    try:
        generate_synthetic(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the float32 features it returns, plus the buffers of a few blocks;
    # transforming every clip at once would hold the features twice over
    assert peak < cfg.n_samples * n_frames * n_features * 4 + 4 * SYNTH_BLOCK_BYTES


def generate_clip_by_clip(cfg):
    """Reference generator: the documented draw order, one clip at a time."""
    rng = new_rng(cfg.seed)
    prototypes = gaussian(rng, (cfg.n_classes, cfg.n_features))
    prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)
    samples, truth = [], {}
    for i in range(cfg.n_samples):
        n_labels = int(rng.integers(cfg.labels_per_sample_min, cfg.labels_per_sample_max + 1))
        events = {}
        for c in np.sort(rng.choice(cfg.n_classes, size=n_labels, replace=False)):
            n_event = int(rng.integers(cfg.event_frames_min, cfg.event_frames_max + 1))
            frames = np.sort(rng.choice(cfg.n_frames, size=n_event, replace=False))
            events[int(c)] = tuple(int(t) for t in frames)
        features = cfg.noise_sigma * gaussian(rng, (cfg.n_frames, cfg.n_features))
        for c, frames in events.items():
            features[list(frames)] += cfg.signal_scale * prototypes[c]
        sample_id = f"s{i:06d}"
        samples.append(Sample(sample_id, features.astype(np.float32), tuple(events)))
        truth[sample_id] = events
    return samples, truth


@settings(max_examples=40, deadline=None)
@given(
    n_frames=st.integers(1, 6),
    n_features=st.integers(1, 7),
    n_classes=st.integers(1, 5),
    n_samples=st.integers(1, 25),
    noise_sigma=st.sampled_from([0.0, 0.3, 1.0]),
    block_bytes=st.integers(1, 600),
    seed=st.integers(0, 2**32),
)
def test_blocks_reproduce_the_clip_by_clip_stream(n_frames, n_features, n_classes, n_samples,
                                                  noise_sigma, block_bytes, seed):
    cfg = SynthConfig(n_classes=n_classes, n_samples=n_samples, n_frames=n_frames,
                      n_features=n_features, event_frames_max=n_frames,
                      labels_per_sample_max=n_classes, noise_sigma=noise_sigma, seed=seed)
    with mock.patch.object(data, "SYNTH_BLOCK_BYTES", block_bytes):
        samples, truth = generate_synthetic(cfg)
    reference, reference_truth = generate_clip_by_clip(cfg)
    assert truth == reference_truth
    assert [(s.id, s.labels) for s in samples] == [(s.id, s.labels) for s in reference]
    # bytes, not values: a -0.0 where the reference has 0.0 would change the file
    assert [s.features.tobytes() for s in samples] == [s.features.tobytes() for s in reference]


def test_tail_shuffle_pin_reproduces_the_clip_by_clip_stream():
    cfg = SynthConfig(**GENERATOR_PINS["tail-shuffle-labels"][0])
    samples, truth = generate_synthetic(cfg)
    reference, reference_truth = generate_clip_by_clip(cfg)
    assert truth == reference_truth
    assert [(s.id, s.labels) for s in samples] == [(s.id, s.labels) for s in reference]
    assert [s.features.tobytes() for s in samples] == [s.features.tobytes() for s in reference]
    # its clips take both of choice's ways: 200 labels by Floyd's sample, more by the shuffle
    assert {len(s.labels) > cfg.n_classes // 50 for s in samples} == {False, True}


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
    sink = io.BytesIO()
    assert write_truth(truth, sink) == len(sink.getvalue())
    assert read_truth(io.BytesIO(sink.getvalue())) == truth


def test_truth_reader_rejects_garbage():
    with pytest.raises(DatasetFormatError, match="line 1"):
        read_truth(io.BytesIO(b"not a record\n"))


@pytest.mark.parametrize("truth,line", [
    ({"a\tb": {0: (1,)}}, b"a\tb\t0\t1\n"),
    ({"a\rb": {0: (1,)}}, b"a\rb\t0\t1\n"),
    ({"a": {0: ()}}, b"a\t0\t\n"),
    ({"a": {-2: (3,)}}, b"a\t-2\t3\n"),
    ({"a": {2: (-3,)}}, b"a\t2\t-3\n"),
    ({"a": {2: (1, -3)}}, b"a\t2\t1,-3\n"),
], ids=["tab-in-id", "cr-in-id", "no-frame", "negative-class", "negative-frame",
        "negative-second-frame"])
def test_truth_outside_the_record_grammar_is_refused_both_ways(truth, line):
    sink = io.BytesIO()
    with pytest.raises(DatasetFormatError):
        write_truth(truth, sink)
    assert sink.getvalue() == b""
    with pytest.raises(DatasetFormatError, match="bad truth record on line 1"):
        read_truth(io.BytesIO(line))


def test_truth_of_an_id_with_no_class_is_refused():
    with pytest.raises(DatasetFormatError, match="an id with no class"):
        write_truth({"a": {0: (1,)}, "b": {}}, io.BytesIO())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.dictionaries(SAMPLE_IDS, st.dictionaries(
    st.integers(-1, 5),
    (st.lists(st.integers(0, 9), min_size=1, max_size=3)  # frames, then any, empty included
     | st.lists(st.integers(-2, 9), max_size=3)).map(tuple),
    max_size=2), max_size=2))
def test_a_written_truth_reads_back_equal_or_is_refused(truth):
    sink = io.BytesIO()
    try:
        write_truth(truth, sink)
    except DatasetFormatError:
        assert sink.getvalue() == b""
        return
    assert read_truth(io.BytesIO(sink.getvalue())) == truth


def test_id_that_is_not_utf8_is_refused_by_both_writers():
    sample_id = b"a\x80".decode("utf-8", "surrogateescape")  # a lone surrogate, 'a\udc80'
    message = re.escape(f"sample {sample_id!r}: id is not valid UTF-8")
    features = np.zeros((1, 1), np.float32)
    with pytest.raises(DatasetFormatError, match=message):
        write_dataset([Sample(sample_id, features, (0,))], DatasetHeader(1, 1, 2, 1), io.BytesIO())
    sink = io.BytesIO()
    with pytest.raises(DatasetFormatError, match=message):
        write_truth({"s": {0: (1,)}, sample_id: {0: (1,)}}, sink)
    assert sink.getvalue() == b""


@pytest.mark.parametrize("blob,line", [
    (b"a\t0\t1\na\t0\t2\n", 2),
    (b"a\t0\t1\nb\t0\t1\na\t1\t1\na\t00\t1\n", 4),
], ids=["adjacent", "spelled-otherwise"])
def test_repeated_truth_record_names_its_line(blob, line):
    with pytest.raises(DatasetFormatError, match=f"repeated truth record on line {line}: id 'a'"
                                                 " class 0"):
        read_truth(io.BytesIO(blob))


def test_truth_line_that_is_not_utf8_names_its_line():
    with pytest.raises(DatasetFormatError, match="line 2"):
        read_truth(io.BytesIO(b"s000001\t2\t0,3\ns\xff\t1\t2\n"))


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


@pytest.mark.parametrize("field", ["n_frames", "n_features", "n_samples"])
def test_counts_limited_to_u32_header_fields(field):
    dims = dict(n_frames=2, n_features=3, n_classes=4, n_samples=0)
    DatasetHeader(**dict(dims, **{field: 2**32 - 1}))
    with pytest.raises(DatasetFormatError, match=rf"{field} 4294967296 outside u32 \[0, 4294967295\]"):
        DatasetHeader(**dict(dims, **{field: 2**32}))


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


@pytest.mark.parametrize("overrides", [
    {"signal_scale": 1e39},
    {"noise_sigma": 1e300},
    {"signal_scale": 1.8e38},
    {"labels_per_sample_max": 3, "signal_scale": 1.2e38},
    {"noise_sigma": 4e37},
], ids=["scale", "sigma", "two-labels", "three-labels", "noise-tail"])
def test_synth_config_rejects_settings_that_can_overflow_float32(overrides):
    with pytest.raises(ValueError, match=r"can reach .*, above float32's max 3\.4028235e\+38"):
        SynthConfig(**overrides)


def test_settings_at_the_float32_bound_generate_finite_clips():
    # one feature, so the unit-norm prototype is +-1 and is planted on every frame
    cfg = SynthConfig(n_classes=1, n_samples=64, n_frames=2, n_features=1, event_frames_min=2,
                      event_frames_max=2, labels_per_sample_min=1, labels_per_sample_max=1,
                      signal_scale=3.4e38,
                      noise_sigma=0.99 * (float(np.finfo(np.float32).max) - 3.4e38) / 8.58)
    samples, _ = generate_synthetic(cfg)
    assert max(float(np.abs(s.features).max()) for s in samples) > 3.3e38
    assert all(np.isfinite(s.features).all() for s in samples)


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
