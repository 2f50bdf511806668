"""Weakly labelled dataset format, synthetic generation, and stacking.

A dataset is a set of clips; each clip carries a fixed-shape feature matrix
(``n_frames`` x ``n_features``) and a clip-level multi-label annotation:
the set of classes present somewhere in the clip, with no frame-level
localisation.  The synthetic generator plants per-class prototype vectors
on a few random frames per clip and records where it planted them, so
tests can check that a trained model's attention actually lands on the
frames that carry the signal.

File format (all integers little-endian):

    header   magic ``WLAD`` (4 bytes), version u32, n_frames u32,
             n_features u32, n_classes u32, sample_count u32
    sample   id_len u32, id (UTF-8, id_len bytes),
             n_frames * n_features feature values as IEEE-754 float32,
             row-major, label_count u16, label indices u16 each

Features are stored at float32 precision; in memory everything is float64.
The generator rounds its output to float32 so write -> read is exact.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import BinaryIO, Sequence, TextIO

import numpy as np

from .rng import gaussian, new_rng

MAGIC = b"WLAD"
FORMAT_VERSION = 1

_HEADER_STRUCT = struct.Struct("<4s5I")

# Labels are stored as u16, so class indices stop at MAX_CLASSES - 1.
MAX_CLASSES = 0x10000


class DatasetFormatError(ValueError):
    """Raised for malformed dataset bytes or invariant-violating samples."""


@dataclass(frozen=True)
class DatasetHeader:
    n_frames: int
    n_features: int
    n_classes: int
    n_samples: int

    def __post_init__(self) -> None:
        if self.n_frames < 1 or self.n_features < 1 or self.n_classes < 1:
            raise DatasetFormatError(
                f"header dimensions must be >= 1, got frames={self.n_frames} "
                f"features={self.n_features} classes={self.n_classes}"
            )
        if self.n_classes > MAX_CLASSES:
            raise DatasetFormatError(f"n_classes {self.n_classes} exceeds u16 labels ({MAX_CLASSES})")
        if self.n_samples < 0:
            raise DatasetFormatError(f"negative sample count {self.n_samples}")


@dataclass(frozen=True)
class Sample:
    """One weakly labelled clip: frame features plus present-class indices."""

    id: str
    features: np.ndarray  # (n_frames, n_features) float64
    labels: tuple[int, ...]  # strictly increasing, each < n_classes

    def validate(self, header: DatasetHeader) -> None:
        shape = (header.n_frames, header.n_features)
        if self.features.shape != shape:
            raise DatasetFormatError(
                f"sample {self.id!r}: feature shape {self.features.shape} != {shape}"
            )
        if not np.all(np.isfinite(self.features)):
            raise DatasetFormatError(f"sample {self.id!r}: non-finite feature value")
        if any(b <= a for a, b in zip(self.labels, self.labels[1:])):
            raise DatasetFormatError(
                f"sample {self.id!r}: labels {self.labels} not strictly increasing"
            )
        if self.labels and (self.labels[0] < 0 or self.labels[-1] >= header.n_classes):
            raise DatasetFormatError(
                f"sample {self.id!r}: label outside [0, {header.n_classes})"
            )
        if len(self.labels) >= MAX_CLASSES:
            raise DatasetFormatError(f"sample {self.id!r}: {len(self.labels)} labels overflow u16")


def write_dataset(samples: Sequence[Sample], header: DatasetHeader, sink: BinaryIO) -> int:
    """Serialize ``samples`` under ``header``; returns bytes written.

    Byte-for-byte deterministic for identical input.
    """
    if header.n_samples != len(samples):
        raise DatasetFormatError(
            f"header says {header.n_samples} samples, got {len(samples)}"
        )
    written = sink.write(
        _HEADER_STRUCT.pack(
            MAGIC, FORMAT_VERSION, header.n_frames, header.n_features,
            header.n_classes, header.n_samples,
        )
    )
    for sample in samples:
        sample.validate(header)
        id_bytes = sample.id.encode("utf-8")
        written += sink.write(struct.pack("<I", len(id_bytes)))
        written += sink.write(id_bytes)
        written += sink.write(np.ascontiguousarray(sample.features, dtype="<f4").tobytes())
        written += sink.write(struct.pack("<H", len(sample.labels)))
        written += sink.write(struct.pack(f"<{len(sample.labels)}H", *sample.labels))
    return written


def read_dataset(source: BinaryIO) -> tuple[DatasetHeader, list[Sample]]:
    """Inverse of :func:`write_dataset`; validates every invariant on load.

    Reads the stream once.  The bytes the header implies are checked against
    the bytes present before any sample is parsed.
    """
    blob = source.read()
    if len(blob) < _HEADER_STRUCT.size:
        raise DatasetFormatError("truncated stream while reading header")
    magic, version, n_frames, n_features, n_classes, n_samples = _HEADER_STRUCT.unpack_from(blob)
    if magic != MAGIC:
        raise DatasetFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise DatasetFormatError(f"unsupported dataset version {version}")
    header = DatasetHeader(n_frames, n_features, n_classes, n_samples)

    n_values = n_frames * n_features
    fixed = 4 + 4 * n_values + 2  # id length, features, label count
    offset, end = _HEADER_STRUCT.size, len(blob)
    if end - offset < n_samples * fixed:
        raise DatasetFormatError(
            f"truncated stream while reading sample {(end - offset) // fixed}: the header"
            f" implies at least {n_samples * fixed} bytes of samples, {end - offset} present"
        )
    samples = []
    for ordinal in range(n_samples):
        # unpack_from raises struct.error for any field that runs past the end
        try:
            (id_len,) = struct.unpack_from("<I", blob, offset)
            features_at = offset + 4 + id_len
            labels_at = features_at + 4 * n_values + 2
            (label_count,) = struct.unpack_from("<H", blob, labels_at - 2)
            labels = struct.unpack_from(f"<{label_count}H", blob, labels_at)
            sample_id = blob[offset + 4 : features_at].decode("utf-8")
        except struct.error:
            raise DatasetFormatError(f"truncated stream while reading sample {ordinal}") from None
        except UnicodeDecodeError:
            raise DatasetFormatError(f"sample {ordinal}: id is not valid UTF-8") from None
        # validate the stored float32 values: widening a signalling NaN would warn
        features = np.frombuffer(blob, "<f4", n_values, features_at).reshape(n_frames, n_features)
        Sample(sample_id, features, labels).validate(header)
        samples.append(Sample(sample_id, features.astype(np.float64), labels))
        offset = labels_at + 2 * label_count
    if offset != end:
        raise DatasetFormatError(f"{end - offset} trailing bytes after the last sample")
    return header, samples


@dataclass(frozen=True)
class SynthConfig:
    """Synthetic weak-label generator settings.

    Defaults are sized for seconds-scale training epochs while keeping the
    task non-trivial: class evidence occupies a minority of frames, so
    pooling strategy matters.
    """

    n_classes: int = 8
    n_samples: int = 2000
    n_frames: int = 10
    n_features: int = 32
    event_frames_min: int = 1
    event_frames_max: int = 3
    labels_per_sample_min: int = 1
    labels_per_sample_max: int = 2
    signal_scale: float = 4.5
    noise_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        self.header()  # the dataset dimension limits, u16 class labels included
        if not 1 <= self.event_frames_min <= self.event_frames_max <= self.n_frames:
            raise ValueError(
                f"need 1 <= event_frames_min <= event_frames_max <= n_frames, got "
                f"[{self.event_frames_min}, {self.event_frames_max}] with "
                f"n_frames={self.n_frames}"
            )
        if not 1 <= self.labels_per_sample_min <= self.labels_per_sample_max <= self.n_classes:
            raise ValueError(
                f"need 1 <= labels_per_sample_min <= labels_per_sample_max <= "
                f"n_classes, got [{self.labels_per_sample_min}, "
                f"{self.labels_per_sample_max}] with n_classes={self.n_classes}"
            )
        if not (math.isfinite(self.signal_scale) and self.signal_scale > 0):
            raise ValueError(f"signal_scale must be finite and > 0, got {self.signal_scale}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")

    def header(self) -> DatasetHeader:
        return DatasetHeader(self.n_frames, self.n_features, self.n_classes, self.n_samples)


# sample id -> class index -> frame indices carrying that class's prototype
SynthTruth = dict[str, dict[int, tuple[int, ...]]]


def generate_synthetic(cfg: SynthConfig) -> tuple[list[Sample], SynthTruth]:
    """Generate a weakly labelled dataset with known event frames.

    One unit-norm prototype per class is drawn first; each sample then gets
    1+ classes, each class a random frame subset; those frames receive
    ``signal_scale * prototype`` on top of the Gaussian background.  Labels
    record class presence only, the returned truth records the frames.

    Deterministic given ``cfg``: the PCG64 stream seeded by ``cfg.seed`` is
    consumed in a fixed order (prototypes, then per sample: label count,
    classes, per class ascending its event count and frames, then the noise
    matrix).
    """
    rng = new_rng(cfg.seed)
    prototypes = gaussian(rng, (cfg.n_classes, cfg.n_features))
    prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)

    samples = []
    truth: SynthTruth = {}
    for i in range(cfg.n_samples):
        sample_id = f"s{i:06d}"
        n_labels = int(rng.integers(cfg.labels_per_sample_min, cfg.labels_per_sample_max + 1))
        classes = np.sort(rng.choice(cfg.n_classes, size=n_labels, replace=False))
        events = {}
        for c in classes:
            n_event = int(rng.integers(cfg.event_frames_min, cfg.event_frames_max + 1))
            frames = np.sort(rng.choice(cfg.n_frames, size=n_event, replace=False))
            events[int(c)] = tuple(int(t) for t in frames)
        features = cfg.noise_sigma * gaussian(rng, (cfg.n_frames, cfg.n_features))
        for c, frames in events.items():
            features[list(frames)] += cfg.signal_scale * prototypes[c]
        # round to storage precision so file round-trips are exact
        features = features.astype(np.float32).astype(np.float64)
        samples.append(Sample(sample_id, features, tuple(int(c) for c in classes)))
        truth[sample_id] = events
    return samples, truth


def write_truth(truth: SynthTruth, sink: TextIO) -> None:
    """Write the event-frame sidecar: ``id<TAB>class<TAB>f0,f1,...`` lines."""
    for sample_id in truth:
        for class_index, frames in sorted(truth[sample_id].items()):
            frame_text = ",".join(str(t) for t in frames)
            sink.write(f"{sample_id}\t{class_index}\t{frame_text}\n")


def read_truth(source: TextIO) -> SynthTruth:
    truth: SynthTruth = {}
    for line_no, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        try:
            sample_id, class_text, frames_text = line.split("\t")
            class_index = int(class_text)
            frames = tuple(int(t) for t in frames_text.split(","))
        except ValueError as exc:
            raise DatasetFormatError(f"bad truth record on line {line_no}: {line!r}") from exc
        truth.setdefault(sample_id, {})[class_index] = frames
    return truth


def stack_features(samples: Sequence[Sample]) -> np.ndarray:
    """Stack clip features into an (n_samples, n_frames, n_features) array."""
    return np.stack([s.features for s in samples])


def stack_targets(samples: Sequence[Sample], n_classes: int) -> np.ndarray:
    """Stack clip labels into an (n_samples, n_classes) 0/1 matrix of present classes."""
    out = np.zeros((len(samples), n_classes), dtype=np.float64)
    for row, sample in zip(out, samples):
        row[list(sample.labels)] = 1.0
    return out
