"""Weakly labelled dataset format, synthetic generation, and stacking.

A dataset is a set of clips; each clip carries a fixed-shape feature matrix
(``n_frames`` x ``n_features``) and a clip-level multi-label annotation:
the set of classes present somewhere in the clip, with no frame-level
localisation.  The synthetic generator plants per-class prototype vectors
on a few random frames per clip and records where it planted them, so
tests can check that a trained model's attention concentrates on frames
holding some planted event (not on class k's own frames: the final layer
mixes the heads' columns, so a head's column k is not class k).

File format (all integers little-endian):

    header   magic ``WLAD`` (4 bytes), version u32, n_frames u32,
             n_features u32, n_classes u32, sample_count u32
    sample   id_len u32, id (UTF-8, id_len bytes),
             n_frames * n_features feature values as IEEE-754 float32,
             row-major, label_count u16, label indices u16 each

Features are stored at float32 precision and stay float32 in memory: a
read clip is a read-only view of the bytes read, and no value float32 does
not hold exactly is written, so write -> read is exact.  The model widens
them to float64 one batch or chunk at a time.  The generator draws clip by
clip from one seeded stream but transforms the noise a block of clips at a
time; the clips of a block share one float32 array.  Its label counts,
classes, event counts and frames come from :class:`~wlat.rng.WordReader`,
word for word the draws of numpy's ``Generator.integers`` and ``choice``.
"""

from __future__ import annotations

import io
import math
import re
import struct
from dataclasses import dataclass, field
from typing import BinaryIO, Sequence

import numpy as np

from .rng import WordReader, box_muller, gaussian, new_rng

MAGIC = b"WLAD"
FORMAT_VERSION = 1

_HEADER_STRUCT = struct.Struct("<4s5I")

# Labels are stored as u16, so class indices stop at MAX_CLASSES - 1.
MAX_CLASSES = 0x10000
MAX_U32 = 0xFFFFFFFF  # frame, feature and sample counts are u32 header fields

# generate_synthetic transforms the noise uniforms of about this many bytes of
# clips at once; its temporaries stay a few blocks, never the whole set twice.
# The integer draws between two clips' uniforms read one word at a time and
# hold no buffer.
SYNTH_BLOCK_BYTES = 1 << 20

_ID = re.compile("[^\t\r\n]*")  # no TAB, CR or LF: the separators of truth and predict records
_TRUTH_RECORD = re.compile(f"({_ID.pattern})\t([0-9]+)\t([0-9]+(?:,[0-9]+)*)")  # id class frames


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
        for name in ("n_frames", "n_features", "n_samples"):
            if not 0 <= getattr(self, name) <= MAX_U32:
                raise DatasetFormatError(f"{name} {getattr(self, name)} outside u32 [0, {MAX_U32}]")


@dataclass(frozen=True)
class Sample:
    """One weakly labelled clip: frame features plus present-class indices."""

    id: str
    features: np.ndarray  # (n_frames, n_features), float32 when read or generated
    labels: tuple[int, ...]  # strictly increasing, each < n_classes

    def validate(self, header: DatasetHeader) -> np.ndarray:
        """Check the clip against ``header``; returns the float32 features it is stored as."""
        if not _ID.fullmatch(self.id):
            raise DatasetFormatError(f"sample {self.id!r}: id holds a tab, CR or LF")
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
        if self.features.dtype == "<f4":
            return self.features
        with np.errstate(all="ignore"):  # a value the cast does not keep is refused, not warned of
            stored = self.features.astype("<f4")
            if np.array_equal(stored.astype(self.features.dtype), self.features):
                return stored
        raise DatasetFormatError(f"sample {self.id!r}: feature value not exact in float32")


def _id_bytes(sample_id: str) -> bytes:
    """``sample_id`` as UTF-8; a lone surrogate is refused in the reader's words."""
    try:
        return sample_id.encode("utf-8")
    except UnicodeEncodeError:
        raise DatasetFormatError(f"sample {sample_id!r}: id is not valid UTF-8") from None


def write_dataset(samples: Sequence[Sample], header: DatasetHeader, sink: BinaryIO) -> int:
    """Serialize ``samples`` under ``header``; returns bytes written.

    Byte-for-byte deterministic; every clip is checked before a byte is written.
    """
    if header.n_samples != len(samples):
        raise DatasetFormatError(
            f"header says {header.n_samples} samples, got {len(samples)}"
        )
    records = [(sample.validate(header), _id_bytes(sample.id), sample.labels) for sample in samples]
    written = sink.write(_HEADER_STRUCT.pack(MAGIC, FORMAT_VERSION, header.n_frames,
                                             header.n_features, header.n_classes, header.n_samples))
    for features, id_bytes, labels in records:
        written += sink.write(struct.pack("<I", len(id_bytes)) + id_bytes)
        written += sink.write(features.tobytes())
        written += sink.write(struct.pack(f"<H{len(labels)}H", len(labels), *labels))
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
        # a read-only view of the stored float32 values, checked as stored
        features = np.frombuffer(blob, "<f4", n_values, features_at).reshape(n_frames, n_features)
        samples.append(Sample(sample_id, features, labels))
        samples[-1].validate(header)
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
        if self.labels_per_sample_max >= MAX_CLASSES:
            raise ValueError(f"labels_per_sample_max {self.labels_per_sample_max} overflows the u16"
                             f" label count: at most {MAX_CLASSES - 1} labels per clip")
        if not (math.isfinite(self.signal_scale) and self.signal_scale > 0):
            raise ValueError(f"signal_scale must be finite and > 0, got {self.signal_scale}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        # box_muller's |z| <= sqrt(-2 ln 2**-53) < 8.58; a frame sums <= that many unit prototypes
        peak = self.labels_per_sample_max * self.signal_scale + 8.58 * self.noise_sigma
        if peak > float(np.finfo(np.float32).max):
            raise ValueError(f"signal_scale {self.signal_scale} and noise_sigma {self.noise_sigma}"
                             f" can reach {peak:.8g}, above float32's max 3.4028235e+38")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

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
    classes, per class ascending its event count and frames, then the
    noise uniforms of :func:`~wlat.rng.gaussian` for the noise matrix).
    The counts, classes and frames are :class:`~wlat.rng.WordReader`
    readings: each takes the words, and gives the value, of the numpy call
    ``Generator.integers(low, high + 1)`` or ``sorted(Generator.choice(n, k,
    replace=False))``, so the stream is that of those calls.
    Clips are generated in blocks of about :data:`SYNTH_BLOCK_BYTES`: each
    clip's uniforms are drawn in stream order, then once per block they are
    turned into normals, scaled, planted in draw order and rounded.  The
    stream and every value are those of generating one clip at a time.
    """
    rng = new_rng(cfg.seed)
    prototypes = gaussian(rng, (cfg.n_classes, cfg.n_features))
    prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)
    planted = cfg.signal_scale * prototypes
    words = WordReader(rng)
    label_counts = cfg.labels_per_sample_max - cfg.labels_per_sample_min + 1
    event_counts = cfg.event_frames_max - cfg.event_frames_min + 1

    n_values = cfg.n_frames * cfg.n_features
    row_words = 2 * ((n_values + 1) // 2)
    block_rows = max(1, SYNTH_BLOCK_BYTES // (8 * row_words))
    uniforms = np.empty((min(block_rows, cfg.n_samples), row_words))
    samples = []
    truth: SynthTruth = {}
    for start in range(0, cfg.n_samples, block_rows):
        rows = min(block_rows, cfg.n_samples - start)
        ids = [f"s{start + row:06d}" for row in range(rows)]
        # np.add.at plants in this order (clip, class, frame), as clip by clip did
        at_row, at_frame, at_class = [], [], []
        for row, sample_id in enumerate(ids):
            n_labels = cfg.labels_per_sample_min + words.below(label_counts)
            events = truth[sample_id] = {}
            for c in words.sample(cfg.n_classes, n_labels):
                n_event = cfg.event_frames_min + words.below(event_counts)
                events[c] = frames = tuple(words.sample(cfg.n_frames, n_event))
                at_row += [row] * n_event
                at_frame += frames
                at_class += [c] * n_event
            rng.random(out=uniforms[row])
        noise = box_muller(uniforms[:rows])[:, :n_values]
        noise = noise.reshape(rows, cfg.n_frames, cfg.n_features)
        noise *= cfg.noise_sigma
        np.add.at(noise, (at_row, at_frame), planted[at_class])
        # round to storage precision so file round-trips are exact
        block = noise.astype(np.float32)
        samples += [Sample(i, features, tuple(truth[i])) for i, features in zip(ids, block)]
    return samples, truth


def write_truth(truth: SynthTruth, sink: BinaryIO) -> int:
    """Write the event-frame sidecar, UTF-8 ``id<TAB>class<TAB>f0,f1,...`` lines; returns bytes.
    Bytes that :func:`read_truth` refuses or reads as other than ``truth`` raise, unwritten."""
    for sample_id in truth:
        _id_bytes(f"{sample_id}")
    blob = "".join(f"{sample_id}\t{c}\t{','.join(map(str, frames))}\n" for sample_id in truth
                   for c, frames in sorted(truth[sample_id].items())).encode("utf-8")
    if read_truth(io.BytesIO(blob)) != truth:
        raise DatasetFormatError("truth holds an id with no class, or a class or frame not an int")
    return sink.write(blob)


def read_truth(source: BinaryIO) -> SynthTruth:
    """Inverse of :func:`write_truth`; a line not a UTF-8 ``_TRUTH_RECORD``, or repeating an
    (id, class) pair, names its number."""
    truth: SynthTruth = {}
    for line_no, line in enumerate(source, start=1):
        line = line.rstrip(b"\n")
        try:
            record = _TRUTH_RECORD.fullmatch(line.decode("utf-8"))
        except UnicodeDecodeError:
            record = None
        if record is None:
            raise DatasetFormatError(f"bad truth record on line {line_no}: {line!r}")
        sample_id, class_text, frames_text = record.groups()
        events, class_index = truth.setdefault(sample_id, {}), int(class_text)
        if class_index in events:
            raise DatasetFormatError(f"repeated truth record on line {line_no}: id {sample_id!r}"
                                     f" class {class_index}")
        events[class_index] = tuple(map(int, frames_text.split(",")))
    return truth


def stack_features(samples: Sequence[Sample]) -> np.ndarray:
    """Stack clip features into an (n_samples, n_frames, n_features) array of their dtype."""
    return np.stack([s.features for s in samples])


def stack_targets(samples: Sequence[Sample], n_classes: int) -> np.ndarray:
    """Stack clip labels into an (n_samples, n_classes) 0/1 matrix of present classes."""
    out = np.zeros((len(samples), n_classes), dtype=np.float64)
    for row, sample in zip(out, samples):
        if sample.labels and not 0 <= min(sample.labels) <= max(sample.labels) < n_classes:
            raise DatasetFormatError(f"sample {sample.id!r}: label outside [0, {n_classes})")
        row[list(sample.labels)] = 1.0
    return out
