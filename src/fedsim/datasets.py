"""Dataset containers, synthetic cluster data, and IDX (ubyte) ingestion."""

from __future__ import annotations

import gzip
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .params import FLOAT
from .streams import stream

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class DatasetError(ValueError):
    """Malformed or inconsistent dataset input."""


@dataclass
class LabeledDataset:
    samples: np.ndarray  # float32, (N, ...) per-sample shape after axis 0
    labels: np.ndarray  # int64 class indices in [0, num_classes)
    num_classes: int

    def __post_init__(self) -> None:
        self.samples = np.ascontiguousarray(self.samples, dtype=FLOAT)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if len(self.samples) != len(self.labels):
            raise DatasetError(
                f"{len(self.samples)} samples vs {len(self.labels)} labels"
            )
        if len(self.labels) and (
            self.labels.min() < 0 or self.labels.max() >= self.num_classes
        ):
            raise DatasetError(f"labels outside [0, {self.num_classes})")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def sample_shape(self) -> tuple[int, ...]:
        return tuple(self.samples.shape[1:])

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.samples[idx], self.labels[idx], self.num_classes)


def synthetic_gaussian(
    num_classes: int,
    per_class: tuple[int, ...],
    dim: int,
    spread: float,
    seed: int,
    scale: float = 1.0,
) -> list[LabeledDataset]:
    """Gaussian clusters with one mean per class, one dataset per entry of
    ``per_class``: each class draws ``sum(per_class)`` samples and deals
    them in order over the parts, its first ``per_class[0]`` to the first
    dataset, the next ``per_class[1]`` to the second, and so on. One part
    is ``(ds,) = synthetic_gaussian(c, (n,), ...)``.

    Means are mutually orthogonal unit directions (scaled by ``scale``)
    when ``num_classes <= dim``, so the minimum inter-mean distance is
    ``scale * sqrt(2)``; otherwise random directions. ``spread`` is the
    per-coordinate standard deviation around the mean. Class-balanced and
    deterministic per seed.

    Built in place: the noise is drawn one class block at a time, which
    continues the one generator stream, and each block gets its class mean
    added in float64 before it is rounded straight into the float32 parts.
    """
    if num_classes < 2:
        raise DatasetError("need at least 2 classes")
    rng = stream(seed, "data")
    raw = rng.normal(size=(dim, num_classes))
    if num_classes <= dim:
        q, r = np.linalg.qr(raw)
        means = (q * np.sign(np.diag(r))).T * scale
    else:
        means = raw.T / np.linalg.norm(raw.T, axis=1, keepdims=True) * scale
    block = sum(per_class)
    parts = [np.empty((num_classes * k, dim), dtype=FLOAT) for k in per_class]
    for c in range(num_classes):
        noise = rng.normal(scale=spread, size=(block, dim)) if spread > 0 else np.zeros((block, dim))
        noise += means[c]
        start = 0
        for part, k in zip(parts, per_class):
            part[c * k : (c + 1) * k] = noise[start : start + k]
            start += k
    return [
        LabeledDataset(part, np.repeat(np.arange(num_classes), k), num_classes)
        for part, k in zip(parts, per_class)
    ]


def _read_maybe_gz(path: Path) -> bytes:
    data = Path(path).read_bytes()
    if data[:2] == b"\x1f\x8b":
        try:
            return gzip.decompress(data)
        except (OSError, EOFError, zlib.error) as e:
            raise DatasetError(f"{path}: bad gzip data: {e}") from e
    return data


def load_idx(path_images, path_labels) -> LabeledDataset:
    """Load an IDX ubyte image/label file pair (MNIST-style, .gz accepted).

    Pixels come out scaled to [0, 1] with shape (N, 1, rows, cols). A file
    that cannot be read raises OSError; malformed content, DatasetError.
    """
    img_blob = _read_maybe_gz(Path(path_images))
    lab_blob = _read_maybe_gz(Path(path_labels))

    if len(img_blob) < 16:
        raise DatasetError(f"{path_images}: truncated header")
    magic, n_images, rows, cols = struct.unpack_from(">IIII", img_blob, 0)
    if magic != IDX_IMAGE_MAGIC:
        raise DatasetError(f"{path_images}: bad magic {magic:#010x}")
    expected = 16 + n_images * rows * cols
    if len(img_blob) < expected:
        raise DatasetError(f"{path_images}: truncated file")

    if len(lab_blob) < 8:
        raise DatasetError(f"{path_labels}: truncated header")
    lmagic, n_labels = struct.unpack_from(">II", lab_blob, 0)
    if lmagic != IDX_LABEL_MAGIC:
        raise DatasetError(f"{path_labels}: bad magic {lmagic:#010x}")
    if len(lab_blob) < 8 + n_labels:
        raise DatasetError(f"{path_labels}: truncated file")
    if n_labels != n_images:
        raise DatasetError(
            f"{path_images}, {path_labels}: count mismatch: "
            f"{n_images} images vs {n_labels} labels"
        )

    pixels = np.frombuffer(img_blob, dtype=np.uint8, count=n_images * rows * cols, offset=16)
    samples = pixels.reshape(n_images, 1, rows, cols).astype(FLOAT)
    samples /= FLOAT(255.0)
    labels = np.frombuffer(lab_blob, dtype=np.uint8, count=n_labels, offset=8).astype(np.int64)
    num_classes = int(labels.max()) + 1 if n_labels else 0
    return LabeledDataset(samples, labels, num_classes)
