"""Synthetic data properties and IDX ingestion."""

import gzip
import struct

import numpy as np
import pytest

import fedsim as fs
from fedsim.datasets import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, DatasetError


def nearest_centroid_accuracy(ds):
    """Independent oracle: classify to the nearest estimated class mean."""
    centroids = np.stack(
        [ds.samples[ds.labels == c].mean(axis=0) for c in range(ds.num_classes)]
    )
    d2 = ((ds.samples[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return float((d2.argmin(axis=1) == ds.labels).mean())


def test_synthetic_balanced_labels():
    ds = fs.synthetic_gaussian(5, 30, 16, 0.4, seed=0)
    counts = np.bincount(ds.labels)
    assert np.all(counts == 30)
    assert len(ds) == 150


def test_synthetic_zero_spread_collapses_classes():
    ds = fs.synthetic_gaussian(4, 10, 8, 0.0, seed=1)
    for c in range(4):
        rows = ds.samples[ds.labels == c]
        assert np.all(rows == rows[0])
    assert nearest_centroid_accuracy(ds) == 1.0


def test_synthetic_separable_at_low_spread():
    # min inter-mean distance is scale*sqrt(2); spread at 0.2x of it
    spread = 0.2 * np.sqrt(2.0)
    accs = [
        nearest_centroid_accuracy(fs.synthetic_gaussian(10, 100, 32, spread, seed=s))
        for s in range(5)
    ]
    assert np.mean(accs) >= 0.95


def test_synthetic_deterministic():
    a = fs.synthetic_gaussian(3, 20, 8, 0.5, seed=7)
    b = fs.synthetic_gaussian(3, 20, 8, 0.5, seed=7)
    assert a.samples.tobytes() == b.samples.tobytes()
    assert np.array_equal(a.labels, b.labels)


def test_synthetic_needs_two_classes():
    with pytest.raises(DatasetError):
        fs.synthetic_gaussian(1, 10, 4, 0.1, seed=0)


# --- IDX ingestion -----------------------------------------------------------


def idx_pair(tmp_path, n=2, rows=28, cols=28, image_magic=IDX_IMAGE_MAGIC, label_count=None, gz=False):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(n, rows, cols), dtype=np.uint8)
    img = struct.pack(">IIII", image_magic, n, rows, cols) + pixels.tobytes()
    labels = (np.arange(n, dtype=np.uint8) % 10).tobytes()
    lab = struct.pack(">II", IDX_LABEL_MAGIC, label_count if label_count is not None else n) + labels
    suffix = ".gz" if gz else ""
    ip = tmp_path / f"images.idx{suffix}"
    lp = tmp_path / f"labels.idx{suffix}"
    ip.write_bytes(gzip.compress(img) if gz else img)
    lp.write_bytes(gzip.compress(lab) if gz else lab)
    return ip, lp, pixels


def test_load_idx_shapes_and_scaling(tmp_path):
    ip, lp, pixels = idx_pair(tmp_path)
    ds = fs.load_idx(ip, lp)
    assert ds.samples.shape == (2, 1, 28, 28)
    assert len(ds.labels) == 2
    assert ds.samples.min() >= 0.0 and ds.samples.max() <= 1.0
    np.testing.assert_allclose(ds.samples[0, 0], pixels[0] / 255.0, atol=1e-7)


def test_load_idx_gzip_transparent(tmp_path):
    ip, lp, _ = idx_pair(tmp_path, gz=True)
    ds = fs.load_idx(ip, lp)
    assert ds.samples.shape == (2, 1, 28, 28)


def test_load_idx_bad_magic_names_file(tmp_path):
    ip, lp, _ = idx_pair(tmp_path, image_magic=0x00000802)
    with pytest.raises(DatasetError, match="images"):
        fs.load_idx(ip, lp)


def test_load_idx_count_mismatch(tmp_path):
    ip, lp, _ = idx_pair(tmp_path, label_count=3)
    with pytest.raises(DatasetError, match="mismatch"):
        fs.load_idx(ip, lp)


def test_load_idx_truncated(tmp_path):
    ip, lp, _ = idx_pair(tmp_path)
    ip.write_bytes(ip.read_bytes()[:-10])
    with pytest.raises(DatasetError, match="truncated"):
        fs.load_idx(ip, lp)


def test_load_idx_truncated_gzip_names_file(tmp_path):
    ip, lp, _ = idx_pair(tmp_path, gz=True)
    ip.write_bytes(ip.read_bytes()[:-10])
    with pytest.raises(DatasetError, match="images.idx.gz: bad gzip data"):
        fs.load_idx(ip, lp)


def test_dataset_validates_label_range():
    with pytest.raises(DatasetError):
        fs.LabeledDataset(np.zeros((3, 2), dtype=np.float32), np.array([0, 1, 5]), 3)
    with pytest.raises(DatasetError):
        fs.LabeledDataset(np.zeros((3, 2), dtype=np.float32), np.array([0, 1]), 3)
