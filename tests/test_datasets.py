"""Synthetic data properties and IDX ingestion."""

import gzip
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fedsim as fs
from fedsim.datasets import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, DatasetError
from fedsim.experiment import ExperimentConfig, build_datasets

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


# --- in-place builds against one-shot references -------------------------------


def one_shot_gaussian(num_classes, per_class, dim, spread, seed, scale=1.0):
    """Reference: synthetic_gaussian as one float64 draw of all the noise,
    the class means added to it whole and the sum cast to float32 at once."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, max(num_classes, 1)))
    if num_classes <= dim:
        q, r = np.linalg.qr(raw[:, :num_classes])
        means = (q * np.sign(np.diag(r))).T * scale
    else:
        means = raw.T[:num_classes]
        means = means / np.linalg.norm(means, axis=1, keepdims=True) * scale
    n = num_classes * per_class
    labels = np.repeat(np.arange(num_classes), per_class)
    noise = rng.normal(scale=spread, size=(n, dim)) if spread > 0 else np.zeros((n, dim))
    samples = means[labels] + noise
    return fs.LabeledDataset(samples.astype(np.float32), labels, num_classes)


SYNTHETIC_CASES = [
    # classes, per class (train, test), dim, spread, scale, seed
    (10, (1000, 200), 48, 0.6, 1.0, 0),
    (10, (1000, 200), 48, 0.6, 1.0, 3),
    (6, (7, 5), 4, 0.8, 2.5, 1),  # classes > dim: random directions
    (4, (9, 3), 8, 0.0, 0.3, 2),  # no noise is drawn
    (5, (6, 2), 3, 0.0, 1.0, 9),  # classes > dim, no noise
]


def same_bytes(a, b):
    return (
        a.samples.dtype == b.samples.dtype
        and a.samples.shape == b.samples.shape
        and a.samples.tobytes() == b.samples.tobytes()
        and a.labels.tobytes() == b.labels.tobytes()
        and a.num_classes == b.num_classes
    )


@pytest.mark.parametrize("classes,per_class,dim,spread,scale,seed", SYNTHETIC_CASES)
def test_synthetic_bytes_equal_the_one_shot_formula(classes, per_class, dim, spread, scale, seed):
    n = sum(per_class)
    ref = one_shot_gaussian(classes, n, dim, spread, seed, scale)
    assert same_bytes(fs.synthetic_gaussian(classes, n, dim, spread, seed, scale), ref)
    cfg = ExperimentConfig.from_dict({
        "seed": seed,
        "dataset": {
            "classes": classes, "per_class": per_class[0], "test_per_class": per_class[1],
            "dim": dim, "spread": spread, "scale": scale,
        },
    })
    train, test = build_datasets(cfg)
    rows = np.arange(classes * n).reshape(classes, n)
    assert same_bytes(train, ref.subset(rows[:, : per_class[0]].ravel()))
    assert same_bytes(test, ref.subset(rows[:, per_class[0] :].ravel()))


def test_build_datasets_peaks_below_twice_its_data():
    # the parent formula's float64 temporaries, pooled copy and subset
    # copies peaked near five times the data
    cfg = ExperimentConfig.load(CONFIGS / "example.json")
    tracemalloc.start()
    try:
        train, test = build_datasets(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    data = sum(a.nbytes for ds in (train, test) for a in (ds.samples, ds.labels))
    assert data == 2_400_000
    assert peak <= 2 * data


def test_load_idx_pixels_equal_a_float32_division(tmp_path):
    ip, lp, pixels = idx_pair(tmp_path, n=5, rows=3, cols=4)
    ds = fs.load_idx(ip, lp)
    ref = pixels.reshape(5, 1, 3, 4).astype(np.float32) / np.float32(255.0)
    assert ds.samples.dtype == np.float32 and ds.samples.tobytes() == ref.tobytes()
