"""Shard and Dirichlet partitioners: arithmetic, disjointness, conservation."""

import json
import logging

import numpy as np
import pytest

import fedsim as fs
from fedsim.partition import PartitionError, save_splits, splits_to_json


def labels_only_dataset(per_class, classes=10):
    # tiny feature dim keeps |D|=50k cheap; partitioners only read labels
    return fs.synthetic_gaussian(classes, (per_class,), classes, 0.0, seed=0)[0]


@pytest.fixture(scope="module")
def big_ds():
    return labels_only_dataset(5000)  # |D| = 50_000


def test_shard_sizes_at_benchmark_scale(big_ds):
    spec = fs.PartitionSpec("shard", clients=100, shards_per_client=10, seed=0)
    splits = fs.partition(big_ds, spec)
    assert len(splits) == 100
    assert all(len(s.train_indices) == 500 for s in splits)


def test_shard_two_per_client_bounds_classes(big_ds):
    spec = fs.PartitionSpec("shard", clients=100, shards_per_client=2, seed=1)
    splits = fs.partition(big_ds, spec)
    assert all(len(s.train_indices) == 500 for s in splits)
    for s in splits:
        assert len(np.unique(big_ds.labels[s.train_indices])) <= 2


def test_shard_union_and_disjointness(big_ds):
    spec = fs.PartitionSpec("shard", clients=20, shards_per_client=3, seed=2)
    splits = fs.partition(big_ds, spec)
    all_idx = np.concatenate([s.train_indices for s in splits])
    assert len(all_idx) == len(np.unique(all_idx))  # pairwise disjoint
    shard_size = len(big_ds) // (20 * 3)
    order = np.argsort(big_ds.labels, kind="stable")[: 20 * 3 * shard_size]
    assert set(all_idx.tolist()) == set(order.tolist())


def test_shard_drops_remainder_with_warning(caplog):
    ds = labels_only_dataset(101, classes=3)  # 303 samples, 4 clients x 2 shards
    spec = fs.PartitionSpec("shard", clients=4, shards_per_client=2, seed=0)
    with caplog.at_level(logging.WARNING, logger="fedsim"):
        splits = fs.partition(ds, spec)
    assert "drops" in caplog.text
    assert all(len(s.train_indices) == 2 * (303 // 8) for s in splits)


def test_shard_demanding_too_much_raises():
    ds = labels_only_dataset(2, classes=2)
    with pytest.raises(PartitionError):
        fs.partition(ds, fs.PartitionSpec("shard", clients=3, shards_per_client=2, seed=0))


def test_shard_deterministic(big_ds):
    spec = fs.PartitionSpec("shard", clients=10, shards_per_client=5, seed=3)
    a = fs.partition(big_ds, spec)
    b = fs.partition(big_ds, spec)
    assert all(np.array_equal(x.train_indices, y.train_indices) for x, y in zip(a, b))


def test_dirichlet_conserves_counts_exactly():
    ds = labels_only_dataset(317, classes=7)
    spec = fs.PartitionSpec("dirichlet", clients=13, beta=0.5, seed=5)
    splits = fs.partition(ds, spec)
    all_idx = np.concatenate([s.train_indices for s in splits])
    assert len(all_idx) == len(ds)
    assert len(np.unique(all_idx)) == len(ds)
    for c in range(7):
        total_c = sum(int((ds.labels[s.train_indices] == c).sum()) for s in splits)
        assert total_c == 317


def test_dirichlet_concentrates_at_large_beta():
    ds = labels_only_dataset(500, classes=4)
    spec = fs.PartitionSpec("dirichlet", clients=10, beta=1e6, seed=6)
    splits = fs.partition(ds, spec)
    for s in splits:
        counts = np.bincount(ds.labels[s.train_indices], minlength=4)
        np.testing.assert_allclose(counts, 500 / 10, rtol=0.10)


def mean_tv_distance(ds, splits):
    global_dist = np.bincount(ds.labels, minlength=ds.num_classes) / len(ds)
    tvs = []
    for s in splits:
        if len(s.train_indices) == 0:
            continue
        local = np.bincount(ds.labels[s.train_indices], minlength=ds.num_classes)
        local = local / local.sum()
        tvs.append(0.5 * np.abs(local - global_dist).sum())
    return float(np.mean(tvs))


def test_lower_beta_means_more_heterogeneity():
    ds = labels_only_dataset(200, classes=5)
    halves, ones = [], []
    for seed in range(30):
        s05 = fs.partition(ds, fs.PartitionSpec("dirichlet", clients=10, beta=0.5, seed=seed))
        s10 = fs.partition(ds, fs.PartitionSpec("dirichlet", clients=10, beta=1.0, seed=seed))
        halves.append(mean_tv_distance(ds, s05))
        ones.append(mean_tv_distance(ds, s10))
    assert np.mean(halves) > np.mean(ones)


def test_dirichlet_rejects_bad_beta():
    ds = labels_only_dataset(10, classes=2)
    with pytest.raises(PartitionError):
        fs.partition(ds, fs.PartitionSpec("dirichlet", clients=2, beta=0.0, seed=0))


def test_iid_partition_equal_sizes():
    ds = labels_only_dataset(100, classes=4)
    splits = fs.partition(ds, fs.PartitionSpec("iid", clients=7, seed=0))
    assert all(len(s.train_indices) == 400 // 7 for s in splits)


# --- test-split attachment ----------------------------------------------------


def make_train_test(per_class_train=100, per_class_test=30, classes=5):
    train = labels_only_dataset(per_class_train, classes)
    return train, fs.synthetic_gaussian(classes, (per_class_test,), classes, 0.0, seed=9)[0]


def test_matched_test_labels_subset_of_train_classes():
    train, test = make_train_test()
    splits = fs.partition(train, fs.PartitionSpec("shard", clients=5, shards_per_client=2, seed=1))
    splits = fs.split_client_test(train, test, splits, "matched", seed=0)
    for s in splits:
        train_classes = set(train.labels[s.train_indices].tolist())
        test_labels = set(test.labels[s.test_indices].tolist())
        assert test_labels <= train_classes


def test_matched_test_size_is_fifth_of_train():
    train, test = make_train_test()
    splits = fs.partition(train, fs.PartitionSpec("shard", clients=5, shards_per_client=2, seed=1))
    splits = fs.split_client_test(train, test, splits, "matched", seed=0)
    for s in splits:
        assert len(s.test_indices) == len(s.train_indices) // 5


def test_global_test_mode_gives_everyone_everything():
    train, test = make_train_test()
    splits = fs.partition(train, fs.PartitionSpec("shard", clients=5, shards_per_client=2, seed=1))
    splits = fs.split_client_test(train, test, splits, "global", seed=0)
    for s in splits:
        assert np.array_equal(s.test_indices, np.arange(len(test)))


def test_matched_missing_class_in_pool_raises():
    train = labels_only_dataset(50, classes=4)
    # test pool only has classes 0 and 1
    (test_full,) = fs.synthetic_gaussian(4, (20,), 4, 0.0, seed=2)
    keep = np.flatnonzero(test_full.labels < 2)
    test = test_full.subset(keep)
    splits = fs.partition(train, fs.PartitionSpec("shard", clients=4, shards_per_client=1, seed=0))
    with pytest.raises(PartitionError, match="absent"):
        fs.split_client_test(train, test, splits, "matched", seed=0)


def test_matched_with_replacement_warns(caplog):
    train = labels_only_dataset(100, classes=2)
    (test,) = fs.synthetic_gaussian(2, (5,), 2, 0.0, seed=3)  # tiny pool: 5 per class
    splits = fs.partition(train, fs.PartitionSpec("shard", clients=2, shards_per_client=1, seed=0))
    with caplog.at_level(logging.WARNING, logger="fedsim"):
        splits = fs.split_client_test(train, test, splits, "matched", seed=0)
    assert "replacement" in caplog.text
    assert all(len(s.test_indices) == 100 // 5 for s in splits)


def test_split_json_round_trip(tmp_path):
    train, test = make_train_test()
    splits = fs.partition(train, fs.PartitionSpec("shard", clients=3, shards_per_client=2, seed=4))
    splits = fs.split_client_test(train, test, splits, "matched", seed=0)
    path = tmp_path / "splits.json"
    save_splits(splits, path)
    assert path.read_text() == splits_to_json(splits)
    records = json.loads(path.read_text())
    assert [r["client_id"] for r in records] == [s.client_id for s in splits]
    for s, r in zip(splits, records):
        assert r["train_indices"] == np.sort(s.train_indices).tolist()
        assert r["test_indices"] == np.sort(s.test_indices).tolist()
