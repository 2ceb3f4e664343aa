"""Non-IID client partitioners: label-sorted shards and Dirichlet draws."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datasets import DatasetError, LabeledDataset
from .streams import stream

log = logging.getLogger("fedsim")


class PartitionError(ValueError):
    pass


@dataclass
class ClientSplit:
    """One client's train/test index sets into the shared datasets."""

    client_id: int
    train_indices: np.ndarray
    test_indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self) -> None:
        self.train_indices = np.asarray(self.train_indices, dtype=np.int64)
        self.test_indices = np.asarray(self.test_indices, dtype=np.int64)


@dataclass(frozen=True)
class PartitionSpec:
    """How to scatter a dataset over N clients.

    shard mode: sort by label, cut into N*s equal shards, deal s per client.
    dirichlet mode: per-class client proportions drawn from Dirichlet(beta).
    """

    mode: str  # shard | dirichlet | iid
    clients: int
    shards_per_client: int = 0  # shard mode
    beta: float = 0.0  # dirichlet mode
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("shard", "dirichlet", "iid"):
            raise PartitionError(f"unknown partition mode {self.mode!r}")
        if self.clients < 1:
            raise PartitionError("need at least one client")
        if self.mode == "shard" and self.shards_per_client < 1:
            raise PartitionError("shards_per_client must be >= 1")
        if self.mode == "dirichlet" and not self.beta > 0:
            raise PartitionError("beta must be positive")


def _shard_partition(ds: LabeledDataset, spec: PartitionSpec) -> list[ClientSplit]:
    """Label-sorted contiguous shards, s per client, without replacement.

    Shard size is floor(|D| / (N*s)); trailing remainder samples after the
    label sort are dropped so every shard has the same size.
    """
    n_shards = spec.clients * spec.shards_per_client
    if n_shards > len(ds):
        raise PartitionError(f"{n_shards} shards demanded from {len(ds)} samples")
    shard_size = len(ds) // n_shards
    used = n_shards * shard_size
    dropped = len(ds) - used
    if dropped:
        log.warning("shard partition drops %d trailing samples after label sort", dropped)
    order = np.argsort(ds.labels, kind="stable")[:used]
    rng = stream(spec.seed, "partition")
    shard_ids = rng.permutation(n_shards)
    splits = []
    for client in range(spec.clients):
        own = shard_ids[client * spec.shards_per_client : (client + 1) * spec.shards_per_client]
        idx = np.concatenate([order[s * shard_size : (s + 1) * shard_size] for s in own])
        splits.append(ClientSplit(client, np.sort(idx)))
    return splits


def _largest_remainder_counts(proportions: np.ndarray, total: int) -> np.ndarray:
    """Round proportions*total to integers that sum exactly to total."""
    raw = proportions * total
    counts = np.floor(raw).astype(np.int64)
    short = total - counts.sum()
    if short:
        remainders = raw - counts
        # deterministic tie break: larger remainder first, then lower index
        order = np.lexsort((np.arange(len(raw)), -remainders))
        counts[order[:short]] += 1
    return counts


def _dirichlet_partition(ds: LabeledDataset, spec: PartitionSpec) -> list[ClientSplit]:
    """Per-class Dirichlet(beta) proportions over clients; exact conservation
    via largest-remainder rounding. Lower beta, larger heterogeneity."""
    rng = stream(spec.seed, "partition")
    per_client: list[list[np.ndarray]] = [[] for _ in range(spec.clients)]
    for c in range(ds.num_classes):
        class_idx = np.flatnonzero(ds.labels == c)
        rng.shuffle(class_idx)
        props = rng.dirichlet(np.full(spec.clients, spec.beta))
        counts = _largest_remainder_counts(props, len(class_idx))
        offset = 0
        for client, k in enumerate(counts):
            if k:
                per_client[client].append(class_idx[offset : offset + k])
            offset += k
    splits = []
    for client in range(spec.clients):
        idx = (
            np.sort(np.concatenate(per_client[client]))
            if per_client[client]
            else np.empty(0, dtype=np.int64)
        )
        splits.append(ClientSplit(client, idx))
    return splits


def _iid_partition(ds: LabeledDataset, spec: PartitionSpec) -> list[ClientSplit]:
    """Uniform random equal split (remainder dropped)."""
    rng = stream(spec.seed, "partition")
    per = len(ds) // spec.clients
    order = rng.permutation(len(ds))[: per * spec.clients]
    return [
        ClientSplit(i, np.sort(order[i * per : (i + 1) * per]))
        for i in range(spec.clients)
    ]


def partition(ds: LabeledDataset, spec: PartitionSpec) -> list[ClientSplit]:
    """``ds`` scattered over ``spec.clients`` clients by ``spec.mode``."""
    if spec.mode == "shard":
        return _shard_partition(ds, spec)
    if spec.mode == "dirichlet":
        return _dirichlet_partition(ds, spec)
    return _iid_partition(ds, spec)


def split_client_test(
    ds_train: LabeledDataset,
    ds_test: LabeledDataset,
    splits: list[ClientSplit],
    mode: str = "matched",
    seed: int = 0,
) -> list[ClientSplit]:
    """Attach test indices to each client's split.

    matched: indices drawn only from the client's train classes,
    proportional to its train label distribution, floor(train/5) of them.
    global: every client receives the full test set.
    """
    if ds_test.num_classes != ds_train.num_classes:
        raise DatasetError("train and test class counts differ")
    if mode == "global":
        full = np.arange(len(ds_test), dtype=np.int64)
        return [ClientSplit(s.client_id, s.train_indices, full.copy()) for s in splits]
    if mode != "matched":
        raise PartitionError(f"unknown test split mode {mode!r}")

    pool_by_class = [np.flatnonzero(ds_test.labels == c) for c in range(ds_test.num_classes)]
    out = []
    for s in splits:
        rng = stream(seed, "test_split", s.client_id)
        train_labels = ds_train.labels[s.train_indices]
        n_test = len(s.train_indices) // 5
        classes, counts = np.unique(train_labels, return_counts=True)
        want = _largest_remainder_counts(counts / counts.sum(), n_test)
        chosen = []
        for cls, k in zip(classes, want):
            if k == 0:
                continue
            pool = pool_by_class[cls]
            if len(pool) == 0:
                raise PartitionError(
                    f"client {s.client_id}: class {cls} absent from the test pool"
                )
            if k > len(pool):
                log.warning(
                    "client %d: demands %d test samples of class %d, pool has %d; "
                    "sampling with replacement",
                    s.client_id,
                    k,
                    cls,
                    len(pool),
                )
                chosen.append(rng.choice(pool, size=k, replace=True))
            else:
                chosen.append(rng.choice(pool, size=k, replace=False))
        test_idx = np.sort(np.concatenate(chosen)) if chosen else np.empty(0, dtype=np.int64)
        out.append(ClientSplit(s.client_id, s.train_indices, test_idx))
    return out


# --- JSON audit format ------------------------------------------------------


def splits_to_json(splits: list[ClientSplit]) -> str:
    payload = [
        {
            "client_id": s.client_id,
            "train_indices": sorted(int(i) for i in s.train_indices),
            "test_indices": sorted(int(i) for i in s.test_indices),
        }
        for s in splits
    ]
    return json.dumps(payload, indent=0, sort_keys=True)


def save_splits(splits: list[ClientSplit], path) -> None:
    Path(path).write_text(splits_to_json(splits))

