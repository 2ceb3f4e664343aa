"""The benchmark's workloads: one experiment config each, every input made
from the workload seed.

Each workload is one user job, "train a federation, then evaluate it", run
as a closed loop in one process: the next repeat starts when the previous
one has finished.
"""

from __future__ import annotations

import copy
import math
import struct
from pathlib import Path

import numpy as np

# A copy of configs/example.json as it stood when the benchmark was defined,
# so that editing the example does not silently change the benchmark.
EXAMPLE = {
    "name": "demo",
    "dataset": {
        "kind": "synthetic",
        "classes": 10,
        "per_class": 1000,
        "test_per_class": 200,
        "dim": 48,
        "spread": 0.6,
    },
    "network": {"kind": "mlp", "hidden": [64]},
    "partition": {"mode": "shard", "shards_per_client": 2, "test_mode": "matched"},
    "federation": {
        "algorithm": "fedbabu",
        "clients": 20,
        "fraction": 0.5,
        "local_epochs": 2,
        "rounds": 32,
        "batch_size": 50,
        "base_lr": 0.1,
        "momentum": 0.9,
        "init": "he_uniform",
    },
    "eval": {"finetune_epochs": [0, 1, 5], "part": "full", "lr": 0.005, "template": True},
}

# conv workload: generated 1x28x28 images, 10 classes
IMAGE_SIDE = 28
CLASSES = 10
TRAIN_PER_CLASS = 100
TEST_PER_CLASS = 50


def mlp_shard_fedbabu(seed: int, work: Path) -> dict:
    return dict(copy.deepcopy(EXAMPLE), seed=seed)


def mlp_dirichlet_ditto(seed: int, work: Path) -> dict:
    cfg = mlp_shard_fedbabu(seed, work)
    cfg["partition"] = {"mode": "dirichlet", "beta": 0.5, "test_mode": "matched"}
    cfg["federation"].update(algorithm="ditto", clients=50)
    return cfg


def conv_idx_fedbabu(seed: int, work: Path) -> dict:
    paths = write_idx_images(seed, work / "idx")
    return {
        "name": "conv-idx",
        "seed": seed,
        "dataset": {"kind": "idx", **{k: str(p) for k, p in paths.items()}},
        "network": {"kind": "conv2", "channels": [8, 16], "kernel": 3, "padding": 1, "pool": 2},
        "partition": {"mode": "shard", "shards_per_client": 2, "test_mode": "matched"},
        "federation": {
            "algorithm": "fedbabu",
            "clients": 10,
            "fraction": 0.5,
            "local_epochs": 1,
            "rounds": 8,
            "batch_size": 50,
            "base_lr": 0.1,
            "momentum": 0.9,
            "init": "he_uniform",
        },
        # Shorter or faster fine-tunes from the random FedBABU head left the
        # personalized accuracy swinging between 0.5 and 0.98 across seeds.
        "eval": {"finetune_epochs": [0, 3], "part": "full", "lr": 0.01, "template": True},
    }


WORKLOADS = {
    "mlp-shard-fedbabu": mlp_shard_fedbabu,
    "conv-idx-fedbabu": conv_idx_fedbabu,
    "mlp-dirichlet-ditto": mlp_dirichlet_ditto,
}


def write_idx_images(seed: int, out: Path) -> dict[str, Path]:
    """Write a class-structured image set as IDX ubyte files.

    Each class has a blocky 7x7 prototype scaled up to 28x28; a sample is
    its class prototype plus pixel noise, clipped to bytes.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    block = IMAGE_SIDE // 7
    protos = np.kron(rng.normal(size=(CLASSES, 7, 7)), np.ones((block, block)))
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for stem, per_class in (("train", TRAIN_PER_CLASS), ("test", TEST_PER_CLASS)):
        labels = np.repeat(np.arange(CLASSES), per_class).astype(np.uint8)
        pixels = protos[labels] + rng.normal(scale=0.6, size=(len(labels), IMAGE_SIDE, IMAGE_SIDE))
        images = np.clip(pixels * 100 + 128, 0, 255).astype(np.uint8)
        paths[f"{stem}_images"] = out / f"{stem}-images-idx3-ubyte"
        paths[f"{stem}_labels"] = out / f"{stem}-labels-idx1-ubyte"
        paths[f"{stem}_images"].write_bytes(
            struct.pack(">IIII", 0x00000803, len(labels), IMAGE_SIDE, IMAGE_SIDE) + images.tobytes()
        )
        paths[f"{stem}_labels"].write_bytes(struct.pack(">II", 0x00000801, len(labels)) + labels.tobytes())
    return paths


def local_steps(round_rows: list[list[int]], client_sizes: list[int], fed: dict) -> int:
    """Client minibatch SGD updates in one training run, counted from the
    sampled client ids that rounds.csv lists: tau * ceil(n_c / B) per
    sampled client, twice for Ditto (global and personal pass)."""
    passes = 2 if fed["algorithm"] == "ditto" else 1
    batch = fed["batch_size"]
    return sum(
        passes * fed["local_epochs"] * math.ceil(client_sizes[cid] / batch)
        for ids in round_rows
        for cid in ids
    )
