"""Golden-bit oracle: sha256 of every checkpoint blob and eval CSV of tiny
train+eval runs, pinned in ``golden.json``.

A refactor that means to change nothing must leave these green. The hashes
depend on the numpy/BLAS build and the BLAS kernel that produced them,
which the fixture records; a mismatch names both builds and both
kernels. A change that moves bits on purpose regenerates the fixture with

    PYTHONPATH=src python tests/test_golden.py --regenerate

and says why in CHANGES.md.
"""

import ctypes
import hashlib
import json
import platform
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from fedsim.algorithms import ALGORITHMS
from fedsim.experiment import ExperimentConfig, run_eval, run_train

FIXTURE = Path(__file__).with_name("golden.json")

BASE = {
    "seed": 3,
    "dataset": {
        "kind": "synthetic",
        "classes": 4,
        "per_class": 60,
        "test_per_class": 20,
        "dim": 8,
        "spread": 1.2,
    },
    "network": {"kind": "mlp", "hidden": [12]},
    "partition": {"mode": "shard", "shards_per_client": 2, "test_mode": "matched"},
    "federation": {
        "clients": 4,
        "fraction": 0.5,
        "local_epochs": 2,
        "rounds": 3,
        "batch_size": 10,
        "mu": 0.01,
    },
    "eval": {"finetune_epochs": [0, 2], "part": "full", "lr": 0.01, "template": True},
}

IDX_PATHS = {
    "train_images": "data/train-images.idx",
    "train_labels": "data/train-labels.idx",
    "test_images": "data/test-images.idx",
    "test_labels": "data/test-labels.idx",
}

# image side of each IDX case, where it is not 8
IDX_SIDE = {"conv2-fedbabu-multichunk": 28}

# clients of 50/84/64/42 samples, so batches of 10 leave partial batches of 4 and 2
DIRICHLET = {"mode": "dirichlet", "beta": 0.5}

# name -> dotted overrides of BASE; lg-fedavg's plan includes its second phase
CASES = {
    **{alg: {"federation.algorithm": alg} for alg in sorted(ALGORITHMS)},
    "fedbabu-eval-body": {"federation.algorithm": "fedbabu", "eval.part": "body"},
    "fedavg-share-full": {
        "federation.algorithm": "fedavg",
        "federation.server_share": 0.2,
        "federation.server_update_part": "full",
    },
    "fedbabu-share-body": {
        "federation.algorithm": "fedbabu",
        "federation.server_share": 0.2,
        "federation.server_update_part": "body",
    },
    "fedper-global-inout": {
        "federation.algorithm": "fedper",
        "partition.test_mode": "global",
    },
    "conv2-fedbabu-template": {
        "federation.algorithm": "fedbabu",
        "federation.rounds": 2,
        "dataset": {"kind": "idx", **IDX_PATHS},
        "network": {"kind": "conv2", "channels": [4, 6], "kernel": 3, "padding": 1, "pool": 2},
    },
    # 28x28 images at B=50: conv batches and whole-set passes span several
    # of the kernels' column chunks, and their GEMMs sit above OpenBLAS's
    # small-matrix threshold
    "conv2-fedbabu-multichunk": {
        "federation.algorithm": "fedbabu",
        "federation.rounds": 2,
        "federation.batch_size": 50,
        "dataset": {"kind": "idx", **IDX_PATHS},
        "network": {"kind": "conv2", "channels": [4, 6], "kernel": 3, "padding": 1, "pool": 2},
    },
    **{
        f"{alg}-dirichlet": {"federation.algorithm": alg, "partition": dict(DIRICHLET)}
        for alg in ("ditto", "fedprox", "fedrep", "perfedavg")
    },
}


def blas_kernel() -> str:
    """The core OpenBLAS chose at run time (``OPENBLAS_CORETYPE`` can force
    another), read from the library numpy bundles; "unknown" elsewhere."""
    try:
        from numpy._core import _multiarray_umath

        corename = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (AttributeError, ImportError, OSError):
        return "unknown"
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


def build_facts() -> dict:
    """The numpy/BLAS build and BLAS kernel the hashes depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_kernel": blas_kernel(),
        "machine": platform.machine(),
    }


def write_idx_images(root: Path, side: int = 8, classes: int = 4) -> None:
    """Small deterministic IDX image/label pairs with a bright class quadrant."""
    rng = np.random.default_rng(21)
    (root / "data").mkdir(parents=True, exist_ok=True)
    for stem, n in (("train", 240), ("test", 80)):
        labels = (np.arange(n) % classes).astype(np.uint8)
        images = rng.integers(0, 140, size=(n, side, side), dtype=np.uint8)
        for i, lab in enumerate(labels):
            r, c = divmod(int(lab), 2)
            images[i, r * 4 : r * 4 + 4, c * 4 : c * 4 + 4] += 60
        (root / IDX_PATHS[f"{stem}_images"]).write_bytes(
            struct.pack(">IIII", 0x803, n, side, side) + images.tobytes()
        )
        (root / IDX_PATHS[f"{stem}_labels"]).write_bytes(
            struct.pack(">II", 0x801, n) + labels.tobytes()
        )


def case_config(name: str) -> ExperimentConfig:
    raw = json.loads(json.dumps(BASE))
    for dotted, value in CASES[name].items():
        node = raw
        keys = dotted.split(".")
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    raw["name"] = name
    raw["out"] = f"runs/{name}"
    return ExperimentConfig.from_dict(raw)


def run_case(name: str) -> dict[str, str]:
    """Train and evaluate one case under the current directory; returns
    sha256 per artifact, keyed by its path inside the run directory."""
    if CASES[name].get("dataset", {}).get("kind") == "idx":
        write_idx_images(Path.cwd(), IDX_SIDE.get(name, 8))
    cfg = case_config(name)
    run_train(cfg)
    run_eval(cfg)
    out = cfg.out_dir
    files = [out / "checkpoint.pv", *out.glob("client_*.pv"), *out.glob("eval/*.csv")]
    return {
        f.relative_to(out).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(files)
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden["cases"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bits(name, golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative dataset paths keep config_hash fixed
    got = run_case(name)
    want = golden["cases"][name]
    if got != want:
        changed = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        pytest.fail(
            f"{name}: artifacts differ from the golden hashes: {changed}. "
            f"The fixture was recorded under {golden['build']}; this run uses "
            f"{build_facts()}. A different numpy/BLAS build or BLAS kernel can "
            f"move bits on its own; under the same build and kernel, the code "
            f"changed behaviour."
        )


def regenerate() -> None:
    import os
    import tempfile

    cases = {}
    start = Path.cwd()
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                cases[name] = run_case(name)
            finally:
                os.chdir(start)
    payload = {"build": build_facts(), "cases": cases}
    FIXTURE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(cases)} cases)")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_golden.py --regenerate")
    regenerate()
