"""Declarative experiment configs, artifact IO, and the single-run drivers
behind the command-line front end."""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algorithms import get_algorithm
from .datasets import DatasetError, LabeledDataset, load_idx, synthetic_gaussian
from .engine import (
    FederatedData,
    FederationState,
    FLConfig,
    RoundLog,
    init_state,
    run_federation,
    total_rounds,
)
from .evaluation import (
    EvalReport,
    client_models,
    forward_test_sets,
    in_out_class_accuracy,
    initial_accuracy,
    personalized_accuracy,
    template_accuracy,
)
from .layers import ShapeError, conv2d, dense, flatten, infer_shapes, maxpool2d, relu
from .network import INIT_SCHEMES, InitScheme, Network, init_network
from .optim import LRSchedule
from .params import BlobError, ParamVector
from .partition import PartitionError, PartitionSpec, partition, save_splits, split_client_test

log = logging.getLogger("fedsim")

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration (CLI exit code 2)."""


# Every config key: (default, JSON type, rule). The rule is the least value
# (which every item of a list must reach), a tuple of the allowed values, or
# None where the consumer (FLConfig, PartitionSpec) checks the key's range.
# A null passes only where the default is null; an integer also serves as a
# number, and a list of integers as a list.
_SCHEMA = {
    "name": ("experiment", "string", None),
    "out": (None, "string", None),  # null: runs/<name>
    "seed": (0, "integer", 0),
    "dataset": {
        "kind": ("synthetic", "string", ("synthetic", "idx")),
        "classes": (10, "integer", 2),
        "per_class": (100, "integer", 1),
        "test_per_class": (20, "integer", 1),
        "dim": (32, "integer", 1),
        "spread": (1.0, "number", 0),
        "scale": (1.0, "number", 0),
        # idx mode
        "train_images": (None, "string", None),
        "train_labels": (None, "string", None),
        "test_images": (None, "string", None),
        "test_labels": (None, "string", None),
    },
    "network": {
        "kind": ("mlp", "string", ("mlp", "conv2")),
        "hidden": ([64], "list of integers", 1),  # mlp
        "channels": ([8, 16], "list of integers", 1),  # conv2
        "kernel": (3, "integer", 1),
        "padding": (1, "integer", 0),
        "pool": (2, "integer", 1),
    },
    "partition": {
        "mode": ("shard", "string", None),
        "shards_per_client": (2, "integer", None),
        "beta": (0.5, "number", None),
        "test_mode": ("matched", "string", ("matched", "global")),
    },
    "federation": {
        "algorithm": ("fedavg", "string", None),
        "clients": (20, "integer", None),
        "fraction": (0.5, "number", None),
        "local_epochs": (2, "integer", None),
        "rounds": (32, "integer", None),
        "batch_size": (50, "integer", None),
        "base_lr": (0.1, "number", None),
        "momentum": (0.9, "number", None),
        "mu": (0.0, "number", None),
        "lambda": (0.75, "number", None),
        "server_share": (0.0, "number", None),
        "server_update_part": ("full", "string", None),
        "perfedavg_alpha": (0.01, "number", None),
        "init": ("he_uniform", "string", INIT_SCHEMES),
    },
    "eval": {
        "finetune_epochs": ([5], "list of integers", 0),
        "part": ("full", "string", ("body", "head", "full")),
        "lr": (None, "number", 0),  # null: the schedule's terminal rate
        "template": (False, "boolean", None),
    },
}


def _json_kind(value) -> str:
    """The JSON type of a config value; a bool is never an integer, and a
    list counts as one of integers only if every item is one."""
    if isinstance(value, list):
        return "list of integers" if all(_json_kind(v) == "integer" for v in value) else "list"
    kinds = {
        bool: "boolean", type(None): "null", int: "integer", float: "number",
        str: "string", dict: "object",
    }
    return kinds.get(type(value), type(value).__name__)


def _check(dotted: str, value, kind: str, rule=None) -> None:
    """``value`` has JSON type ``kind``, holds no NaN or infinity (which
    Python's json reads), and keeps ``rule``, or a ConfigError names
    ``dotted``."""
    got = _json_kind(value)
    if got != kind and (got, kind) not in (("integer", "number"), ("list of integers", "list")):
        article = "an" if kind[0] in "aeiou" else "a"
        shown = json.dumps(value, default=repr)
        raise ConfigError(f"config key {dotted!r} must be {article} {kind}, not {shown}")
    shown = json.dumps(value)
    items = value if isinstance(value, list) else [value]
    if any(isinstance(v, float) and not math.isfinite(v) for v in items):
        raise ConfigError(f"config key {dotted!r} must be finite, not {shown}")
    if isinstance(rule, tuple):
        if value not in rule:
            raise ConfigError(f"config key {dotted!r} must be one of {', '.join(rule)}, not {shown}")
    elif rule is not None and any(v < rule for v in items):
        raise ConfigError(f"config key {dotted!r} must be at least {rule}, not {shown}")


def _walk(schema: dict, given: dict, path: str = "") -> dict:
    """The full config: each key in ``given`` checked against ``schema``,
    each omitted key at its default."""
    for key in given:
        if key not in schema:
            raise ConfigError(f"unknown config key {path + key!r}")
    out = {}
    for key, entry in schema.items():
        if isinstance(entry, dict):  # a section
            section = given.get(key, {})
            _check(path + key, section, "object")
            out[key] = _walk(entry, section, path + key + ".")
            continue
        default, kind, rule = entry
        value = given.get(key, default)
        if key in given and not (value is None and default is None):
            _check(path + key, value, kind, rule)
        out[key] = copy.deepcopy(value)
    return out


@dataclass
class ExperimentConfig:
    """One experiment, fully described: data, partition, network,
    federation, and evaluation settings plus output directory."""

    raw: dict

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            shown = json.dumps(d, default=repr)
            raise ConfigError(f"a config must be a JSON object, not {shown}")
        raw = _walk(_SCHEMA, d)
        if raw["out"] is None:
            raw["out"] = "runs/" + raw["name"]
        cfg = cls(raw)
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e

    def __getitem__(self, key: str):
        return self.raw[key]

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    @property
    def out_dir(self) -> Path:
        return Path(self.raw["out"])

    def with_overrides(self, seed: int | None = None, out: str | None = None) -> "ExperimentConfig":
        d = dict(self.raw)  # from_dict copies every value
        if seed is not None:
            d["seed"] = seed
        if out is not None:
            d["out"] = out
        return ExperimentConfig.from_dict(d)

    def validate(self) -> None:
        """The checks _SCHEMA leaves to its consumers, run before any data is
        built: FLConfig's and PartitionSpec's errors surface here as
        ConfigError."""
        self.fl_config()
        self.partition_spec()
        if not self.raw["eval"]["finetune_epochs"]:  # a sweep cell would write no row
            raise ConfigError("config key 'eval.finetune_epochs' must list at least one value")

    # hash covers everything that determines the trained model and splits;
    # eval settings are recorded in reports instead. ``with_eval`` adds them,
    # for keys that must change whenever any result would.
    def config_hash(self, with_eval: bool = False) -> str:
        keys = ("seed", "dataset", "network", "partition", "federation")
        payload = {k: self.raw[k] for k in keys + (("eval",) if with_eval else ())}
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def fl_config(self) -> FLConfig:
        """The federation section as an FLConfig: ``init`` belongs to the
        network, and ``lambda`` is spelled ``lam`` in Python."""
        fed = dict(self.raw["federation"])
        del fed["init"]
        fed["lam"] = fed.pop("lambda")
        try:
            return FLConfig(**fed, seed=self.seed)
        except ValueError as e:
            raise ConfigError(str(e)) from e

    def partition_spec(self) -> PartitionSpec:
        p = self.raw["partition"]
        try:
            return PartitionSpec(
                mode=p["mode"],
                clients=self.raw["federation"]["clients"],
                shards_per_client=p["shards_per_client"],
                beta=p["beta"],
                seed=self.seed,
            )
        except PartitionError as e:
            raise ConfigError(str(e)) from e

    def eval_lr(self) -> float:
        ev = self.raw["eval"]
        if ev["lr"] is not None:
            return float(ev["lr"])
        return LRSchedule(self.raw["federation"]["base_lr"]).final_lr


# --- builders ----------------------------------------------------------------


def build_datasets(cfg: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset]:
    ds = cfg["dataset"]
    if ds["kind"] == "synthetic":
        train, test = synthetic_gaussian(
            ds["classes"], (ds["per_class"], ds["test_per_class"]), ds["dim"], ds["spread"],
            seed=cfg.seed, scale=ds["scale"],
        )
        return train, test
    paths = [ds.get(k) for k in ("train_images", "train_labels", "test_images", "test_labels")]
    if any(p is None for p in paths):
        raise ConfigError("idx dataset needs train_images/train_labels/test_images/test_labels")
    try:
        train = load_idx(paths[0], paths[1])
        test = load_idx(paths[2], paths[3])
    except (DatasetError, OSError) as e:  # both messages name the file
        raise ConfigError(f"cannot load idx dataset: {e}") from e
    shapes = ["x".join(map(str, ds.samples.shape[2:])) for ds in (train, test)]  # rows x cols
    if shapes[0] != shapes[1]:
        raise ConfigError(
            f"idx images differ in shape: {paths[0]} holds {shapes[0]}, {paths[2]} holds {shapes[1]}"
        )
    classes = max(train.num_classes, test.num_classes)
    train.num_classes = test.num_classes = classes
    return train, test


def build_splits(cfg: ExperimentConfig, train: LabeledDataset, test: LabeledDataset):
    """Client splits; a partition the data cannot satisfy, or one that leaves
    a client without training data, is a ConfigError."""
    try:
        splits = partition(train, cfg.partition_spec())
        splits = split_client_test(train, test, splits, cfg["partition"]["test_mode"], seed=cfg.seed)
    except PartitionError as e:
        raise ConfigError(str(e)) from e
    empty = [s.client_id for s in splits if len(s.train_indices) == 0]
    if empty:
        raise ConfigError(
            f"partition leaves {len(empty)} of {len(splits)} clients without "
            f"training data: clients {empty}"
        )
    return splits


def build_network(cfg: ExperimentConfig, sample_shape: tuple[int, ...], classes: int) -> Network:
    net = cfg["network"]
    layers: list = []
    if net["kind"] == "mlp":
        in_dim = int(np.prod(sample_shape))
        if len(sample_shape) > 1:
            layers.append(flatten())
        prev = in_dim
        for width in net["hidden"]:
            layers += [dense(prev, width), relu()]
            prev = width
        layers.append(dense(prev, classes))
    else:  # conv2
        if len(sample_shape) != 3:
            raise ConfigError("conv2 network needs (C, H, W) samples")
        prev_ch = sample_shape[0]
        for ch in net["channels"]:
            layers += [conv2d(prev_ch, ch, net["kernel"], net["padding"]), relu(), maxpool2d(net["pool"])]
            prev_ch = ch
        layers.append(flatten())
        try:
            shapes = infer_shapes(tuple(layers), sample_shape)
        except ShapeError as e:
            raise ConfigError(str(e)) from e
        layers.append(dense(shapes[-1][0], classes))
    return init_network(layers, sample_shape, InitScheme(cfg["federation"]["init"], cfg.seed))


def prepare(cfg: ExperimentConfig) -> tuple[FLConfig, FederatedData, Network]:
    """The run's federation settings, data and template network, all built
    afresh on every call."""
    train, test = build_datasets(cfg)
    splits = build_splits(cfg, train, test)
    template = build_network(cfg, train.sample_shape, train.num_classes)
    return cfg.fl_config(), FederatedData(train, test, splits), template


def data_digest(train: LabeledDataset, test: LabeledDataset) -> str:
    """sha256 of the train and test samples and labels, with their types and
    shapes: the data a run trained on, which ``config_hash()`` names only by
    path for IDX files."""
    digest = hashlib.sha256()
    for array in (train.samples, train.labels, test.samples, test.labels):
        digest.update(f"{array.dtype}{array.shape}".encode())
        digest.update(np.ascontiguousarray(array))
    return digest.hexdigest()


# The last config-generated data _run_inputs built, for run_train, run_eval
# or a sweep cell's stored-result check, under its config_hash() (which
# covers every section prepare reads): at most one entry, (data, digest),
# whose arrays are read-only.
_data_memo: dict[str, tuple[FederatedData, str]] = {}


def _rewrap(data: FederatedData) -> FederatedData:
    """New wrappers over ``data``'s arrays, so that a holder that rebinds a
    field leaves every other holder's data as it was."""
    return FederatedData(
        copy.copy(data.train), copy.copy(data.test), [copy.copy(s) for s in data.splits]
    )


def _run_inputs(cfg: ExperimentConfig) -> tuple[FLConfig, FederatedData, Network, str]:
    """``prepare``'s result and the data's digest, for one run. Data
    generated from the config is built and hashed once per process for a
    config hash and then shared read-only; a repeat call gets new wrappers
    over it and a new network. Data read from IDX files is read and hashed
    on every call, as the files can change under one path."""
    key = cfg.config_hash()
    if key in _data_memo:
        shared, digest = _data_memo[key]
        template = build_network(cfg, shared.train.sample_shape, shared.train.num_classes)
        return cfg.fl_config(), _rewrap(shared), template, digest
    fl_cfg, data, template = prepare(cfg)
    digest = data_digest(data.train, data.test)
    if cfg["dataset"]["kind"] == "synthetic":
        arrays = [a for ds in (data.train, data.test) for a in (ds.samples, ds.labels)]
        arrays += [a for s in data.splits for a in (s.train_indices, s.test_indices)]
        for array in arrays:
            array.flags.writeable = False
        _data_memo.clear()
        _data_memo[key] = _rewrap(data), digest
    return fl_cfg, data, template, digest


# --- artifact IO --------------------------------------------------------------


def _write_csv(path: Path, header: list[str], rows, config_hash: str, append: bool = False) -> None:
    """Hash line, header and rows; with ``append``, only the rows go onto
    the existing file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a" if append else "w", newline="") as fh:
        writer = csv.writer(fh)
        if not append:
            fh.write(f"# config_hash={config_hash} schema={SCHEMA_VERSION}\n")
            writer.writerow(header)
        writer.writerows(rows)


def write_round_csv(path: Path, logs: list[RoundLog], config_hash: str, append: bool = False) -> None:
    rows = [
        [rl.round, ";".join(map(str, rl.client_ids)),
         f"{rl.mean_loss:.6f}", f"{rl.lr:g}", f"{rl.wall_time:.4f}"]
        for rl in logs
    ]
    header = ["round", "client_ids", "mean_loss", "lr", "wall_time"]
    _write_csv(path, header, rows, config_hash, append)


def write_eval_report(out_dir: Path, stem: str, report: EvalReport, config_hash: str) -> None:
    rows = [
        [cid, "" if np.isnan(acc) else f"{acc:.6f}"] for cid, acc in enumerate(report.accuracies)
    ]
    _write_csv(out_dir / f"{stem}.csv", ["client_id", "accuracy"], rows, config_hash)
    summary = {
        "config_hash": config_hash,
        "mean": None if np.isnan(report.mean) else report.mean,
        "std": None if np.isnan(report.std) else report.std,
        "finetune_epochs": report.finetune_epochs,
        "part": report.part,
        "clients": len(report.accuracies),
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(summary, indent=2, sort_keys=True))


def save_checkpoint(
    out_dir: Path, state: FederationState, cfg: ExperimentConfig, digest: str
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "checkpoint.pv").write_bytes(state.global_params.to_blob())
    for cid, params in sorted(state.client_params.items()):
        (out_dir / f"client_{cid:04d}.pv").write_bytes(params.to_blob())
    sidecar = {
        "round": state.round,
        "seed": cfg.seed,
        "config_hash": cfg.config_hash(),
        "data_digest": digest,
        "algorithm": cfg["federation"]["algorithm"],
        "persistent_clients": sorted(state.client_params),
        "schema": SCHEMA_VERSION,
    }
    (out_dir / "checkpoint.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True))
    # the directory holds this state's client blobs only, as a retrain into
    # it under another algorithm would otherwise leave the last run's behind
    kept = {f"client_{cid:04d}.pv" for cid in state.client_params}
    for stale in out_dir.glob("client_*.pv"):
        if stale.name not in kept:
            stale.unlink()


def _load_params(path: Path, template: Network) -> ParamVector:
    """A parameter blob in the template's segmentation. A file that is
    missing, short, garbage or of another topology is a ConfigError naming it."""
    try:
        params = ParamVector.from_blob(path.read_bytes())
    except (OSError, BlobError) as e:
        raise ConfigError(f"cannot load {path}: {e}") from e
    if params.bounds != template.params.bounds:
        raise ConfigError(f"{path}: topology does not match the configured network")
    return params


def load_checkpoint(out_dir: Path, template: Network) -> tuple[FederationState, dict]:
    sidecar_path = out_dir / "checkpoint.json"
    if not sidecar_path.exists():
        raise ConfigError(f"no checkpoint at {out_dir}")
    try:
        sidecar = json.loads(sidecar_path.read_text())
    except (OSError, ValueError) as e:  # unreadable, not UTF-8, or not JSON
        raise ConfigError(f"cannot load {sidecar_path}: {e}") from e
    if not (
        isinstance(sidecar, dict)
        and type(sidecar.get("round")) is int
        and isinstance(sidecar.get("config_hash"), str)
        and isinstance(sidecar.get("persistent_clients"), list)
        and all(type(cid) is int for cid in sidecar["persistent_clients"])
    ):
        raise ConfigError(
            f"{sidecar_path}: not a checkpoint sidecar (needs an object with an "
            "int 'round', a str 'config_hash' and a list of int 'persistent_clients')"
        )
    state = init_state(template)
    state.global_params = _load_params(out_dir / "checkpoint.pv", template)
    state.round = sidecar["round"]
    for cid in sidecar["persistent_clients"]:
        state.client_params[cid] = _load_params(out_dir / f"client_{cid:04d}.pv", template)
    return state, sidecar


def _checked_checkpoint(
    cfg: ExperimentConfig, ckpt_dir: Path, template: Network, digest: str
) -> FederationState:
    """The checkpoint in ``ckpt_dir``, checked against ``cfg`` and the data
    digest ``digest`` before any training or evaluation starts: trained
    under the same config hash, on the same data, at a round in
    [0, total_rounds]. Each failure is a ConfigError; a sidecar that
    records no digest (an older run) loads with a warning."""
    state, sidecar = load_checkpoint(ckpt_dir, template)
    chash = sidecar["config_hash"]
    if chash != cfg.config_hash():
        raise ConfigError(
            "checkpoint was trained under a different config "
            f"(hash {chash} vs {cfg.config_hash()})"
        )
    if "data_digest" not in sidecar:
        log.warning("%s records no data digest; its data is not checked", ckpt_dir)
    elif sidecar["data_digest"] != digest:
        raise ConfigError(
            f"checkpoint was trained on other data (data digest {sidecar['data_digest']} "
            f"vs {digest})"
        )
    last = total_rounds(cfg.fl_config())
    if not 0 <= state.round <= last:
        raise ConfigError(
            f"{ckpt_dir / 'checkpoint.json'}: round {state.round} is outside [0, {last}]"
        )
    return state


def _check_round_log(path: Path, round_: int) -> None:
    """``rounds.csv`` ends at the checkpoint's round ``round_`` (a header
    only at round 0), so a resume neither repeats nor drops a round: rounds
    are logged before the checkpoint is saved. A missing file or another
    last round is a ConfigError naming it."""
    try:
        rows = path.read_text().splitlines()[2:]
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    last = rows[-1].split(",", 1)[0] if rows else "0"
    if last != str(round_):
        raise ConfigError(f"{path}: last round {last} is not the checkpoint's round {round_}")


# --- drivers -------------------------------------------------------------------


def make_out_dir(path: Path) -> Path:
    """``path``, created with its parents before any work is done; one that
    cannot be created is a ConfigError naming it."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {path}: {e}") from e
    return path


def run_train(
    cfg: ExperimentConfig,
    resume: bool = False,
    stop_after: int | None = None,
) -> FederationState:
    out = make_out_dir(cfg.out_dir)
    fl_cfg, data, template, digest = _run_inputs(cfg)
    state = None
    append = False
    if resume:
        state = _checked_checkpoint(cfg, out, template, digest)
        if stop_after is not None and stop_after < state.round:
            raise ConfigError(
                f"--stop-after {stop_after} is below the checkpoint's round {state.round}"
            )
        _check_round_log(out / "rounds.csv", state.round)
        append = True
        log.info("resuming from round %d", state.round)
    state, logs = run_federation(
        fl_cfg, data, template, state=state, until_round=stop_after
    )
    write_round_csv(out / "rounds.csv", logs, cfg.config_hash(), append=append)
    save_checkpoint(out, state, cfg, digest)
    return state


def run_partition(cfg: ExperimentConfig) -> None:
    out = make_out_dir(cfg.out_dir)
    train, test = build_datasets(cfg)
    splits = build_splits(cfg, train, test)
    save_splits(splits, out / "splits.json")
    meta = {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "mode": cfg["partition"]["mode"],
        "clients": cfg["federation"]["clients"],
        "schema": SCHEMA_VERSION,
    }
    (out / "partition_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    classes = train.num_classes
    rows = []
    for s in splits:
        counts = np.bincount(train.labels[s.train_indices], minlength=classes)
        rows.append([s.client_id, *counts.tolist()])
    _write_csv(
        out / "label_histogram.csv",
        ["client_id", *[f"class_{c}" for c in range(classes)]],
        rows,
        cfg.config_hash(),
    )


def run_eval(cfg: ExperimentConfig, checkpoint_dir: Path | None = None) -> dict[str, EvalReport]:
    out = make_out_dir(cfg.out_dir / "eval")
    fl_cfg, data, template, digest = _run_inputs(cfg)
    state = _checked_checkpoint(cfg, checkpoint_dir or cfg.out_dir, template, digest)
    chash = cfg.config_hash()
    alg = get_algorithm(cfg["federation"]["algorithm"])
    models = client_models(state, template, alg, fl_cfg.clients)
    ev = cfg["eval"]
    lr = cfg.eval_lr()
    rule = "sequential_head_then_body" if alg.local_rule == "sequential_head_then_body" else "joint"

    reports: dict[str, EvalReport] = {}
    test = list(forward_test_sets(models, template, data))
    reports["initial"] = initial_accuracy(models, template, data, test)
    personalized = personalized_accuracy(
        models, template, data, ev["part"], ev["finetune_epochs"], lr, cfg.seed,
        fl_cfg.batch_size, fl_cfg.momentum, rule, initial=reports["initial"],
    )
    for rep in personalized:
        reports[f"personalized_tf{rep.finetune_epochs}"] = rep
    if ev["template"]:
        reports["template"] = template_accuracy(models, template, data, test)
    if cfg["partition"]["test_mode"] == "global":  # the one mode with out-of-class samples
        reports["in_class"], reports["out_class"] = in_out_class_accuracy(models, template, data, test)
    # the directory holds this evaluation's reports only: every report
    # carries the same training hash, which leaves out the eval section
    for stale in [*out.glob("*.csv"), *out.glob("*.json")]:
        if stale.stem not in reports:
            stale.unlink()
    for stem, rep in reports.items():
        write_eval_report(out, stem, rep, chash)
    return reports
